"""Single command-line entry point wiring all modules.

Subcommands are thin argument-parsing shells over the library operations;
their outputs are bit-identical to direct module calls. Every data file is
JSONL, written with sorted keys so fixed inputs and a fixed seed give
byte-identical outputs regardless of parallelism. A subcommand returns None
or raises; a failed one prints nothing on stdout but ``annotate``'s summary
of its written outputs. ``main`` alone writes to stderr and picks the exit
status: an ``OSError``, ``ValueError`` (every typed failure of the package is
one) or ``MemoryError`` is one ``error:`` line and exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict, replace

from . import attention_core, mask_engine, pem_pipeline, rl_core, tag_grammar
from .config import DEFAULT_ALLOCATION_WINDOW, GrpoConfig, load_config
from .jsonl import check_unique, dumps, read_records, str_fields, write_files, write_records
from .normalize import check_gold_answer


# --- annotate ---------------------------------------------------------------

def cmd_annotate(args: argparse.Namespace) -> None:
    pipeline_cfg = load_config(args.config).pipeline
    if args.parallelism is not None:
        pipeline_cfg = replace(pipeline_cfg, parallelism=args.parallelism)
    dataset = pem_pipeline.read_instances(args.input)

    if args.mock:
        sampler = pem_pipeline.MockCotSampler()
        embedder = pem_pipeline.HashEmbedder()
    else:
        try:
            sampler = pem_pipeline.HttpSampler(
                pipeline_cfg.endpoint, token=os.environ.get(pipeline_cfg.endpoint.auth_env))
            embedder = pem_pipeline.HttpEmbedder(
                pipeline_cfg.embedder_endpoint,
                token=os.environ.get(pipeline_cfg.embedder_endpoint.auth_env))
        except ValueError as exc:
            raise ValueError(f"{exc} (use --mock for offline runs)") from None

    result = pem_pipeline.annotate(dataset, sampler, embedder, pipeline_cfg)
    report_path = args.report or f"{args.out}.stats.json"
    outputs = [(args.out, result.labeled), (report_path, [asdict(result.stats)])]
    if args.records:
        outputs.append((args.records, (r.to_dict() for r in result.records)))
    pem_pipeline.write_jsonl(*outputs)  # all opened before the first is written

    summary = {
        "labeled": result.stats.labeled,
        "discarded": result.stats.discarded,
        "failed": result.stats.failed,
        "out": str(args.out),
        "report": str(report_path),
    }
    print(dumps(summary) if args.json else
          f"labeled {result.stats.labeled} / {result.stats.total} instances "
          f"({result.stats.discarded} discarded, {result.stats.failed} failed) -> {args.out}")
    if result.stats.failed:
        raise ValueError(f"{result.stats.failed} of {result.stats.total} instances failed")
    if result.stats.labeled == 0:
        raise ValueError("no instance was labeled")


# --- validate ----------------------------------------------------------------

def _label_record(obj: dict, _lineno: int) -> tuple[str, tag_grammar.PemLabel, str]:
    record_id, pem_text, answer = str_fields(obj, "id", "pem", "answer")
    pem = tag_grammar.PemLabel.from_text(pem_text)
    if pem is None:
        raise ValueError(f"unknown PEM value {pem_text!r}")
    check_gold_answer(answer, "answer")
    return record_id, pem, answer


def cmd_validate(args: argparse.Namespace) -> None:
    cfg = load_config(args.config)
    traces = tag_grammar.read_trace_records(args.traces)
    labels = read_records(args.labels, _label_record)

    check_unique("trace", [record_id for record_id, _ in traces])
    check_unique("label", [record_id for record_id, _, _ in labels])
    labels_by_id = {record_id: (pem, answer) for record_id, pem, answer in labels}
    trace_ids = {record_id for record_id, _ in traces}
    if trace_ids != set(labels_by_id):
        missing = sorted(trace_ids ^ set(labels_by_id))
        raise ValueError(f"id mismatch between traces and labels: {missing}")
    if not traces:
        raise ValueError("no traces to score")

    rows = []
    for record_id, text in sorted(traces):
        gold_pem, answer = labels_by_id[record_id]
        score = rl_core.score_trace(text, gold_pem, answer, cfg.rewards)
        rows.append({
            "id": record_id,
            "r_mps": score.r_mps,
            "r_acc": score.r_acc,
            "r_stage2": score.r_stage2,
            "diagnostics": [d.to_dict() for d in score.diagnostics],
        })

    count = len(rows)
    summary = {
        "count": count,
        "mean_mps": sum(r["r_mps"] for r in rows) / count,
        "mean_acc": sum(r["r_acc"] for r in rows) / count,
        "mean_stage2": sum(r["r_stage2"] for r in rows) / count,
    }
    # An infinite row makes the mean infinite too, so this one check covers
    # every row; nothing is written when it fails.
    if not math.isfinite(summary["mean_stage2"]):
        raise ValueError("mean_stage2 overflows: reward weights are too large")
    if args.out:
        write_records((args.out, rows))
    print(dumps(summary) if args.json else
          f"{count} traces: mean_mps={summary['mean_mps']:.4f} "
          f"mean_acc={summary['mean_acc']:.4f} mean_stage2={summary['mean_stage2']:.4f}")


# --- mask ---------------------------------------------------------------------

def cmd_mask(args: argparse.Namespace) -> None:
    layout = mask_engine.load_layout_spec(args.spec)
    if args.row is not None and not 0 <= args.row < layout.length:
        raise ValueError(f"row {args.row} out of range [0, {layout.length})")
    if args.out or args.rle or args.row is None:
        mask = mask_engine.build_composite(layout)
        outputs = []
        if args.out:
            outputs.append((args.out, [mask_engine.text_grid(mask.visible)]))
        if args.rle:
            outputs.append((args.rle, [mask_engine.mask_to_rle(mask)]))
        write_files(*outputs)
        if args.row is None and not outputs:
            sys.stdout.write(mask_engine.mask_to_text(mask))
    if args.row is not None:  # last, so a run that fails prints nothing
        row = mask_engine.incremental_row(layout, args.row)
        sys.stdout.write(str(mask_engine.text_grid(row[None]), "ascii"))


# --- grpo-step ------------------------------------------------------------------

def cmd_grpo_step(args: argparse.Namespace) -> None:
    cfg = GrpoConfig(clip_alpha=args.alpha, kl_beta=args.beta, eps_stab=args.eps)
    groups = rl_core.read_rollout_groups(args.rollouts)
    if not groups:
        raise ValueError("rollout file contains no groups")
    check_unique("group", [group_id for group_id, _ in groups])

    try:
        outcomes = rl_core.grpo_objectives([group for _, group in groups], cfg)
    except rl_core.GroupError as exc:
        raise ValueError(f"group {groups[exc.index][0]}: {exc}") from None
    results = [{
        "group_id": group_id,
        "objective": outcome.objective,
        "advantages": list(outcome.advantages),
        "ratios": list(outcome.ratios),
        "surrogate_terms": list(outcome.surrogate_terms),
        "kl": outcome.kl,
    } for (group_id, _), outcome in zip(groups, outcomes)]
    if args.json:
        print(dumps({"groups": results}))
    else:
        for row in results:
            print(f"group {row['group_id']}: objective={row['objective']:.6f} "
                  f"kl={row['kl']:.6f}")
            print(f"  advantages      = {row['advantages']}")
            print(f"  ratios          = {row['ratios']}")
            print(f"  surrogate_terms = {row['surrogate_terms']}")


# --- attn-report -----------------------------------------------------------------

def cmd_attn_report(args: argparse.Namespace) -> None:
    layout = mask_engine.load_layout_spec(args.spec)
    layers = attention_core.read_weights_jsonl(args.weights)
    if not layers:
        raise ValueError("weights file contains no layers")
    report = attention_core.attention_allocation(
        layers, layout, last_k=min(args.last_k, len(layers)))
    if args.json:
        print(dumps(asdict(report)))
    else:
        print(f"last {report.window} layers: audio={report.audio_fraction:.4f} "
              f"visual={report.visual_fraction:.4f}")
        for idx, pair in enumerate(report.per_layer):
            if pair is None:
                print(f"  layer[-{report.window - idx}]: no span mass")
            else:
                print(f"  layer[-{report.window - idx}]: audio={pair[0]:.4f} "
                      f"visual={pair[1]:.4f}")


# --- leakage ---------------------------------------------------------------------

def cmd_leakage(args: argparse.Namespace) -> None:
    report = attention_core.leakage_probe(args.seed, use_maam=not args.no_maam)
    if args.json:
        print(dumps(asdict(report)))
    else:
        mode = "with asymmetric mask" if report.use_maam else "causal only"
        print(f"seed {report.seed} ({mode}): direct_leakage={report.direct_leakage} "
              f"blocked_pair_mass={report.blocked_pair_mass}")


# --- parser ------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; callers only parse with it."""
    parser = argparse.ArgumentParser(
        prog="sffuse",
        description="Separate-then-fuse reasoning toolkit: annotation, trace "
                    "scoring, attention masks, GRPO, and leakage probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="run the PEM annotation pipeline")
    p.add_argument("--in", dest="input", required=True, help="instances JSONL")
    p.add_argument("--out", required=True, help="labeled output JSONL")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--mock", action="store_true",
                   help="use the deterministic offline sampler/embedder")
    p.add_argument("--report", help="stats report path (default: OUT.stats.json)")
    p.add_argument("--records", help="also write every solvability record here")
    p.add_argument("--parallelism", type=int, help="override the parallelism bound")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("validate", help="score traces with the verifiable rewards")
    p.add_argument("--traces", required=True, help="JSONL of {id, text}")
    p.add_argument("--labels", required=True, help="JSONL of {id, pem, answer}")
    p.add_argument("--out", help="scored output JSONL")
    p.add_argument("--config", help="JSON config file (reward weights)")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mask", help="build the composed causal+asymmetric mask")
    p.add_argument("--spec", required=True, help="layout spec JSON")
    p.add_argument("--out", help="write dense 0/1 text grid here")
    p.add_argument("--rle", help="write compact run-length binary record here")
    p.add_argument("--row", type=int, help="print one incrementally-decoded row")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("grpo-step", help="advantages and clipped objective per group")
    p.add_argument("--rollouts", required=True, help="rollout groups JSONL")
    grpo = GrpoConfig()
    p.add_argument("--alpha", type=float, default=grpo.clip_alpha, help="clip range")
    p.add_argument("--beta", type=float, default=grpo.kl_beta, help="KL coefficient")
    p.add_argument("--eps", type=float, default=grpo.eps_stab, help="stability constant")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_grpo_step)

    p = sub.add_parser("attn-report", help="audio/visual attention allocation")
    p.add_argument("--weights", required=True, help="per-layer weights JSONL")
    p.add_argument("--spec", required=True, help="layout spec JSON")
    p.add_argument("--last-k", type=int, default=DEFAULT_ALLOCATION_WINDOW,
                   dest="last_k",
                   help="layer window (default %(default)s, clamped to the layer count)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_attn_report)

    p = sub.add_parser("leakage", help="synthetic direct-leakage probe")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--no-maam", action="store_true", dest="no_maam",
                   help="measure the causal-only stack")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_leakage)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except (OSError, ValueError) as exc:
        message = str(exc)
    except MemoryError as exc:  # an input too large for this process
        message = str(exc) or "out of memory"
    # One line even when the message quotes a line break from an input.
    print("error:", " ".join(message.splitlines()), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
