"""Ground-truth checks for the benchmark's outputs, independent of sffuse.

Each ``check_*`` function takes what one op produced, as plain data (text,
bytes, numpy arrays), and what the generator says it must be, and returns a
list of human-readable misses. An empty list means the op was correct. The
rules restated here come from the toolkit's documented behaviour, not from
its code: the PEM decision table, the stage-2 reward weights, the three
asymmetric blocking rules, the RLE layout and the GRPO formulas.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

ROLES = ("video_input", "audio_input", "visual_reasoning", "audio_reasoning",
         "visual_span", "summary_span")

# Solvable flags for the (A, V, AV) probe settings -> decision.
DECISIONS = {
    (True, False, True): "label:Audio",
    (False, True, True): "label:Visual",
    (False, False, True): "label:Audio-Visual",
    (True, True, True): "discard:TriviallyEasy",
    (False, False, False): "discard:Unsolvable",
    (True, True, False): "discard:Contradictory",
    (True, False, False): "discard:Contradictory",
    (False, True, False): "discard:Contradictory",
}
LABELS = ("Audio", "Visual", "Audio-Visual")
DISCARDS = ("TriviallyEasy", "Ambiguous", "Contradictory", "Unsolvable")
MALFORMED_KINDS = ("MissingTag", "UnclosedTag", "DuplicateTag", "OutOfOrder",
                   "NestedTag", "UnknownPemValue", "StrayContent")
LAMBDA_ACC, LAMBDA_MPS = 1.0, 0.2
CLIP_ALPHA, KL_BETA, EPS_STAB = 0.2, 0.01, 1e-8
SETTINGS = ("A", "V", "AV")


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _json(text: str, what: str, misses: list[str]):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        misses.append(f"{what} is not JSON: {text[:80]!r}")
        return None


# --- annotate ----------------------------------------------------------------

def check_annotate(expected: dict, instances: list[dict], out: dict) -> list[str]:
    """``out`` holds exit, stdout, labeled (JSONL text) and stats (JSON text)."""
    misses: list[str] = []
    decisions = {iid: DECISIONS[tuple(flags)] for iid, flags in expected.items()}
    labeled_ids = sorted(i for i, d in decisions.items() if d.startswith("label:"))
    want_exit = 0 if labeled_ids else 1
    if out["exit"] != want_exit:
        misses.append(f"exit code {out['exit']}, expected {want_exit}")
    by_id = {row["id"]: row for row in instances}
    rows = [json.loads(line) for line in out["labeled"].splitlines() if line]
    if [r.get("id") for r in rows] != labeled_ids:
        misses.append(f"labeled ids {[r.get('id') for r in rows]} != {labeled_ids}")
    for row in rows:
        iid = row.get("id")
        if iid not in decisions:
            continue
        source = by_id[iid]
        if f"label:{row.get('pem')}" != decisions[iid]:
            misses.append(f"{iid}: pem {row.get('pem')!r}, expected {decisions[iid]}")
        for field in ("question", "gold_answer", "media"):
            if row.get(field) != source[field]:
                misses.append(f"{iid}: {field} not carried over")
        if row.get("choices") != source.get("choices"):
            misses.append(f"{iid}: choices not carried over")
        if not isinstance(row.get("cot"), str) or not row["cot"]:
            misses.append(f"{iid}: empty cot")
        for setting, flag in zip(SETTINGS, expected[iid]):
            evidence = row.get("evidence", {}).get(setting, {})
            if evidence.get("solvable") is not flag:
                misses.append(f"{iid}/{setting}: solvable {evidence.get('solvable')}, "
                              f"expected {flag}")
            if evidence.get("accuracy_rate") != (1.0 if flag else 0.0):
                misses.append(f"{iid}/{setting}: accuracy {evidence.get('accuracy_rate')}")
    stats = _json(out["stats"], "stats report", misses)
    if stats is not None:
        label_counts = {label: 0 for label in LABELS}
        discard_counts = {reason: 0 for reason in DISCARDS}
        for decision in decisions.values():
            kind, name = decision.split(":")
            (label_counts if kind == "label" else discard_counts)[name] += 1
        want = {"total": len(decisions), "labeled": len(labeled_ids),
                "discarded": len(decisions) - len(labeled_ids), "failed": 0,
                "label_counts": label_counts, "discard_counts": discard_counts,
                "failures": []}
        if stats != want:
            misses.append(f"stats report {stats} != {want}")
    summary = _json(out["stdout"], "annotate summary", misses)
    if summary is not None and (summary.get("labeled"), summary.get("failed")) != (
            len(labeled_ids), 0):
        misses.append(f"summary {summary}")
    return misses


# --- rl_step -----------------------------------------------------------------

def grpo_expected(group: dict) -> dict:
    """Clipped group-relative surrogate minus the KL penalty, in plain floats."""
    rewards = group["rewards"]
    g = len(rewards)
    mean = math.fsum(rewards) / g
    if all(r == rewards[0] for r in rewards):
        advantages = [0.0] * g
    else:
        var = math.fsum((r - mean) ** 2 for r in rewards) / g
        advantages = [(r - mean) / math.sqrt(var + EPS_STAB) for r in rewards]
    ratios = [math.exp(n - o) for n, o in zip(group["logp_new"], group["logp_old"])]
    terms = [min(rho * a, min(max(rho, 1 - CLIP_ALPHA), 1 + CLIP_ALPHA) * a)
             for rho, a in zip(ratios, advantages)]
    deltas = [ref - new for ref, new in zip(group["logp_ref"], group["logp_new"])]
    kl = math.fsum(math.exp(d) - d - 1.0 for d in deltas) / g
    return {"group_id": group["group_id"], "advantages": advantages, "ratios": ratios,
            "surrogate_terms": terms, "kl": kl,
            "objective": math.fsum(terms) / g - KL_BETA * kl}


def check_rl_step(expected: dict, groups: list[dict], out: dict) -> list[str]:
    """``out`` holds the exit codes and stdout of validate and grpo-step and
    the scored JSONL text written by validate."""
    misses: list[str] = []
    if (out["validate_exit"], out["grpo_exit"]) != (0, 0):
        misses.append(f"exit codes {out['validate_exit']}, {out['grpo_exit']}")
    rows = [json.loads(line) for line in out["scored"].splitlines() if line]
    if [r.get("id") for r in rows] != sorted(expected):
        misses.append("scored ids differ from the trace ids")
    stage2 = []
    for row in rows:
        want = expected.get(row.get("id"))
        if want is None:
            continue
        r2 = LAMBDA_ACC * want["r_acc"] + LAMBDA_MPS * want["r_mps"]
        stage2.append(r2)
        got_kinds = [d.get("kind") for d in row.get("diagnostics", [])]
        if (row.get("r_mps"), row.get("r_acc")) != (want["r_mps"], want["r_acc"]):
            misses.append(f"{row['id']} ({want['kind']}): rewards "
                          f"{row.get('r_mps')}, {row.get('r_acc')}")
        if not isinstance(row.get("r_stage2"), float) or not _close(row["r_stage2"], r2, 1e-12):
            misses.append(f"{row['id']} ({want['kind']}): r_stage2 {row.get('r_stage2')} != {r2}")
        if got_kinds != want["kinds"]:
            misses.append(f"{row['id']}: diagnostics {got_kinds} != {want['kinds']}")
    summary = _json(out["validate_stdout"], "validate summary", misses)
    if summary is not None and stage2:
        if summary.get("count") != len(expected):
            misses.append(f"validate count {summary.get('count')}")
        elif not _close(summary.get("mean_stage2", math.nan), math.fsum(stage2) / len(stage2),
                        1e-12):
            misses.append(f"mean_stage2 {summary.get('mean_stage2')}")
    result = _json(out["grpo_stdout"], "grpo-step output", misses)
    got = result.get("groups", []) if isinstance(result, dict) else []
    if len(got) != len(groups):
        misses.append(f"grpo-step returned {len(got)} groups, expected {len(groups)}")
    for have, group in zip(got, groups):
        want = grpo_expected(group)
        if have.get("group_id") != want["group_id"]:
            misses.append(f"group id {have.get('group_id')} != {want['group_id']}")
            continue
        for key in ("objective", "kl"):
            if not _close(have.get(key, math.nan), want[key], 1e-9):
                misses.append(f"{want['group_id']}: {key} {have.get(key)} != {want[key]}")
        for key in ("advantages", "ratios", "surrogate_terms"):
            values = have.get(key, [])
            if len(values) != len(want[key]) or not all(
                    _close(a, b, 1e-9) for a, b in zip(values, want[key])):
                misses.append(f"{want['group_id']}: {key} differ")
    return misses


# --- mask --------------------------------------------------------------------

def spec_roles(spec: dict) -> dict[str, list[int]]:
    """Sorted positions of each role of a ``{role: [[first, last], ...]}`` spec."""
    roles = {}
    for role in ROLES:
        positions = set()
        for first, last in spec.get(role, []):
            positions.update(range(first, last + 1))
        roles[role] = sorted(positions)
    return roles


def mask_from_spec(spec: dict) -> np.ndarray:
    """The composite visibility matrix, one rule at a time: causal, then
    visual-reasoning queries lose audio inputs, then audio-reasoning queries
    lose video inputs and the whole visual span."""
    length = spec["length"]
    roles = spec_roles(spec)
    visible = np.tri(length, dtype=bool)
    rules = (("visual_reasoning", "audio_input"), ("audio_reasoning", "video_input"),
             ("audio_reasoning", "visual_span"))
    for queries, keys in rules:
        if roles[queries] and roles[keys]:
            visible[np.ix_(roles[queries], roles[keys])] = False
    return visible


def blocked_fraction(visible: np.ndarray) -> float:
    """Share of causally visible cells that the asymmetric rules block."""
    length = visible.shape[0]
    causal = length * (length + 1) // 2
    return (causal - int(np.count_nonzero(visible))) / causal


def blocked_tile_fraction(visible: np.ndarray, tile: int = 64) -> float:
    """Share of tile x tile blocks with no visible cell (sizes divisible by tile)."""
    n = visible.shape[0] // tile
    tiles = visible[:n * tile, :n * tile].reshape(n, tile, n, tile).any(axis=(1, 3))
    return float(np.count_nonzero(~tiles)) / (n * n)


def parse_mask_text(text: str, length: int) -> np.ndarray | None:
    """Dense 0/1 grid, one newline-terminated row per query; None if malformed."""
    lines = text.split("\n")
    if len(lines) != length + 1 or lines[-1] != "" or any(len(x) != length for x in lines[:-1]):
        return None
    cells = np.frombuffer("".join(lines[:-1]).encode("ascii"), dtype=np.uint8)
    if not np.isin(cells, (ord("0"), ord("1"))).all():
        return None
    return (cells == ord("1")).reshape(length, length)


def decode_rle(blob: bytes) -> np.ndarray | None:
    """``MRL1``, then little-endian u32 length, u8 first bit, u32 run count,
    then that many u32 runs alternating from the first bit over the
    row-major grid. Runs must be positive and cover the grid exactly."""
    header = struct.calcsize("<4sIBI")
    if len(blob) < header:
        return None
    magic, length, first_bit, n_runs = struct.unpack_from("<4sIBI", blob)
    if magic != b"MRL1" or len(blob) != header + 4 * n_runs or first_bit not in (0, 1):
        return None
    runs = np.frombuffer(blob, dtype="<u4", count=n_runs, offset=header).astype(np.int64)
    if (runs == 0).any() or runs.sum() != length * length:
        return None
    bits = (np.arange(n_runs) % 2 == 0) == bool(first_bit)
    return np.repeat(bits, runs).reshape(length, length)


def check_mask(spec: dict, out: dict) -> list[str]:
    """``out`` holds exit, stdout, text, rle, the arrays read back by
    ``mask_from_rle`` and ``mask_from_text``, the located roles and the
    decoded rows."""
    misses: list[str] = []
    want = mask_from_spec(spec)
    length = spec["length"]
    if (out["exit"], out["stdout"]) != (0, ""):
        misses.append(f"mask job exit {out['exit']}, stdout {out['stdout'][:80]!r}")
    for name, got in (("text export", parse_mask_text(out["text"], length)),
                      ("rle export", decode_rle(out["rle"])),
                      ("mask_from_rle", out["from_rle"]), ("mask_from_text", out["from_text"])):
        if got is None or got.shape != want.shape:
            misses.append(f"{name}: malformed")
        elif not np.array_equal(got, want):
            misses.append(f"{name}: {int(np.count_nonzero(got != want))} cells differ")
    roles = spec_roles(spec)
    for role in ROLES:
        if out["located"].get(role) != roles[role]:
            misses.append(f"locate_layout: {role} differs from the spec")
    rows = out["rows"]
    if len(rows) != length:
        misses.append(f"{len(rows)} decoded rows for length {length}")
    bad = [i for i, row in enumerate(rows) if not np.array_equal(row, want[i, :i + 1])]
    if bad:
        misses.append(f"incremental_row differs on {len(bad)} rows, first {bad[0]}")
    return misses


# --- attention ---------------------------------------------------------------

def allocation(layers, roles: dict, last_k: int) -> dict:
    """Mass from the summary rows into the audio vs. visual reasoning columns,
    per layer over the last ``last_k`` layers and in total, each normalized."""
    rows = roles["summary_span"]
    per_layer, audio_total, visual_total = [], 0.0, 0.0
    for matrix in layers[-last_k:]:
        audio = float(matrix[np.ix_(rows, roles["audio_reasoning"])].sum())
        visual = float(matrix[np.ix_(rows, roles["visual_reasoning"])].sum())
        audio_total += audio
        visual_total += visual
        total = audio + visual
        per_layer.append([audio / total, visual / total] if total > 0 else None)
    total = audio_total + visual_total
    return {"window": last_k, "audio_fraction": audio_total / total,
            "visual_fraction": visual_total / total, "per_layer": per_layer}


def _allocation_misses(got: dict, want: dict, what: str) -> list[str]:
    if got.get("window") != want["window"]:
        return [f"{what}: window {got.get('window')} != {want['window']}"]
    misses = [f"{what}: {key} {got.get(key)} != {want[key]}"
              for key in ("audio_fraction", "visual_fraction")
              if not _close(got.get(key, math.nan), want[key], 1e-12)]
    pairs = got.get("per_layer", [])
    if len(pairs) != len(want["per_layer"]) or any(
            (a is None) != (b is None) or (a is not None and not all(
                _close(x, y, 1e-12) for x, y in zip(a, b)))
            for a, b in zip(pairs, want["per_layer"])):
        misses.append(f"{what}: per-layer fractions differ")
    return misses


def check_attention(spec: dict, report_expected: dict, out: dict) -> list[str]:
    """``out`` holds per head (weights, output, d_q, d_k, d_v), the allocation
    over the heads as layers, and exit/stdout of attn-report and both
    leakage probes."""
    misses: list[str] = []
    visible = mask_from_spec(spec)
    for h, (weights, output, d_q, d_k, d_v) in enumerate(out["heads"]):
        if weights.shape != visible.shape:
            misses.append(f"head {h}: weights shape {weights.shape}")
            continue
        if np.count_nonzero(weights[~visible]):
            misses.append(f"head {h}: {int(np.count_nonzero(weights[~visible]))} blocked "
                          f"weights are not exactly 0")
        if not np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12):
            misses.append(f"head {h}: rows do not sum to 1 within 1e-12")
        if not all(np.isfinite(a).all() for a in (output, d_q, d_k, d_v)):
            misses.append(f"head {h}: non-finite output or gradient")
            continue
        # With an all-ones upstream, dV rows are the weight column sums, and
        # shifting every key by one vector leaves the loss unchanged, so dK
        # sums to zero over keys.
        if not np.allclose(d_v, weights.sum(axis=0)[:, None], rtol=1e-9, atol=1e-9):
            misses.append(f"head {h}: d_v is not the weight column sums")
        if np.abs(d_k.sum(axis=0)).max() > 1e-8 * (1.0 + np.abs(d_k).sum(axis=0).max()):
            misses.append(f"head {h}: d_k does not sum to zero over keys")
    if not misses:
        want = allocation([w for w, *_ in out["heads"]], spec_roles(spec), len(out["heads"]))
        misses += _allocation_misses(out["allocation"], want, "attention_allocation")
    if out["report_exit"] != 0:
        misses.append(f"attn-report exit {out['report_exit']}")
    report = _json(out["report_stdout"], "attn-report output", misses)
    if isinstance(report, dict):
        misses += _allocation_misses(report, report_expected, "attn-report")
    for (code, stdout), use_maam in zip(out["leakage"], (True, False)):
        probe = _json(stdout, "leakage output", misses)
        if code != 0 or not isinstance(probe, dict) or probe.get("use_maam") is not use_maam:
            misses.append(f"leakage (mask={use_maam}): exit {code}, output {stdout[:80]!r}")
        elif use_maam and (probe["direct_leakage"], probe["blocked_pair_mass"]) != (0.0, 0.0):
            misses.append(f"leakage with the mask is {probe['direct_leakage']}, not exactly 0")
        elif not use_maam and not probe["direct_leakage"] > 0.0:
            misses.append(f"leakage without the mask is {probe['direct_leakage']}, not > 0")
    return misses
