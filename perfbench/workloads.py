"""The timed op of each workload, and how its outputs reach the oracle.

An op is split in three: ``prepare`` (untimed: read what the oracle needs,
clear old outputs, draw attention inputs), ``run`` (timed: only calls into
the program's entry points) and ``check`` (untimed: gather every byte the
program wrote, compare with the ground truth, report facts for the traced
run). All paths are relative to the run directory, so the bytes the program
prints do not depend on where the checkout lives.

The program modules are imported by the worker before this module, and
every call goes through a module attribute, so the tracer's wrappers are
seen when it is installed.

Each workload also has a reference kernel: a millisecond or two of fixed
benchmark code doing the same kind of work as its op (hashing, small vectors
and JSON; tag scanning; a Python loop over mask cells), with no program code
in it. The worker times it before every op to follow the speed of the
shared machine (see ``worker.Loop.passes``). ``reference_s`` is its time on
a quiet machine.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracle
from sffuse import attention_core, cli, mask_engine

OUT = Path("outputs")


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``sffuse <argv>`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _read_text(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _clear(*paths: Path) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


_TEXTS = [f"Attempt {k}: speculative reading of instance {k} with no firm evidence."
          for k in range(48)]
_WORDS = " ".join(f"word{i % 97}" for i in range(1200))
_TRACE = f"<mod>Audio</mod><v>{_WORDS}</v><a>{_WORDS}</a><sum>{_WORDS[:300]}</sum><ans>x</ans>"
_RECORD = json.dumps({"id": "t0", "text": _TRACE})
_TAG = re.compile(r"</?(mod|v|a|sum|ans)>")
_GRID = np.tri(32, dtype=bool)


class Annotate:
    """``sffuse annotate --mock`` over one shard of instances."""

    labeled = OUT / "labeled.jsonl"
    stats = OUT / "labeled.jsonl.stats.json"
    reference_s = 0.00095

    @staticmethod
    def reference() -> None:
        vectors = []
        for text in _TEXTS:
            digest = b"".join(hashlib.sha256(f"{c}:{text}".encode()).digest() for c in range(2))
            vectors.append([int.from_bytes(digest[i:i + 8], "big") / 2 ** 63 - 1.0
                            for i in range(0, 64, 8)])
        unit = np.array(vectors)
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        math.fsum(float(np.sum(unit[i] * unit[j])) for i in range(8) for j in range(i + 1, 8))
        json.dumps({"texts": _TEXTS}, sort_keys=True)

    def __init__(self, inputs: Path):
        self.inputs = inputs

    def prepare(self, op: dict) -> dict:
        _clear(self.labeled, self.stats)
        path = self.inputs / op["input"]
        return {"argv": ["annotate", "--in", str(path), "--out", str(self.labeled),
                         "--mock", "--json"], "instances": _jsonl(path)}

    def run(self, prepared: dict):
        return call_cli(prepared["argv"])

    def check(self, op: dict, prepared: dict, raw) -> tuple[list[str], bytes, dict]:
        code, stdout = raw
        out = {"exit": code, "stdout": stdout, "labeled": _read_text(self.labeled),
               "stats": _read_text(self.stats)}
        written = "".join((stdout, out["labeled"], out["stats"])).encode()
        return oracle.check_annotate(op["expected"], prepared["instances"], out), written, {}


class RlStep:
    """``sffuse validate`` over 16 x 8 traces, then ``sffuse grpo-step``."""

    scored = OUT / "scored.jsonl"
    reference_s = 0.00095

    @staticmethod
    def reference() -> None:
        for _ in range(6):
            text = json.loads(_RECORD)["text"]
            tokens = [(m.group(1), m.start()) for m in _TAG.finditer(text)]
            " ".join(text[tokens[2][1]:tokens[3][1]].casefold().split())

    def __init__(self, inputs: Path):
        self.inputs = inputs

    def prepare(self, op: dict) -> dict:
        _clear(self.scored)
        return {"validate": ["validate", "--traces", str(self.inputs / op["traces"]),
                             "--labels", str(self.inputs / op["labels"]),
                             "--out", str(self.scored), "--json"],
                "grpo": ["grpo-step", "--rollouts", str(self.inputs / op["rollouts"]), "--json"],
                "groups": _jsonl(self.inputs / op["rollouts"])}

    def run(self, prepared: dict):
        return call_cli(prepared["validate"]), call_cli(prepared["grpo"])

    def check(self, op: dict, prepared: dict, raw) -> tuple[list[str], bytes, dict]:
        (v_code, v_out), (g_code, g_out) = raw
        scored = _read_text(self.scored)
        out = {"validate_exit": v_code, "validate_stdout": v_out, "scored": scored,
               "grpo_exit": g_code, "grpo_stdout": g_out}
        misses = oracle.check_rl_step(op["expected"], prepared["groups"], out)
        invalid = 0 if misses else sum(
            1 for line in scored.splitlines() if json.loads(line)["diagnostics"])
        facts = {"traces": op["items"], "invalid_traces": invalid}
        return misses, (v_out + scored + g_out).encode(), facts


class Mask:
    """``sffuse mask`` writing text and RLE, then the read-back, the layout
    location from token ids, and a decode of every row."""

    text = OUT / "mask.txt"
    rle = OUT / "mask.rle"
    reference_s = 0.0018

    @staticmethod
    def reference() -> None:
        runs, current, count = [], _GRID.flat[0], 0
        for bit in _GRID.ravel():
            if bit == current:
                count += 1
            else:
                runs.append(count)
                current, count = bit, 1
        "\n".join("".join("1" if cell else "0" for cell in row) for row in _GRID)

    def __init__(self, inputs: Path):
        self.inputs = inputs

    def prepare(self, op: dict) -> dict:
        _clear(self.text, self.rle)
        spec_path = self.inputs / op["spec"]
        tokens = json.loads((self.inputs / op["tokens"]).read_text(encoding="utf-8"))
        markers = tokens["markers"]
        return {"argv": ["mask", "--spec", str(spec_path), "--out", str(self.text),
                         "--rle", str(self.rle)],
                "spec": json.loads(spec_path.read_text(encoding="utf-8")),
                "tokens": tokens["tokens"],
                "markers": mask_engine.MarkerTable(
                    video=tuple(markers["video"]), audio=tuple(markers["audio"]),
                    tag_open=markers["tag_open"], tag_close=markers["tag_close"])}

    def run(self, prepared: dict):
        job = call_cli(prepared["argv"])
        from_rle = mask_engine.mask_from_rle(self.rle.read_bytes())
        from_text = mask_engine.mask_from_text(self.text.read_text(encoding="utf-8"))
        layout = mask_engine.locate_layout(prepared["tokens"], prepared["markers"])
        rows = [mask_engine.incremental_row(layout, i) for i in range(layout.length)]
        return job, from_rle, from_text, layout, rows

    def check(self, op: dict, prepared: dict, raw) -> tuple[list[str], bytes, dict]:
        (code, stdout), from_rle, from_text, layout, rows = raw
        text = self.text.read_bytes() if self.text.exists() else b""
        rle = self.rle.read_bytes() if self.rle.exists() else b""
        out = {"exit": code, "stdout": stdout, "text": text.decode("ascii", "replace"),
               "rle": rle, "from_rle": from_rle.visible, "from_text": from_text.visible,
               "located": {role: sorted(getattr(layout, role)) for role in oracle.ROLES},
               "rows": rows}
        facts = {"bytes_written": len(text) + len(rle), "length": op["length"],
                 "blocked_fraction": op["blocked_fraction"]}
        return oracle.check_mask(prepared["spec"], out), stdout.encode() + text + rle, facts


class Attention:
    """Forward and backward of a few heads sharing one mask, allocation over
    the heads, one ``sffuse attn-report`` and both ``sffuse leakage`` probes."""

    # Half of this op is numpy on large arrays and half interpreter work
    # (JSON weights, CLI jobs). A softmax kernel did not follow its speed on
    # a shared 2-vCPU Xeon host, annotate's kernel did: over five seeds the
    # spread (IQR/median) of items_per_s fell from 0.17 unscaled to 0.07.
    reference = staticmethod(Annotate.reference)
    reference_s = Annotate.reference_s

    def __init__(self, inputs: Path):
        self.inputs = inputs

    def prepare(self, op: dict) -> dict:
        shape = (3, op["heads"], op["length"], op["dim"])
        report = op["report"]
        return {"spec": json.loads((self.inputs / op["spec"]).read_text(encoding="utf-8")),
                "qkv": np.random.default_rng(op["qkv_seed"]).standard_normal(shape),
                "report": ["attn-report", "--weights", str(self.inputs / report["weights"]),
                           "--spec", str(self.inputs / report["spec"]), "--json"],
                "leakage": ["leakage", "--seed", str(op["leak_seed"]), "--json"]}

    def run(self, prepared: dict):
        layout = mask_engine.layout_from_spec(prepared["spec"])
        mask = mask_engine.build_composite(layout)
        q, k, v = prepared["qkv"]
        heads = []
        for h in range(q.shape[0]):
            inputs = attention_core.AttentionInputs(q=q[h], k=k[h], v=v[h], mask=mask)
            output, weights = attention_core.masked_attention(inputs)
            heads.append((weights, output, *attention_core.attention_gradients(inputs)))
        allocation = attention_core.attention_allocation(
            [weights for weights, *_ in heads], layout, last_k=len(heads))
        report = call_cli(prepared["report"])
        leakage = (call_cli(prepared["leakage"]), call_cli(prepared["leakage"] + ["--no-maam"]))
        return heads, allocation, report, leakage

    def check(self, op: dict, prepared: dict, raw) -> tuple[list[str], bytes, dict]:
        heads, allocation, (r_code, r_out), leakage = raw
        out = {"heads": [(w.matrix, *rest) for w, *rest in heads],
               "allocation": {"window": allocation.window,
                              "audio_fraction": allocation.audio_fraction,
                              "visual_fraction": allocation.visual_fraction,
                              "per_layer": [list(p) if p is not None else None
                                            for p in allocation.per_layer]},
               "report_exit": r_code, "report_stdout": r_out, "leakage": leakage}
        length, dim, n_heads = op["length"], op["dim"], op["heads"]
        # Dense-kernel model per head: forward 4*L^2*d flops (QK^T and PV);
        # backward recomputes the forward and adds four L^2*d products.
        # Bytes: Q, K, V read and O written, plus the L x L weights written
        # and read once forward and four times backward, in float64.
        facts = {"length": length, "heads": n_heads,
                 "flop_count": n_heads * 16 * length * length * dim,
                 "bytes_moved": n_heads * 8 * (10 * length * dim + 7 * length * length),
                 "blocked_tile_fraction": op["blocked_tile_fraction"]}
        written = (r_out + leakage[0][1] + leakage[1][1]).encode()
        return oracle.check_attention(prepared["spec"], op["report"]["expected"], out), written, facts


WORKLOADS = {"annotate": Annotate, "rl_step": RlStep, "mask": Mask, "attention": Attention}
