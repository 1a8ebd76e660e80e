"""One workload process: import the program, warm up, then the timed passes.

Started by ``run.py`` with its run directory as the working directory, which
holds ``inputs/`` (generated files and ``manifest.json``) and ``outputs/``.
Writes its result as JSON to the file named by ``--result``.

Set-up time is the import of ``sffuse.cli`` (which imports every layer),
timed before anything else is imported, plus one warm-up op on a small
input. Like op time it is scaled by the speed of the shared machine: the
import by a reference import of standard-library modules the program does
not load, the warm-up op by the workload's reference kernel. The reference
kernels alone did not follow import time.

The timed loop is closed: one caller, one op at a time. It makes whole
passes over the input pool and starts another only if the last pass's wall
time still fits in ``--seconds``. With ``--trace 1`` the time is split:
an untraced half, then a traced half over the same passes, which gives the
per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Imported right after the program, so a module both load is counted once,
# in the program's import; IMPORT_REFERENCE_S is their time on a quiet machine.
IMPORT_REFERENCE = ("asyncio", "unittest", "xml.dom.minidom", "xml.etree.ElementTree",
                    "tarfile", "sqlite3", "decimal", "wave", "dbm", "mimetypes", "netrc",
                    "colorsys", "filecmp", "csv")
IMPORT_REFERENCE_S = 0.045

LAYER_TOTALS = ("pem_pipeline", "tag_grammar", "rl_core", "mask_engine", "attention_core")


def _import_program() -> float:
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import sffuse.cli  # noqa: F401
    elapsed = perf_counter() - start
    import sffuse
    if not Path(sffuse.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sffuse imported from {sffuse.__file__}, not from this checkout")
    return elapsed


def _import_speed() -> float:
    """How much faster than quiet the machine imports, from the reference."""
    start = perf_counter()
    for name in IMPORT_REFERENCE:
        importlib.import_module(name)
    return IMPORT_REFERENCE_S / (perf_counter() - start)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: at least (1 - q) of the values lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Loop:
    """Closed-loop passes over the input pool, with per-input output hashes."""

    def __init__(self, workload, manifest: dict):
        self.workload = workload
        self.manifest = manifest
        self.seen: dict[str, str] = {}
        self.misses: list[str] = []

    def one(self, op: dict, tracer=None, op_index: int = -1):
        prepared = self.workload.prepare(op)
        root = tracer.begin_op(op_index) if tracer else None
        start = perf_counter()
        try:
            raw, error = self.workload.run(prepared), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            raw, error = None, f"{type(exc).__name__}: {exc}"
        duration = perf_counter() - start
        if tracer:
            tracer.end_op(root)
        if error:
            misses, written, facts = [error], b"", {}
        else:
            misses, written, facts = self.workload.check(op, prepared, raw)
        digest = hashlib.sha256(written).hexdigest()
        if self.seen.setdefault(op["key"], digest) != digest:
            misses = misses + ["output bytes differ from an earlier op on the same input"]
        if misses and len(self.misses) < 20:
            self.misses.append(f"{op['key']}: " + "; ".join(misses[:3]))
        return duration, not misses, written, facts

    def machine_speed(self, times: list[float]) -> float:
        """How much faster than quiet the machine ran, from reference timings."""
        return self.workload.reference_s / statistics.median(times)

    def reference(self) -> float:
        start = perf_counter()
        self.workload.reference()
        return perf_counter() - start

    def passes(self, seconds: float, tracer=None) -> dict:
        """Whole passes over the pool, the first in manifest order and the
        rest shuffled, while the last pass's wall time still fits.

        Other tenants of the shared machine change its speed by tens of
        percent for seconds to minutes. The reference kernel runs before
        every op, and each op's time is scaled by the machine speed measured
        by the reference runs just before and just after it (the last op of
        a pass has only the one before it), giving (key, seconds, scaled
        seconds, reference seconds). Wider windows followed the speed less
        well on a shared 2-vCPU host.
        """
        pool = self.manifest["pool"]
        order_rng = random.Random(self.manifest["seed"])
        samples, failed, facts = [], 0, []
        digest = hashlib.sha256()
        start = last = perf_counter()
        for p in itertools.count():
            order = list(pool)
            if p:
                order_rng.shuffle(order)
            timed, reference = [], []
            for op in order:
                reference.append(self.reference())
                duration, ok, written, op_facts = self.one(op, tracer, len(samples) + len(timed))
                timed.append((op["key"], duration))
                failed += not ok
                facts.append(op_facts)
                if p == 0:
                    digest.update(len(written).to_bytes(8, "little") + written)
            for i, (key, duration) in enumerate(timed):
                speed = self.machine_speed(reference[i:i + 2])
                samples.append((key, duration, duration * speed, reference[i]))
            now = perf_counter()
            if now - start + (now - last) > seconds:
                break
            last = now
        return {"samples": samples, "failed": failed, "passes": p + 1, "facts": facts,
                "digest": digest.hexdigest(), "wall_s": perf_counter() - start}


def end_to_end(run: dict, pool: list[dict]) -> dict:
    """Each input's latency is the median of its scaled times over the
    passes. The scaling removes the machine's slow and fast periods; the
    median drops the ops that a state change caught between two reference
    timings. ``unscaled_items_per_s`` is the same from raw times.
    """
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for key, duration, duration_scaled, _ in run["samples"]:
        scaled.setdefault(key, []).append(duration_scaled)
        raw.setdefault(key, []).append(duration)
    latency = {key: statistics.median(times) for key, times in scaled.items()}
    unscaled = math.fsum(statistics.median(times) for times in raw.values())
    items = sum(op["items"] for op in pool if op["key"] in latency)
    latencies = list(latency.values())
    busy = math.fsum(latencies)
    n = len(latencies)
    return {"items_per_s": items / busy, "unscaled_items_per_s": items / unscaled,
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * percentile(latencies, 0.9),
            "inputs": n, "beyond_p90": n - math.ceil(0.9 * n), "items": items,
            "passes": run["passes"], "ops": len(run["samples"]), "busy_s": busy,
            "wall_s": run["wall_s"]}


def per_layer(tracer, run: dict, untraced: dict, pool: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and any span that breaks the
    nesting: a negative self time, or a parent in another op.

    Self time, per op, is reported for every span name, so a function a
    later change adds to a layer is measured without an edit here; times
    and counts are per op unless the name says otherwise.
    """
    import numpy as np

    data = tracer.arrays()
    names, n_ops = tracer.names, len(run["samples"])
    ids = {name: i for i, name in enumerate(names)}
    self_by = np.bincount(data["name"], weights=data["self"], minlength=len(names))
    calls_by = np.bincount(data["name"], minlength=len(names))
    facts = run["facts"]

    def total(key: str) -> float:
        return math.fsum(f.get(key, 0) for f in facts)

    def self_s(name: str) -> float:
        return float(self_by[ids[name]]) / n_ops if name in ids else 0.0

    def calls(name: str) -> float:
        return float(calls_by[ids[name]]) if name in ids else 0.0

    def durations_us(name: str):
        return 1e6 * data["duration"][data["name"] == ids[name]] if name in ids else []

    out = {f"{name}.self_s": self_s(name) for name in names if name != "op"}
    out["cli.self_s"] = self_s("op")
    for layer in LAYER_TOTALS:
        out[f"{layer}.self_s"] = float(sum(self_by[i] for n, i in ids.items()
                                           if n.startswith(layer + "."))) / n_ops
    for name in ("pem_pipeline.sampler", "pem_pipeline.embedder",
                 "tag_grammar.validate_structure", "mask_engine.incremental_row",
                 "attention_core.masked_attention"):
        out[f"{name}.calls"] = calls(name) / n_ops
    out["pem_pipeline.embedder.texts"] = tracer.texts_embedded / n_ops
    out["pem_pipeline.embedder.unique_ratio"] = _ratio(tracer.texts_unique,
                                                       tracer.texts_embedded)
    traces = total("traces")
    out["tag_grammar.parse_trace.calls_per_trace"] = _ratio(calls("tag_grammar.parse_trace"),
                                                            traces)
    out["tag_grammar.invalid_ratio"] = _ratio(total("invalid_traces"), traces)
    reward_calls = sum(float(calls_by[i]) for n, i in ids.items() if n.startswith("rl_core.reward_"))
    out["rl_core.reward_calls_per_trace"] = _ratio(reward_calls, traces)
    rows = durations_us("mask_engine.incremental_row")
    out["mask_engine.incremental_row.p50_us"] = float(np.median(rows)) if len(rows) else 0.0
    out["mask_engine.incremental_row.p90_us"] = percentile(list(rows), 0.9) if len(rows) else 0.0
    out["mask_engine.bytes_written"] = total("bytes_written") / n_ops
    out["mask_engine.blocked_fraction"] = total("blocked_fraction") / n_ops
    # Kernel time: forward and backward calls made by the op itself, not the
    # small ones inside the leakage probe.
    parent_name = np.where(data["parent"] >= 0, data["name"][data["parent"]], -1)
    kernel = np.isin(data["name"], [ids.get("attention_core.masked_attention", -2),
                                    ids.get("attention_core.attention_gradients", -2)])
    kernel_s = float(data["duration"][kernel & (parent_name == ids["op"])].sum())
    out["attention_core.flop_count"] = total("flop_count") / n_ops
    out["attention_core.bytes_moved"] = total("bytes_moved") / n_ops
    out["attention_core.gflops_per_s"] = _ratio(total("flop_count"), kernel_s) / 1e9
    out["attention_core.blocked_tile_fraction"] = total("blocked_tile_fraction") / n_ops
    out["trace.overhead_ratio"] = (end_to_end(run, pool)["items_per_s"]
                                   / end_to_end(untraced, pool)["items_per_s"] - 1.0)
    # The self times of an op's spans, its root span included, against the
    # op's wall time as the loop measured it around the call.
    in_op = data["op"] >= 0
    op_sum = np.bincount(data["op"][in_op], weights=data["self"][in_op], minlength=n_ops)
    op_wall = np.array([duration for _, duration, _, _ in run["samples"]])
    out["trace.span_sum_error"] = float(np.max(np.abs(op_sum - op_wall) / op_wall))
    nested = data["parent"] >= 0
    problems = []
    negative = int(np.count_nonzero(data["self"] < -1e-9))
    if negative:
        problems.append(f"trace: {negative} spans with a negative self time")
    foreign = int(np.count_nonzero(data["op"][nested] != data["op"][data["parent"][nested]]))
    if foreign:
        problems.append(f"trace: {foreign} spans whose parent belongs to another op")
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import_s = _import_program()
    import_speed = _import_speed()
    from tracer import Tracer, install
    from workloads import WORKLOADS

    manifest = json.loads(Path("inputs/manifest.json").read_text(encoding="utf-8"))
    loop = Loop(WORKLOADS[args.workload](Path("inputs")), manifest)
    warmup_s, warmup_ok, _, _ = loop.one(manifest["warmup"])
    speed = loop.machine_speed([loop.reference() for _ in range(15)])
    result = {"import_s": import_s, "warmup_s": warmup_s, "import_speed": import_speed,
              "machine_speed": speed, "setup_s": import_s * import_speed + warmup_s * speed,
              "warmup_ok": warmup_ok, "misses": loop.misses}
    if not args.setup_only:
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = loop.passes(seconds)
        result["run"] = {k: v for k, v in untraced.items() if k != "facts"}
        result["end_to_end"] = end_to_end(untraced, manifest["pool"])
        if args.trace:
            tracer = Tracer()
            restore = install(tracer)
            try:
                traced = loop.passes(seconds, tracer)
            finally:
                restore()
            tracer.save(Path("spans.npz"))
            result["traced_run"] = {k: v for k, v in traced.items() if k != "facts"}
            result["per_layer"], problems = per_layer(tracer, traced, untraced,
                                                      manifest["pool"])
            loop.misses.extend(problems)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
