"""Benchmark of the sffuse toolkit: four closed-loop workloads, end to end.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see BENCHMARK.json for why):

  annotate   ``sffuse annotate --mock`` jobs of 27 instances   item = instance
  rl_step    ``sffuse validate`` on 128 traces + ``grpo-step``  item = trace
  mask       ``sffuse mask`` + read-back + locate + row decode  item = layout
  attention  masked attention forward/backward on 3 heads,
             ``attn-report`` and both ``leakage`` probes       item = head

The seed makes the inputs (``gen.py``); the program only sees the input
files. Each op is one call of an entry point: ``sffuse.cli.main`` in-process
with stdout captured, or the ``attention_core`` functions. The loop is closed
with one caller; each run makes whole passes over a pool of inputs, and an
input's latency is the median of its passes, scaled by the speed of the
shared machine at the time (see ``worker.Loop.passes``).

Every op's outputs are checked against ground truth (``oracle.py``); a miss
counts as a failed op and makes the command exit 1. A sha256 over every byte
the program wrote in the first pass is printed and compared with earlier
runs on the same inputs and the same program source in this checkout, kept
in ``.bench_work/digests.json`` under a sha256 of each. A change to the
source or to the generator starts a new key, so a program change whose
output bytes differ is printed with its new digest but is not a miss.

With ``--trace 0`` the last line reports the ``end_to_end`` metrics of
BENCHMARK.json, with ``--trace 1`` its ``per_layer`` metrics from a traced
run (``worker.per_layer``) and the tracing overhead; spans go to
``.bench_work/<run>/spans.npz``. Lines before the last one give each metric
with its unit and sample count, the error rate, the digest, and a record of
the machine and the inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 8  # extra fresh processes that only import and warm up
DEADLINE_S = 170.0
WORKLOADS = ("annotate", "rl_step", "mask", "attention")
SOURCE = ROOT / "src" / "sffuse"


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def machine_record(seed: int, env: dict) -> dict:
    import numpy

    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
            _read(index / "size").strip()
    nproc = len(os.sched_getaffinity(0))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy has no dict form; the name is informational
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": min(int(env["OPENBLAS_NUM_THREADS"]), nproc), "nproc": nproc,
            "cpu": model, "caches": caches, "seed": seed}


def _child(args: list[str], cwd: Path, env: dict, deadline: float) -> None:
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=cwd, env=env,
                   stdout=subprocess.DEVNULL, timeout=timeout, check=True)


def tree_digest(top: Path) -> str:
    """sha256 over the files under ``top``, by relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        name = path.relative_to(top).as_posix().encode()
        data = path.read_bytes()
        digest.update(len(name).to_bytes(8, "little") + name)
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


def _check_digest(key: str, digest: str) -> str | None:
    """Remember the first digest under each key (inputs and source) in this
    checkout; returns the remembered one if this run's differs."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    previous = known.setdefault(key, digest)
    store.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return None if previous == digest else previous


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sffuse end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [main([*(argv or sys.argv[1:]), "--workload", name]) for name in WORKLOADS]
        return max(codes)
    deadline = time.monotonic() + DEADLINE_S

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    import gen

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_units = {kind: {m["name"]: m["unit"] for m in benchmark[kind]}
                    for kind in ("end_to_end", "per_layer")}

    run_dir = WORK / f"{args.workload}-{args.scale}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "outputs").mkdir(parents=True)
    manifest = gen.generate(args.workload, args.seed, args.scale, run_dir / "inputs")
    inputs, source = tree_digest(run_dir / "inputs"), tree_digest(SOURCE)

    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    common = ["--workload", args.workload, "--seconds", str(args.seconds)]
    try:
        _child([*common, "--trace", str(args.trace), "--result", "result.json"],
               run_dir, env, deadline)
        probes = []
        for i in range(0 if args.trace else SETUP_PROBES):
            _child([*common, "--setup-only", "--result", f"probe{i}.json"], run_dir, env, deadline)
            probes.append(json.loads((run_dir / f"probe{i}.json").read_text(encoding="utf-8")))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))

    record = {"machine": machine_record(args.seed, env), "workload": args.workload,
              "scale": args.scale, "inputs": manifest["stats"]}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("record " + json.dumps(record, sort_keys=True))

    runs = [result["run"]] + ([result["traced_run"]] if args.trace else [])
    attempted = sum(len(run["samples"]) for run in runs)
    failed = sum(run["failed"] for run in runs) + (not result["warmup_ok"])
    misses = list(result["misses"])
    digests = {run["digest"] for run in runs}
    if len(digests) > 1:
        misses.append("untraced and traced passes wrote different bytes")
    digest = runs[0]["digest"]
    previous = _check_digest(f"{args.workload}:{inputs}:{source}", digest)
    if previous:
        misses.append(f"digest {digest} differs from an earlier run on the same inputs "
                      f"and source ({previous})")
    for line in misses:
        print(f"miss {line}", file=sys.stderr)
    print(f"digest {args.workload} seed {args.seed} sha256:{digest} "
          f"(inputs sha256:{inputs}, source sha256:{source})")
    print(f"{args.workload} error_rate = {failed / attempted} ratio "
          f"({failed} failed / {attempted} attempted)")

    e2e = result["end_to_end"]
    setups = [result["setup_s"]] + [p["setup_s"] for p in probes]
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in metric_units["per_layer"].items()}
        for name, entry in metrics.items():
            print(f"{args.workload} {name} = {entry['value']} {entry['unit']} "
                  f"(traced ops={len(result['traced_run']['samples'])})")
        if result["per_layer"]["trace.span_sum_error"] > 0.05:
            print("note: an op's span self times miss its wall time by more than 5%",
                  file=sys.stderr)
    else:
        values = {"items_per_s": e2e["items_per_s"], "op_p50_ms": e2e["op_p50_ms"],
                  "op_p90_ms": e2e["op_p90_ms"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        fastest = f"median of {e2e['passes']} passes each, {e2e['ops']} ops"
        samples = {"items_per_s": f"{e2e['items']} items in {e2e['busy_s']:.3f} s, {fastest}; "
                                  f"unscaled {e2e['unscaled_items_per_s']:.6g}",
                   "op_p50_ms": f"{e2e['inputs']} inputs, {fastest}",
                   "op_p90_ms": f"{e2e['inputs']} inputs, {e2e['beyond_p90']} beyond, {fastest}",
                   "setup_s": f"median of {len(setups)} processes, scaled",
                   "peak_rss_mb": "1 process"}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units["end_to_end"].items()}
        for name, unit in metric_units["end_to_end"].items():
            print(f"{args.workload} {name} = {values[name]} {unit} ({samples[name]})")
        if e2e["beyond_p90"] < 10:
            print(f"note: {e2e['beyond_p90']} inputs lie beyond op_p90_ms", file=sys.stderr)

    correct = failed == 0 and not misses
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)
    shutil.rmtree(run_dir / "outputs", ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
