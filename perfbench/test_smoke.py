"""Smoke tests of the benchmark itself: ``python -m pytest perfbench -q``.

A tiny-size pass over every workload in both modes, determinism of the
generator, a planted error for each oracle, so the correctness gate is
shown to reject wrong outputs, and a check that the program does not load
the modules of the set-up time reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("annotate", "rl_step", "mask", "attention")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass(workload, trace):
    code, lines = _run(workload, trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    if trace:
        assert result["metrics"]["trace.span_sum_error"]["value"] <= 0.05
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert any(line.startswith(f"digest {workload} ") for line in lines)


def test_import_reference_is_not_loaded_by_the_program():
    code = ("import sys; import sffuse.cli; "
            f"print(sorted(set({worker.IMPORT_REFERENCE!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, env={"PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first = gen.generate(workload, 7, "tiny", tmp_path / "a")
    second = gen.generate(workload, 7, "tiny", tmp_path / "b")
    assert first == second
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert gen.generate(workload, 8, "tiny", tmp_path / "c") != first


def _op(tmp_path, monkeypatch, workload: str):
    """One tiny op run for real, with its workload object and ground truth."""
    manifest = gen.generate(workload, 5, "tiny", tmp_path / "inputs")
    (tmp_path / "outputs").mkdir()
    monkeypatch.chdir(tmp_path)
    runner = workloads.WORKLOADS[workload](Path("inputs"))
    op = manifest["pool"][0]
    prepared = runner.prepare(op)
    raw = runner.run(prepared)
    misses, written, _ = runner.check(op, prepared, raw)
    assert misses == [] and written
    return runner, op, prepared, raw


def _rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def test_annotate_oracle_rejects_a_changed_label(tmp_path, monkeypatch):
    runner, op, prepared, raw = _op(tmp_path, monkeypatch, "annotate")
    path = tmp_path / runner.labeled
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows[0]["pem"] = "Visual" if rows[0]["pem"] != "Visual" else "Audio"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert any("pem" in m for m in runner.check(op, prepared, raw)[0])
    code, stdout = raw
    assert runner.check(op, prepared, (1 - code, stdout))[0]


def test_rl_step_oracle_rejects_a_reward_off_by_0_2(tmp_path, monkeypatch):
    runner, op, prepared, raw = _op(tmp_path, monkeypatch, "rl_step")
    path = tmp_path / runner.scored
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows[0]["r_stage2"] += 0.2
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")
    assert any("r_stage2" in m for m in runner.check(op, prepared, raw)[0])


def test_rl_step_oracle_rejects_a_wrong_advantage():
    group = {"group_id": "g", "rewards": [1.2, 0.0, 1.0, 0.2], "logp_new": [-3.0, -2.0, -1.5, -4.0],
             "logp_old": [-3.1, -2.0, -1.4, -4.2], "logp_ref": [-3.0, -2.1, -1.5, -3.9]}
    good = oracle.grpo_expected(group)
    bad = dict(good, advantages=[good["advantages"][0] + 1e-6] + good["advantages"][1:])
    out = {"validate_exit": 0, "grpo_exit": 0, "scored": "",
           "validate_stdout": "{}", "grpo_stdout": json.dumps({"groups": [good]})}
    assert oracle.check_rl_step({}, [group], out) == []
    out["grpo_stdout"] = json.dumps({"groups": [bad]})
    assert any("advantages" in m for m in oracle.check_rl_step({}, [group], out))


def test_mask_oracle_rejects_one_flipped_cell(tmp_path, monkeypatch):
    runner, op, prepared, raw = _op(tmp_path, monkeypatch, "mask")
    path = tmp_path / runner.text
    _rewrite(path, lambda text: ("0" if text[0] == "1" else "1") + text[1:])
    assert any("text export" in m for m in runner.check(op, prepared, raw)[0])
    path.unlink()
    (tmp_path / runner.rle).write_bytes((tmp_path / runner.rle).read_bytes()[:-4])
    job, from_rle, from_text, layout, rows = raw
    flipped = rows[:-1] + [~rows[-1]]
    misses = runner.check(op, prepared, (job, from_rle, from_text, layout, flipped))[0]
    for what in ("text export", "rle export", "incremental_row"):
        assert any(m.startswith(what) for m in misses), (what, misses)


def test_attention_oracle_rejects_leaks_and_unnormalized_rows(tmp_path, monkeypatch):
    runner, op, prepared, raw = _op(tmp_path, monkeypatch, "attention")
    heads, allocation, report, leakage = raw
    visible = oracle.mask_from_spec(prepared["spec"])
    weights, *rest = heads[0]
    leaky = weights.matrix.copy()
    i, j = np.argwhere(~visible & np.tri(len(visible), dtype=bool))[0]
    leaky[i, j] = 1e-300
    tampered = [(type(weights)(leaky), *rest)] + heads[1:]
    misses = runner.check(op, prepared, (tampered, allocation, report, leakage))[0]
    assert any("blocked" in m for m in misses)
    skewed = weights.matrix.copy()
    skewed[-1] *= 1 + 1e-9
    tampered = [(type(weights)(skewed), *rest)] + heads[1:]
    misses = runner.check(op, prepared, (tampered, allocation, report, leakage))[0]
    assert any("sum to 1" in m for m in misses)
    no_mask = leakage[1]
    misses = runner.check(op, prepared, (heads, allocation, report, (no_mask, no_mask)))[0]
    assert any("leakage" in m for m in misses)
