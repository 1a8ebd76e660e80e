"""Fuzz every file-reading subcommand: whatever bytes or JSON an input holds,
the CLI exits 0, or exits 1 with exactly one ``error:`` line on stderr. What a
``--json`` run prints on exit 0 is strict JSON: no NaN or Infinity token."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sffuse.cli import main

DATA = Path(__file__).parent / "data"
LAYOUT = DATA / "layout_l6.json"
WEIGHTS_L6 = json.dumps({"layer": 0, "shape": [6, 6], "data": [1.0 / 6] * 36})

# Integers stay small: a layout length or a sample count is an allocation size.
# The one exception is an integer beyond the float range, which JSON allows
# and float() rejects; a loader must refuse it before anything is allocated.
# Small floats are near-valid values (a sample count of 2.5) that huge ones miss.
BEYOND_FLOAT = st.sampled_from([10**400, -10**400])
scalars = (st.none() | st.booleans() | st.integers(-3, 12) | BEYOND_FLOAT | st.floats(-3, 12)
           | st.floats() | st.text(max_size=8))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10)


def records(*keys: str) -> st.SearchStrategy:
    """Objects over a loader's own field names, so the fuzz reaches its
    per-field checks and not only the "not an object" one."""
    return st.dictionaries(st.sampled_from(keys), json_values | st.lists(scalars, max_size=4),
                           max_size=len(keys))


def jsonl(record: st.SearchStrategy) -> st.SearchStrategy:
    lines = st.lists(record | json_values, max_size=4)
    return lines.map(lambda rows: "".join(json.dumps(row) + "\n" for row in rows).encode())


def contents(record: st.SearchStrategy, one_document: bool = False) -> st.SearchStrategy:
    """Random bytes, or random JSON shaped like the input (JSONL by default)."""
    as_json = ((record | json_values).map(lambda v: json.dumps(v).encode()) if one_document
               else jsonl(record))
    return st.binary(max_size=64) | as_json


INSTANCE = records("id", "question", "gold_answer", "media", "choices")
TRACE = records("id", "text")
LABEL = records("id", "pem", "answer")
ROLLOUT = records("group_id", "rewards", "logp_new", "logp_old", "logp_ref")
WEIGHTS = records("layer", "shape", "data")
ROLES = ("video_input", "audio_input", "visual_reasoning", "audio_reasoning", "visual_span",
         "summary_span")
SPEC = records("length", *ROLES)
CONFIG = st.fixed_dictionaries({}, optional={
    "pipeline": records("n", "tau_acc", "tau_cons", "parallelism", "endpoint",
                        "embedder_endpoint"),
    "rewards": records("lambda_acc", "lambda_mps"),
})

# Records that pass the loaders' shape checks, so any number (NaN, the
# infinities and integers beyond the float range included) reaches the
# numbers a command computes and prints.
NUMBERS = st.floats() | st.floats(-3, 12) | st.integers(-3, 12) | BEYOND_FLOAT


def shaped(record: st.SearchStrategy) -> st.SearchStrategy:
    rows = st.lists(record, min_size=1, max_size=3)
    return rows.map(lambda rows: "".join(json.dumps(row) + "\n" for row in rows).encode())


SHAPED_ROLLOUT = st.integers(2, 4).flatmap(lambda g: st.fixed_dictionaries(
    {name: st.lists(NUMBERS, min_size=g, max_size=g)
     for name in ("rewards", "logp_new", "logp_old", "logp_ref")}))
SHAPED_WEIGHTS = st.fixed_dictionaries({
    "shape": st.just([6, 6]),
    "data": st.lists(st.floats(0, 1) | NUMBERS, min_size=36, max_size=36)})
SHAPED_SPEC = st.fixed_dictionaries({"length": st.integers(1, 12)}, optional={
    role: st.lists(st.lists(st.integers(-3, 12) | BEYOND_FLOAT, min_size=2, max_size=2),
                   max_size=2)
    for role in ROLES})

# (argv with {input} in place of the fuzzed file, its content strategy)
CASES = {
    "annotate": (["annotate", "--in", "{input}", "--out", "{tmp}/o.jsonl", "--mock"],
                 contents(INSTANCE)),
    "validate-traces": (["validate", "--traces", "{input}",
                         "--labels", str(DATA / "labels_mixed.jsonl")], contents(TRACE)),
    "validate-labels": (["validate", "--traces", str(DATA / "traces_mixed.jsonl"),
                         "--labels", "{input}"], contents(LABEL)),
    "mask": (["mask", "--spec", "{input}", "--out", "{tmp}/mask.txt",
              "--rle", "{tmp}/mask.bin"], contents(SPEC | SHAPED_SPEC, one_document=True)),
    "grpo-step": (["grpo-step", "--rollouts", "{input}"],
                  contents(ROLLOUT) | shaped(SHAPED_ROLLOUT)),
    "attn-report-weights": (["attn-report", "--weights", "{input}", "--spec", str(LAYOUT)],
                            contents(WEIGHTS) | shaped(SHAPED_WEIGHTS)),
    "attn-report-spec": (["attn-report", "--weights", "{tmp}/weights.jsonl", "--spec",
                          "{input}"], contents(SPEC | SHAPED_SPEC, one_document=True)),
    "config": (["annotate", "--in", str(DATA / "instances_12.jsonl"),
                "--out", "{tmp}/o.jsonl", "--mock", "--config", "{input}"],
               contents(CONFIG, one_document=True)),
    # validate reads the config's rewards section, which annotate ignores.
    "validate-config": (["validate", "--traces", str(DATA / "traces_mixed.jsonl"),
                         "--labels", str(DATA / "labels_mixed.jsonl"), "--config", "{input}"],
                        contents(CONFIG, one_document=True)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_input_exits_0_or_1_with_one_error_line(tmp_path, capsys, case, data) -> None:
    argv, strategy = CASES[case]
    fuzzed = tmp_path / "input"
    fuzzed.write_bytes(data.draw(strategy, label=case))
    (tmp_path / "weights.jsonl").write_text(WEIGHTS_L6 + "\n", encoding="utf-8")
    with np.errstate(all="ignore"):
        code = main([a.format(input=fuzzed, tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.endswith("\n")
        assert len(err.splitlines()) == 1
    else:
        assert err == ""


STRICT_CASES = {case: CASES[case]
                for case in ("grpo-step", "attn-report-weights", "attn-report-spec")}


def _reject_constant(token: str):
    raise ValueError(f"non-JSON constant {token} in --json output")


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_json_output_is_strict_json(tmp_path, capsys, case, data) -> None:
    argv, strategy = STRICT_CASES[case]
    fuzzed = tmp_path / "input"
    fuzzed.write_bytes(data.draw(strategy, label=case))
    (tmp_path / "weights.jsonl").write_text(WEIGHTS_L6 + "\n", encoding="utf-8")
    with np.errstate(all="ignore"):
        code = main([a.format(input=fuzzed, tmp=tmp_path) for a in argv] + ["--json"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
