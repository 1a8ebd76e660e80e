"""The JSON boundary: ``read_records`` names every bad record's ``path:line``
once, ``read_document`` names its file, and ``write_jsonl`` never writes a
NaN or infinity."""

import json
from pathlib import Path

import pytest

from sffuse.cli import main
from sffuse.jsonl import read_document, read_records
from sffuse.pem_pipeline import write_jsonl

DATA = Path(__file__).parent / "data"
LAYOUT = str(DATA / "layout_l6.json")

GOOD_INSTANCE = {"id": "a", "question": "q", "gold_answer": "x"}
GOOD_ROLLOUT = {"group_id": "g", "rewards": [1, 0], "logp_new": [0, 0],
                "logp_old": [0, 0], "logp_ref": [0, 0]}
GOOD_WEIGHTS = {"layer": 0, "shape": [6, 6], "data": [1 / 6] * 36}

# (argv with {bad} for the file under test, a good first record, a record
# whose fault only the per-record check sees, that check's message)
INPUTS = {
    "instances": (["annotate", "--in", "{bad}", "--out", "{tmp}/o.jsonl", "--mock"],
                  GOOD_INSTANCE, {**GOOD_INSTANCE, "id": "b", "gold_answer": ""},
                  "instance 'b': gold_answer must be nonempty"),
    "traces": (["validate", "--traces", "{bad}", "--labels", str(DATA / "labels_perfect.jsonl")],
               {"id": "t", "text": ""}, {"id": "u"}, "missing field 'text'"),
    "labels": (["validate", "--traces", str(DATA / "traces_perfect.jsonl"), "--labels", "{bad}"],
               {"id": "t", "pem": "Audio", "answer": "x"},
               {"id": "u", "pem": 1, "answer": "x"}, "field 'pem' must be a string"),
    "rollouts": (["grpo-step", "--rollouts", "{bad}"], GOOD_ROLLOUT,
                 {**GOOD_ROLLOUT, "logp_ref": [0]}, "logp_ref length differs from rewards length"),
    "weights": (["attn-report", "--weights", "{bad}", "--spec", LAYOUT], GOOD_WEIGHTS,
                {**GOOD_WEIGHTS, "shape": [6]}, "weights shape [6] is not 2-D"),
}


@pytest.mark.parametrize("tail", ["", "{not json\n"], ids=["alone", "before-invalid-json"])
@pytest.mark.parametrize("kind", INPUTS)
def test_bad_record_is_named_by_its_line_once(tmp_path, capsys, kind, tail) -> None:
    argv, good, bad_record, message = INPUTS[kind]
    bad = tmp_path / f"{kind}.jsonl"
    bad.write_text(f"{json.dumps(good)}\n\n{json.dumps(bad_record)}\n{tail}", encoding="utf-8")
    code = main([a.format(bad=bad, tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {bad}:3: {message}\n"


def test_rollout_group_fault_is_named_before_its_id(tmp_path, capsys) -> None:
    bad = tmp_path / "rollouts.jsonl"
    bad.write_text(json.dumps({**GOOD_ROLLOUT, "group_id": 7, "rewards": [1]}) + "\n",
                   encoding="utf-8")
    assert main(["grpo-step", "--rollouts", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:1: a rollout group needs G >= 2 responses\n")


def test_read_records_builds_in_line_order(tmp_path) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text('{"v": 1}\n \n{"v": 2}\n', encoding="utf-8")
    assert read_records(path, lambda obj, lineno: (lineno, obj["v"])) == [(1, 1), (3, 2)]


def test_read_records_prefixes_only_value_errors(tmp_path) -> None:
    path = tmp_path / "r.jsonl"
    path.write_text("{}\n[1]\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_records(path, lambda obj, _: obj)
    assert str(info.value) == f"{path}:2: expected a JSON object, got list"
    with pytest.raises(KeyError):
        read_records(path, lambda obj, _: obj["v"])


def test_read_document_names_its_path_and_keeps_the_error_type(tmp_path) -> None:
    class DocumentError(ValueError):
        pass

    def build(document):
        raise DocumentError(f"cannot use {document}")

    path = tmp_path / "doc.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert read_document(path, len, "invalid document") == 2
    with pytest.raises(DocumentError) as info:
        read_document(path, build, "invalid document")
    assert str(info.value) == f"{path}: cannot use [1, 2]"
    path.write_text("[1,", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}: invalid document: "):
        read_document(path, build, "invalid document")


def test_write_jsonl_names_the_row_and_leaves_the_file_as_it_was(tmp_path) -> None:
    path = tmp_path / "o.jsonl"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError) as info:
        write_jsonl(path, [{"x": 1.0}, {"x": float("nan")}])
    assert str(info.value).startswith(
        f"{path}: row 2: Out of range float values are not JSON compliant")
    assert path.read_bytes() == b"kept\n"
    assert write_jsonl(path, [{"x": 1.0}, {"y": [2]}]) == 2
    assert path.read_bytes() == b'{"x": 1.0}\n{"y": [2]}\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_jsonl_rejects_non_finite_numbers(tmp_path, value) -> None:
    with pytest.raises(ValueError, match="Out of range float values"):
        write_jsonl(tmp_path / "o.jsonl", [{"x": 1.0}, {"x": value}])


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("rewards", [
    {"lambda_acc": 1e308, "lambda_mps": 1e308},  # every row overflows
    {"lambda_acc": 1e308, "lambda_mps": 0},  # every row finite, their mean overflows
], ids=["rows", "mean"])
def test_validate_overflow_is_one_error_line_and_writes_nothing(
        tmp_path, capsys, rewards, json_flag) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rewards": rewards}), encoding="utf-8")
    out = tmp_path / "scored.jsonl"
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(DATA / "labels_perfect.jsonl"),
                 "--config", str(config), "--out", str(out), *json_flag])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: mean_stage2 overflows: reward weights are too large\n"
    assert captured.out == ""
    assert not out.exists()
