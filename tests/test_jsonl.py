"""The JSON boundary: ``read_records`` names every bad record's ``path:line``
once, ``read_document`` names its file, ``loads`` words an endpoint answer's
fault as a file's, ``write_jsonl`` never writes a NaN or infinity, ``dumps``
writes what the stdlib encoder writes from any thread, and ``finite_floats``
agrees with a plain-Python rule on any decoded JSON value."""

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_dumps, reference_finite_floats
from sffuse.cli import main
from sffuse.jsonl import dumps, finite_floats, loads, read_document, read_records
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
    # A line of whitespace only, by str.isspace, is skipped; the record after
    # it keeps its line number in the file.
    path = tmp_path / "r.jsonl"
    for text, expected in [
        ('{"v": 1}\n \n{"v": 2}\n', [(1, 1), (3, 2)]),
        ('{"v": 1}\n\u3000\n{"v": 2}\n', [(1, 1), (3, 2)]),
        ('\t\x0b\n{"v": 1}\n{"v": 2}', [(2, 1), (3, 2)]),
        ('{"v": 1}\r\n\r\n \r\n{"v": 2}\r\n', [(1, 1), (4, 2)]),
    ]:
        path.write_bytes(text.encode("utf-8"))
        assert read_records(path, lambda obj, lineno: (lineno, obj["v"])) == expected, text


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
    assert read_document(path, len) == 2
    with pytest.raises(DocumentError) as info:
        read_document(path, build)
    assert str(info.value) == f"{path}: cannot use [1, 2]"
    path.write_text("[1,", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}: invalid JSON: "):
        read_document(path, build)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_document_counts_lines_as_a_text_file_does(tmp_path, end) -> None:
    # Every line end is one line, a lone CR included, so a fault's line and
    # column are the same whichever a file uses.
    path = tmp_path / "doc.json"
    path.write_bytes(end.join(["{", ' "pipeline": {', '  "n": ,', " }", "}"]).encode())
    with pytest.raises(ValueError) as info:
        read_document(path, len)
    assert str(info.value) == f"{path}: invalid JSON: Expecting value at line 3 column 8"


@pytest.mark.parametrize("data, message", [
    (b"[" * 100000, "invalid JSON: nested too deeply"),
    (b"[" + b"7" * 5000 + b"]", "invalid JSON: Exceeds the limit (4300 digits) for integer "
                                "string conversion: value has 5000 digits"),
    (b'"\xe2\x82', "not UTF-8 text: unexpected end of data"),
    (b"", "invalid JSON: Expecting value at column 1"),
], ids=["nested", "digits", "cut-short-utf8", "empty"])
def test_loads_words_a_fault_as_the_file_readers_do(data, message) -> None:
    with pytest.raises(ValueError) as info:
        loads(data, "answer")
    assert str(info.value) == f"answer: {message}"


def test_write_jsonl_names_the_row_and_leaves_the_file_as_it_was(tmp_path) -> None:
    path = tmp_path / "o.jsonl"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError) as info:
        write_jsonl((path, [{"x": 1.0}, {"x": float("nan")}]))
    assert str(info.value).startswith(
        f"{path}: row 2: Out of range float values are not JSON compliant")
    assert path.read_bytes() == b"kept\n"
    assert write_jsonl((path, [{"x": 1.0}, {"y": [2]}])) == 2
    assert path.read_bytes() == b'{"x": 1.0}\n{"y": [2]}\n'


def test_write_jsonl_encodes_every_output_before_it_opens_one(tmp_path) -> None:
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    first.write_bytes(b"kept\n")
    with pytest.raises(ValueError) as info:
        write_jsonl((first, [{"x": 1}]), (second, [{"x": "\ud800"}]))
    assert str(info.value).startswith(f"{second}: row 1: 'utf-8' codec can't encode")
    assert first.read_bytes() == b"kept\n" and not second.exists()
    assert write_jsonl((first, [{"x": 1}]), (second, [{"y": 2}, {"z": 3}])) == 3
    assert (first.read_bytes(), second.read_bytes()) == (b'{"x": 1}\n',
                                                         b'{"y": 2}\n{"z": 3}\n')


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_jsonl_rejects_non_finite_numbers(tmp_path, value) -> None:
    with pytest.raises(ValueError, match="Out of range float values"):
        write_jsonl((tmp_path / "o.jsonl", [{"x": 1.0}, {"x": value}]))


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


# Any value json.loads can return: ints past +-2**1024 and floats with NaN,
# infinities, subnormals and -0.0 among the numbers.
JSON_NUMBERS = st.integers(-(2 ** 1100), 2 ** 1100) | st.floats(allow_subnormal=True)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(value=JSON_VALUES | st.lists(JSON_NUMBERS, max_size=8))
@example(value=[True, 1.0])
@example(value=[10 ** 400, 0.0])
@example(value=[-0.0, 5e-324, 2 ** 1023 * 2 - 1])
@example(value=[[1.0], [2.0]])
@example(value=[])
def test_finite_floats_agrees_with_the_plain_rule(value) -> None:
    expected = reference_finite_floats(value)
    floats = finite_floats(value)
    if expected is None:
        assert floats is None
    else:
        assert floats.dtype == np.float64 and floats.ndim == 1
        assert list(map(float.hex, floats.tolist())) == list(map(float.hex, expected))


def _holds_non_finite(value: object) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, (list, dict)):
        return any(map(_holds_non_finite, value.values() if isinstance(value, dict) else value))
    return False


@settings(max_examples=400, deadline=None)
@given(value=JSON_VALUES)
@example(value={"ключ": ["é", "\u3000", "\U0001f600"], "b": {"z": -0.0, "a": 0.0}})
@example(value=[2 ** 64, -(2 ** 64) - 1, 10 ** 400])
@example(value={"x": [1.0, float("nan")]})
@example(value=float("inf"))
@example(value=[-float("inf")])
def test_dumps_matches_the_stdlib_encoder(value) -> None:
    if _holds_non_finite(value):
        for encode in (reference_dumps, dumps):
            with pytest.raises(ValueError, match="^Out of range float values"):
                encode(value)
    else:
        assert dumps(value) == reference_dumps(value)


def test_dumps_is_shared_safely_across_threads() -> None:
    rows = [{"id": f"t{k}", "k": -k, "text": "é" * k, "v": {"x": [k / 3] * (40 + k)}}
            for k in range(8)]
    expected = [dumps(row) for row in rows]
    start = threading.Barrier(len(rows), timeout=30)

    def encode(row: dict) -> set[str]:
        start.wait()
        return {dumps(row) for _ in range(500)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(rows)) as pool:
            encoded = list(pool.map(encode, rows, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert encoded == [{line} for line in expected]


@pytest.mark.parametrize("value, expected", [
    ((1, 2.5), [1.0, 2.5]), (np.array([1, 0]), [1.0, 0.0]),
    ([np.float32(0.5), np.int64(-3)], [0.5, -3.0]), (b"12", None), ("12", None),
    ([np.bool_(True), 0.0], None), ([np.str_("1")], None), (np.array([[1.0]]), None),
    ({1: 2.0}, None), (5, None), (None, None),
], ids=["tuple", "int-array", "numpy-scalars", "bytes", "str", "np-bool", "np-str",
        "2-d-array", "int-keyed-dict", "int", "none"])
def test_finite_floats_takes_python_and_numpy_sequences_only(value, expected) -> None:
    floats = finite_floats(value)
    assert (None if floats is None else floats.tolist()) == expected
