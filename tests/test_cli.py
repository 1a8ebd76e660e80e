import http.client
import io
import json
import os
import struct
import subprocess
import sys
import threading
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_layout, refuse_threads_after_the_first, write_weights_jsonl
from sffuse.cli import build_parser, main
from sffuse.config import DEFAULT_ALLOCATION_WINDOW, GrpoConfig
from sffuse.mask_engine import ROLE_NAMES, build_composite, load_layout_spec, mask_to_text

DATA = Path(__file__).parent / "data"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def assert_one_error_line(code: int, err: str) -> str:
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err


# --- annotate --------------------------------------------------------------------

def test_annotate_mock_matches_golden(tmp_path, capsys) -> None:
    out = tmp_path / "labeled.jsonl"
    code, _ = run(capsys, "annotate", "--in", str(DATA / "instances_12.jsonl"),
                  "--out", str(out), "--mock")
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_labeled.jsonl").read_bytes()
    stats = tmp_path / "labeled.jsonl.stats.json"
    assert stats.read_bytes() == (DATA / "golden_stats.json").read_bytes()


@pytest.mark.parametrize("parallelism", ["1", "4"])
def test_annotate_records_match_golden(tmp_path, capsys, parallelism) -> None:
    # Every instance's screening numbers, the discarded ones' included.
    records = tmp_path / "records.jsonl"
    code, _ = run(capsys, "annotate", "--in", str(DATA / "instances_12.jsonl"),
                  "--out", str(tmp_path / "labeled.jsonl"), "--mock",
                  "--parallelism", parallelism, "--records", str(records))
    assert code == 0
    assert records.read_bytes() == (DATA / "golden_records.jsonl").read_bytes()


def test_annotate_missing_input(tmp_path, capsys) -> None:
    absent = tmp_path / "absent.jsonl"
    code = main(["annotate", "--in", str(absent), "--out", str(tmp_path / "o.jsonl"), "--mock"])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert "No such file or directory" in err and str(absent) in err


def test_annotate_text_summary_bytes(tmp_path, capsys) -> None:
    out = tmp_path / "labeled.jsonl"
    code, stdout = run(capsys, "annotate", "--in", str(DATA / "instances_12.jsonl"),
                       "--out", str(out), "--mock")
    assert code == 0
    assert stdout == f"labeled 6 / 12 instances (6 discarded, 0 failed) -> {out}\n"


def test_annotate_rejects_an_embedder_temperature(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pipeline": {"embedder_endpoint": {"temperature": 0.5}}}),
                      encoding="utf-8")
    code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"),
                 "--out", str(tmp_path / "o.jsonl"), "--mock", "--config", str(config)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == (f"error: {config}: "
                   "config.pipeline.embedder_endpoint.temperature is not a config field\n")
    assert not (tmp_path / "o.jsonl").exists()


def test_annotate_rejects_a_negative_temperature(tmp_path, capsys) -> None:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"pipeline": {"endpoint": {"temperature": -3}}}),
                      encoding="utf-8")
    code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"),
                 "--out", str(tmp_path / "o.jsonl"), "--mock", "--config", str(config)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == (f"error: {config}: "
                   "config.pipeline.endpoint: temperature must be finite and >= 0\n")
    assert not (tmp_path / "o.jsonl").exists()


def test_annotate_invalid_config(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pipeline": {"tau_acc": 1.5}}), encoding="utf-8")
    code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"),
                 "--out", str(tmp_path / "o.jsonl"), "--mock",
                 "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1
    assert "tau_acc" in err


def test_annotate_duplicate_instance_ids_is_one_error_line(tmp_path, capsys) -> None:
    dataset = tmp_path / "dup.jsonl"
    dataset.write_text('{"id": "a", "question": "q", "gold_answer": "x"}\n' * 2,
                       encoding="utf-8")
    code = main(["annotate", "--in", str(dataset), "--out", str(tmp_path / "o.jsonl"),
                 "--mock"])
    assert code == 1
    assert capsys.readouterr().err == "error: duplicate instance ids: ['a']\n"


def test_annotate_rejects_parallelism_below_one(tmp_path, capsys) -> None:
    code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"),
                 "--out", str(tmp_path / "o.jsonl"), "--mock", "--parallelism", "0"])
    assert code == 1
    assert capsys.readouterr().err == "error: parallelism must be >= 1\n"


def test_annotate_thread_start_failure_is_one_error_line(tmp_path, capsys,
                                                        monkeypatch) -> None:
    refuse_threads_after_the_first(monkeypatch)
    code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"),
                 "--out", str(tmp_path / "o.jsonl"), "--mock", "--parallelism", "4"])
    captured = capsys.readouterr()
    assert assert_one_error_line(code, captured.err) == (
        "error: parallelism 4: cannot start a worker thread: can't start new thread\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # no output, no stats report


def test_annotate_records_flag_writes_all_decisions(tmp_path, capsys) -> None:
    out = tmp_path / "labeled.jsonl"
    records = tmp_path / "records.jsonl"
    code, _ = run(capsys, "annotate", "--in", str(DATA / "instances_12.jsonl"),
                  "--out", str(out), "--mock", "--records", str(records))
    assert code == 0
    rows = [json.loads(line) for line in records.read_text().splitlines()]
    assert len(rows) == 12
    assert rows[0]["decision"] == {"kind": "label", "label": "Audio"}


def test_annotate_json_summary(tmp_path, capsys) -> None:
    out = tmp_path / "labeled.jsonl"
    code, stdout = run(capsys, "annotate", "--in", str(DATA / "instances_12.jsonl"),
                       "--out", str(out), "--mock", "--json")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["labeled"] == 6
    assert summary["failed"] == 0


def test_annotate_identical_bytes_across_parallelism(tmp_path, capsys) -> None:
    blobs = {}
    for bound in (1, 4, 16):
        out = tmp_path / f"labeled_{bound}.jsonl"
        code, _ = run(capsys, "annotate", "--in", str(DATA / "instances_12.jsonl"),
                      "--out", str(out), "--mock", "--parallelism", str(bound))
        assert code == 0
        blobs[bound] = out.read_bytes()
    assert blobs[1] == blobs[4] == blobs[16]


def test_config_key_with_a_line_break_is_one_error_line(tmp_path, capsys) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pipeline": {"mystery\nknob": 1}}), encoding="utf-8")
    code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"),
                 "--out", str(tmp_path / "o.jsonl"), "--mock", "--config", str(config)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert "mystery knob" in err


# --- validate ---------------------------------------------------------------------

def test_validate_all_perfect(tmp_path, capsys) -> None:
    code, stdout = run(capsys, "validate",
                       "--traces", str(DATA / "traces_perfect.jsonl"),
                       "--labels", str(DATA / "labels_perfect.jsonl"),
                       "--json")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["mean_stage2"] == pytest.approx(1.2)
    assert summary["mean_mps"] == 1.0
    assert summary["mean_acc"] == 1.0


def test_validate_all_malformed_scores_zero_with_diagnostics(tmp_path, capsys) -> None:
    out = tmp_path / "scored.jsonl"
    code, stdout = run(capsys, "validate",
                       "--traces", str(DATA / "traces_malformed.jsonl"),
                       "--labels", str(DATA / "labels_malformed.jsonl"),
                       "--out", str(out), "--json")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["mean_stage2"] == 0.0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert row["r_mps"] == 0 and row["r_acc"] == 0
        assert row["diagnostics"], "malformed trace must carry diagnostics"


def test_validate_mixed_hand_computed_means(capsys) -> None:
    code, stdout = run(capsys, "validate",
                       "--traces", str(DATA / "traces_mixed.jsonl"),
                       "--labels", str(DATA / "labels_mixed.jsonl"),
                       "--json")
    assert code == 0
    summary = json.loads(stdout)
    # (1.2 + 1.0 + 0.2 + 0.0) / 4
    assert summary["mean_stage2"] == pytest.approx(0.6)
    assert summary["mean_mps"] == pytest.approx(0.5)
    assert summary["mean_acc"] == pytest.approx(0.5)


@pytest.mark.parametrize("name, line", [
    ("mixed", "4 traces: mean_mps=0.5000 mean_acc=0.5000 mean_stage2=0.6000\n"),
    ("diagnostics", "20 traces: mean_mps=0.1500 mean_acc=0.1500 mean_stage2=0.1800\n"),
])
def test_validate_text_summary_bytes(capsys, name, line) -> None:
    code, stdout = run(capsys, "validate", "--traces", str(DATA / f"traces_{name}.jsonl"),
                       "--labels", str(DATA / f"labels_{name}.jsonl"))
    assert code == 0
    assert stdout == line


def test_validate_diagnostics_match_golden(tmp_path, capsys) -> None:
    # Valid traces (with whitespace between tags) and traces carrying each of
    # the seven diagnostic kinds, alone and together.
    out = tmp_path / "scored.jsonl"
    code, stdout = run(capsys, "validate",
                       "--traces", str(DATA / "traces_diagnostics.jsonl"),
                       "--labels", str(DATA / "labels_diagnostics.jsonl"),
                       "--out", str(out), "--json")
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_validate.jsonl").read_bytes()
    assert stdout == ('{"count": 20, "mean_acc": 0.15, "mean_mps": 0.15, '
                      '"mean_stage2": 0.18}\n')


def test_validate_id_mismatch(tmp_path, capsys) -> None:
    labels = tmp_path / "labels.jsonl"
    labels.write_text('{"id": "other", "pem": "Audio", "answer": "x"}\n',
                      encoding="utf-8")
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(labels)])
    err = capsys.readouterr().err
    assert code == 1
    assert "mismatch" in err


@pytest.mark.parametrize("kind", ["traces", "labels"])
def test_validate_rejects_duplicate_ids(tmp_path, capsys, kind) -> None:
    trace = '{"id": "t1", "text": "<mod>Audio</mod>"}\n'
    label = '{"id": "t1", "pem": "Audio", "answer": "x"}\n'
    traces = tmp_path / "traces.jsonl"
    labels = tmp_path / "labels.jsonl"
    traces.write_text(trace * (2 if kind == "traces" else 1), encoding="utf-8")
    labels.write_text(label * (2 if kind == "labels" else 1), encoding="utf-8")
    code = main(["validate", "--traces", str(traces), "--labels", str(labels)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: duplicate {kind[:-1]} ids: ['t1']\n"


def test_validate_rejects_empty_inputs(tmp_path, capsys) -> None:
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code = main(["validate", "--traces", str(empty), "--labels", str(empty)])
    assert code == 1
    assert capsys.readouterr().err == "error: no traces to score\n"


# --- malformed JSONL lines ------------------------------------------------------------

LAYOUT = str(DATA / "layout_l6.json")


@pytest.mark.parametrize("argv, line", [
    (["annotate", "--in", "{bad}", "--out", "{tmp}/o.jsonl", "--mock"], "[1,2]"),
    (["validate", "--traces", str(DATA / "traces_perfect.jsonl"), "--labels", "{bad}"],
     '"str"'),
    (["grpo-step", "--rollouts", "{bad}"], "[1]"),
    (["attn-report", "--weights", "{bad}", "--spec", LAYOUT], "[1]"),
], ids=["annotate", "validate", "grpo-step", "attn-report"])
def test_non_object_jsonl_line_is_one_error_line(tmp_path, capsys, argv, line) -> None:
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n", encoding="utf-8")
    code = main([a.format(bad=bad, tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{bad}:1: expected a JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["annotate", "--in", "{bad}", "--out", "{tmp}/o.jsonl", "--mock"],
    ["validate", "--traces", "{bad}", "--labels", str(DATA / "labels_perfect.jsonl")],
    ["validate", "--traces", str(DATA / "traces_perfect.jsonl"), "--labels", "{bad}"],
    ["grpo-step", "--rollouts", "{bad}"],
    ["attn-report", "--weights", "{bad}", "--spec", LAYOUT],
], ids=["annotate", "validate-traces", "validate-labels", "grpo-step", "attn-report"])
def test_json_syntax_error_names_path_and_line(tmp_path, capsys, argv) -> None:
    bad = tmp_path / "bad.jsonl"
    bad.write_text('\n \n{"id": "b",\n', encoding="utf-8")
    code = main([a.format(bad=bad, tmp=tmp_path) for a in argv])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert f"{bad}:3: invalid JSON" in err


def test_non_utf8_jsonl_names_its_path(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"group_id": "\xff"}\n')
    code = main(["grpo-step", "--rollouts", str(bad)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert f"{bad}: not UTF-8 text" in err


@pytest.mark.parametrize("argv, line, message", [
    (["grpo-step", "--rollouts", "{bad}"],
     {"rewards": [1, 10**400], "logp_new": [0, 0], "logp_old": [0, 0], "logp_ref": [0, 0]},
     "rewards must hold finite numbers"),
    (["attn-report", "--weights", "{bad}", "--spec", LAYOUT],
     {"layer": 0, "shape": [6, 6], "data": [0.0] * 35 + [-10**400]},
     "data must hold finite numbers"),
], ids=["grpo-step", "attn-report"])
def test_integer_beyond_the_float_range_is_one_error_line(tmp_path, capsys, argv, line,
                                                          message) -> None:
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(line) + "\n", encoding="utf-8")
    code = main([a.format(bad=bad) for a in argv])
    assert assert_one_error_line(code, capsys.readouterr().err) == f"error: {bad}:1: {message}\n"


CONFIG_ARGV = ["--in", str(DATA / "instances_12.jsonl"), "--out", "{tmp}/o.jsonl", "--mock"]


# Every JSON input: each JSONL input, both spec inputs and both --config
# inputs, with the place its decode error names.
JSON_INPUTS = pytest.mark.parametrize("argv, message", [
    (["annotate", "--in", "{bad}", "--out", "{tmp}/o.jsonl", "--mock"], "{bad}:1: invalid JSON"),
    (["validate", "--traces", "{bad}", "--labels", str(DATA / "labels_perfect.jsonl")],
     "{bad}:1: invalid JSON"),
    (["validate", "--traces", str(DATA / "traces_perfect.jsonl"), "--labels", "{bad}"],
     "{bad}:1: invalid JSON"),
    (["grpo-step", "--rollouts", "{bad}"], "{bad}:1: invalid JSON"),
    (["attn-report", "--weights", "{bad}", "--spec", LAYOUT], "{bad}:1: invalid JSON"),
    (["mask", "--spec", "{bad}"], "{bad}: invalid JSON"),
    (["attn-report", "--weights", "{tmp}/w.jsonl", "--spec", "{bad}"],
     "{bad}: invalid JSON"),
    (["annotate", *CONFIG_ARGV, "--config", "{bad}"], "{bad}: invalid JSON"),
    (["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
      "--labels", str(DATA / "labels_perfect.jsonl"), "--config", "{bad}"],
     "{bad}: invalid JSON"),
], ids=["jsonl-annotate", "jsonl-validate-traces", "jsonl-validate-labels", "jsonl-grpo-step",
        "jsonl-attn-report", "spec-mask", "spec-attn-report", "config-annotate",
        "config-validate"])


@JSON_INPUTS
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, argv, message) -> None:
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "\n", encoding="utf-8")
    write_weights_jsonl(tmp_path / "w.jsonl", [np.full((6, 6), 1.0 / 6.0)])
    code = main([a.format(bad=bad, tmp=tmp_path) for a in argv])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == f"error: {message.format(bad=bad)}: nested too deeply\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python has no digit limit for integer conversion")
@JSON_INPUTS
def test_integer_too_long_to_convert_is_invalid_json(tmp_path, capsys, argv, message) -> None:
    limit = sys.get_int_max_str_digits()
    digits = limit + 700
    bad = tmp_path / "long.json"
    bad.write_text('{"length": ' + "1" * digits + "}\n", encoding="utf-8")
    write_weights_jsonl(tmp_path / "w.jsonl", [np.full((6, 6), 1.0 / 6.0)])
    code = main([a.format(bad=bad, tmp=tmp_path) for a in argv])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == (f"error: {message.format(bad=bad)}: Exceeds the limit ({limit} digits) "
                   f"for integer string conversion: value has {digits} digits\n")


@pytest.mark.parametrize("flag", ["--out", "--report", "--records"])
def test_annotate_unwritable_output_is_one_error_line(tmp_path, capsys, flag) -> None:
    # Every output is opened before any is written: the old --out keeps its
    # bytes, and a stats report or --records file this run created is gone.
    out = tmp_path / "o.jsonl"
    out.write_bytes(b"old labels\n")
    missing = tmp_path / "missing" / "x.jsonl"
    paths = {"--out": out, "--records": tmp_path / "r.jsonl", flag: missing}
    argv = ["annotate", "--in", str(DATA / "instances_12.jsonl"), "--mock"]
    code = main(argv + [arg for item in paths.items() for arg in map(str, item)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["o.jsonl"]
    assert out.read_bytes() == b"old labels\n"


@pytest.mark.parametrize("flag", ["--report", "--records"])
def test_annotate_outputs_naming_one_file_are_one_error_line(tmp_path, capsys, flag) -> None:
    # Refused before any output is written, so the labels are not lost under
    # the stats report, and no summary is printed.
    out = tmp_path / "o.jsonl"
    out.write_bytes(b"old labels\n")
    same = str(tmp_path / "." / "o.jsonl")
    code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"), "--mock",
                 "--out", str(out), flag, same])
    captured = capsys.readouterr()
    assert captured.out == ""
    err = assert_one_error_line(code, captured.err)
    assert err == f"error: {out} and {same} are the same file\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["o.jsonl"]
    assert out.read_bytes() == b"old labels\n"


def test_annotate_directory_input_is_one_error_line(capsys) -> None:
    code = main(["annotate", "--in", str(DATA), "--out", "unused.jsonl", "--mock"])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert "Is a directory" in err


def test_annotate_string_fields_are_not_coerced(tmp_path, capsys) -> None:
    dataset = tmp_path / "instances.jsonl"
    dataset.write_text('{"id": 7, "question": null, "gold_answer": null}\n', encoding="utf-8")
    code = main(["annotate", "--in", str(dataset), "--out", str(tmp_path / "o.jsonl"),
                 "--mock"])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert f"{dataset}:1: field 'id' must be a string" in err
    assert not (tmp_path / "o.jsonl").exists()


def test_annotate_unencodable_text_is_a_recorded_failure(tmp_path, capsys) -> None:
    # A lone surrogate cannot be UTF-8 encoded for hashing; the position in
    # the recorded message counts the embedder's "0:" prefix bytes.
    dataset = tmp_path / "instances.jsonl"
    dataset.write_text('{"id": "u1", "question": "What barks? solvable=A,AV", '
                       '"gold_answer": "dog\\ud800"}\n', encoding="utf-8")
    out = tmp_path / "labeled.jsonl"
    code = main(["annotate", "--in", str(dataset), "--out", str(out), "--mock"])
    assert_one_error_line(code, capsys.readouterr().err)
    assert (tmp_path / "labeled.jsonl.stats.json").read_text(encoding="utf-8") == (
        '{"discard_counts": {"Ambiguous": 0, "Contradictory": 0, "TriviallyEasy": 0, '
        '"Unsolvable": 0}, "discarded": 0, "failed": 1, "failures": [{"error": '
        '"\'utf-8\' codec can\'t encode character \'\\\\ud800\' in position 67: '
        'surrogates not allowed", "id": "u1"}], "label_counts": {"Audio": 0, '
        '"Audio-Visual": 0, "Visual": 0}, "labeled": 0, "total": 1}\n')


def test_annotate_unencodable_output_row_leaves_the_old_file(tmp_path, capsys) -> None:
    # A lone surrogate in the question reaches the labeled row, which cannot
    # be UTF-8 encoded; nothing is written, the stats report included.
    dataset = tmp_path / "instances.jsonl"
    dataset.write_text('{"id": "u1", "question": "What barks\\ud800? solvable=A,AV", '
                       '"gold_answer": "dog"}\n', encoding="utf-8")
    out = tmp_path / "labeled.jsonl"
    out.write_bytes(b"old\n")
    code = main(["annotate", "--in", str(dataset), "--out", str(out), "--mock"])
    assert assert_one_error_line(code, capsys.readouterr().err) == (
        f"error: {out}: row 1: 'utf-8' codec can't encode character '\\ud800' in "
        "position 443: surrogates not allowed\n")
    assert out.read_bytes() == b"old\n"
    assert not (tmp_path / "labeled.jsonl.stats.json").exists()


@pytest.mark.parametrize("records", [False, True], ids=["out-and-stats", "with-records"])
def test_annotate_unencodable_stats_row_leaves_every_old_file(tmp_path, capsys,
                                                              records) -> None:
    # One instance is labeled; the other's id holds a lone surrogate, so it
    # fails and its failure row cannot be UTF-8 encoded in the stats report.
    # Every output is encoded before the first is opened: none is replaced.
    dataset = tmp_path / "instances.jsonl"
    dataset.write_text(
        '{"id": "ok1", "question": "What? solvable=A,AV", "gold_answer": "dog"}\n'
        '{"id": "bad\\ud800", "question": "What? solvable=A,AV", "gold_answer": "dog"}\n',
        encoding="utf-8")
    out, stats, rows = tmp_path / "o.jsonl", tmp_path / "o.jsonl.stats.json", tmp_path / "r.jsonl"
    for path in (out, stats, rows):
        path.write_bytes(f"old {path.name}\n".encode())
    code = main(["annotate", "--in", str(dataset), "--out", str(out), "--mock",
                 *(["--records", str(rows)] if records else [])])
    assert assert_one_error_line(code, capsys.readouterr().err) == (
        f"error: {stats}: row 1: 'utf-8' codec can't encode character '\\ud800' in "
        "position 245: surrogates not allowed\n")
    for path in (out, stats, rows):
        assert path.read_bytes() == f"old {path.name}\n".encode()


def test_annotate_empty_dataset_is_one_error_line(tmp_path, capsys) -> None:
    dataset = tmp_path / "empty.jsonl"
    dataset.write_bytes(b"")
    code = main(["annotate", "--in", str(dataset), "--out", str(tmp_path / "o.jsonl"),
                 "--mock"])
    assert assert_one_error_line(code, capsys.readouterr().err) == "error: dataset is empty\n"
    assert list(tmp_path.iterdir()) == [dataset]


def test_annotate_without_labels_says_why(tmp_path, capsys) -> None:
    dataset = tmp_path / "instances.jsonl"
    dataset.write_text('{"id": "a", "question": "q [solvable=none]", "gold_answer": "x"}\n',
                       encoding="utf-8")
    code = main(["annotate", "--in", str(dataset), "--out", str(tmp_path / "o.jsonl"),
                 "--mock"])
    captured = capsys.readouterr()
    assert assert_one_error_line(code, captured.err) == "error: no instance was labeled\n"
    assert captured.out.startswith("labeled 0 / 1 instances")


def annotate_live(tmp_path, pipeline: dict) -> list[str]:
    """argv for ``annotate`` on one instance with endpoints (not ``--mock``)."""
    dataset = tmp_path / "instances.jsonl"
    dataset.write_text('{"id": "i", "question": "q", "gold_answer": "g"}\n', encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pipeline": pipeline}), encoding="utf-8")
    return ["annotate", "--in", str(dataset), "--out", str(tmp_path / "o.jsonl"),
            "--config", str(config)]


@pytest.mark.parametrize("pipeline, role", [
    ({}, "endpoint"),
    ({"endpoint": {"base_url": "http://chat"}}, "embedder"),
], ids=["no-chat-url", "no-embedder-url"])
def test_annotate_without_an_endpoint_url_says_use_mock(tmp_path, capsys, pipeline,
                                                        role) -> None:
    code = main(annotate_live(tmp_path, pipeline))
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == f"error: {role} base_url is required (use --mock for offline runs)\n"


def test_annotate_timeout_beyond_a_socket_is_one_error_line(tmp_path, capsys) -> None:
    # Refused when the config is read, before any connection is tried.
    code = main(annotate_live(tmp_path, {
        "endpoint": {"base_url": "http://127.0.0.1:9/chat", "timeout": 1e10, "retries": 0},
        "embedder_endpoint": {"base_url": "http://127.0.0.1:9/embed"}}))
    assert assert_one_error_line(code, capsys.readouterr().err) == (
        f"error: {tmp_path / 'config.json'}: config.pipeline.endpoint: "
        f"timeout must be at most {threading.TIMEOUT_MAX:.0f} seconds\n")
    assert not (tmp_path / "o.jsonl").exists()


def answer_body(body):
    """A ``urlopen`` stand-in that answers ``body``."""
    return lambda request, timeout: io.BytesIO(body)


def answer_cut_short(request, timeout):
    raise http.client.IncompleteRead(b"{", 10)


@pytest.mark.parametrize("urlopen, error", [
    (answer_body(b"[]"), "the answer is not a JSON object"),
    (answer_cut_short, "IncompleteRead(1 bytes read, 10 more expected)"),
    (answer_body(b"<html>busy</html>"), "invalid JSON: Expecting value at column 1"),
    (answer_body(b"\xff\xfe{}"), "not UTF-8 text: invalid start byte"),
    (answer_body(b"[" * 100000), "invalid JSON: nested too deeply"),
    (answer_body(b"[" + b"7" * 5000 + b"]"), "invalid JSON: Exceeds the limit (4300 digits) "
                                           "for integer string conversion: value has 5000 digits"),
], ids=["list-answer", "incomplete-read", "html-answer", "not-utf8-answer", "nested-answer",
        "digits-answer"])
def test_annotate_unusable_endpoint_answer_is_a_recorded_failure(tmp_path, capsys, monkeypatch,
                                                                 urlopen, error) -> None:
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    code = main(annotate_live(tmp_path, {
        "n": 2, "endpoint": {"base_url": "http://chat", "retries": 1},
        "embedder_endpoint": {"base_url": "http://embed"}}))
    captured = capsys.readouterr()
    assert assert_one_error_line(code, captured.err) == "error: 1 of 1 instances failed\n"
    assert captured.out == (
        f"labeled 0 / 1 instances (0 discarded, 1 failed) -> {tmp_path}/o.jsonl\n")
    stats = json.loads((tmp_path / "o.jsonl.stats.json").read_text(encoding="utf-8"))
    assert stats["failures"] == [{"id": "i", "error": f"endpoint unreachable for i/A: {error}"}]


def test_validate_unencodable_output_row_leaves_the_old_file(tmp_path, capsys) -> None:
    traces = tmp_path / "traces.jsonl"
    traces.write_text('{"id": "a\\ud800", "text": "x"}\n', encoding="utf-8")
    labels = tmp_path / "labels.jsonl"
    labels.write_text('{"id": "a\\ud800", "pem": "Audio", "answer": "x"}\n', encoding="utf-8")
    out = tmp_path / "scored.jsonl"
    out.write_bytes(b"old\n")
    code = main(["validate", "--traces", str(traces), "--labels", str(labels),
                 "--out", str(out)])
    assert assert_one_error_line(code, capsys.readouterr().err) == (
        f"error: {out}: row 1: 'utf-8' codec can't encode character '\\ud800' in "
        "position 377: surrogates not allowed\n")
    assert out.read_bytes() == b"old\n"


def test_validate_unwritable_output_is_one_error_line(tmp_path, capsys) -> None:
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(DATA / "labels_perfect.jsonl"),
                 "--out", str(tmp_path / "missing" / "scored.jsonl")])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert "No such file or directory" in err


@pytest.mark.parametrize("config, message", [
    ({"rewards": {"lambda_acc": -1}},
     "config.rewards: reward weights must be nonnegative and finite"),
    ({"rewards": {"lambda_acc": 10**400}}, "config.rewards.lambda_acc must be a finite number"),
    ([1, 2], "config must be an object"),
], ids=["negative-weight", "beyond-float-weight", "array-root"])
def test_validate_config_errors_name_their_file(tmp_path, capsys, config, message) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(DATA / "labels_perfect.jsonl"), "--config", str(path)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == f"error: {path}: {message}\n"


def test_validate_absent_config_gives_the_os_message(tmp_path, capsys) -> None:
    absent = tmp_path / "absent.json"
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(DATA / "labels_perfect.jsonl"), "--config", str(absent)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == f"error: [Errno 2] No such file or directory: '{absent}'\n"


def test_validate_unknown_pem_label_is_one_error_line(tmp_path, capsys) -> None:
    labels = tmp_path / "labels.jsonl"
    perfect = (DATA / "labels_perfect.jsonl").read_text(encoding="utf-8")
    labels.write_text(perfect.replace('"pem": "Visual"', '"pem": "Smell"'), encoding="utf-8")
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(labels), "--out", str(tmp_path / "scored.jsonl")])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert assert_one_error_line(code, captured.err) == (
        f"error: {labels}:2: unknown PEM value 'Smell'\n")
    assert not (tmp_path / "scored.jsonl").exists()


@pytest.mark.parametrize("line, message", [
    ('{"id": "t1", "pem": "Audio"}', "missing field 'answer'"),
    ('{"id": "t1", "pem": "Audio", "answer": null}', "field 'answer' must be a string"),
    ('{"id": "t1", "pem": 3, "answer": "x"}', "field 'pem' must be a string"),
    # A blank gold answer would match the answer "." and score it correct.
    ('{"id": "t1", "pem": "Audio", "answer": "  "}', "answer must be nonempty"),
], ids=["missing", "null-answer", "int-pem", "blank-answer"])
def test_validate_label_fields_name_their_place(tmp_path, capsys, line, message) -> None:
    labels = tmp_path / "labels.jsonl"
    labels.write_text(line + "\n", encoding="utf-8")
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(labels)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert f"{labels}:1: {message}" in err


# --- mask -------------------------------------------------------------------------

def test_mask_row_prints_fixture_row(capsys) -> None:
    code, stdout = run(capsys, "mask", "--spec", str(DATA / "layout_l6.json"),
                       "--row", "3")
    assert code == 0
    assert stdout.strip() == "0101"


# The composite mask of layout_l6.json, pinned as a golden file so the CLI
# tests do not compare the mask builders with themselves. Query 2 (visual
# reasoning) cannot see key 1 (audio input); query 3 (audio reasoning)
# cannot see key 0 (video input) or key 2 (the visual span).
L6_GRID = (DATA / "golden_mask_l6.txt").read_bytes().decode("utf-8")
# Header (magic, length 6, first bit 1, 15 runs), then the run lengths.
L6_RLE = struct.pack("<4sIBI15I", b"MRL1", 6, 1, 15,
                     1, 5, 2, 4, 1, 1, 1, 4, 1, 1, 1, 2, 5, 1, 6)


def test_mask_out_grid_and_rle(tmp_path, capsys) -> None:
    grid = tmp_path / "mask.txt"
    rle = tmp_path / "mask.bin"
    code, _ = run(capsys, "mask", "--spec", str(DATA / "layout_l6.json"),
                  "--out", str(grid), "--rle", str(rle))
    assert code == 0
    assert grid.read_bytes() == L6_GRID.encode()
    assert rle.read_bytes() == L6_RLE


def test_mask_stdout_grid(capsys) -> None:
    code, stdout = run(capsys, "mask", "--spec", str(DATA / "layout_l6.json"))
    assert code == 0
    assert stdout == L6_GRID


def layout_specs(tmp_path) -> list[Path]:
    """Every layout spec in tests/data, then specs of 12 random layouts."""
    specs = sorted(DATA.glob("layout_*.json"))
    rng = np.random.default_rng(39)
    for k in range(12):
        layout = random_layout(rng, max_length=40)
        spec = {"length": layout.length,
                **{name: [[p, p] for p in sorted(getattr(layout, name))] for name in ROLE_NAMES}}
        path = tmp_path / f"random_{k}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert load_layout_spec(path) == layout
        specs.append(path)
    return specs


def test_mask_row_and_out_are_the_grid_bytes(tmp_path, capsys) -> None:
    # --row i is line i of the grid cut to its i + 1 causal cells, and --out
    # holds the grid's bytes, for every row of every layout.
    for spec in layout_specs(tmp_path):
        grid = mask_to_text(build_composite(load_layout_spec(spec)))
        for i, line in enumerate(grid.splitlines()):
            assert run(capsys, "mask", "--spec", str(spec), "--row", str(i)) == (
                0, line[:i + 1] + "\n")
        out = tmp_path / f"{spec.stem}.txt"
        assert run(capsys, "mask", "--spec", str(spec), "--out", str(out)) == (0, "")
        assert out.read_bytes() == grid.encode("ascii")


def test_mask_row_out_of_range(tmp_path, capsys) -> None:
    # Rows just below, at and past the layout are one error line and no
    # output: an old --out keeps its bytes, and no --rle file is made.
    specs = layout_specs(tmp_path)
    old = tmp_path / "old"
    old.write_bytes(b"old grid\n")
    files = sorted(tmp_path.iterdir())
    for spec in specs:
        length = load_layout_spec(spec).length
        for row in (-1, length, length + 5):
            for outputs in ([], ["--out", str(old), "--rle", str(tmp_path / "new.rle")]):
                argv = ["mask", "--spec", str(spec), "--row", str(row), *outputs]
                code = main(argv)
                captured = capsys.readouterr()
                assert (code, captured.out) == (1, ""), argv
                assert captured.err == f"error: row {row} out of range [0, {length})\n", argv
                assert sorted(tmp_path.iterdir()) == files, argv
                assert old.read_bytes() == b"old grid\n", argv


@pytest.mark.parametrize("spec, field", [
    ({"length": 3, "video_input": 5}, "video_input must be a list of [first, last] pairs"),
    (["length"], "layout spec must be a JSON object"),
    ({"length": 4, "audio_input": [[0]]}, "audio_input must be a list"),
    ({"length": 4, "audio_input": [0, 1]}, "audio_input must be a list"),
    ({"length": True}, "length must be an integer"),
    ({"length": 4.0}, "length must be an integer"),
    ({"length": 4, "video_input": [[0, 1.0]]}, "video_input: range bound must be an integer"),
    ({"length": 4, "video_input": [[False, 1]]}, "video_input: range bound must be an integer"),
], ids=["role-int", "top-list", "short-pair", "flat-pair", "bool-length", "float-length",
        "float-bound", "bool-bound"])
@pytest.mark.parametrize("command", ["mask", "attn-report"])
def test_malformed_layout_spec_is_one_error_line(tmp_path, capsys, command, spec,
                                                 field) -> None:
    spec_path = tmp_path / "layout.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [command, "--spec", str(spec_path)]
    if command == "attn-report":
        argv += ["--weights", str(tmp_path / "weights.jsonl")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and field in lines[0]
    assert f"error: {spec_path}: " in lines[0]


def test_mask_unwritable_output_is_one_error_line(tmp_path, capsys) -> None:
    # Both outputs are opened before either is written: an old one keeps its
    # bytes, and one this run created is gone.
    missing = str(tmp_path / "missing" / "x")
    old = tmp_path / "old"
    old.write_bytes(b"old grid\n")
    for argv in (["--out", missing], ["--out", str(old), "--rle", missing],
                 ["--out", str(tmp_path / "new"), "--rle", missing],
                 ["--out", missing, "--rle", str(old)], ["--row", "2", "--out", missing]):
        code = main(["mask", "--spec", LAYOUT, *argv])
        captured = capsys.readouterr()
        assert captured.out == "", argv
        err = assert_one_error_line(code, captured.err)
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n", argv
        assert sorted(path.name for path in tmp_path.iterdir()) == ["old"], argv
        assert old.read_bytes() == b"old grid\n", argv


def test_mask_outputs_naming_one_file_are_one_error_line(tmp_path, capsys) -> None:
    # Refused before either output is written: an old file keeps its bytes,
    # and a new one is not left behind.
    old = tmp_path / "old"
    old.write_bytes(b"old grid\n")
    for first, second in [(str(old), str(tmp_path / "." / "old")),
                          (str(tmp_path / "new"), str(tmp_path / "new"))]:
        code = main(["mask", "--spec", LAYOUT, "--row", "2", "--out", first, "--rle", second])
        captured = capsys.readouterr()
        assert captured.out == ""
        err = assert_one_error_line(code, captured.err)
        assert err == f"error: {first} and {second} are the same file\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["old"]
        assert old.read_bytes() == b"old grid\n"


def test_mask_spec_syntax_error_names_its_path(tmp_path, capsys) -> None:
    spec = tmp_path / "layout.json"
    spec.write_text('{"length": 3,', encoding="utf-8")
    code = main(["mask", "--spec", str(spec)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert f"{spec}: invalid JSON" in err


# A child process with its address space capped at 1 GiB: an input that
# needs more memory, such as a spec range expanded before its bounds are
# checked, fails there with a MemoryError instead of taking the memory of
# the machine running the tests.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sffuse.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(argv: list[str]) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("last", [10**12, 10**400], ids=["1e12", "1e400"])
@pytest.mark.parametrize("command", ["mask", "attn-report"])
def test_spec_bound_far_out_of_range_is_one_error_line(tmp_path, command, last) -> None:
    spec = tmp_path / "layout.json"
    spec.write_text(json.dumps({"length": 4, "video_input": [[0, last]]}), encoding="utf-8")
    argv = [command, "--spec", str(spec)]
    if command == "attn-report":
        argv += ["--weights", str(tmp_path / "weights.jsonl")]
    done = run_capped(argv)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {spec}: video_input index out of range [0, 4)\n"


# Each input is valid but needs more memory than the capped child has.
@pytest.mark.parametrize("command, document", [
    (["mask", "--spec", "{doc}", "--row", "0"], {"length": 100_000_000}),
    (["mask", "--spec", "{doc}", "--out", "{tmp}/mask.txt"], {"length": 100_000_000}),
    (["annotate", "--mock", "--config", "{doc}", "--in", str(DATA / "instances_12.jsonl"),
      "--out", "{tmp}/o.jsonl"], {"pipeline": {"n": 1_000_000_000}}),
], ids=["mask-row", "mask-out", "annotate-n"])
def test_oversized_input_is_one_error_line(tmp_path, command, document) -> None:
    doc = tmp_path / "input.json"
    doc.write_text(json.dumps(document), encoding="utf-8")
    done = run_capped([arg.format(doc=doc, tmp=tmp_path) for arg in command])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: Unable to allocate ")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


# Within intp, but its row table would be larger than numpy can size.
@pytest.mark.parametrize("extra", [[], ["--row", "0"]], ids=["mask", "row"])
def test_spec_length_beyond_the_row_table_limit_names_the_field(tmp_path, extra) -> None:
    spec = tmp_path / "layout.json"
    spec.write_text(json.dumps({"length": 1 << 62}), encoding="utf-8")
    done = run_capped(["mask", "--spec", str(spec), *extra])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {spec}: length must be <= {(1 << 60) - 1}\n"


@pytest.mark.parametrize("spec, message", [
    ({"length": 4, "video_input": [[0, 9]], "summary_span": [[2, 1]]},
     "summary_span: range [2, 1] is reversed"),
    ({"length": 0, "video_input": [[0, 9]], "audio_input": [[0]]},
     "audio_input must be a list of [first, last] pairs"),
    ({"length": 0, "video_input": [[-5, 9]]}, "length must be >= 1"),
    ({"length": 4, "audio_input": [[0, 9]], "video_input": [[-1, 0]]},
     "video_input index out of range [0, 4)"),
    ({"length": 4, "video_input": [[0, 1]], "audio_input": [[1, 2], [3, 4]]},
     "audio_input index out of range [0, 4)"),
    ({"length": 10**400, "video_input": [[0, 9]], "audio_input": [[0]]},
     "audio_input must be a list of [first, last] pairs"),
    ({"length": 10**400, "video_input": [[-5, 10**401]]},
     f"length must be <= {np.iinfo(np.intp).max >> 3}"),
], ids=["pairs-before-bounds", "pairs-before-length", "length-before-bounds",
        "bounds-in-role-order", "bounds-before-overlap", "pairs-before-huge-length",
        "huge-length-before-bounds"])
def test_spec_names_its_first_fault(tmp_path, capsys, spec, message) -> None:
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["mask", "--spec", str(path)])
    assert assert_one_error_line(code, capsys.readouterr().err) == f"error: {path}: {message}\n"


# --- grpo-step -----------------------------------------------------------------------

def test_grpo_step_equal_rewards_zero_objective(capsys) -> None:
    code, stdout = run(capsys, "grpo-step",
                       "--rollouts", str(DATA / "rollouts_equal.jsonl"),
                       "--beta", "0", "--json")
    assert code == 0
    payload = json.loads(stdout)
    group = payload["groups"][0]
    assert group["objective"] == 0.0
    assert group["advantages"] == [0.0, 0.0, 0.0, 0.0]


def test_grpo_step_text_output(capsys) -> None:
    code, stdout = run(capsys, "grpo-step",
                       "--rollouts", str(DATA / "rollouts_equal.jsonl"),
                       "--beta", "0")
    assert code == 0
    assert "objective=0.000000" in stdout


def test_grpo_step_text_output_bytes(tmp_path, capsys) -> None:
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text(
        '{"group_id": "g1", "rewards": [1, 0], "logp_new": [-1.0, -2.0], '
        '"logp_old": [-1.25, -1.5], "logp_ref": [-1.0, -2.5]}\n'
        '{"group_id": "g2", "rewards": [0.5, 0.5, 2], "logp_new": [-1, -1, -1], '
        '"logp_old": [-1, -1, -1], "logp_ref": [-1, -1, -1]}\n', encoding="utf-8")
    code, stdout = run(capsys, "grpo-step", "--rollouts", str(rollouts))
    assert code == 0
    assert stdout == (
        "group g1: objective=0.199467 kl=0.053265\n"
        "  advantages      = [0.9999999800000006, -0.9999999800000006]\n"
        "  ratios          = [1.2840254166877414, 0.6065306597126334]\n"
        "  surrogate_terms = [1.1999999760000006, -0.7999999840000005]\n"
        "group g2: objective=0.000000 kl=0.000000\n"
        "  advantages      = [-0.7071067741154798, -0.7071067741154798, 1.4142135482309597]\n"
        "  ratios          = [1.0, 1.0, 1.0]\n"
        "  surrogate_terms = [-0.7071067741154798, -0.7071067741154798, 1.4142135482309597]\n")


@pytest.mark.parametrize("mode, golden", [([], "golden_grpo.txt"),
                                          (["--json"], "golden_grpo.json")],
                         ids=["text", "json"])
def test_grpo_step_mixed_group_sizes_match_golden(capsys, mode, golden) -> None:
    # Sizes 2, 3 and 8 interleaved; an all-equal group, a clip-bound group
    # and integer log-probs.
    code, stdout = run(capsys, "grpo-step", "--rollouts", str(DATA / "rollouts_mixed.jsonl"),
                       *mode)
    assert code == 0
    assert stdout.encode("utf-8") == (DATA / golden).read_bytes()


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_grpo_step_names_the_first_failing_group_in_file_order(tmp_path, capsys,
                                                               mode) -> None:
    # Sizes 3, 2, 3: the second group's KL estimate overflows and the third
    # group's ratios are not finite; nothing is printed for the first.
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text(
        '{"group_id": "a", "rewards": [1, 0, 1], "logp_new": [0, 0, 0], '
        '"logp_old": [0, 0, 0], "logp_ref": [0, 0, 0]}\n'
        '{"group_id": "b", "rewards": [1, 0], "logp_new": [0, 0], "logp_old": [0, 0], '
        '"logp_ref": [710, 0]}\n'
        '{"group_id": "c", "rewards": [1, 0, 1], "logp_new": [1000, 0, 0], '
        '"logp_old": [0, 0, 0], "logp_ref": [0, 0, 0]}\n', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["grpo-step", "--rollouts", str(rollouts), *mode])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == ("error: group b: KL estimate overflows: "
                            "logp_ref - logp_new is too large\n")


def test_grpo_step_rejects_duplicate_group_ids(tmp_path, capsys) -> None:
    # The third record has no group_id, so its id is its line number, "3".
    record = ('"rewards": [1, 0], "logp_new": [0, 0], "logp_old": [0, 0], '
              '"logp_ref": [0, 0]}\n')
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text(f'{{"group_id": "3", {record}' * 2 + f'{{{record}', encoding="utf-8")
    code = main(["grpo-step", "--rollouts", str(rollouts)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: duplicate group ids: ['3']\n"


def test_grpo_step_rejects_bad_alpha(capsys) -> None:
    code = main(["grpo-step", "--rollouts", str(DATA / "rollouts_equal.jsonl"),
                 "--alpha", "7"])
    assert code == 1


def test_grpo_step_rejects_a_string_of_rewards(tmp_path, capsys) -> None:
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text('{"rewards": "12", "logp_new": [0, 1], "logp_old": [0, 1], '
                        '"logp_ref": [0, 1]}\n', encoding="utf-8")
    code = main(["grpo-step", "--rollouts", str(rollouts)])
    captured = capsys.readouterr()
    err = assert_one_error_line(code, captured.err)
    assert captured.out == ""
    assert err == f"error: {rollouts}:1: rewards must hold finite numbers\n"


def test_grpo_step_group_error_names_the_group(capsys, tmp_path) -> None:
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text('{"group_id": "g9", "rewards": [0, 1], "logp_new": [0, 1e6], '
                        '"logp_old": [0, 0], "logp_ref": [0, 0]}\n', encoding="utf-8")
    with np.errstate(over="ignore"):
        code = main(["grpo-step", "--rollouts", str(rollouts), "--json"])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == "error: group g9: non-finite importance ratios\n"


@pytest.mark.parametrize("flag, field", [("--beta", "kl_beta"), ("--eps", "eps_stab"),
                                         ("--alpha", "clip_alpha")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_grpo_step_rejects_a_nan_setting(capsys, flag, field, value) -> None:
    code = main(["grpo-step", "--rollouts", str(DATA / "rollouts_equal.jsonl"), flag, value])
    captured = capsys.readouterr()
    err = assert_one_error_line(code, captured.err)
    assert captured.out == ""
    assert err.startswith(f"error: {field} must ")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999"])
def test_grpo_step_rejects_non_finite_rewards(tmp_path, capsys, value) -> None:
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text(f'{{"rewards": [{value}, 1, 1, 1], "logp_new": [0, 0, 0, 0], '
                        '"logp_old": [0, 0, 0, 0], "logp_ref": [0, 0, 0, 0]}\n',
                        encoding="utf-8")
    code = main(["grpo-step", "--rollouts", str(rollouts), "--json"])
    captured = capsys.readouterr()
    err = assert_one_error_line(code, captured.err)
    assert captured.out == ""
    assert err == f"error: {rollouts}:1: rewards must hold finite numbers\n"


def test_grpo_step_json_output_is_strict(tmp_path, capsys) -> None:
    # Finite inputs whose KL estimate overflows: the JSON summary would say Infinity.
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text('{"rewards": [0, 1], "logp_new": [0, 0], "logp_old": [0, 0], '
                        '"logp_ref": [1000, 0]}\n', encoding="utf-8")
    with np.errstate(over="ignore"):
        code = main(["grpo-step", "--rollouts", str(rollouts), "--json"])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured.err)
    assert captured.out == ""
    assert captured.err == ("error: group 1: KL estimate overflows: "
                            "logp_ref - logp_new is too large\n")


@pytest.mark.parametrize("line, message", [
    ('{"group_id": "g2", "rewards": [1e308, 1e308, -1e308], "logp_new": [0, 0, 0], '
     '"logp_old": [0, 0, 0], "logp_ref": [0, 0, 0]}',
     "error: group g2: reward variance overflows: rewards are too far apart\n"),
    ('{"group_id": "g2", "rewards": [0, 1], "logp_new": [0, 0], "logp_old": [0, 0], '
     '"logp_ref": [710, 0]}',
     "error: group g2: KL estimate overflows: logp_ref - logp_new is too large\n"),
], ids=["rewards", "kl"])
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_grpo_step_overflow_is_one_error_line_naming_the_group(tmp_path, capsys, line,
                                                               message, mode) -> None:
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text(line + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["grpo-step", "--rollouts", str(rollouts), *mode])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured.err)
    assert captured.out == ""
    assert captured.err == message


def test_grpo_step_kl_subtraction_overflow_is_one_error_line(tmp_path, capsys) -> None:
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text('{"group_id": "g", "rewards": [1, 0], "logp_new": [-1e308, 0], '
                        '"logp_old": [0, 0], "logp_ref": [1e308, 0]}\n', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["grpo-step", "--rollouts", str(rollouts)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert assert_one_error_line(code, captured.err) == (
        "error: group g: KL estimate overflows: logp_ref - logp_new is too large\n")


def test_grpo_step_objective_subtraction_overflow_is_one_error_line(tmp_path, capsys) -> None:
    # The surrogate (about -8.2e307) and beta * KL (about 1.2e308) are each
    # finite; their difference is not.
    rollouts = tmp_path / "rollouts.jsonl"
    rollouts.write_text('{"group_id": "g", "rewards": [0, 1], "logp_new": [709.7, 0], '
                        '"logp_old": [0, 0], "logp_ref": [1418.7, 0]}\n', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["grpo-step", "--rollouts", str(rollouts), "--beta", "3"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert assert_one_error_line(code, captured.err) == (
        "error: group g: objective overflows: importance ratios are too large\n")


# --- attn-report -----------------------------------------------------------------------

@pytest.mark.parametrize("mode, golden", [([], "golden_attn_report.txt"),
                                          (["--json"], "golden_attn_report.json")],
                         ids=["text", "json"])
def test_attn_report_matches_golden(capsys, mode, golden) -> None:
    # Four causal layers in eighths; in the third the summary rows put all
    # their mass on key 0, so it has no span mass.
    code, stdout = run(capsys, "attn-report", "--weights", str(DATA / "weights_l10.jsonl"),
                       "--spec", str(DATA / "layout_l10.json"), *mode)
    assert code == 0
    assert stdout.encode("utf-8") == (DATA / golden).read_bytes()


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_attn_report_names_a_layout_without_a_summary_span(tmp_path, capsys, mode) -> None:
    spec = json.loads((DATA / "layout_l10.json").read_text(encoding="utf-8"))
    del spec["summary_span"]
    spec_path = tmp_path / "layout.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["attn-report", "--weights", str(DATA / "weights_l10.jsonl"),
                 "--spec", str(spec_path), *mode])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert assert_one_error_line(code, captured.err) == (
        "error: layout has no summary_span positions\n")


@pytest.mark.parametrize("value", [-0.01, -0.5])
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_attn_report_rejects_negative_weights_it_reads(tmp_path, capsys, mode, value) -> None:
    # One causal, row-normalized layer with a negative value where the
    # summary rows 8-9 meet the audio-reasoning columns 6-7.
    layer = np.tril(np.ones((10, 10)))
    layer /= layer.sum(axis=1, keepdims=True)
    layer[8:10, 6:8] = value
    weights = tmp_path / "weights.jsonl"
    write_weights_jsonl(weights, [layer])
    code = main(["attn-report", "--weights", str(weights),
                 "--spec", str(DATA / "layout_l10.json"), *mode])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert assert_one_error_line(code, captured.err) == (
        "error: layer[-1] weights hold a negative value\n")


def test_attn_report_rejects_non_finite_weights(tmp_path, capsys) -> None:
    weights = tmp_path / "weights.jsonl"
    data = [1.0 / 6] * 35 + ["NaN"]
    weights.write_text('{"shape": [6, 6], "data": [%s]}\n' % ", ".join(map(str, data)),
                       encoding="utf-8")
    code = main(["attn-report", "--weights", str(weights), "--spec",
                 str(DATA / "layout_l6.json"), "--json"])
    captured = capsys.readouterr()
    err = assert_one_error_line(code, captured.err)
    assert captured.out == ""
    assert err == f"error: {weights}:1: data must hold finite numbers\n"


def test_attn_report_rejects_a_negative_weights_shape(tmp_path, capsys) -> None:
    weights = tmp_path / "weights.jsonl"
    weights.write_text('{"shape": [-1, 6], "data": [%s]}\n' % ", ".join(["0.25"] * 36),
                       encoding="utf-8")
    code = main(["attn-report", "--weights", str(weights), "--spec",
                 str(DATA / "layout_l6.json")])
    captured = capsys.readouterr()
    err = assert_one_error_line(code, captured.err)
    assert captured.out == ""
    assert err == f"error: {weights}:1: weights shape must be a list of positive integers\n"


def test_attn_report_on_synthetic_weights(tmp_path, capsys) -> None:
    spec = {
        "length": 10,
        "visual_reasoning": [[2, 3]],
        "visual_span": [[1, 4]],
        "audio_reasoning": [[5, 6]],
        "summary_span": [[8, 9]],
    }
    spec_path = tmp_path / "layout.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    rng = np.random.default_rng(9)
    layers = []
    for _ in range(4):
        matrix = rng.random(size=(10, 10))
        matrix /= matrix.sum(axis=1, keepdims=True)
        layers.append(matrix)
    weights_path = tmp_path / "weights.jsonl"
    write_weights_jsonl(weights_path, layers)

    code, stdout = run(capsys, "attn-report", "--weights", str(weights_path),
                       "--spec", str(spec_path), "--last-k", "2", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["window"] == 2
    # Oracle: brute sums over the last two layers.
    audio = sum(float(m[i, j]) for m in layers[-2:] for i in (8, 9) for j in (5, 6))
    visual = sum(float(m[i, j]) for m in layers[-2:] for i in (8, 9) for j in (2, 3))
    assert payload["audio_fraction"] == pytest.approx(audio / (audio + visual))
    assert payload["visual_fraction"] == pytest.approx(visual / (audio + visual))


def test_attn_report_text_mode_lists_each_layer(tmp_path, capsys) -> None:
    spec_path = tmp_path / "layout.json"
    spec_path.write_text(json.dumps({
        "length": 10, "visual_reasoning": [[2, 3]], "visual_span": [[1, 4]],
        "audio_reasoning": [[5, 6]], "summary_span": [[8, 9]]}), encoding="utf-8")
    # Every row attends to key 0, except that in the older layer the summary
    # rows 8 and 9 put 0.25 on audio key 5 and 0.75 on visual key 2.
    older = np.zeros((10, 10))
    older[:, 0] = 1.0
    older[8:, 0] = 0.0
    older[8:, 5] = 0.25
    older[8:, 2] = 0.75
    newer = np.zeros((10, 10))
    newer[:, 0] = 1.0
    weights_path = tmp_path / "weights.jsonl"
    write_weights_jsonl(weights_path, [older, newer])

    code, stdout = run(capsys, "attn-report", "--weights", str(weights_path),
                       "--spec", str(spec_path))
    assert code == 0
    assert stdout == ("last 2 layers: audio=0.2500 visual=0.7500\n"
                      "  layer[-2]: audio=0.2500 visual=0.7500\n"
                      "  layer[-1]: no span mass\n")


def test_attn_report_rejects_weights_smaller_than_layout(tmp_path, capsys) -> None:
    spec = json.loads((DATA / "layout_l6.json").read_text(encoding="utf-8"))
    spec["summary_span"] = [[4, 5]]
    spec_path = tmp_path / "layout.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    weights_path = tmp_path / "weights.jsonl"
    write_weights_jsonl(weights_path, [np.full((3, 3), 1.0 / 3.0)])

    code = main(["attn-report", "--weights", str(weights_path),
                 "--spec", str(spec_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "[3, 3]" in lines[0] and "[6, 6]" in lines[0]


# --- leakage -------------------------------------------------------------------------------

def test_leakage_with_mask_is_zero(capsys) -> None:
    code, stdout = run(capsys, "leakage", "--seed", "0", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["direct_leakage"] == 0.0
    assert payload["use_maam"] is True


def test_leakage_json_matches_golden_bytes(capsys) -> None:
    # The masked probe prints exact zeros, which do not depend on the BLAS
    # build. The --no-maam sums get no golden file: their last digits may.
    code, stdout = run(capsys, "leakage", "--seed", "0", "--json")
    assert code == 0
    assert stdout.encode() == (DATA / "golden_leakage.json").read_bytes()


def test_leakage_without_mask_positive(capsys) -> None:
    code, stdout = run(capsys, "leakage", "--seed", "0", "--no-maam", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["direct_leakage"] > 0.0


@pytest.mark.parametrize("flags, line", [
    ([], "seed 1 (with asymmetric mask): direct_leakage=0.0 blocked_pair_mass=0.0\n"),
    (["--no-maam"], "seed 1 (causal only): direct_leakage=0.39225480625519427 "
                    "blocked_pair_mass=14.121173025186994\n"),
])
def test_leakage_text_output_bytes(capsys, flags, line) -> None:
    code, stdout = run(capsys, "leakage", "--seed", "1", *flags)
    assert code == 0
    assert stdout == line


def test_leakage_negative_seed_is_one_error_line(capsys) -> None:
    code = main(["leakage", "--seed", "-1"])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured.err)
    assert captured.out == ""


def test_leakage_negative_seed_names_the_seed(capsys) -> None:
    code = main(["leakage", "--seed", "-7", "--no-maam"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: seed must be a non-negative integer, got -7\n"
    assert captured.out == ""


# --- global behavior ------------------------------------------------------------------------

def test_cli_outputs_byte_identical_across_runs(tmp_path, capsys) -> None:
    outs = []
    for run_idx in range(2):
        out = tmp_path / f"run{run_idx}.jsonl"
        code, _ = run(capsys, "annotate", "--in", str(DATA / "instances_12.jsonl"),
                      "--out", str(out), "--mock", "--json")
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_parser_defaults_are_the_library_defaults() -> None:
    parser = build_parser()
    grpo = parser.parse_args(["grpo-step", "--rollouts", "r.jsonl"])
    cfg = GrpoConfig()
    assert (grpo.alpha, grpo.beta, grpo.eps) == (cfg.clip_alpha, cfg.kl_beta, cfg.eps_stab)
    report = parser.parse_args(["attn-report", "--weights", "w", "--spec", "s"])
    assert report.last_k == DEFAULT_ALLOCATION_WINDOW


def test_parser_is_built_once_and_parses_each_call_afresh(capsys) -> None:
    assert build_parser() is build_parser()
    code, stdout = run(capsys, "leakage", "--seed", "0", "--json")
    assert code == 0
    assert json.loads(stdout)["seed"] == 0
    code, stdout = run(capsys, "leakage", "--seed", "1")
    assert code == 0
    assert stdout.startswith("seed 1 (with asymmetric mask): direct_leakage=0.0 ")


def test_help_lists_subcommands(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    stdout = capsys.readouterr().out
    for name in ("annotate", "validate", "mask", "grpo-step", "attn-report", "leakage"):
        assert name in stdout
