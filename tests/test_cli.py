import http.client
import io
import json
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import write_weights_jsonl
from sffuse.attention_core import DEFAULT_ALLOCATION_WINDOW
from sffuse.cli import build_parser, main
from sffuse.mask_engine import mask_from_rle, mask_from_text, build_composite
from sffuse.mask_engine import load_layout_spec
from sffuse.rl_core import GrpoConfig

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
    stats = json.loads((tmp_path / "labeled.jsonl.stats.json").read_text())
    assert stats["labeled"] == 6
    assert stats["discard_counts"]["Contradictory"] == 3


def test_annotate_missing_input(tmp_path, capsys) -> None:
    code = main(["annotate", "--in", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "o.jsonl"), "--mock"])
    err = capsys.readouterr().err
    assert code == 1
    assert "not found" in err


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
    assert capsys.readouterr().err == "error: instance ids must be unique within a dataset\n"


def test_annotate_rejects_parallelism_below_one(tmp_path, capsys) -> None:
    code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"),
                 "--out", str(tmp_path / "o.jsonl"), "--mock", "--parallelism", "0"])
    assert code == 1
    assert capsys.readouterr().err == "error: parallelism must be >= 1\n"


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


CONFIG_ARGV = ["--in", str(DATA / "instances_12.jsonl"), "--out", "{tmp}/o.jsonl", "--mock"]


@pytest.mark.parametrize("argv, message", [
    (["annotate", "--in", "{bad}", "--out", "{tmp}/o.jsonl", "--mock"], "{bad}:1: invalid JSON"),
    (["validate", "--traces", "{bad}", "--labels", str(DATA / "labels_perfect.jsonl")],
     "{bad}:1: invalid JSON"),
    (["validate", "--traces", str(DATA / "traces_perfect.jsonl"), "--labels", "{bad}"],
     "{bad}:1: invalid JSON"),
    (["grpo-step", "--rollouts", "{bad}"], "{bad}:1: invalid JSON"),
    (["attn-report", "--weights", "{bad}", "--spec", LAYOUT], "{bad}:1: invalid JSON"),
    (["mask", "--spec", "{bad}"], "{bad}: invalid layout spec"),
    (["attn-report", "--weights", "{tmp}/w.jsonl", "--spec", "{bad}"],
     "{bad}: invalid layout spec"),
    (["annotate", *CONFIG_ARGV, "--config", "{bad}"], "{bad}: not valid JSON"),
    (["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
      "--labels", str(DATA / "labels_perfect.jsonl"), "--config", "{bad}"],
     "{bad}: not valid JSON"),
], ids=["jsonl-annotate", "jsonl-validate-traces", "jsonl-validate-labels", "jsonl-grpo-step",
        "jsonl-attn-report", "spec-mask", "spec-attn-report", "config-annotate",
        "config-validate"])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, argv, message) -> None:
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "\n", encoding="utf-8")
    write_weights_jsonl(tmp_path / "w.jsonl", [np.full((6, 6), 1.0 / 6.0)])
    code = main([a.format(bad=bad, tmp=tmp_path) for a in argv])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == f"error: {message.format(bad=bad)}: nested too deeply\n"


@pytest.mark.parametrize("flag", ["--out", "--report", "--records"])
def test_annotate_unwritable_output_is_one_error_line(tmp_path, capsys, flag) -> None:
    argv = ["annotate", "--in", str(DATA / "instances_12.jsonl"),
            "--out", str(tmp_path / "o.jsonl"), "--mock"]
    argv += [flag, str(tmp_path / "missing" / "x.jsonl")]
    code = main(argv)
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert "No such file or directory" in err and "missing" in err


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


def answer_not_an_object(request, timeout):
    return io.BytesIO(b"[]")


def answer_cut_short(request, timeout):
    raise http.client.IncompleteRead(b"{", 10)


@pytest.mark.parametrize("urlopen", [answer_not_an_object, answer_cut_short],
                         ids=["list-answer", "incomplete-read"])
def test_annotate_unusable_endpoint_answer_is_a_recorded_failure(tmp_path, capsys,
                                                                 monkeypatch, urlopen) -> None:
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    code = main(annotate_live(tmp_path, {
        "n": 2, "endpoint": {"base_url": "http://chat", "retries": 1},
        "embedder_endpoint": {"base_url": "http://embed"}}))
    captured = capsys.readouterr()
    assert assert_one_error_line(code, captured.err) == "error: 1 of 1 instances failed\n"
    assert captured.out == (
        f"labeled 0 / 1 instances (0 discarded, 1 failed) -> {tmp_path}/o.jsonl\n")


def test_validate_unwritable_output_is_one_error_line(tmp_path, capsys) -> None:
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(DATA / "labels_perfect.jsonl"),
                 "--out", str(tmp_path / "missing" / "scored.jsonl")])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert "No such file or directory" in err


@pytest.mark.parametrize("config, message", [
    ({"rewards": {"lambda_acc": -1}}, "config.rewards: reward weights must be nonnegative"),
    ([1, 2], "config root must be an object"),
], ids=["negative-weight", "array-root"])
def test_validate_config_errors_name_their_file(tmp_path, capsys, config, message) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(DATA / "labels_perfect.jsonl"), "--config", str(path)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert err == f"error: {path}: {message}\n"


def test_validate_unknown_pem_label_is_one_error_line(tmp_path, capsys) -> None:
    labels = tmp_path / "labels.jsonl"
    perfect = (DATA / "labels_perfect.jsonl").read_text(encoding="utf-8")
    labels.write_text(perfect.replace('"pem": "Visual"', '"pem": "Smell"'), encoding="utf-8")
    code = main(["validate", "--traces", str(DATA / "traces_perfect.jsonl"),
                 "--labels", str(labels), "--out", str(tmp_path / "scored.jsonl")])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert assert_one_error_line(code, captured.err) == (
        "error: label p2: unknown PEM value 'Smell'\n")
    assert not (tmp_path / "scored.jsonl").exists()


@pytest.mark.parametrize("line, message", [
    ('{"id": "t1", "pem": "Audio"}', "missing field 'answer'"),
    ('{"id": "t1", "pem": "Audio", "answer": null}', "field 'answer' must be a string"),
    ('{"id": "t1", "pem": 3, "answer": "x"}', "field 'pem' must be a string"),
], ids=["missing", "null-answer", "int-pem"])
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


def test_mask_out_grid_and_rle(tmp_path, capsys) -> None:
    grid = tmp_path / "mask.txt"
    rle = tmp_path / "mask.bin"
    code, _ = run(capsys, "mask", "--spec", str(DATA / "layout_l6.json"),
                  "--out", str(grid), "--rle", str(rle))
    assert code == 0
    expected = build_composite(load_layout_spec(DATA / "layout_l6.json"))
    assert mask_from_text(grid.read_text()) == expected
    assert mask_from_rle(rle.read_bytes()) == expected


def test_mask_stdout_grid(capsys) -> None:
    code, stdout = run(capsys, "mask", "--spec", str(DATA / "layout_l6.json"))
    assert code == 0
    assert stdout.splitlines()[0] == "100000"
    assert stdout.splitlines()[3] == "010100"


def test_mask_row_out_of_range(capsys) -> None:
    code = main(["mask", "--spec", str(DATA / "layout_l6.json"), "--row", "9"])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


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
    code = main(["mask", "--spec", LAYOUT, "--out", str(tmp_path / "missing" / "x.txt")])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert "No such file or directory" in err


def test_mask_spec_syntax_error_names_its_path(tmp_path, capsys) -> None:
    spec = tmp_path / "layout.json"
    spec.write_text('{"length": 3,', encoding="utf-8")
    code = main(["mask", "--spec", str(spec)])
    err = assert_one_error_line(code, capsys.readouterr().err)
    assert f"{spec}: invalid layout spec" in err


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
    assert f"{rollouts}:1: field 'rewards' must be a list of numbers" in err


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
def test_grpo_step_rejects_a_nan_setting(capsys, flag, field) -> None:
    code = main(["grpo-step", "--rollouts", str(DATA / "rollouts_equal.jsonl"), flag, "nan"])
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


# --- attn-report -----------------------------------------------------------------------

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
    assert err == f"error: {weights}:1: weights must be finite numbers\n"


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


def test_leakage_without_mask_positive(capsys) -> None:
    code, stdout = run(capsys, "leakage", "--seed", "0", "--no-maam", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["direct_leakage"] > 0.0


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
