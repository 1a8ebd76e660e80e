import http.client
import io
import itertools
import json
import math
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ScriptedSampler,
    refuse_threads_after_the_first,
    reference_consistency,
    reference_hash_vector,
    reference_pair_mean,
    reference_unit_rows,
)
from sffuse.config import EmbedderEndpointConfig, config_from_dict
from sffuse.normalize import answers_match
from sffuse.pem_pipeline import (
    DiscardReason,
    EmbeddingError,
    EmptyDatasetError,
    EndpointConfig,
    HashEmbedder,
    HttpEmbedder,
    HttpSampler,
    Instance,
    MockCotSampler,
    PemRecord,
    PipelineConfig,
    PipelineError,
    ProbeSetting,
    SamplingError,
    SolvabilityRecord,
    _urllib_transport,
    accuracy_rate,
    annotate,
    build_probe_prompt,
    consistency,
    decide_pem,
    parse_completion,
    read_instances,
    solvable,
    write_jsonl,
)
from sffuse.tag_grammar import PemLabel

DATA = Path(__file__).parent / "data"


def make_instance(instance_id="x1", gold="collie", marker=""):
    return Instance(
        id=instance_id,
        question="What animal is barking?",
        gold_answer=gold,
        audio_ref=f"mock://audio/{instance_id}{marker}",
        video_ref=f"mock://video/{instance_id}",
    )


# --- accuracy -----------------------------------------------------------------

def test_accuracy_six_of_eight() -> None:
    samples = [("collie", "t")] * 6 + [("sheep", "t")] * 2
    assert accuracy_rate(samples, "collie") == 0.75


def test_accuracy_unanimous() -> None:
    samples = [("Collie.", "t")] * 8
    assert accuracy_rate(samples, "collie") == 1.0


def test_accuracy_none_correct() -> None:
    samples = [("sheep", "t")] * 8
    assert accuracy_rate(samples, "collie") == 0.0


def test_accuracy_uses_answer_normalizer() -> None:
    samples = [("  THE   Collie. ", "t"), ("the collie", "t")]
    assert accuracy_rate(samples, "The Collie") == 1.0
    # Answers equal to gold and answers equal only after normalizing both count.
    samples = [("The Collie.", "t"), ("the collie", "t"), ("sheep", "t"), ("The Collie.", "t")]
    assert accuracy_rate(samples, "The Collie.") == 0.75


def test_accuracy_of_no_samples_is_a_value_error() -> None:
    with pytest.raises(ValueError, match="^accuracy_rate needs at least 1 sample$"):
        accuracy_rate([], "collie")


# --- consistency ---------------------------------------------------------------

class FixedEmbedder:
    def __init__(self, mapping):
        self.mapping = mapping

    def embed(self, texts):
        return np.array([self.mapping[t] for t in texts], dtype=float)


def test_consistency_identical_texts() -> None:
    embedder = HashEmbedder()
    assert consistency(["same text"] * 5, embedder) == pytest.approx(1.0, abs=1e-12)


def test_consistency_orthogonal_embeddings() -> None:
    embedder = FixedEmbedder({"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})
    assert consistency(["a", "b", "c"], embedder) == 0.0


def test_consistency_fixed_vectors_hand_mean() -> None:
    embedder = FixedEmbedder({"a": [1, 0, 0], "b": [1, 1, 0], "c": [0, 1, 0]})
    value = consistency(["a", "b", "c"], embedder)
    # Brute-force pairwise oracle over the same (unit-normalized) vectors.
    unit = {
        "a": np.array([1.0, 0.0, 0.0]),
        "b": np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0),
        "c": np.array([0.0, 1.0, 0.0]),
    }
    pairs = list(itertools.combinations(["a", "b", "c"], 2))
    expected = sum(float(np.dot(unit[x], unit[y])) for x, y in pairs) / len(pairs)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)


def test_consistency_permutation_invariant_exactly() -> None:
    embedder = HashEmbedder()
    texts = [f"trace {i}" for i in range(6)]
    base = consistency(texts, embedder)
    for perm in (texts[::-1], texts[3:] + texts[:3]):
        assert consistency(list(perm), embedder) == base


def test_consistency_validation() -> None:
    embedder = HashEmbedder()
    with pytest.raises(ValueError, match="at least 2"):
        consistency(["solo"], embedder)
    with pytest.raises(ValueError, match="zero vector"):
        consistency(["a", "b"], FixedEmbedder({"a": [0, 0], "b": [1, 0]}))
    with pytest.raises(ValueError, match="^embedder returned a zero vector$"):
        consistency(["a", "b"], FixedEmbedder({"a": [], "b": []}))  # vectors of length 0
    with pytest.raises(ValueError, match="finite"):
        consistency(["a", "b"], FixedEmbedder({"a": [np.nan, 0], "b": [1, 0]}))
    with pytest.raises(ValueError, match="^embedder must return one vector per text$"):
        consistency(["a", "b"], FixedEmbedder({"a": 1.0, "b": 0.0}))  # one number per text


def test_consistency_scores_tiny_and_huge_rows_by_direction() -> None:
    # The directions [1, 1] and [1, 0.9] at scales whose squared norm is zero
    # (1e-200), subnormal (1e-160) or beyond the float range (1e308).
    unit = FixedEmbedder({"a": [1.0, 1.0], "b": [1.0, 0.9]})
    assert consistency(["a", "b"], unit) == 0.9986178293325095
    for a, b in ([1e-200, 9e-201], [1e-160, 9e-161], [1e308, 9e307]):
        scaled = FixedEmbedder({"a": [a, a], "b": [a, b]})
        assert consistency(["a", "b"], scaled) == pytest.approx(0.9986178293325095, abs=1e-12)
    with pytest.raises(ValueError, match="^embedder returned a zero vector$"):
        consistency(["a", "b"], FixedEmbedder({"a": [0, 0], "b": [1e-200, 0]}))


# --- oracles: exact equality with the loop references ---------------------------

RANDOM_DIMS = (2, 3, 4, 5, 31, 32, 33, 64)
# A small pool, so drawn text lists repeat texts often.
TEXT_POOL = ("", "same", "Ünïcødé 🐕 音声", "a\nb")


@settings(max_examples=40, deadline=None)
@example(texts=["", "collie", "Ünïcødé 🐕 音声"])
@given(texts=st.lists(st.text(), min_size=1, max_size=5))
def test_hash_embedder_matches_loop_reference(texts) -> None:
    got = HashEmbedder().embed(texts)
    want = np.stack([reference_hash_vector(text, 32) for text in texts])
    assert got.shape == want.shape
    assert (got == want).all()


def test_hash_embedder_matches_loop_reference_on_a_large_batch() -> None:
    texts = [f"trace {k}: {'Ünïcødé 🐕 ' * (k % 4)}" for k in range(200)]
    want = np.stack([reference_hash_vector(text, 32) for text in texts])
    assert HashEmbedder().embed(texts).tobytes() == want.tobytes()


def test_hash_embedder_unencodable_text_counts_the_prefix_bytes() -> None:
    # A lone surrogate cannot be UTF-8 encoded; the position counts the
    # "0:" counter prefix, as the text is encoded inside that message.
    with pytest.raises(UnicodeEncodeError,
                       match=r"character '\\ud800' in position 5: surrogates not allowed"):
        HashEmbedder().embed(["ok", "dog\ud800"])


def test_hash_embedder_empty_batch() -> None:
    got = HashEmbedder().embed([])
    assert got.shape == (0, 32)
    assert got.dtype == np.float64


@pytest.mark.parametrize("instances", ["fresh", "shared"])
def test_hash_embedder_reused_across_batches(instances) -> None:
    # Every embedder shares the class's hash prefix states; one updated in
    # place would leak one batch's text into the next batch's vectors.
    first, second = ["same", "Ünïcødé 🐕 音声", ""], ["a\nb", "same"]
    shared = HashEmbedder()
    for texts in (first, [], second, first):
        embedder = HashEmbedder() if instances == "fresh" else shared
        got = embedder.embed(texts)
        assert got.shape == (len(texts), 32)
        for row, text in zip(got, texts):
            assert row.tobytes() == reference_hash_vector(text, 32).tobytes()


@pytest.mark.parametrize("threads", [2, 4, 8])
def test_hash_embedder_threads_share_the_prefix_states(threads) -> None:
    # Each thread embeds its own batch through the one class-level tuple of
    # prefix states; every vector must still equal the loop reference.
    batches = [[f"{t}:{k}" for k in range(50)] for t in range(threads)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(HashEmbedder().embed, batches))
    for texts, got in zip(batches, results):
        want = np.stack([reference_hash_vector(text, 32) for text in texts])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("call", [lambda: HashEmbedder(32), lambda: HashEmbedder(dim=32)],
                         ids=["positional", "keyword"])
def test_hash_embedder_takes_no_dim(call) -> None:
    with pytest.raises(TypeError):
        call()
    assert HashEmbedder.dim == 32


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(st.sampled_from(TEXT_POOL) | st.text(max_size=12),
                      min_size=2, max_size=10))
def test_consistency_matches_loop_reference_on_hash_vectors(texts) -> None:
    embedder = HashEmbedder()
    assert consistency(texts, embedder) == reference_consistency(texts, embedder)


def random_vector_embedder(dim, seed):
    """Texts t0..t5 over three random vectors: t0 and t3 share a vector, so
    distinct texts give duplicate rows, as do repeated texts."""
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(3, dim)) * rng.uniform(0.1, 10.0, size=(3, 1))
    return FixedEmbedder({f"t{k}": pool[k % 3] for k in range(6)})


@settings(max_examples=100, deadline=None)
@given(dim=st.sampled_from(RANDOM_DIMS), seed=st.integers(0, 2 ** 32 - 1),
       picks=st.lists(st.integers(0, 5), min_size=2, max_size=12))
def test_consistency_matches_loop_reference_on_random_vectors(dim, seed, picks) -> None:
    embedder = random_vector_embedder(dim, seed)
    texts = [f"t{k}" for k in picks]
    assert consistency(texts, embedder) == reference_consistency(texts, embedder)


ANSWER_POOL = ("collie", " Collie. ", "COLLIE!", "sheep", "the collie")


@pytest.mark.parametrize("kind", ["random", "hash"])
@settings(max_examples=50, deadline=None)
@given(dim=st.sampled_from(RANDOM_DIMS), seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from((2, 3, 4, 8)),
       picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                      min_size=24, max_size=24))
def test_annotate_screening_matches_loop_reference(kind, dim, seed, n, picks) -> None:
    # Texts repeat within and across settings; each setting's consistency
    # and accuracy must still equal the loops over its own n samples.
    embedder = random_vector_embedder(dim, seed) if kind == "random" else HashEmbedder()
    inst = make_instance("r1")
    script = {(inst.id, setting): [(ANSWER_POOL[a], f"t{k}") for a, k in picks[n * s:n * s + n]]
              for s, setting in enumerate(ProbeSetting)}
    result = annotate([inst], ScriptedSampler(script), embedder, PipelineConfig(n=n))
    (record,) = result.records
    for setting in ProbeSetting:
        answers, cots = zip(*script[inst.id, setting])
        assert record.settings[setting].consistency == reference_consistency(cots, embedder)
        hits = sum(answers_match(answer, inst.gold_answer) for answer in answers)
        assert record.settings[setting].accuracy_rate == hits / n


ROW_KINDS = ("normal", "1e-200", "1e-160", "1e308", "zero", "nan", "inf", "-inf")


def row_kind_embedder(dim, seed, kinds):
    """Text tk's row is of kind ``kinds[k]``: random in [-1, 1)^dim, as is or
    scaled by 1e-200, 1e-160 or 1e308; all zero; or random with one NaN, inf
    or -inf entry."""
    rng = np.random.default_rng(seed)
    mapping = {}
    for k, kind in enumerate(kinds):
        row = rng.uniform(-1.0, 1.0, size=dim)
        if kind == "zero":
            row[:] = 0.0
        elif kind in ("nan", "inf", "-inf"):
            row[rng.integers(dim)] = float(kind)
        elif kind != "normal":
            row *= float(kind)
        mapping[f"t{k}"] = row
    return FixedEmbedder(mapping)


def outcome(call):
    """``call()``'s float as its exact hex, or its exception's type and message."""
    try:
        return call().hex()
    except Exception as exc:
        return type(exc), str(exc)


EXTREME_ROWS = dict(dim=st.sampled_from(RANDOM_DIMS), seed=st.integers(0, 2 ** 32 - 1),
                    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(**EXTREME_ROWS, picks=st.lists(st.integers(0, 3), min_size=2, max_size=10))
def test_consistency_matches_reference_unit_rows_on_extreme_rows(dim, seed, kinds,
                                                                 picks) -> None:
    # Repeated texts; rows that are tiny, huge, zero or not finite must give
    # the reference's value, or its first error.
    embedder = row_kind_embedder(dim, seed, kinds)
    texts = [f"t{k % len(kinds)}" for k in picks]
    want = outcome(lambda: reference_pair_mean(reference_unit_rows(texts, embedder)))
    assert outcome(lambda: consistency(texts, embedder)) == want


@settings(max_examples=100, deadline=None)
@given(**EXTREME_ROWS, n=st.sampled_from((2, 3, 4)),
       picks=st.lists(st.integers(0, 3), min_size=12, max_size=12))
def test_annotate_screening_matches_reference_unit_rows_on_extreme_rows(dim, seed, kinds, n,
                                                                        picks) -> None:
    embedder = row_kind_embedder(dim, seed, kinds)
    inst = make_instance("r1")
    cots = [f"t{k % len(kinds)}" for k in picks[:3 * n]]
    script = {(inst.id, setting): [("collie", cot) for cot in cots[n * s:n * s + n]]
              for s, setting in enumerate(ProbeSetting)}
    result = annotate([inst], ScriptedSampler(script), embedder, PipelineConfig(n=n))
    try:
        unit = reference_unit_rows(cots, embedder)
    except ValueError as exc:
        assert result.stats.failures == ({"id": inst.id, "error": str(exc)},)
        return
    (record,) = result.records
    for s, setting in enumerate(ProbeSetting):
        want = reference_pair_mean(unit[n * s:n * s + n])
        assert record.settings[setting].consistency.hex() == want.hex()


# --- solvability -----------------------------------------------------------------

def test_solvable_thresholds_inclusive() -> None:
    cfg = PipelineConfig()
    assert solvable(0.75, 0.80, cfg) is True
    assert solvable(0.74, 0.99, cfg) is False
    assert solvable(1.0, 0.79, cfg) is False


def test_solvable_monotone() -> None:
    cfg = PipelineConfig()
    rng = np.random.default_rng(3)
    for _ in range(100):
        acc, cons = rng.random(), rng.random()
        if solvable(acc, cons, cfg):
            assert solvable(min(acc + 0.1, 1.0), cons, cfg)
            assert solvable(acc, min(cons + 0.1, 1.0), cfg)


def test_pipeline_config_validation() -> None:
    with pytest.raises(ValueError):
        PipelineConfig(n=1)
    with pytest.raises(ValueError):
        PipelineConfig(tau_acc=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(tau_cons=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(parallelism=0)


# --- decision table -----------------------------------------------------------------

DECISION_TABLE = {
    (True, False, True): PemLabel.AUDIO,
    (False, True, True): PemLabel.VISUAL,
    (False, False, True): PemLabel.AUDIO_VISUAL,
    (True, True, True): DiscardReason.TRIVIALLY_EASY,
    (True, True, False): DiscardReason.CONTRADICTORY,
    (True, False, False): DiscardReason.CONTRADICTORY,
    (False, True, False): DiscardReason.CONTRADICTORY,
    (False, False, False): DiscardReason.UNSOLVABLE,
}


@pytest.mark.parametrize("pattern", sorted(DECISION_TABLE, reverse=True))
def test_decide_pem_truth_table(pattern) -> None:
    assert decide_pem(*pattern) == DECISION_TABLE[pattern]


def test_decide_pem_total_and_labels_require_av() -> None:
    labels = 0
    for pattern in itertools.product([False, True], repeat=3):
        decision = decide_pem(*pattern)
        if isinstance(decision, PemLabel):
            labels += 1
            assert pattern[2] is True  # no label when AV unsolvable
    assert labels == 3


solvability_records = st.builds(
    SolvabilityRecord, st.floats(allow_nan=False), st.floats(allow_nan=False), st.booleans())


@settings(max_examples=50, deadline=None)
@given(records=st.tuples(solvability_records, solvability_records, solvability_records),
       decision=st.sampled_from([*PemLabel, *DiscardReason]))
def test_pem_record_settings_dict_matches_its_dataclass(records, decision) -> None:
    # The settings dict is spelled out field by field; a field added to
    # SolvabilityRecord must show up in it, not be silently dropped.
    record = PemRecord("r1", dict(zip(ProbeSetting, records)), decision)
    settings_out = record.to_dict()["settings"]
    assert list(settings_out) == [setting.value for setting in ProbeSetting]
    for setting, solvability in zip(ProbeSetting, records):
        row = settings_out[setting.value]
        assert set(row) == {f.name for f in fields(SolvabilityRecord)}
        assert row == asdict(solvability)
        assert list(row) == list(asdict(solvability))


# --- annotate ------------------------------------------------------------------------

def load_fixture_dataset():
    return read_instances(DATA / "instances_12.jsonl")


def run_fixture(parallelism=1):
    cfg = PipelineConfig(parallelism=parallelism)
    return annotate(load_fixture_dataset(), MockCotSampler(), HashEmbedder(), cfg)


def test_annotate_fixture_realizes_all_patterns() -> None:
    result = run_fixture()
    decisions = {r.instance_id: r.decision for r in result.records}
    assert decisions["i01"] == PemLabel.AUDIO
    assert decisions["i02"] == PemLabel.VISUAL
    assert decisions["i03"] == PemLabel.AUDIO_VISUAL
    assert decisions["i04"] == DiscardReason.TRIVIALLY_EASY
    assert decisions["i05"] == DiscardReason.CONTRADICTORY
    assert decisions["i06"] == DiscardReason.CONTRADICTORY
    assert decisions["i07"] == DiscardReason.CONTRADICTORY
    assert decisions["i08"] == DiscardReason.UNSOLVABLE
    assert decisions["i12"] == DiscardReason.TRIVIALLY_EASY
    assert result.stats.labeled == 6
    assert result.stats.label_counts == {"Audio": 2, "Visual": 2, "Audio-Visual": 2}
    assert result.stats.discard_counts == {
        "TriviallyEasy": 2, "Ambiguous": 0, "Contradictory": 3, "Unsolvable": 1}


def test_annotate_fixture_matches_golden_bytes(tmp_path) -> None:
    result = run_fixture()
    out = tmp_path / "labeled.jsonl"
    write_jsonl((out, result.labeled))
    assert out.read_bytes() == (DATA / "golden_labeled.jsonl").read_bytes()


def test_annotate_deterministic_across_parallelism() -> None:
    base = run_fixture(parallelism=1)
    for bound in (4, 16):
        other = run_fixture(parallelism=bound)
        assert other.labeled == base.labeled
        assert other.records == base.records
        assert other.stats == base.stats


def test_annotate_empty_dataset() -> None:
    with pytest.raises(EmptyDatasetError):
        annotate([], MockCotSampler(), HashEmbedder(), PipelineConfig())


def test_annotate_duplicate_ids_rejected() -> None:
    twice = [make_instance("dup"), make_instance("dup")]
    with pytest.raises(ValueError, match=r"^duplicate instance ids: \['dup'\]$"):
        annotate(twice, MockCotSampler(), HashEmbedder(), PipelineConfig())


def test_annotate_all_identical_samples_all_trivially_easy() -> None:
    dataset = [make_instance(f"t{i}") for i in range(3)]  # no marker: all solve
    result = annotate(dataset, MockCotSampler(), HashEmbedder(), PipelineConfig())
    assert all(r.decision == DiscardReason.TRIVIALLY_EASY
               for r in result.records)
    assert result.stats.labeled == 0


def test_annotate_records_failures_and_continues() -> None:
    good = make_instance("ok", marker="?solvable=A,AV")
    broken = make_instance("broken")
    script = {
        (good.id, setting): [(good.gold_answer, "stable")] * 8
        for setting in ProbeSetting
    }
    # Scripted sampler has nothing for "broken"; its instance fails, batch survives.
    sampler = ScriptedSampler(script)
    result = annotate([good, broken], sampler, HashEmbedder(),
                      PipelineConfig(parallelism=2))
    assert result.stats.failed == 1
    assert result.stats.failures[0]["id"] == "broken"
    assert {r.instance_id for r in result.records} == {"ok"}


def test_annotate_wrong_sample_count_is_failure() -> None:
    # A result that is not a sequence, a wrong count, or a sample that is not
    # a pair of strings fails its instance, and the batch goes on; nothing is
    # coerced (str(None) would read as the gold answer "none").
    draws = {"short": [("collie", "t")] * 3, "ok": [("collie", "t")] * 8,
             "none-answer": [(None, "t")] + [("collie", "t")] * 7,
             "int-cot": [("collie", "t")] * 7 + [("collie", 7)],
             "list-pair": [["collie", "t"]] * 8, "none": None}

    class Sampler:
        def sample(self, instance, setting, n):
            return draws[instance.id]

    dataset = [make_instance(instance_id, gold="none") for instance_id in draws]
    result = annotate(dataset, Sampler(), HashEmbedder(), PipelineConfig(n=8))
    errors = {row["id"]: row["error"] for row in result.stats.failures}
    assert errors == {
        "short": "sampler returned 3 samples, wanted 8",
        "none": "sampler returned a NoneType, not a sequence",
        **{instance_id: "sampler returned a sample that is not a pair of strings"
           for instance_id in ("none-answer", "int-cot", "list-pair")},
    }
    assert [record.instance_id for record in result.records] == ["ok"]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_annotate_propagates_programming_errors(parallelism) -> None:
    class BuggySampler:
        def sample(self, instance, setting, n):
            raise TypeError("bug in sampler")

    dataset = [make_instance("a"), make_instance("b")]
    with pytest.raises(TypeError, match="bug in sampler"):
        annotate(dataset, BuggySampler(), HashEmbedder(),
                 PipelineConfig(parallelism=parallelism))


def test_annotate_thread_start_failure_is_a_pipeline_error(monkeypatch) -> None:
    started, sampled = refuse_threads_after_the_first(monkeypatch)
    dataset = load_fixture_dataset()
    with pytest.raises(PipelineError) as caught:
        annotate(dataset, MockCotSampler(), HashEmbedder(), PipelineConfig(parallelism=4))
    assert str(caught.value) == ("parallelism 4: cannot start a worker thread: "
                                 "can't start new thread")
    # Only two instances were submitted, the second as its thread failed to
    # start; it may have run before its queued task was cancelled. The one
    # worker was joined.
    assert len(started) == 1 and not started[0].is_alive()
    assert set(sampled) <= {dataset[0].id, dataset[1].id}


class CountingEmbedder:
    def __init__(self):
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return HashEmbedder().embed(texts)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_annotate_embeds_distinct_texts_once_per_instance(parallelism) -> None:
    embedder = CountingEmbedder()
    dataset = load_fixture_dataset()
    result = annotate(dataset, MockCotSampler(), embedder,
                      PipelineConfig(parallelism=parallelism))
    assert len(embedder.calls) == len(dataset)
    assert all(len(set(texts)) == len(texts) for texts in embedder.calls)
    assert result.labeled == run_fixture().labeled


# --- samplers ---------------------------------------------------------------------

def test_mock_sampler_rejects_tiny_n() -> None:
    with pytest.raises(ValueError):
        MockCotSampler().sample(make_instance(), ProbeSetting.A, 0)
    with pytest.raises(ValueError):
        ScriptedSampler({}).sample(make_instance(), ProbeSetting.A, 1)
    calls = []
    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat"),
                          transport=json_transport(recorded_response(1), calls))
    with pytest.raises(ValueError, match="n must be >= 2"):
        sampler.sample(make_instance(), ProbeSetting.A, 1)
    assert calls == []  # rejected before any request


def marker_cases():
    """(instance, names of its solvable settings) for every marker form."""
    names = ("A", "V", "AV")
    for size in (1, 2, 3):
        for order in itertools.permutations(names, size):
            marker = ",".join(order)
            yield pytest.param(make_instance(marker=f"?solvable={marker}"), set(order),
                               id=marker)
    yield pytest.param(make_instance(marker="?solvable=A,A"), {"A"}, id="A,A")
    yield pytest.param(make_instance(marker="?solvable=none"), set(), id="none")
    yield pytest.param(make_instance(), set(names), id="no-marker")
    video = Instance(id="x1", question="What animal is barking?", gold_answer="collie",
                     audio_ref="mock://audio/x1", video_ref="mock://video/x1?solvable=V")
    yield pytest.param(video, {"V"}, id="video_ref")
    question = Instance(id="x1", question="What animal is barking? solvable=AV,A",
                        gold_answer="collie")
    yield pytest.param(question, {"A", "AV"}, id="question")


@pytest.mark.parametrize("inst, solvable_names", marker_cases())
def test_mock_sampler_scripted_solvability(inst, solvable_names) -> None:
    sampler = MockCotSampler()
    for setting in ProbeSetting:
        samples = sampler.sample(inst, setting, 8)
        assert type(samples) is tuple and len(samples) == 8  # plain string pairs
        assert all(type(pair) is tuple and tuple(map(type, pair)) == (str, str)
                   for pair in samples)
        if setting.value in solvable_names:
            assert len(set(samples)) == 1 and samples[0][0] == inst.gold_answer
            assert accuracy_rate(samples, inst.gold_answer) == 1.0
        else:
            assert accuracy_rate(samples, inst.gold_answer) == 0.0
            assert len({answer for answer, _ in samples}) == 8
            assert len({cot for _, cot in samples}) == 8


def test_read_instances_fixture() -> None:
    dataset = load_fixture_dataset()
    assert len(dataset) == 12
    assert dataset[0].id == "i01"
    assert dataset[1].choices == ("one", "two", "three")


def test_read_instances_missing_field(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="missing field"):
        read_instances(path)


INSTANCE = '{"id": "x", "question": "q", "gold_answer": "a"'


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "expected a JSON object, got list"),
    (INSTANCE + ', "choices": "abc"}', "choices must be a list of strings"),
    (INSTANCE + ', "choices": ["one", 2]}', "choices must be a list of strings"),
    (INSTANCE + ', "choices": null}', "choices must be a list of strings"),
    (INSTANCE + ', "media": "clip.mp4"}', "media must be an object"),
    ('{"id": 7, "question": null, "gold_answer": null}', "field 'id' must be a string"),
    ('{"id": "x", "question": null, "gold_answer": "a"}', "field 'question' must be a string"),
    ('{"id": "x", "question": "q", "gold_answer": 3}', "field 'gold_answer' must be a string"),
    (INSTANCE + ', "media": {"audio_ref": 1}}', "field 'audio_ref' must be a string"),
    (INSTANCE + ', "media": {"video_ref": null}}', "field 'video_ref' must be a string"),
    ('{"id": "b", "question": "q", "gold_answer": ""}',
     "instance 'b': gold_answer must be nonempty"),
    ('{"id": "b", "question": "q", "gold_answer": " ."}',
     "instance 'b': gold_answer must be nonempty"),
])
def test_read_instances_rejects_malformed_records(tmp_path, line, message) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text(INSTANCE + "}\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"bad\.jsonl:2: {message}"):
        read_instances(path)


# --- HTTP adapters -----------------------------------------------------------------

RECORDED_COMPLETIONS = [
    "The hooves strike twice.\nAnswer: two",
    "I hear two distinct beats.\nAnswer: two",
]


def recorded_response(n=2):
    return {"choices": [{"message": {"content": text}}
                        for text in RECORDED_COMPLETIONS[:n]]}


def json_transport(answer, calls=None):
    """A transport that decodes each request body, appends the request's
    url, payload and headers to ``calls`` when it is given, and answers
    ``answer`` (``answer(payload)`` if it is callable) as a JSON body."""

    def transport(url, body, headers, timeout):
        payload = json.loads(body.decode("utf-8"))
        if calls is not None:
            calls.append({"url": url, "payload": payload, "headers": headers})
        return json.dumps(answer(payload) if callable(answer) else answer).encode()

    return transport


def test_http_sampler_parses_recorded_stub() -> None:
    calls = []
    sampler = HttpSampler(EndpointConfig(base_url="http://localhost:9/chat"),
                          token="sekrit", transport=json_transport(recorded_response(), calls))
    result = sampler.sample(make_instance(), ProbeSetting.AV, 2)
    (seen,) = calls
    assert result == [
        ("two", RECORDED_COMPLETIONS[0]),
        ("two", RECORDED_COMPLETIONS[1]),
    ]
    assert seen["payload"]["n"] == 2
    assert seen["payload"]["media"] == {"audio_ref": "mock://audio/x1",
                                        "video_ref": "mock://video/x1"}
    assert seen["headers"]["Authorization"] == "Bearer sekrit"
    assert "What animal is barking?" in seen["payload"]["messages"][0]["content"]


def test_http_sampler_sends_the_configured_temperature() -> None:
    endpoint = config_from_dict(
        {"pipeline": {"endpoint": {"base_url": "http://x/chat", "temperature": 0.7}}}
    ).pipeline.endpoint
    calls = []
    HttpSampler(endpoint, transport=json_transport(recorded_response(), calls)).sample(
        make_instance(), ProbeSetting.A, 2)
    assert calls[0]["payload"]["temperature"] == 0.7


def test_http_sampler_setting_controls_forwarded_media() -> None:
    calls = []
    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat"),
                          transport=json_transport(recorded_response(), calls))
    sampler.sample(make_instance(), ProbeSetting.A, 2)
    sampler.sample(make_instance(), ProbeSetting.V, 2)
    captured = {(call["payload"]["media"].get("audio_ref"),
                 call["payload"]["media"].get("video_ref")) for call in calls}
    assert ("mock://audio/x1", None) in captured
    assert (None, "mock://video/x1") in captured


def test_http_sampler_retries_then_fails_typed() -> None:
    attempts = []

    def transport(url, body, headers, timeout):
        attempts.append(1)
        raise urllib.error.URLError("connection refused")

    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat", retries=2),
                          transport=transport)
    with pytest.raises(SamplingError, match="unreachable"):
        sampler.sample(make_instance(), ProbeSetting.A, 2)
    assert len(attempts) == 3


def test_http_sampler_malformed_completion() -> None:
    transport = json_transport({"choices": [{"message": {"content": "no marker here"}},
                                            {"message": {"content": "Answer: fine"}}]})
    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat"), transport=transport)
    with pytest.raises(SamplingError, match="Answer"):
        sampler.sample(make_instance(), ProbeSetting.A, 2)


@pytest.mark.parametrize("choices", [
    [{"message": {}}, {"message": {}}],
    ["text", "text"],
    [{"message": {"content": None}}] * 2,
    [{"message": {"content": 42}}] * 2,
    [{"message": {"content": ["Answer: x"]}}] * 2,
], ids=["no-content", "not-an-object", "null", "number", "list"])
def test_http_sampler_rejects_a_completion_without_content(choices) -> None:
    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat"),
                          transport=json_transport({"choices": choices}))
    with pytest.raises(SamplingError, match="^malformed completion for x1/A$"):
        sampler.sample(make_instance(), ProbeSetting.A, 2)


def test_http_sampler_wrong_completion_count() -> None:
    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat"),
                          transport=json_transport(recorded_response(1)))
    with pytest.raises(SamplingError, match="wanted 2"):
        sampler.sample(make_instance(), ProbeSetting.A, 2)


def test_parse_completion_uses_last_answer_line() -> None:
    answer, cot = parse_completion("Answer: first\nmore thought\nANSWER: second")
    assert answer == "second"
    assert cot.startswith("Answer: first")


def test_http_embedder_stub() -> None:
    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"), transport=json_transport(
        lambda payload: {"data": [{"embedding": [1.0, 0.0]} for _ in payload["input"]]}))
    vectors = embedder.embed(["a", "b"])
    assert vectors.shape == (2, 2)
    assert consistency(["a", "b"], embedder) == pytest.approx(1.0)


@pytest.mark.parametrize("answer", [{"data": [{"vector": [1.0]}, {"vector": [1.0]}]},
                                    {"data": 5}, {"rows": []}],
                         ids=["no-embedding", "data-not-a-list", "no-data"])
def test_http_embedder_rejects_a_malformed_response(answer) -> None:
    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                            transport=json_transport(answer))
    with pytest.raises(EmbeddingError, match="^malformed embedding response$"):
        embedder.embed(["a", "b"])


def test_http_embedder_rejects_a_vector_count_mismatch() -> None:
    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                            transport=json_transport({"data": [{"embedding": [1.0, 0.0]}]}))
    with pytest.raises(EmbeddingError, match="^embedder returned 1 vectors for 2 texts$"):
        embedder.embed(["a", "b"])


NOT_FINITE_NUMBERS = "embedder returned an embedding that is not a list of finite numbers"


# Each embedding is JSON text, as the endpoint sends it: json.loads reads
# 1e999 as infinity and accepts NaN.
@pytest.mark.parametrize("embedding", ['["0.5", true]', "[0.5, true]", "[0.5, null]",
                                       "[[0.5], [1.0]]", "0.5", '"0.5"', "[0.5, 1e999]",
                                       "[NaN, 0.5]"],
                         ids=["string-and-bool", "bool", "null", "nested", "number", "string",
                              "1e999", "nan"])
def test_http_embedder_rejects_an_entry_that_is_not_a_number(embedding) -> None:
    def transport(url, body, headers, timeout):
        texts = json.loads(body.decode("utf-8"))["input"]
        return ('{"data": [%s]}' % ", ".join(
            ['{"embedding": %s}' % embedding] * len(texts))).encode()

    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"), transport=transport)
    with pytest.raises(EmbeddingError, match=f"^{NOT_FINITE_NUMBERS}$"):
        embedder.embed(["a", "b"])


def test_http_embedder_payload_holds_distinct_texts() -> None:
    calls = []

    def answer(payload):
        vectors = HashEmbedder().embed(payload["input"])
        return {"data": [{"embedding": vec.tolist()} for vec in vectors]}

    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                            transport=json_transport(answer, calls))
    dataset = load_fixture_dataset()
    result = annotate(dataset, MockCotSampler(), embedder, PipelineConfig())
    inputs = [call["payload"]["input"] for call in calls]
    assert len(inputs) == len(dataset)
    assert all(len(set(texts)) == len(texts) for texts in inputs)
    assert result.labeled == run_fixture().labeled


@pytest.mark.parametrize("code, calls", [(401, 1), (404, 1), (429, 3), (503, 3)])
@pytest.mark.parametrize("adapter", ["sampler", "embedder"])
def test_http_adapters_retry_only_transient_statuses(adapter, code, calls) -> None:
    attempts = []

    def transport(url, body, headers, timeout):
        attempts.append(1)
        raise urllib.error.HTTPError(url, code, "status", {}, None)

    endpoint = EndpointConfig(base_url="http://x/api", retries=2)
    if adapter == "sampler":
        with pytest.raises(SamplingError, match=f"HTTP Error {code}"):
            HttpSampler(endpoint, transport=transport).sample(
                make_instance(), ProbeSetting.A, 2)
    else:
        with pytest.raises(EmbeddingError, match=f"HTTP Error {code}"):
            HttpEmbedder(endpoint, transport=transport).embed(["a", "b"])
    assert len(attempts) == calls


def call_adapter(adapter, transport, retries=2):
    """Send one request through the named HTTP adapter."""
    endpoint = EndpointConfig(base_url="http://x/api", retries=retries)
    if adapter == "sampler":
        return HttpSampler(endpoint, transport=transport).sample(
            make_instance(), ProbeSetting.A, 2)
    return HttpEmbedder(endpoint, transport=transport).embed(["a", "b"])


ADAPTER_ERRORS = {"sampler": SamplingError, "embedder": EmbeddingError}


@pytest.mark.parametrize("answer", [[], "x", None], ids=["list", "string", "null"])
@pytest.mark.parametrize("adapter", ["sampler", "embedder"])
def test_http_adapters_reject_an_answer_that_is_not_an_object(adapter, answer) -> None:
    attempts = []
    with pytest.raises(ADAPTER_ERRORS[adapter], match=": the answer is not a JSON object$"):
        call_adapter(adapter, json_transport(answer, attempts))
    assert len(attempts) == 1


# Answer bodies that are not UTF-8 JSON, and ``jsonl.loads``'s complaint about
# each: the wording of a file's fault, with no hint to raise Python's limits.
NOT_JSON = {"html": (b"<html>busy</html>", "invalid JSON: Expecting value at column 1"),
            "not-utf8": (b"\xff\xfe{}", "not UTF-8 text: invalid start byte"),
            "nested": (b"[" * 100000, "invalid JSON: nested too deeply"),
            "digits": (b'{"data": ' + b"7" * 5000 + b"}",
                       "invalid JSON: Exceeds the limit (4300 digits) for integer string "
                       "conversion: value has 5000 digits")}


def answering(answer, attempts):
    """A ``urlopen`` stand-in that counts its calls in ``attempts`` and
    answers the body ``answer``, or raises it if it is an exception."""

    def urlopen(request, timeout):
        attempts.append(request.full_url)
        if isinstance(answer, Exception):
            raise answer
        return io.BytesIO(answer)

    return urlopen


@pytest.mark.parametrize("body", NOT_JSON)
@pytest.mark.parametrize("adapter, what", [("sampler", "endpoint unreachable for x1/A"),
                                           ("embedder", "embedder unreachable")])
def test_http_adapters_reject_an_answer_that_is_not_json(monkeypatch, adapter, what,
                                                        body) -> None:
    attempts = []
    data, cause = NOT_JSON[body]
    monkeypatch.setattr(urllib.request, "urlopen", answering(data, attempts))
    endpoint = EndpointConfig(base_url="http://x/api", retries=2)
    with pytest.raises(ADAPTER_ERRORS[adapter]) as raised:
        if adapter == "sampler":
            HttpSampler(endpoint).sample(make_instance(), ProbeSetting.A, 2)
        else:
            HttpEmbedder(endpoint).embed(["a", "b"])
    assert str(raised.value) == f"{what}: {cause}"
    assert attempts == ["http://x/api"]


@pytest.mark.parametrize("body", NOT_JSON)
@pytest.mark.parametrize("adapter, what", [("sampler", "endpoint unreachable for x1/A"),
                                           ("embedder", "embedder unreachable")])
def test_http_adapters_reject_an_injected_answer_that_is_not_json(adapter, what,
                                                                 body) -> None:
    attempts = []
    data, cause = NOT_JSON[body]
    with pytest.raises(ADAPTER_ERRORS[adapter]) as raised:
        call_adapter(adapter, lambda *request: attempts.append(request) or data)
    assert str(raised.value) == f"{what}: {cause}"
    assert len(attempts) == 1


def test_urllib_transport_posts_the_body_and_headers_it_is_given(monkeypatch) -> None:
    sent = []

    def urlopen(request, timeout):
        sent.append((request, timeout))
        return io.BytesIO(b"answer bytes")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    body = '{"input": ["caf\u00e9"]}'.encode()
    headers = {"Content-Type": "application/json", "Authorization": "Bearer sekrit"}
    assert _urllib_transport("http://x/api", body, headers, 7.5) == b"answer bytes"
    ((request, timeout),) = sent
    assert (request.full_url, request.get_method(), request.data, timeout) == (
        "http://x/api", "POST", body, 7.5)
    # ``Request`` stores each header name capitalized.
    assert dict(request.header_items()) == {
        "Content-type": "application/json", "Authorization": "Bearer sekrit"}


def test_http_sampler_url_it_cannot_send_to_stays_a_value_error() -> None:
    sampler = HttpSampler(EndpointConfig(base_url="chat", retries=2))
    with pytest.raises(ValueError, match="^unknown url type: 'chat'$") as raised:
        sampler.sample(make_instance(), ProbeSetting.A, 2)
    assert not isinstance(raised.value, SamplingError)


def test_http_sampler_rejects_embedder_settings_when_built() -> None:
    with pytest.raises(ValueError, match="^endpoint settings must be an EndpointConfig, "
                                         "not EmbedderEndpointConfig$"):
        HttpSampler(EmbedderEndpointConfig(base_url="http://x/chat"))


def cut_short(url, body, headers, timeout):
    raise http.client.IncompleteRead(b"{", 10)


@pytest.mark.parametrize("adapter", ["sampler", "embedder"])
def test_http_adapters_retry_a_cut_short_answer(adapter) -> None:
    attempts = []

    def transport(*request):
        attempts.append(1)
        cut_short(*request)

    with pytest.raises(ADAPTER_ERRORS[adapter], match="unreachable.*IncompleteRead"):
        call_adapter(adapter, transport, retries=2)
    assert len(attempts) == 3


@pytest.mark.parametrize("answer, error", [
    (b'["not", "an", "object"]', "the answer is not a JSON object"),
    (http.client.IncompleteRead(b"{", 10), "IncompleteRead(1 bytes read, 10 more expected)"),
    *NOT_JSON.values(),
], ids=["list-answer", "incomplete-read", *(f"{body}-answer" for body in NOT_JSON)])
def test_annotate_records_an_unusable_endpoint_answer(monkeypatch, answer, error) -> None:
    monkeypatch.setattr(urllib.request, "urlopen", answering(answer, []))
    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat", retries=1))
    result = annotate([make_instance()], sampler, HashEmbedder(), PipelineConfig(n=2))
    assert (result.stats.labeled, result.stats.discarded, result.stats.failed) == (0, 0, 1)
    assert result.stats.failures == ({"id": "x1",
                                      "error": f"endpoint unreachable for x1/A: {error}"},)


@pytest.mark.parametrize("body", NOT_JSON)
def test_annotate_records_an_embedder_answer_it_cannot_decode(body) -> None:
    attempts = []
    data, cause = NOT_JSON[body]
    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed", retries=2),
                            transport=lambda *request: attempts.append(request) or data)
    result = annotate([make_instance()], MockCotSampler(), embedder, PipelineConfig(n=2))
    assert result.stats.failures == ({"id": "x1", "error": f"embedder unreachable: {cause}"},)
    assert len(attempts) == 1


def test_http_sampler_connects_with_the_longest_timeout_a_socket_takes() -> None:
    # Port 9 on the loopback refuses: the failure is the connection's, not
    # an OverflowError from the timeout.
    endpoint = EndpointConfig(base_url="http://127.0.0.1:9/chat", retries=0,
                              timeout=threading.TIMEOUT_MAX)
    with pytest.raises(SamplingError, match="^endpoint unreachable for x1/A: "):
        HttpSampler(endpoint).sample(make_instance(), ProbeSetting.A, 2)


@pytest.mark.parametrize("rows, message", [
    ([[10 ** 400, 0.0], [1.0, 0.0]], "an embedding that is not a list of finite numbers"),
    ([[1.0, 0.0], [1.0, 0.0, 0.0]], "vectors of different lengths"),
], ids=["integer-beyond-float", "ragged"])
def test_http_embedder_rejects_vectors_it_cannot_stack(rows, message) -> None:
    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                            transport=json_transport({"data": [{"embedding": r} for r in rows]}))
    with pytest.raises(EmbeddingError, match=f"^embedder returned {message}$"):
        embedder.embed(["a", "b"])


def http_embedder_failing_on(bad_vector):
    """An HttpEmbedder whose answer for the texts of instance ``big`` has
    ``bad_vector`` as its first row; every other row is a hash vector."""

    def answer(payload):
        rows = HashEmbedder().embed(payload["input"]).tolist()
        if any("big" in text for text in payload["input"]):
            rows[0] = bad_vector
        return {"data": [{"embedding": row} for row in rows]}

    return HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                        transport=json_transport(answer))


@pytest.mark.parametrize("embedder, error", [
    (http_embedder_failing_on([10 ** 400] + [0.0] * 31),
     NOT_FINITE_NUMBERS),
    (http_embedder_failing_on([1.0, 0.0]), "embedder returned vectors of different lengths"),
], ids=["integer-beyond-float", "ragged"])
def test_annotate_records_an_unusable_embedding_and_goes_on(embedder, error) -> None:
    dataset = [make_instance("big", marker="?solvable=none"),
               make_instance("ok", marker="?solvable=AV")]
    result = annotate(dataset, MockCotSampler(), embedder, PipelineConfig())
    assert result.stats.failures == ({"id": "big", "error": error},)
    (record,) = result.records
    assert (record.instance_id, record.decision) == ("ok", PemLabel.AUDIO_VISUAL)


class OverflowingEmbedder:
    """HashEmbedder rows, scaled by 1e308 for texts that name instance ``big``:
    finite values whose squared norm passes the float range."""

    def embed(self, texts):
        vectors = HashEmbedder().embed(texts)
        return vectors * np.array([[1e308 if "big" in text else 1.0] for text in texts])


def test_annotate_scores_huge_embeddings_by_direction() -> None:
    # The 1e308 rows of instance "big" screen as the unscaled hash rows do.
    dataset = [make_instance("big", marker="?solvable=AV"),
               make_instance("ok", marker="?solvable=AV")]
    plain = annotate(dataset, MockCotSampler(), HashEmbedder(), PipelineConfig())
    huge = annotate(dataset, MockCotSampler(), OverflowingEmbedder(), PipelineConfig())
    assert huge.stats == plain.stats and not huge.stats.failures
    for got, want in zip(huge.records, plain.records):
        assert (got.instance_id, got.decision) == (want.instance_id, want.decision)
        for setting, record in got.settings.items():
            expected = want.settings[setting]
            assert record.accuracy_rate == expected.accuracy_rate
            assert record.consistency == pytest.approx(expected.consistency, abs=1e-12)


def test_http_embedder_sends_the_bearer_token() -> None:
    calls = []
    transport = json_transport(
        lambda payload: {"data": [{"embedding": [1.0, 0.0]} for _ in payload["input"]]}, calls)
    HttpEmbedder(EndpointConfig(base_url="http://x/embed"), token="sekrit",
                 transport=transport).embed(["a"])
    (seen,) = calls
    assert (seen["url"], seen["headers"]) == (
        "http://x/embed", {"Content-Type": "application/json", "Authorization": "Bearer sekrit"})


def test_http_embedder_sends_sorted_utf8_json() -> None:
    bodies = []

    def transport(url, body, headers, timeout):
        bodies.append(body)
        return b'{"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]}'

    HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                 transport=transport).embed(["caf\u00e9", "b"])
    assert bodies == ['{"input": ["caf\u00e9", "b"], "model": "probe-model"}'.encode()]


def test_probe_prompt_templates() -> None:
    inst = Instance(id="p1", question="Who sings?",
                    gold_answer="the busker", audio_ref="a", video_ref="v",
                    choices=("the busker", "the crowd"))
    for setting in ProbeSetting:
        prompt = build_probe_prompt(inst, setting)
        assert "Who sings?" in prompt
        assert "the busker | the crowd" in prompt
    assert "ONLY the audio" in build_probe_prompt(inst, ProbeSetting.A)
    assert "ONLY the video" in build_probe_prompt(inst, ProbeSetting.V)


def test_structured_output_instruction_fixture_ships() -> None:
    from importlib import resources

    text = resources.files("sffuse").joinpath(
        "prompts", "sfr_instruction.txt").read_text(encoding="utf-8")
    for tag in ("mod", "v", "a", "sum", "ans"):
        assert f"<{tag}>" in text and f"</{tag}>" in text
    assert "{question}" in text and "{choices_block}" in text
