import http.client
import itertools
import math
import urllib.error
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ScriptedSampler, reference_consistency, reference_hash_vector
from sffuse.pem_pipeline import (
    Discard,
    DiscardReason,
    EmbeddingError,
    EmptyDatasetError,
    EndpointConfig,
    HashEmbedder,
    HttpEmbedder,
    HttpSampler,
    Instance,
    MediaRefs,
    MockCotSampler,
    PipelineConfig,
    ProbeSetting,
    SampleSet,
    SamplingError,
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
        media=MediaRefs(audio_ref=f"mock://audio/{instance_id}{marker}",
                        video_ref=f"mock://video/{instance_id}"),
        gold_answer=gold,
    )


def sample_set(answers_and_cots, setting=ProbeSetting.A):
    return SampleSet(setting=setting, samples=tuple(answers_and_cots))


# --- accuracy -----------------------------------------------------------------

def test_accuracy_six_of_eight() -> None:
    samples = sample_set([("collie", "t")] * 6 + [("sheep", "t")] * 2)
    assert accuracy_rate(samples, "collie") == 0.75


def test_accuracy_unanimous() -> None:
    samples = sample_set([("Collie.", "t")] * 8)
    assert accuracy_rate(samples, "collie") == 1.0


def test_accuracy_none_correct() -> None:
    samples = sample_set([("sheep", "t")] * 8)
    assert accuracy_rate(samples, "collie") == 0.0


def test_accuracy_uses_answer_normalizer() -> None:
    samples = sample_set([("  THE   Collie. ", "t"), ("the collie", "t")])
    assert accuracy_rate(samples, "The Collie") == 1.0


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
    with pytest.raises(ValueError, match="finite"):
        consistency(["a", "b"], FixedEmbedder({"a": [np.nan, 0], "b": [1, 0]}))


# --- oracles: exact equality with the loop references ---------------------------

HASH_DIMS = (2, 3, 4, 5, 31, 32, 33, 64)
# A small pool, so drawn text lists repeat texts often.
TEXT_POOL = ("", "same", "Ünïcødé 🐕 音声", "a\nb")


@pytest.mark.parametrize("dim", HASH_DIMS)
@settings(max_examples=40, deadline=None)
@example(texts=["", "collie", "Ünïcødé 🐕 音声"])
@given(texts=st.lists(st.text(), min_size=1, max_size=5))
def test_hash_embedder_matches_loop_reference(dim, texts) -> None:
    got = HashEmbedder(dim).embed(texts)
    want = np.stack([reference_hash_vector(text, dim) for text in texts])
    assert got.shape == want.shape
    assert (got == want).all()


@pytest.mark.parametrize("dim", HASH_DIMS)
@settings(max_examples=40, deadline=None)
@given(texts=st.lists(st.sampled_from(TEXT_POOL) | st.text(max_size=12),
                      min_size=2, max_size=10))
def test_consistency_matches_loop_reference_on_hash_vectors(dim, texts) -> None:
    embedder = HashEmbedder(dim)
    assert consistency(texts, embedder) == reference_consistency(texts, embedder)


def random_vector_embedder(dim, seed):
    """Texts t0..t5 over three random vectors: t0 and t3 share a vector, so
    distinct texts give duplicate rows, as do repeated texts."""
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(3, dim)) * rng.uniform(0.1, 10.0, size=(3, 1))
    return FixedEmbedder({f"t{k}": pool[k % 3] for k in range(6)})


@settings(max_examples=100, deadline=None)
@given(dim=st.sampled_from(HASH_DIMS), seed=st.integers(0, 2 ** 32 - 1),
       picks=st.lists(st.integers(0, 5), min_size=2, max_size=12))
def test_consistency_matches_loop_reference_on_random_vectors(dim, seed, picks) -> None:
    embedder = random_vector_embedder(dim, seed)
    texts = [f"t{k}" for k in picks]
    assert consistency(texts, embedder) == reference_consistency(texts, embedder)


@settings(max_examples=50, deadline=None)
@given(dim=st.sampled_from(HASH_DIMS), seed=st.integers(0, 2 ** 32 - 1),
       picks=st.lists(st.integers(0, 5), min_size=12, max_size=12))
def test_annotate_screening_matches_loop_reference(dim, seed, picks) -> None:
    # Texts repeat within and across settings; each setting's consistency
    # must still equal the loop over its own n=4 rows.
    embedder = random_vector_embedder(dim, seed)
    inst = make_instance("r1")
    script = {(inst.id, setting): [("collie", f"t{k}") for k in picks[4 * s:4 * s + 4]]
              for s, setting in enumerate(ProbeSetting)}
    result = annotate([inst], ScriptedSampler(script), embedder, PipelineConfig(n=4))
    (record,) = result.records
    for setting in ProbeSetting:
        cots = [cot for _, cot in script[inst.id, setting]]
        assert record.settings[setting].consistency == reference_consistency(cots, embedder)


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
    (True, True, True): Discard(DiscardReason.TRIVIALLY_EASY),
    (True, True, False): Discard(DiscardReason.CONTRADICTORY),
    (True, False, False): Discard(DiscardReason.CONTRADICTORY),
    (False, True, False): Discard(DiscardReason.CONTRADICTORY),
    (False, False, False): Discard(DiscardReason.UNSOLVABLE),
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
    assert decisions["i04"] == Discard(DiscardReason.TRIVIALLY_EASY)
    assert decisions["i05"] == Discard(DiscardReason.CONTRADICTORY)
    assert decisions["i06"] == Discard(DiscardReason.CONTRADICTORY)
    assert decisions["i07"] == Discard(DiscardReason.CONTRADICTORY)
    assert decisions["i08"] == Discard(DiscardReason.UNSOLVABLE)
    assert decisions["i12"] == Discard(DiscardReason.TRIVIALLY_EASY)
    assert result.stats.labeled == 6
    assert result.stats.label_counts == {"Audio": 2, "Visual": 2, "Audio-Visual": 2}
    assert result.stats.discard_counts == {
        "TriviallyEasy": 2, "Ambiguous": 0, "Contradictory": 3, "Unsolvable": 1}


def test_annotate_fixture_matches_golden_bytes(tmp_path) -> None:
    result = run_fixture()
    out = tmp_path / "labeled.jsonl"
    write_jsonl(out, result.labeled)
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
    with pytest.raises(ValueError, match="unique"):
        annotate(twice, MockCotSampler(), HashEmbedder(), PipelineConfig())


def test_annotate_all_identical_samples_all_trivially_easy() -> None:
    dataset = [make_instance(f"t{i}") for i in range(3)]  # no marker: all solve
    result = annotate(dataset, MockCotSampler(), HashEmbedder(), PipelineConfig())
    assert all(r.decision == Discard(DiscardReason.TRIVIALLY_EASY)
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
    inst = make_instance("short")
    script = {(inst.id, setting): [("collie", "t")] * 3 for setting in ProbeSetting}
    result = annotate([inst], ScriptedSampler(script), HashEmbedder(),
                      PipelineConfig(n=8))
    assert result.stats.failed == 1
    assert "3 samples" in result.stats.failures[0]["error"]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_annotate_propagates_programming_errors(parallelism) -> None:
    class BuggySampler:
        def sample(self, instance, setting, n):
            raise TypeError("bug in sampler")

    dataset = [make_instance("a"), make_instance("b")]
    with pytest.raises(TypeError, match="bug in sampler"):
        annotate(dataset, BuggySampler(), HashEmbedder(),
                 PipelineConfig(parallelism=parallelism))


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


def test_mock_sampler_scripted_solvability() -> None:
    inst = make_instance("m1", marker="?solvable=A,AV")
    sampler = MockCotSampler()
    solvable_samples = sampler.sample(inst, ProbeSetting.A, 8)
    assert accuracy_rate(solvable_samples, inst.gold_answer) == 1.0
    assert len(set(solvable_samples.cot_texts)) == 1
    unsolvable_samples = sampler.sample(inst, ProbeSetting.V, 8)
    assert accuracy_rate(unsolvable_samples, inst.gold_answer) == 0.0
    assert len(set(unsolvable_samples.cot_texts)) == 8


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


def test_http_sampler_parses_recorded_stub() -> None:
    seen = {}

    def transport(url, payload, headers, timeout):
        seen.update(url=url, payload=payload, headers=headers)
        return recorded_response()

    sampler = HttpSampler(EndpointConfig(base_url="http://localhost:9/chat"),
                          token="sekrit", transport=transport)
    result = sampler.sample(make_instance(), ProbeSetting.AV, 2)
    assert result.samples == (
        ("two", RECORDED_COMPLETIONS[0]),
        ("two", RECORDED_COMPLETIONS[1]),
    )
    assert seen["payload"]["n"] == 2
    assert seen["payload"]["media"] == {"audio_ref": "mock://audio/x1",
                                        "video_ref": "mock://video/x1"}
    assert seen["headers"]["Authorization"] == "Bearer sekrit"
    assert "What animal is barking?" in seen["payload"]["messages"][0]["content"]


def test_http_sampler_setting_controls_forwarded_media() -> None:
    captured = {}

    def transport(url, payload, headers, timeout):
        captured[payload["media"].get("audio_ref"), payload["media"].get("video_ref")] = True
        return recorded_response()

    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat"), transport=transport)
    sampler.sample(make_instance(), ProbeSetting.A, 2)
    sampler.sample(make_instance(), ProbeSetting.V, 2)
    assert ("mock://audio/x1", None) in captured
    assert (None, "mock://video/x1") in captured


def test_http_sampler_retries_then_fails_typed() -> None:
    attempts = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        raise urllib.error.URLError("connection refused")

    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat", retries=2),
                          transport=transport)
    with pytest.raises(SamplingError, match="unreachable"):
        sampler.sample(make_instance(), ProbeSetting.A, 2)
    assert len(attempts) == 3


def test_http_sampler_malformed_completion() -> None:
    def transport(url, payload, headers, timeout):
        return {"choices": [{"message": {"content": "no marker here"}},
                            {"message": {"content": "Answer: fine"}}]}

    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat"), transport=transport)
    with pytest.raises(SamplingError, match="Answer"):
        sampler.sample(make_instance(), ProbeSetting.A, 2)


@pytest.mark.parametrize("choices", [[{"message": {}}, {"message": {}}], ["text", "text"]],
                         ids=["no-content", "not-an-object"])
def test_http_sampler_rejects_a_completion_without_content(choices) -> None:
    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat"),
                          transport=lambda *a: {"choices": choices})
    with pytest.raises(SamplingError, match="^malformed completion for x1/A$"):
        sampler.sample(make_instance(), ProbeSetting.A, 2)


def test_http_sampler_wrong_completion_count() -> None:
    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat"),
                          transport=lambda *a: recorded_response(1))
    with pytest.raises(SamplingError, match="wanted 2"):
        sampler.sample(make_instance(), ProbeSetting.A, 2)


def test_parse_completion_uses_last_answer_line() -> None:
    answer, cot = parse_completion("Answer: first\nmore thought\nANSWER: second")
    assert answer == "second"
    assert cot.startswith("Answer: first")


def test_http_embedder_stub() -> None:
    def transport(url, payload, headers, timeout):
        return {"data": [{"embedding": [1.0, 0.0]} for _ in payload["input"]]}

    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                            transport=transport)
    vectors = embedder.embed(["a", "b"])
    assert vectors.shape == (2, 2)
    assert consistency(["a", "b"], embedder) == pytest.approx(1.0)


@pytest.mark.parametrize("answer", [{"data": [{"vector": [1.0]}, {"vector": [1.0]}]},
                                    {"data": 5}, {"rows": []}],
                         ids=["no-embedding", "data-not-a-list", "no-data"])
def test_http_embedder_rejects_a_malformed_response(answer) -> None:
    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                            transport=lambda *a: answer)
    with pytest.raises(EmbeddingError, match="^malformed embedding response$"):
        embedder.embed(["a", "b"])


def test_http_embedder_rejects_a_vector_count_mismatch() -> None:
    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                            transport=lambda *a: {"data": [{"embedding": [1.0, 0.0]}]})
    with pytest.raises(EmbeddingError, match="^embedder returned 1 vectors for 2 texts$"):
        embedder.embed(["a", "b"])


@pytest.mark.parametrize("embedding", [["0.5", True], [0.5, True], [0.5, None],
                                       [[0.5], [1.0]], 0.5, "0.5"],
                         ids=["string-and-bool", "bool", "null", "nested", "number", "string"])
def test_http_embedder_rejects_an_entry_that_is_not_a_number(embedding) -> None:
    def transport(url, payload, headers, timeout):
        return {"data": [{"embedding": embedding} for _ in payload["input"]]}

    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                            transport=transport)
    with pytest.raises(EmbeddingError, match="not a list of numbers"):
        embedder.embed(["a", "b"])


def test_http_embedder_payload_holds_distinct_texts() -> None:
    inputs = []

    def transport(url, payload, headers, timeout):
        inputs.append(payload["input"])
        vectors = HashEmbedder().embed(payload["input"])
        return {"data": [{"embedding": vec.tolist()} for vec in vectors]}

    embedder = HttpEmbedder(EndpointConfig(base_url="http://x/embed"),
                            transport=transport)
    dataset = load_fixture_dataset()
    result = annotate(dataset, MockCotSampler(), embedder, PipelineConfig())
    assert len(inputs) == len(dataset)
    assert all(len(set(texts)) == len(texts) for texts in inputs)
    assert result.labeled == run_fixture().labeled


@pytest.mark.parametrize("code, calls", [(401, 1), (404, 1), (429, 3), (503, 3)])
@pytest.mark.parametrize("adapter", ["sampler", "embedder"])
def test_http_adapters_retry_only_transient_statuses(adapter, code, calls) -> None:
    attempts = []

    def transport(url, payload, headers, timeout):
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

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        return answer

    with pytest.raises(ADAPTER_ERRORS[adapter], match=": the answer is not a JSON object$"):
        call_adapter(adapter, transport)
    assert len(attempts) == 1


def cut_short(url, payload, headers, timeout):
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


@pytest.mark.parametrize("transport", [lambda *a: ["not", "an", "object"], cut_short],
                         ids=["list-answer", "incomplete-read"])
def test_annotate_records_an_unusable_endpoint_answer(transport) -> None:
    sampler = HttpSampler(EndpointConfig(base_url="http://x/chat", retries=1),
                          transport=transport)
    result = annotate([make_instance()], sampler, HashEmbedder(), PipelineConfig(n=2))
    assert (result.stats.labeled, result.stats.discarded, result.stats.failed) == (0, 0, 1)
    assert result.stats.failures[0]["id"] == "x1"
    assert result.stats.failures[0]["error"].startswith("endpoint unreachable for x1/")


def test_http_embedder_sends_the_bearer_token() -> None:
    seen = {}

    def transport(url, payload, headers, timeout):
        seen.update(url=url, headers=headers)
        return {"data": [{"embedding": [1.0, 0.0]} for _ in payload["input"]]}

    HttpEmbedder(EndpointConfig(base_url="http://x/embed"), token="sekrit",
                 transport=transport).embed(["a"])
    assert seen == {"url": "http://x/embed", "headers": {"Authorization": "Bearer sekrit"}}


def test_probe_prompt_templates() -> None:
    inst = Instance(id="p1", question="Who sings?",
                    media=MediaRefs("a", "v"), gold_answer="the busker",
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
