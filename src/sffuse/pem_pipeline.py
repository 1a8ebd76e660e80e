"""Preferred-evidence-modality annotation pipeline.

Each instance is probed under three input settings (audio-only, video-only,
audio+video). Per setting we draw n chain-of-thought samples, call the
setting solvable when the answer-accuracy rate and the pairwise CoT
embedding consistency both clear their thresholds, and map the three
solvability flags through a fixed decision table to a PEM label or a
discard reason. Defaults: n=8, accuracy threshold 0.75, consistency
threshold 0.8, both inclusive.

Samplers are pluggable: a deterministic mock for tests and offline runs,
and an HTTP chat-completion adapter for real probing. Media fields are
opaque references forwarded to the sampler; no decoding happens here.
"""

from __future__ import annotations

import enum
import hashlib
import http.client
import json
import math
import re
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .jsonl import is_number_list, read_records, str_fields, write_records
from .normalize import answers_match
from .tag_grammar import PemLabel


class PipelineError(Exception):
    """Base class for annotation pipeline failures."""


class EmptyDatasetError(PipelineError):
    pass


class SamplingError(PipelineError):
    """A sampler endpoint failed or returned an unusable completion."""


class EmbeddingError(PipelineError):
    """An embedder endpoint failed or returned unusable vectors."""


class ProbeSetting(enum.Enum):
    A = "A"
    V = "V"
    AV = "AV"


@dataclass(frozen=True)
class MediaRefs:
    audio_ref: str = ""
    video_ref: str = ""


@dataclass(frozen=True)
class Instance:
    id: str
    question: str
    media: MediaRefs
    gold_answer: str
    choices: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.gold_answer:
            raise ValueError(f"instance {self.id!r}: gold_answer must be nonempty")
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))


@dataclass(frozen=True)
class SampleSet:
    """n sampled (answer, cot_text) pairs for one (instance, setting)."""

    setting: ProbeSetting
    samples: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "samples", tuple((str(a), str(c)) for a, c in self.samples))
        if len(self.samples) < 2:
            raise ValueError("a sample set needs n >= 2 samples")

    @property
    def answers(self) -> list[str]:
        return [a for a, _ in self.samples]

    @property
    def cot_texts(self) -> list[str]:
        return [c for _, c in self.samples]


@dataclass(frozen=True)
class SolvabilityRecord:
    accuracy_rate: float
    consistency: float
    solvable: bool

    def to_dict(self) -> dict:
        return asdict(self)


class DiscardReason(enum.Enum):
    TRIVIALLY_EASY = "TriviallyEasy"
    AMBIGUOUS = "Ambiguous"
    CONTRADICTORY = "Contradictory"
    UNSOLVABLE = "Unsolvable"


@dataclass(frozen=True)
class Discard:
    reason: DiscardReason


@dataclass(frozen=True)
class PemRecord:
    instance_id: str
    settings: Mapping[ProbeSetting, SolvabilityRecord]
    decision: PemLabel | Discard

    def __post_init__(self) -> None:
        object.__setattr__(self, "settings", dict(self.settings))

    def to_dict(self) -> dict:
        if isinstance(self.decision, PemLabel):
            decision = {"kind": "label", "label": self.decision.value}
        else:
            decision = {"kind": "discard", "reason": self.decision.reason.value}
        return {
            "id": self.instance_id,
            "settings": {s.value: self.settings[s].to_dict() for s in ProbeSetting},
            "decision": decision,
        }


@dataclass(frozen=True)
class EndpointConfig:
    """HTTP chat-completion endpoint settings; token read from the environment.
    The embedder sends only ``{model, input}``, so ``temperature`` is not read
    for ``embedder_endpoint``."""

    base_url: str = ""
    model: str = "probe-model"
    temperature: float = 1.0
    timeout: float = 30.0
    retries: int = 2
    auth_env: str = "SFFUSE_API_TOKEN"

    def __post_init__(self) -> None:
        if not self.retries >= 0:
            raise ValueError("retries must be >= 0")
        if not 0.0 < self.timeout < math.inf:  # NaN fails too
            raise ValueError("timeout must be finite and > 0")


@dataclass(frozen=True)
class PipelineConfig:
    n: int = 8
    tau_acc: float = 0.75
    tau_cons: float = 0.8
    parallelism: int = 1
    endpoint: EndpointConfig = field(default_factory=EndpointConfig)
    embedder_endpoint: EndpointConfig = field(default_factory=EndpointConfig)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        for name in ("tau_acc", "tau_cons"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


class CotSampler(Protocol):
    def sample(self, instance: Instance, setting: ProbeSetting, n: int) -> SampleSet:
        ...


class TextEmbedder(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray:
        ...


# --- Screening ---------------------------------------------------------------

def accuracy_rate(samples: SampleSet, gold: str) -> float:
    """Fraction of sampled answers matching gold after normalization."""
    hits = sum(1 for answer in samples.answers if answers_match(answer, gold))
    return hits / len(samples.samples)


def _unit_rows(texts: Sequence[str], embedder: TextEmbedder) -> np.ndarray:
    """Embed each distinct text once, in first-seen order, and return one
    unit-length row per entry of ``texts``; identical texts share a row."""
    distinct = list(dict.fromkeys(texts))
    vectors = np.asarray(embedder.embed(distinct), dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] != len(distinct):
        raise ValueError("embedder must return one vector per text")
    if not np.isfinite(vectors).all():
        raise ValueError("embedder returned non-finite values")
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    if (norms == 0).any():
        raise ValueError("embedder returned a zero vector")
    row_of = {text: k for k, text in enumerate(distinct)}
    return (vectors / norms)[[row_of[text] for text in texts]]


def _mean_pair_cosine(unit: np.ndarray) -> float:
    """Mean dot over all unordered row pairs. Each row of the product is
    summed on its own (no Gram matrix, whose BLAS rounding differs), and
    fsum makes the mean exactly permutation-invariant."""
    first, second = np.triu_indices(len(unit), k=1)
    dots = (unit[first] * unit[second]).sum(axis=1)
    return math.fsum(dots) / len(dots)


def consistency(cot_texts: Sequence[str], embedder: TextEmbedder) -> float:
    """Mean cosine similarity over all unordered pairs of CoT texts.

    Each distinct text is embedded once and re-normalized to unit length
    here, so any finite nonzero vectors are acceptable from the embedder.
    Pair dots are reduced with fsum, making the result exactly
    permutation-invariant.
    """
    if len(cot_texts) < 2:
        raise ValueError("consistency needs at least 2 texts")
    return _mean_pair_cosine(_unit_rows(cot_texts, embedder))


def solvable(accuracy: float, cot_consistency: float, cfg: PipelineConfig) -> bool:
    """Both thresholds are inclusive ("at least")."""
    return accuracy >= cfg.tau_acc and cot_consistency >= cfg.tau_cons


# --- Decision table ----------------------------------------------------------

_DECISIONS = {
    (True, False, True): PemLabel.AUDIO,
    (False, True, True): PemLabel.VISUAL,
    (False, False, True): PemLabel.AUDIO_VISUAL,
    (True, True, True): Discard(DiscardReason.TRIVIALLY_EASY),
    (False, False, False): Discard(DiscardReason.UNSOLVABLE),
}
_CONTRADICTORY = Discard(DiscardReason.CONTRADICTORY)


def decide_pem(solvable_a: bool, solvable_v: bool, solvable_av: bool) -> PemLabel | Discard:
    """Total decision over the 8 solvability patterns.

    Labels require the audio+video setting to be solvable; patterns where a
    single modality solves but AV does not are non-monotonic and discarded
    as Contradictory (this outranks the two-single-modality Ambiguous
    reading of (1,1,0)); all-solvable carries no modality signal and
    nothing-solvable is unusable.
    """
    return _DECISIONS.get((solvable_a, solvable_v, solvable_av), _CONTRADICTORY)


# --- Batch annotation ---------------------------------------------------------

@dataclass(frozen=True)
class PipelineStats:
    total: int
    labeled: int
    discarded: int
    failed: int
    label_counts: dict[str, int]
    discard_counts: dict[str, int]
    failures: tuple[dict, ...]


@dataclass(frozen=True)
class AnnotationResult:
    records: tuple[PemRecord, ...]
    labeled: tuple[dict, ...]
    stats: PipelineStats


# Errors that fail one instance; anything else escapes ``annotate``.
_RECORDED_FAILURES = (PipelineError, ValueError, OSError)


def annotate(
    dataset: Sequence[Instance],
    sampler: CotSampler,
    embedder: TextEmbedder,
    cfg: PipelineConfig,
) -> AnnotationResult:
    """Probe, screen, and label a dataset.

    Instances are processed under the configured parallelism bound; results
    are keyed and ordered by instance id, so output is independent of
    schedule. Each instance's three sample sets are drawn first; then its
    distinct CoT texts go to the embedder in one call. Per-instance pipeline,
    value and I/O errors are recorded in the stats and skipped, never
    aborting the batch; any other exception is a bug and propagates.
    """
    if not dataset:
        raise EmptyDatasetError("dataset is empty")
    ids = [inst.id for inst in dataset]
    if len(set(ids)) != len(ids):
        raise ValueError("instance ids must be unique within a dataset")

    def process(instance: Instance) -> tuple[PemRecord, str]:
        sample_sets: dict[ProbeSetting, SampleSet] = {}
        for setting in ProbeSetting:
            samples = sampler.sample(instance, setting, cfg.n)
            if len(samples.samples) != cfg.n:
                raise SamplingError(
                    f"sampler returned {len(samples.samples)} samples, wanted {cfg.n}")
            sample_sets[setting] = samples
        # One embedder call per instance, over its distinct CoT texts.
        unit = _unit_rows(
            [cot for samples in sample_sets.values() for cot in samples.cot_texts],
            embedder)
        per_setting: dict[ProbeSetting, SolvabilityRecord] = {}
        for k, (setting, samples) in enumerate(sample_sets.items()):
            acc = accuracy_rate(samples, instance.gold_answer)
            cons = _mean_pair_cosine(unit[k * cfg.n:(k + 1) * cfg.n])
            per_setting[setting] = SolvabilityRecord(acc, cons, solvable(acc, cons, cfg))
        decision = decide_pem(
            per_setting[ProbeSetting.A].solvable,
            per_setting[ProbeSetting.V].solvable,
            per_setting[ProbeSetting.AV].solvable,
        )
        av_cot = sample_sets[ProbeSetting.AV].cot_texts[0]
        return PemRecord(instance.id, per_setting, decision), av_cot

    def guarded(instance: Instance) -> tuple[PemRecord, str] | dict:
        """``process``, with a recorded failure returned as its stats row."""
        try:
            return process(instance)
        except _RECORDED_FAILURES as exc:
            return {"id": instance.id, "error": str(exc)}

    if cfg.parallelism == 1:
        results = list(map(guarded, dataset))
    else:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            results = list(pool.map(guarded, dataset))
    records, labeled, failures = [], [], []
    label_counts = {label.value: 0 for label in PemLabel}
    discard_counts = {reason.value: 0 for reason in DiscardReason}
    for instance, result in sorted(zip(dataset, results), key=lambda pair: pair[0].id):
        if isinstance(result, dict):
            failures.append(result)
            continue
        record, av_cot = result
        records.append(record)
        if isinstance(record.decision, PemLabel):
            label_counts[record.decision.value] += 1
            labeled.append(labeled_export(instance, record, av_cot))
        else:
            discard_counts[record.decision.reason.value] += 1

    stats = PipelineStats(
        total=len(dataset),
        labeled=len(labeled),
        discarded=len(records) - len(labeled),
        failed=len(failures),
        label_counts=label_counts,
        discard_counts=discard_counts,
        failures=tuple(failures),
    )
    return AnnotationResult(tuple(records), tuple(labeled), stats)


def labeled_export(instance: Instance, record: PemRecord, cot: str) -> dict:
    """Training-ready record for a labeled instance. The exported rationale
    is the first AV sample in sampling order, making exports deterministic
    given the sampler's stream."""
    out = {
        "id": instance.id,
        "question": instance.question,
        "media": {"audio_ref": instance.media.audio_ref,
                  "video_ref": instance.media.video_ref},
        "gold_answer": instance.gold_answer,
        "pem": record.decision.value,
        "evidence": {s.value: record.settings[s].to_dict() for s in ProbeSetting},
        "cot": cot,
    }
    if instance.choices is not None:
        out["choices"] = list(instance.choices)
    return out


# --- Dataset I/O ---------------------------------------------------------------

def read_instances(path: str | Path) -> list[Instance]:
    def build(obj: dict, lineno: int) -> Instance:
        media = obj.get("media", {})
        choices = obj.get("choices", [])
        if not isinstance(media, dict):
            raise ValueError("media must be an object")
        if not (isinstance(choices, list) and all(isinstance(c, str) for c in choices)):
            raise ValueError("choices must be a list of strings")
        instance_id, question, gold_answer = str_fields(obj, "id", "question", "gold_answer")
        return Instance(
            id=instance_id,
            question=question,
            media=MediaRefs(*str_fields(media, "audio_ref", "video_ref", default="")),
            gold_answer=gold_answer,
            choices=tuple(choices) if "choices" in obj else None,
        )

    return read_records(path, build)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """``jsonl.write_records``: one strict JSON line per row, none written
    unless every row encodes. Kept under this name, which perfbench times."""
    return write_records(path, rows)


# --- Deterministic mock sampler and embedder -----------------------------------

_SOLVABLE_MARKER = re.compile(r"solvable=((?:AV|A|V)(?:,(?:AV|A|V))*|none)\b")


def _scripted_pattern(instance: Instance) -> set[ProbeSetting]:
    """Read a 'solvable=A,AV' marker from the media refs or question.

    The marker scripts which settings the mock treats as solvable; without
    one, every setting solves (the trivially-easy pattern).
    """
    haystack = " ".join(
        (instance.media.audio_ref, instance.media.video_ref, instance.question))
    match = _SOLVABLE_MARKER.search(haystack)
    if match is None:
        return set(ProbeSetting)
    if match.group(1) == "none":
        return set()
    return {ProbeSetting(token) for token in match.group(1).split(",")}


class MockCotSampler:
    """Offline sampler with scripted per-setting solvability.

    Solvable settings yield n identical gold-answer samples (accuracy 1,
    consistency 1); unsolvable settings yield n distinct wrong answers with
    divergent rationales.
    """

    def sample(self, instance: Instance, setting: ProbeSetting, n: int) -> SampleSet:
        if setting in _scripted_pattern(instance):
            answer = instance.gold_answer
            cot = (f"Under the {setting.value} input the evidence for "
                   f"{instance.id} is stable and supports: {answer}.")
            samples = tuple((answer, cot) for _ in range(n))
        else:
            samples = tuple(
                (f"not-{instance.gold_answer}-{k}",
                 f"Attempt {k}: speculative {setting.value} reading of "
                 f"{instance.id} with no firm evidence.")
                for k in range(n))
        return SampleSet(setting=setting, samples=samples)


class HashEmbedder:
    """Deterministic text embedder: unit vectors derived from SHA-256 bytes.

    Identical texts map to identical vectors (cosine 1); distinct texts map
    to pseudo-random directions with near-zero expected cosine. Stable
    across platforms, so goldens built on it are byte-reproducible.
    """

    def __init__(self, dim: int = 32):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim

    def _vector(self, text: str) -> np.ndarray:
        # Each SHA-256 digest gives four big-endian 64-bit words, each mapped
        # to [-1, 1] as word / 2**63 - 1 (exact: the scale is a power of two).
        raw = b"".join(hashlib.sha256(f"{counter}:{text}".encode()).digest()
                       for counter in range(-(-self.dim // 4)))
        vec = np.frombuffer(raw, dtype=">u8")[: self.dim] / 2.0 ** 63 - 1.0
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            vec[0] = 1.0
            norm = 1.0
        return vec / norm

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        return np.stack([self._vector(t) for t in texts])


# --- HTTP endpoint adapter -------------------------------------------------------

_PROMPT_FILES = {
    ProbeSetting.A: "probe_a.txt",
    ProbeSetting.V: "probe_v.txt",
    ProbeSetting.AV: "probe_av.txt",
}

_ANSWER_LINE = re.compile(r"(?im)^answer:\s*(.+?)\s*$")

Transport = Callable[[str, dict, dict, float], dict]


def _urllib_transport(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **headers},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class _Endpoint:
    """An HTTP endpoint's settings, bearer token and transport, and the one
    POST path with retries; a subclass sets its ``role`` and ``error`` type."""

    role: str
    error: type[PipelineError]

    def __init__(self, endpoint: EndpointConfig, token: str | None = None,
                 transport: Transport = _urllib_transport):
        if not endpoint.base_url:
            raise ValueError(f"{self.role} base_url is required")
        self.endpoint = endpoint
        self.token = token
        self.transport = transport

    def _request(self, payload: dict, what: str) -> dict:
        """POST with an optional bearer token and return the JSON object
        answered. Timeouts, connection errors, cut-short answers, 429 and 5xx
        are retried up to ``endpoint.retries`` times; then, or at once on any
        other HTTP status, raise ``error("{what}: {last error}")``. An answer
        that is not a JSON object raises ``error`` at once."""
        headers = {"Authorization": f"Bearer {self.token}"} if self.token else {}
        last_error: Exception | None = None
        for _ in range(self.endpoint.retries + 1):
            try:
                response = self.transport(
                    self.endpoint.base_url, payload, headers, self.endpoint.timeout)
            except (urllib.error.URLError, http.client.HTTPException, TimeoutError,
                    ConnectionError) as exc:
                last_error = exc
                # Other HTTP statuses (a 401, a 404) would fail the same way again.
                if isinstance(exc, urllib.error.HTTPError) and not (
                        exc.code == 429 or 500 <= exc.code < 600):
                    break
                continue
            if not isinstance(response, dict):
                raise self.error(f"{what}: the answer is not a JSON object")
            return response
        raise self.error(f"{what}: {last_error}")


def load_prompt_template(setting: ProbeSetting) -> str:
    """Editable prompt fixture for one probe setting."""
    return resources.files("sffuse").joinpath(
        "prompts", _PROMPT_FILES[setting]).read_text(encoding="utf-8")


def build_probe_prompt(instance: Instance, setting: ProbeSetting) -> str:
    template = load_prompt_template(setting)
    if instance.choices:
        choices_block = "Choices: " + " | ".join(instance.choices)
    else:
        choices_block = "Answer freely."
    return template.format(question=instance.question, choices_block=choices_block)


def parse_completion(content: str) -> tuple[str, str]:
    """Split one completion into (answer, cot_text).

    The answer is the last 'Answer:' line; the CoT is the full completion
    text (consistency is computed on the whole trace).
    """
    matches = _ANSWER_LINE.findall(content)
    if not matches:
        raise SamplingError("completion has no 'Answer:' line")
    return matches[-1], content


class HttpSampler(_Endpoint):
    """Chat-completion endpoint adapter for modality probing.

    Builds the per-setting probing prompt, forwards the relevant opaque
    media references, and parses n completions into a sample set. Transport
    errors are retried up to the configured count; anything else becomes a
    typed SamplingError.
    """

    role = "endpoint"
    error = SamplingError

    def _media_payload(self, instance: Instance, setting: ProbeSetting) -> dict:
        media = {}
        if setting in (ProbeSetting.A, ProbeSetting.AV):
            media["audio_ref"] = instance.media.audio_ref
        if setting in (ProbeSetting.V, ProbeSetting.AV):
            media["video_ref"] = instance.media.video_ref
        return media

    def sample(self, instance: Instance, setting: ProbeSetting, n: int) -> SampleSet:
        if n < 2:
            raise ValueError("n must be >= 2")
        payload = {
            "model": self.endpoint.model,
            "messages": [
                {"role": "user",
                 "content": build_probe_prompt(instance, setting)},
            ],
            "media": self._media_payload(instance, setting),
            "n": n,
            "temperature": self.endpoint.temperature,
        }
        response = self._request(
            payload, f"endpoint unreachable for {instance.id}/{setting.value}")
        choices = response.get("choices")
        if not isinstance(choices, list) or len(choices) != n:
            raise SamplingError(
                f"endpoint returned {0 if not isinstance(choices, list) else len(choices)} "
                f"completions for {instance.id}/{setting.value}, wanted {n}")
        samples = []
        for choice in choices:
            try:
                content = choice["message"]["content"]
            except (KeyError, TypeError) as exc:
                raise SamplingError(
                    f"malformed completion for {instance.id}/{setting.value}") from exc
            samples.append(parse_completion(str(content)))
        return SampleSet(setting=setting, samples=tuple(samples))


class HttpEmbedder(_Endpoint):
    """Embedding endpoint adapter: {model, input: [...]} in, vectors out."""

    role = "embedder"
    error = EmbeddingError

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        payload = {"model": self.endpoint.model, "input": list(texts)}
        response = self._request(payload, "embedder unreachable")
        try:
            vectors = [row["embedding"] for row in response["data"]]
        except (KeyError, TypeError) as exc:
            raise EmbeddingError("malformed embedding response") from exc
        if len(vectors) != len(texts):
            raise EmbeddingError(
                f"embedder returned {len(vectors)} vectors for {len(texts)} texts")
        if not all(map(is_number_list, vectors)):
            raise EmbeddingError("embedder returned an embedding that is not a list of numbers")
        return np.asarray(vectors, dtype=float)
