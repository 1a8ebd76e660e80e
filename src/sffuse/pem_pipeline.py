"""Preferred-evidence-modality annotation pipeline.

Each instance is probed under three input settings (audio-only, video-only,
audio+video). Per setting we draw n chain-of-thought samples, call the
setting solvable when the answer-accuracy rate and the pairwise CoT
embedding consistency both clear their inclusive thresholds, and map the
three solvability flags through a fixed decision table to a PEM label or a
discard reason; n and the thresholds are ``PipelineConfig`` fields.

Samplers are pluggable: a deterministic mock for tests and offline runs,
and an HTTP chat-completion adapter for real probing. Media fields are
opaque references forwarded to the sampler; no decoding happens here.
"""

from __future__ import annotations

import enum
import hashlib
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol

import numpy as np

from .config import EmbedderEndpointConfig, EndpointConfig, PipelineConfig
from .jsonl import (check_unique, dumps, finite_floats, loads, read_records, str_fields,
                    write_records)
from .normalize import check_gold_answer, normalize_answer
from .tag_grammar import PemLabel


class PipelineError(ValueError):
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


# The settings in probing order; iterating an Enum class is slower than a tuple.
_SETTINGS = tuple(ProbeSetting)


@dataclass(frozen=True)
class Instance:
    id: str
    question: str
    gold_answer: str
    audio_ref: str = ""
    video_ref: str = ""
    choices: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_gold_answer(self.gold_answer, f"instance {self.id!r}: gold_answer")
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))


@dataclass(frozen=True)
class SolvabilityRecord:
    accuracy_rate: float
    consistency: float
    solvable: bool


class DiscardReason(enum.Enum):
    TRIVIALLY_EASY = "TriviallyEasy"
    AMBIGUOUS = "Ambiguous"
    CONTRADICTORY = "Contradictory"
    UNSOLVABLE = "Unsolvable"


@dataclass(frozen=True)
class PemRecord:
    instance_id: str
    settings: Mapping[ProbeSetting, SolvabilityRecord]
    decision: PemLabel | DiscardReason

    def __post_init__(self) -> None:
        object.__setattr__(self, "settings", dict(self.settings))

    def to_dict(self) -> dict:
        if isinstance(self.decision, PemLabel):
            decision = {"kind": "label", "label": self.decision.value}
        else:
            decision = {"kind": "discard", "reason": self.decision.value}
        # Spelled out: ``asdict`` deep-copies every field, on annotate's hot path.
        settings = {}
        for setting in _SETTINGS:
            record = self.settings[setting]
            settings[setting.value] = {"accuracy_rate": record.accuracy_rate,
                                       "consistency": record.consistency,
                                       "solvable": record.solvable}
        return {"id": self.instance_id, "settings": settings, "decision": decision}


# A sampler's n (answer, cot_text) string pairs for one (instance, setting).
_Samples = Sequence[tuple[str, str]]


class CotSampler(Protocol):
    def sample(self, instance: Instance, setting: ProbeSetting, n: int) -> _Samples:
        ...


class TextEmbedder(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray:
        ...


# --- Screening ---------------------------------------------------------------

def accuracy_rate(samples: _Samples, gold: str) -> float:
    """Fraction of sampled answers matching gold after normalization. An
    answer equal to ``gold`` counts without being normalized (the
    normalizer is a pure function)."""
    if not samples:
        raise ValueError("accuracy_rate needs at least 1 sample")
    target = normalize_answer(gold)
    hits = sum(1 for answer, _ in samples
               if answer == gold or normalize_answer(answer) == target)
    return hits / len(samples)


_NORM_FLOOR = math.sqrt(np.finfo(float).tiny)


def _unit_rows(texts: Sequence[str], embedder: TextEmbedder) -> tuple[np.ndarray, list[int]]:
    """Embed each distinct text once, in first-seen order, and return the
    distinct texts' unit-length rows and, per entry of ``texts``, the index
    of its row; identical texts share a row. The norms are ``norm(axis=1)``
    spelled out (its expression for real input, without its wrapper)."""
    row_of: dict[str, int] = {}
    rows = [row_of.setdefault(text, len(row_of)) for text in texts]
    vectors = np.asarray(embedder.embed(list(row_of)), dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] != len(row_of):
        raise ValueError("embedder must return one vector per text")
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(vectors * vectors, axis=1, keepdims=True))
    # Every norm normal and finite is the common case, and needs no check: a
    # NaN or infinite entry makes its row's norm NaN or inf, and a NaN fails
    # both comparisons, so such rows still reach the finite check first.
    if not (norms.min() >= _NORM_FLOOR and norms.max() < np.inf):
        if not np.isfinite(vectors).all():
            raise ValueError("embedder returned non-finite values")
        # A norm below sqrt(tiny), the smallest normal float, has lost bits to
        # subnormal squares, and an infinite one overflowed; such a row is
        # first divided by its largest |entry|. Other rows are divided by 1
        # (exact).
        extreme = (norms < _NORM_FLOOR) | (norms == np.inf)
        peaks = np.abs(vectors).max(axis=1, keepdims=True, initial=0.0)
        if not peaks.all():
            raise ValueError("embedder returned a zero vector")
        vectors = vectors / np.where(extreme, peaks, 1.0)
        norms = np.sqrt(np.add.reduce(vectors * vectors, axis=1, keepdims=True))
    return vectors / norms, rows


def _mean_pair_cosines(unit: np.ndarray, blocks: np.ndarray,
                       pairs: tuple[np.ndarray, np.ndarray]) -> list[float]:
    """Per row of ``blocks``, a (blocks, n) array of indices into the unit
    rows ``unit``, the mean dot over all unordered pairs of its n rows,
    given as ``np.triu_indices(n, 1)``. Each pair's rows are taken by index
    from ``unit`` and their product summed on its own (no Gram matrix,
    whose BLAS rounding differs); fsum makes each mean exactly
    permutation-invariant."""
    first, second = pairs
    dots = (unit[blocks[:, first]] * unit[blocks[:, second]]).sum(axis=2)
    # fsum over Python floats: the same sums, without a numpy scalar per pair.
    return [math.fsum(row) / len(row) for row in dots.tolist()]


def consistency(cot_texts: Sequence[str], embedder: TextEmbedder) -> float:
    """Mean cosine similarity over all unordered pairs of CoT texts.

    Each distinct text is embedded once and re-normalized to unit length
    here, so any finite nonzero vectors are acceptable from the embedder.
    Pair dots are reduced with fsum, making the result exactly
    permutation-invariant.
    """
    if len(cot_texts) < 2:
        raise ValueError("consistency needs at least 2 texts")
    pairs = np.triu_indices(len(cot_texts), k=1)
    unit, rows = _unit_rows(cot_texts, embedder)
    return _mean_pair_cosines(unit, np.array([rows]), pairs)[0]


def solvable(accuracy: float, cot_consistency: float, cfg: PipelineConfig) -> bool:
    """Both thresholds are inclusive ("at least")."""
    return accuracy >= cfg.tau_acc and cot_consistency >= cfg.tau_cons


# --- Decision table ----------------------------------------------------------

_DECISIONS = {
    (True, False, True): PemLabel.AUDIO,
    (False, True, True): PemLabel.VISUAL,
    (False, False, True): PemLabel.AUDIO_VISUAL,
    (True, True, True): DiscardReason.TRIVIALLY_EASY,
    (False, False, False): DiscardReason.UNSOLVABLE,
}


def decide_pem(solvable_a: bool, solvable_v: bool, solvable_av: bool) -> PemLabel | DiscardReason:
    """Total decision over the 8 solvability patterns.

    Labels require the audio+video setting to be solvable; patterns where a
    single modality solves but AV does not are non-monotonic and discarded
    as Contradictory (this outranks the two-single-modality Ambiguous
    reading of (1,1,0)); all-solvable carries no modality signal and
    nothing-solvable is unusable.
    """
    return _DECISIONS.get((solvable_a, solvable_v, solvable_av), DiscardReason.CONTRADICTORY)


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


def _checked(samples: _Samples, n: int) -> _Samples:
    """``samples``, if it holds n pairs of strings; nothing is coerced."""
    if not isinstance(samples, Sequence):
        raise SamplingError(f"sampler returned a {type(samples).__name__}, not a sequence")
    if len(samples) != n:
        raise SamplingError(f"sampler returned {len(samples)} samples, wanted {n}")
    for pair in samples:
        if not (isinstance(pair, tuple) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise SamplingError("sampler returned a sample that is not a pair of strings")
    return samples


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
    distinct CoT texts go to the embedder in one call. An instance's
    ValueError (every pipeline failure is one) or OSError is recorded in the
    stats, never aborting the batch; any other exception is a bug. A worker
    thread the OS cannot start is a ``PipelineError`` naming the
    parallelism, raised after the queued instances are cancelled.
    """
    if not dataset:
        raise EmptyDatasetError("dataset is empty")
    ids = [inst.id for inst in dataset]
    check_unique("instance", ids)
    pairs = np.triu_indices(cfg.n, k=1)  # only read, so the threads share it

    def process(instance: Instance) -> tuple[PemRecord, dict | None] | dict:
        """The instance's record and, if it is labeled, its exported row; or
        the stats row of its recorded failure."""
        try:
            draws = {setting: _checked(sampler.sample(instance, setting, cfg.n), cfg.n)
                     for setting in _SETTINGS}
            # One embedder call per instance, over its distinct CoT texts, and
            # one pair-cosine pass over the settings' rows of n indices.
            unit, rows = _unit_rows(
                [cot for samples in draws.values() for _, cot in samples], embedder)
            cons_per_setting = _mean_pair_cosines(
                unit, np.array(rows).reshape(len(draws), cfg.n), pairs)
            per_setting: dict[ProbeSetting, SolvabilityRecord] = {}
            for (setting, samples), cons in zip(draws.items(), cons_per_setting):
                acc = accuracy_rate(samples, instance.gold_answer)
                per_setting[setting] = SolvabilityRecord(acc, cons, solvable(acc, cons, cfg))
            decision = decide_pem(*[per_setting[setting].solvable for setting in _SETTINGS])
            record = PemRecord(instance.id, per_setting, decision)
            if not isinstance(decision, PemLabel):
                return record, None
            _, cot = draws[ProbeSetting.AV][0]
            return record, labeled_export(instance, record, cot)
        except (ValueError, OSError) as exc:
            return {"id": instance.id, "error": str(exc)}

    # Not a one-worker pool: that measured 2-4x fewer annotate items/s.
    if cfg.parallelism == 1:
        results = list(map(process, dataset))
    else:
        # Imported here: it loads logging and queue, which only parallel runs need.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            # ``map`` submits every task, starting the worker threads as it
            # goes; ``process``'s own exceptions surface only in ``list``.
            try:
                mapped = pool.map(process, dataset)
            except RuntimeError as exc:  # "can't start new thread"
                pool.shutdown(cancel_futures=True)
                raise PipelineError(f"parallelism {cfg.parallelism}: cannot start "
                                    f"a worker thread: {exc}") from exc
            results = list(mapped)
    records, labeled, failures = [], [], []
    label_counts = {label.value: 0 for label in PemLabel}
    discard_counts = {reason.value: 0 for reason in DiscardReason}
    for _, result in sorted(zip(ids, results), key=lambda pair: pair[0]):
        if isinstance(result, dict):
            failures.append(result)
            continue
        record, row = result
        records.append(record)
        if row is None:
            discard_counts[record.decision.value] += 1
        else:
            label_counts[record.decision.value] += 1
            labeled.append(row)

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
        "media": {"audio_ref": instance.audio_ref, "video_ref": instance.video_ref},
        "gold_answer": instance.gold_answer,
        "pem": record.decision.value,
        "evidence": record.to_dict()["settings"],
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
        return Instance(
            *str_fields(obj, "id", "question", "gold_answer"),
            *str_fields(media, "audio_ref", "video_ref", default=""),
            choices=tuple(choices) if "choices" in obj else None,
        )

    return read_records(path, build)


def write_jsonl(*outputs: tuple[str | Path, Iterable[dict]]) -> None:
    """``jsonl.write_records`` of each ``(path, rows)`` output: every row is
    encoded, then every path opened, before any file is written. Kept under
    this name, which perfbench times."""
    write_records(*outputs)


# --- Deterministic mock sampler and embedder -----------------------------------

_SOLVABLE_MARKER = re.compile(r"solvable=((?:AV|A|V)(?:,(?:AV|A|V))*|none)\b")


def _scripted_pattern(instance: Instance) -> set[str]:
    """Read a 'solvable=A,AV' marker from the media refs or question, as
    the set of setting names (``"A"``, ``"V"``, ``"AV"``) it lists.

    The marker scripts which settings the mock treats as solvable; without
    one, every setting solves (the trivially-easy pattern).
    """
    haystack = " ".join((instance.audio_ref, instance.video_ref, instance.question))
    match = _SOLVABLE_MARKER.search(haystack)
    if match is None:
        return {"A", "V", "AV"}
    if match.group(1) == "none":
        return set()
    return set(match.group(1).split(","))


class MockCotSampler:
    """Offline sampler with scripted per-setting solvability.

    Solvable settings, whose names the instance's scripted pattern lists,
    yield n identical gold-answer samples (accuracy 1, consistency 1);
    unsolvable settings yield n distinct wrong answers with divergent
    rationales.
    """

    def sample(self, instance: Instance, setting: ProbeSetting, n: int) -> _Samples:
        if n < 2:
            raise ValueError("n must be >= 2")
        name, instance_id, gold = setting.value, instance.id, instance.gold_answer
        if name in _scripted_pattern(instance):
            cot = (f"Under the {name} input the evidence for "
                   f"{instance_id} is stable and supports: {gold}.")
            return ((gold, cot),) * n
        return tuple(
            (f"not-{gold}-{k}",
             f"Attempt {k}: speculative {name} reading of "
             f"{instance_id} with no firm evidence.")
            for k in range(n))


class HashEmbedder:
    """Deterministic text embedder: unit vectors derived from SHA-256 bytes.

    Identical texts map to identical vectors (cosine 1); distinct texts map
    to pseudo-random directions with near-zero expected cosine. Stable
    across platforms, so goldens built on it are byte-reproducible.

    Each text is hashed on its own; the batch's digests are then mapped to
    vectors and normalized in one pass. An empty batch gives a (0, 32)
    array.
    """

    dim = 32
    # The hash state after each counter's "{counter}:" prefix. ``embed``
    # copies them and never updates them, so every instance and thread can
    # share them.
    _prefixes = tuple(hashlib.sha256(f"{counter}:".encode()) for counter in range(dim // 4))

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        # Each SHA-256 digest of "{counter}:{text}" gives four big-endian
        # 64-bit words, each mapped to [-1, 1] as word / 2**63 - 1 (exact: the
        # scale is a power of two).
        digests = []
        append, prefixes = digests.append, self._prefixes
        for text in texts:
            # Encoded inside the counter-0 message and sliced, so an
            # unencodable text's error counts the same two prefix bytes.
            data = f"0:{text}".encode()[2:]
            for prefix in prefixes:
                state = prefix.copy()
                state.update(data)
                append(state.digest())
        vectors = np.frombuffer(b"".join(digests), dtype=">u8").reshape(
            len(texts), self.dim) / 2.0 ** 63 - 1.0
        # Each row's 1-D dot with itself, as one stacked (1, dim) @ (dim, 1)
        # matmul: numpy computes such a product with the same dot routine
        # (BLAS ddot) as ``row.dot(row)``, so the bits are those of the row
        # loop the goldens pin. norm(axis=1), einsum and a Gram matrix round
        # differently. (np.vecdot reads better, but needs numpy >= 2.0.)
        norms = np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None]))
        return vectors / norms[:, 0]


# --- HTTP endpoint adapter -------------------------------------------------------

_ANSWER_LINE = re.compile(r"(?im)^answer:\s*(.+?)\s*$")

# (url, request body, headers, timeout) -> answer body.
Transport = Callable[[str, bytes, dict, float], bytes]


def _urllib_transport(url: str, body: bytes, headers: dict, timeout: float) -> bytes:
    # Imported here: it loads http.client, email, ssl and socket, which only
    # live probing uses.
    import urllib.request
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


class _Endpoint:
    """An HTTP endpoint's settings, bearer token and transport, and the one
    POST path with retries; a subclass sets its ``role`` and ``error`` type."""

    role: str
    error: type[PipelineError]
    settings_type: type[EmbedderEndpointConfig] = EmbedderEndpointConfig

    def __init__(self, endpoint: EmbedderEndpointConfig, token: str | None = None,
                 transport: Transport = _urllib_transport):
        if not isinstance(endpoint, self.settings_type):
            raise ValueError(f"{self.role} settings must be an {self.settings_type.__name__}, "
                             f"not {type(endpoint).__name__}")
        if not endpoint.base_url:
            raise ValueError(f"{self.role} base_url is required")
        self.endpoint = endpoint
        self.token = token
        self.transport = transport

    def _request(self, payload: dict, what: str) -> dict:
        """POST ``payload`` as JSON and return the JSON object answered.
        Timeouts, connection errors, cut-short answers, 429 and 5xx are
        retried up to ``endpoint.retries`` times; then, or at once on any
        other HTTP status, raise ``error("{what}: {last error}")``. An answer
        that ``jsonl.loads`` cannot decode raises ``error`` with its wording
        at once, and so does one that is not a JSON object."""
        # Imported here, not at module level: only live probing needs them.
        import http.client
        import urllib.error
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        body = dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for _ in range(self.endpoint.retries + 1):
            try:
                answer = self.transport(
                    self.endpoint.base_url, body, headers, self.endpoint.timeout)
            except (urllib.error.URLError, http.client.HTTPException, TimeoutError,
                    ConnectionError) as exc:
                last_error = exc
                # Other HTTP statuses (a 401, a 404) would fail the same way again.
                if isinstance(exc, urllib.error.HTTPError) and not (
                        exc.code == 429 or 500 <= exc.code < 600):
                    break
                continue
            try:
                response = loads(answer, what)
            except ValueError as exc:
                raise self.error(str(exc)) from None
            if not isinstance(response, dict):
                raise self.error(f"{what}: the answer is not a JSON object")
            return response
        raise self.error(f"{what}: {last_error}")


def build_probe_prompt(instance: Instance, setting: ProbeSetting) -> str:
    """The setting's editable prompt fixture, ``prompts/probe_{setting}.txt``
    in lower case, filled in for ``instance``."""
    # Imported here: only live probing reads the prompt files.
    from importlib import resources
    template = resources.files("sffuse").joinpath(
        "prompts", f"probe_{setting.value.lower()}.txt").read_text(encoding="utf-8")
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
    media references, and parses n completions into (answer, cot) pairs.
    Transport errors are retried up to the configured count; anything else
    becomes a typed SamplingError.
    """

    role = "endpoint"
    error = SamplingError
    settings_type = EndpointConfig
    endpoint: EndpointConfig

    def _media_payload(self, instance: Instance, setting: ProbeSetting) -> dict:
        media = {}
        if setting in (ProbeSetting.A, ProbeSetting.AV):
            media["audio_ref"] = instance.audio_ref
        if setting in (ProbeSetting.V, ProbeSetting.AV):
            media["video_ref"] = instance.video_ref
        return media

    def sample(self, instance: Instance, setting: ProbeSetting, n: int) -> _Samples:
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
            message = choice.get("message") if isinstance(choice, dict) else None
            content = message.get("content") if isinstance(message, dict) else None
            if not isinstance(content, str):
                raise SamplingError(f"malformed completion for {instance.id}/{setting.value}")
            samples.append(parse_completion(content))
        return samples


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
        rows = [finite_floats(vector) for vector in vectors]
        if any(row is None for row in rows):
            raise EmbeddingError(
                "embedder returned an embedding that is not a list of finite numbers")
        if len(set(map(len, rows))) > 1:
            raise EmbeddingError("embedder returned vectors of different lengths")
        return np.array(rows)
