"""Shared fixtures: the L=6 layout, a brute-force mask oracle, loop-based
reference encoders for the mask exports, the row loop, line-by-line text
reader and per-pair layout scan of the mask decode path as first written,
loop-based references for the hash embedder, CoT consistency and the
screening's unit rows, the dense attention forward and backward, the
check-by-check trace parser, a random valid-layout generator used by the
property and acceptance suites, a scripted sampler, a patch that refuses
every thread start after the first, and writers for the
trace and weights JSONL formats, the one-group-at-a-time GRPO objective
as first written, the stdlib form of the JSON encoder, and a plain-Python
rule for a list of finite JSON numbers."""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import pytest

from sffuse.config import GrpoConfig
from sffuse.mask_engine import (
    BLOCKED_ROLE_PAIRS,
    LayoutError,
    MarkerTable,
    MaskMatrix,
    TokenLayout,
)
from sffuse.pem_pipeline import Instance, MockCotSampler, ProbeSetting, SamplingError
from sffuse.rl_core import GrpoResult, RolloutGroup
from sffuse.tag_grammar import (
    TAG_NAMES,
    DiagnosticKind,
    ParseDiagnostic,
    PemLabel,
    SfrTrace,
)


@pytest.fixture
def fixture_layout() -> TokenLayout:
    """L=6 with video {0}, audio {1}, visual reasoning/span {2}, audio reasoning {3}."""
    return TokenLayout(
        length=6,
        video_input={0},
        audio_input={1},
        visual_reasoning={2},
        audio_reasoning={3},
        visual_span={2},
    )


def brute_force_mask(layout: TokenLayout) -> MaskMatrix:
    """Literal per-cell evaluation of the causal and asymmetric-visibility
    rules, kept loop-based and independent of the engine's vectorized path."""
    n = layout.length
    visible = np.ones((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if j > i:
                visible[i, j] = False
            if i in layout.visual_reasoning and j in layout.audio_input:
                visible[i, j] = False
            if i in layout.audio_reasoning and j in layout.video_input:
                visible[i, j] = False
            if i in layout.audio_reasoning and j in layout.visual_span:
                visible[i, j] = False
    return MaskMatrix(visible)


def blocked_cells(mask: MaskMatrix) -> set[tuple[int, int]]:
    """The (query, key) cells a mask blocks."""
    rows, cols = np.nonzero(~mask.visible)
    return set(zip(rows.tolist(), cols.tolist()))


def reference_mask_to_text(mask: MaskMatrix) -> str:
    """Per-cell text export; the engine's vectorized output must equal it."""
    return "\n".join(
        "".join("1" if cell else "0" for cell in row) for row in mask.visible
    ) + "\n"


def reference_mask_to_rle(mask: MaskMatrix) -> bytes:
    """Per-cell run-length export; the engine's vectorized output must equal it."""
    flat = mask.visible.ravel()
    runs: list[int] = []
    current, count = flat[0], 0
    for bit in flat:
        if bit == current:
            count += 1
        else:
            runs.append(count)
            current, count = bit, 1
    runs.append(count)
    out = bytearray(b"MRL1")
    out += struct.pack("<IBI", mask.length, int(bool(flat[0])), len(runs))
    out += struct.pack(f"<{len(runs)}I", *runs)
    return bytes(out)



# --- the mask decode path as first written -----------------------------------

def reference_incremental_row(layout: TokenLayout, i: int) -> np.ndarray:
    """The row loop as first written, a fresh row and one pass per rule over
    the layout's role sets; ``incremental_row`` must return equal rows."""
    if not 0 <= i < layout.length:
        raise IndexError(f"row {i} out of range [0, {layout.length})")
    row = np.ones(i + 1, dtype=bool)
    for query, key in BLOCKED_ROLE_PAIRS:
        if i in getattr(layout, query):
            for j in getattr(layout, key):
                if j <= i:
                    row[j] = False
    row.setflags(write=False)
    return row


def _reference_find_pair(tokens: Sequence[int], start_id: int, end_id: int,
                         label: str) -> tuple[int, int] | None:
    starts = [k for k, t in enumerate(tokens) if t == start_id]
    ends = [k for k, t in enumerate(tokens) if t == end_id]
    if not starts and not ends:
        return None
    if len(starts) > 1 or len(ends) > 1:
        raise LayoutError(f"duplicated {label} marker")
    if not starts or not ends:
        raise LayoutError(f"unpaired {label} marker")
    if ends[0] < starts[0]:
        raise LayoutError(f"{label} end marker precedes its start")
    return starts[0], ends[0]


def reference_locate_layout(tokens: Sequence[int], markers: MarkerTable) -> TokenLayout:
    """The layout scan as first written, two list scans per marker pair;
    ``locate_layout`` must return the same layout or ``LayoutError`` message."""
    tokens = list(tokens)
    if not tokens:
        raise LayoutError("empty token sequence")

    video = _reference_find_pair(tokens, markers.video[0], markers.video[1], "video")
    audio = _reference_find_pair(tokens, markers.audio[0], markers.audio[1], "audio")

    pairs: dict[str, tuple[int, int]] = {}
    for name in ("mod", "v", "a", "sum", "ans"):
        if name not in markers.tag_open or name not in markers.tag_close:
            continue
        pair = _reference_find_pair(tokens, markers.tag_open[name],
                                    markers.tag_close[name], f"<{name}>")
        if pair is not None:
            pairs[name] = pair

    spans = sorted(pairs.items(), key=lambda kv: kv[1][0])
    for (outer, (o_start, o_end)), (inner, (i_start, _)) in zip(spans, spans[1:]):
        if i_start < o_end:
            raise LayoutError(
                f"NestedTag: <{inner}> pair inside or crossing <{outer}> pair")

    indicator_edge = max(
        [pos for pair in (video, audio) if pair is not None for pos in pair],
        default=-1,
    )
    tag_edge = min((start for start, _ in pairs.values()), default=len(tokens))
    if tag_edge <= indicator_edge:
        raise LayoutError("reasoning tags precede input markers")

    def interior(pair: tuple[int, int] | None) -> frozenset[int]:
        if pair is None:
            return frozenset()
        start, end = pair
        return frozenset(range(start + 1, end))

    visual_span = frozenset()
    if "v" in pairs:
        start, end = pairs["v"]
        visual_span = frozenset(range(start, end + 1))

    layout = TokenLayout(
        length=len(tokens),
        video_input=interior(video),
        audio_input=interior(audio),
        visual_reasoning=interior(pairs.get("v")),
        audio_reasoning=interior(pairs.get("a")),
        visual_span=visual_span,
        summary_span=interior(pairs.get("sum")),
    )
    if video is not None and audio is not None:
        first, second = sorted((video, audio))
        if second[0] < first[1]:
            raise LayoutError("video and audio indicator pairs overlap")
    return layout


def reference_mask_from_text(text: str) -> MaskMatrix:
    """The strict line-by-line text reader: L rows of L "0"/"1" cells, each
    ending in "\\n". ``mask_from_text`` must return the same mask or error
    message."""
    rows = text.split("\n")
    if rows.pop():
        raise ValueError(f'mask text row {len(rows)} does not end in "\\n"')
    if not "".join(rows):
        raise ValueError("mask text has no rows")
    for k, row in enumerate(rows):
        if not row:
            raise ValueError(f"mask text row {k} is blank")
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"mask text row {k} has {len(row)} cells, row 0 has {width}")
    for k, row in enumerate(rows):
        for col, cell in enumerate(row):
            if cell not in ("0", "1"):
                raise ValueError(f"mask text row {k} column {col}: {cell!r} is not 0 or 1")
    return MaskMatrix([[cell == "1" for cell in row] for row in rows])


def reference_hash_vector(text: str, dim: int) -> np.ndarray:
    """Word-by-word ``HashEmbedder`` vector; the embedder must equal it exactly."""
    values: list[float] = []
    counter = 0
    while len(values) < dim:
        digest = hashlib.sha256(f"{counter}:{text}".encode()).digest()
        for offset in range(0, len(digest), 8):
            values.append(
                int.from_bytes(digest[offset:offset + 8], "big") / 2 ** 63 - 1.0)
        counter += 1
    vec = np.array(values[:dim], dtype=float)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def reference_consistency(cot_texts, embedder) -> float:
    """Per-pair consistency over one embedding per text, duplicates included;
    ``consistency`` and the pipeline's screening must equal it exactly."""
    vectors = np.asarray(embedder.embed(list(cot_texts)), dtype=float)
    return reference_pair_mean(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))


def reference_unit_rows(texts, embedder) -> np.ndarray:
    """The pipeline's unit rows with its checks in their first order: every
    entry finite, then each row whose norm (``norm(axis=1)``, as pinned) is
    below sqrt(tiny) or infinite divided by its largest |entry| before it is
    normalized, a zero row being an error."""
    distinct = list(dict.fromkeys(texts))
    vectors = np.array(embedder.embed(distinct), dtype=float)  # a copy: rows are rescaled
    if vectors.ndim != 2 or vectors.shape[0] != len(distinct):
        raise ValueError("embedder must return one vector per text")
    if not np.isfinite(vectors).all():
        raise ValueError("embedder returned non-finite values")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=1)
    floor = math.sqrt(np.finfo(float).tiny)
    for k, norm in enumerate(norms):
        if norm < floor or norm == np.inf:
            peak = np.abs(vectors[k]).max(initial=0.0)
            if peak == 0.0:
                raise ValueError("embedder returned a zero vector")
            vectors[k] = vectors[k] / peak
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    return unit[[distinct.index(text) for text in texts]]


def reference_pair_mean(unit: np.ndarray) -> float:
    """The mean dot over all unordered pairs of rows, each summed on its own."""
    n = len(unit)
    dots = [float(np.sum(unit[i] * unit[j]))
            for i in range(n) for j in range(i + 1, n)]
    return math.fsum(dots) / len(dots)


def reference_masked_attention(inputs) -> tuple[np.ndarray, np.ndarray]:
    """The dense forward as first written, one full-size temporary per step;
    ``masked_attention``'s output and weights must equal it byte for byte."""
    visible = inputs.mask.visible
    logits = inputs.scale * (inputs.q @ inputs.k.T)
    shifted = np.where(visible, logits, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    expd = np.where(visible, np.exp(shifted), 0.0)
    weights = expd / expd.sum(axis=1, keepdims=True)
    return weights @ inputs.v, weights


def reference_attention_gradients(inputs, d_output=None):
    """The backward as first written, recomputing the forward;
    ``attention_gradients`` must equal it byte for byte."""
    out_shape = inputs.q.shape
    upstream = np.ones(out_shape) if d_output is None else np.asarray(d_output, dtype=float)
    _, w = reference_masked_attention(inputs)
    d_w = upstream @ inputs.v.T
    d_v = w.T @ upstream
    d_logits = w * (d_w - np.sum(w * d_w, axis=1, keepdims=True))
    d_q = inputs.scale * (d_logits @ inputs.k)
    d_k = inputs.scale * (d_logits.T @ inputs.q)
    return d_q, d_k, d_v


# --- the trace parser as first written: one list scan per check -------------

_REFERENCE_TAG_TOKEN = re.compile(r"</?(mod|v|a|sum|ans)>")


@dataclass(frozen=True)
class _ReferenceTagToken:
    name: str
    closing: bool
    start: int
    end: int

    @property
    def literal(self) -> str:
        return f"</{self.name}>" if self.closing else f"<{self.name}>"


def _reference_pem(text: str) -> PemLabel | None:
    stripped = text.strip()
    for label in PemLabel:
        if stripped == label.value:
            return label
    return None


def _reference_tokenize(text: str) -> list[_ReferenceTagToken]:
    tokens = []
    for m in _REFERENCE_TAG_TOKEN.finditer(text):
        closing = m.group(0).startswith("</")
        tokens.append(_ReferenceTagToken(m.group(1), closing, m.start(), m.end()))
    return tokens


def _reference_check_counts(tokens: list[_ReferenceTagToken]) -> list[ParseDiagnostic]:
    diags = []
    for name in TAG_NAMES:
        opens = [t for t in tokens if t.name == name and not t.closing]
        closes = [t for t in tokens if t.name == name and t.closing]
        if not opens and not closes:
            diags.append(ParseDiagnostic(
                DiagnosticKind.MISSING_TAG, 0, f"tag <{name}> not found"))
            continue
        if opens and not closes:
            diags.append(ParseDiagnostic(
                DiagnosticKind.UNCLOSED_TAG, opens[0].start,
                f"<{name}> is never closed"))
        if closes and not opens:
            diags.append(ParseDiagnostic(
                DiagnosticKind.MISSING_TAG, closes[0].start,
                f"</{name}> has no opening <{name}>"))
        for extra in opens[1:]:
            diags.append(ParseDiagnostic(
                DiagnosticKind.DUPLICATE_TAG, extra.start,
                f"duplicate <{name}>"))
        for extra in closes[1:]:
            diags.append(ParseDiagnostic(
                DiagnosticKind.DUPLICATE_TAG, extra.start,
                f"duplicate </{name}>"))
    return diags


def _reference_check_pairing(tokens: list[_ReferenceTagToken]) -> list[ParseDiagnostic]:
    pairs = {}
    for name in TAG_NAMES:
        open_tok = next(t for t in tokens if t.name == name and not t.closing)
        close_tok = next(t for t in tokens if t.name == name and t.closing)
        if close_tok.start < open_tok.start:
            return [ParseDiagnostic(
                DiagnosticKind.OUT_OF_ORDER, open_tok.start,
                f"<{name}> appears after </{name}>")]
        pairs[name] = (open_tok.start, close_tok.end)
    ordered = sorted(pairs.items(), key=lambda kv: kv[1][0])
    for (outer_name, (o_start, o_end)), (inner_name, (i_start, i_end)) in zip(ordered, ordered[1:]):
        if i_start < o_end:
            return [ParseDiagnostic(
                DiagnosticKind.NESTED_TAG, i_start,
                f"<{inner_name}> span overlaps <{outer_name}> span")]
    return []


def _reference_check_order(tokens: list[_ReferenceTagToken]) -> list[ParseDiagnostic]:
    expected = []
    for name in TAG_NAMES:
        expected.append(f"<{name}>")
        expected.append(f"</{name}>")
    observed = sorted(tokens, key=lambda t: t.start)
    for want, got in zip(expected, observed):
        if got.literal != want:
            return [ParseDiagnostic(
                DiagnosticKind.OUT_OF_ORDER, got.start,
                f"expected {want} but found {got.literal}")]
    return []


def reference_parse_trace(text: str) -> tuple[SfrTrace | None, list[ParseDiagnostic]]:
    """Counts, then pairing, then order, each a scan of the token list, then
    the content checks; ``parse_trace`` must return the same trace and
    diagnostics."""
    tokens = _reference_tokenize(text)

    diags = _reference_check_counts(tokens)
    if diags:
        return None, diags
    diags = _reference_check_pairing(tokens)
    if diags:
        return None, diags
    diags = _reference_check_order(tokens)
    if diags:
        return None, diags

    open_tok = {t.name: t for t in tokens if not t.closing}
    close_tok = {t.name: t for t in tokens if t.closing}
    segments = {
        name: text[open_tok[name].end:close_tok[name].start] for name in TAG_NAMES
    }
    spans = tuple(
        (name, open_tok[name].start, close_tok[name].end) for name in TAG_NAMES
    )

    diags = []
    pem = _reference_pem(segments["mod"])
    if pem is None:
        diags.append(ParseDiagnostic(
            DiagnosticKind.UNKNOWN_PEM_VALUE, open_tok["mod"].end,
            f"{segments['mod'].strip()!r} is not one of "
            f"{[label.value for label in PemLabel]}"))

    gaps = [(0, spans[0][1])]
    gaps += [(spans[k][2], spans[k + 1][1]) for k in range(len(spans) - 1)]
    gaps.append((spans[-1][2], len(text)))
    for start, end in gaps:
        gap = text[start:end]
        if gap.strip():
            offset = start + (len(gap) - len(gap.lstrip()))
            diags.append(ParseDiagnostic(
                DiagnosticKind.STRAY_CONTENT, offset,
                "non-whitespace content outside tags"))
    if diags:
        return None, sorted(diags, key=lambda d: d.offset)

    trace = SfrTrace(
        pem=pem,
        visual_text=segments["v"],
        audio_text=segments["a"],
        summary_text=segments["sum"],
        answer_text=segments["ans"],
    )
    return trace, []


# --- the JSON encoder ------------------------------------------------------------

def reference_dumps(value: object) -> str:
    """``jsonl.dumps`` as the stdlib spells it, one encoder built per call."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, allow_nan=False)


# --- a list of finite JSON numbers ---------------------------------------------

def reference_finite_floats(value: object) -> tuple[float, ...] | None:
    """The floats of a list whose elements are exactly int or float, each
    within the float range and finite; None for any other value."""
    if not isinstance(value, list) or not all(type(x) in (int, float) for x in value):
        return None
    try:
        floats = tuple(map(float, value))
    except OverflowError:
        return None
    return floats if all(map(math.isfinite, floats)) else None


# --- the GRPO objective one group at a time, as first written ---------------------

def reference_group_advantages(rewards: Sequence[float], eps_stab: float) -> list[float]:
    if len(rewards) < 2:
        raise ValueError("need at least 2 rewards")
    if not eps_stab >= 0.0:  # NaN fails too
        raise ValueError("eps_stab must be nonnegative")
    r = np.asarray(rewards, dtype=float)
    if (r == r[0]).all():
        return [0.0] * len(rewards)  # zero numerator exactly, no rounding residue
    with np.errstate(over="ignore", invalid="ignore"):
        centered = r - r.mean()
        denom = math.sqrt(float(np.mean(centered ** 2)) + eps_stab)
    if not math.isfinite(denom):
        raise ValueError("reward variance overflows: rewards are too far apart")
    if denom == 0.0:
        # Only with eps_stab == 0: distinct rewards whose squared deviations
        # underflow. Advantages do not depend on the rewards' scale, so redo
        # the sums on the rewards times the exact power of two that brings
        # the largest |reward| into [0.5, 1).
        r = np.ldexp(r, -math.frexp(float(np.abs(r).max()))[1])
        centered = r - r.mean()
        denom = math.sqrt(float(np.mean(centered ** 2)))
    return (centered / denom).tolist()


def reference_kl_estimate(logp_new: Sequence[float], logp_ref: Sequence[float]) -> float:
    new = np.asarray(logp_new, dtype=float)
    ref = np.asarray(logp_ref, dtype=float)
    if new.shape != ref.shape:
        raise ValueError("logp_new and logp_ref must have equal lengths")
    if not (np.isfinite(new).all() and np.isfinite(ref).all()):
        raise ValueError("log-probabilities must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        delta = ref - new
        kl = float(np.mean(np.exp(delta) - delta - 1.0))
    if not math.isfinite(kl):
        raise ValueError("KL estimate overflows: logp_ref - logp_new is too large")
    return kl


def _reference_clipped_ratios(group: RolloutGroup, cfg: GrpoConfig) -> tuple[np.ndarray, ...]:
    advantages = np.asarray(reference_group_advantages(group.rewards, cfg.eps_stab))
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(np.asarray(group.logp_new) - np.asarray(group.logp_old))
    if not np.isfinite(ratios).all():
        raise ValueError("non-finite importance ratios")
    return advantages, ratios, np.clip(ratios, 1.0 - cfg.clip_alpha, 1.0 + cfg.clip_alpha)


def reference_grpo_objective(group: RolloutGroup, cfg: GrpoConfig) -> GrpoResult:
    """One group's clipped surrogate minus the KL penalty, with the checks
    in their first-written order: variance, ratios, KL, objective."""
    advantages, ratios, clipped = _reference_clipped_ratios(group, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.minimum(ratios * advantages, clipped * advantages)
        surrogate = terms.mean()
    kl = reference_kl_estimate(group.logp_new, group.logp_ref)
    objective = float(surrogate - cfg.kl_beta * kl)
    if not math.isfinite(objective):
        raise ValueError("objective overflows: importance ratios are too large")
    return GrpoResult(
        objective=objective,
        advantages=tuple(advantages.tolist()),
        ratios=tuple(ratios.tolist()),
        surrogate_terms=tuple(terms.tolist()),
        kl=kl,
    )


def random_layout(rng: np.random.Generator, max_length: int = 64,
                  min_length: int = 1) -> TokenLayout:
    """A random valid layout, covering degenerate role sets as well."""
    length = int(rng.integers(min_length, max_length + 1))
    boundary = int(rng.integers(0, length + 1))
    input_positions = list(range(boundary))
    reasoning_positions = list(range(boundary, length))

    video: set[int] = set()
    audio: set[int] = set()
    for pos in input_positions:
        draw = rng.random()
        if draw < 0.4:
            video.add(pos)
        elif draw < 0.8:
            audio.add(pos)

    visual_span: set[int] = set()
    visual_reasoning: set[int] = set()
    audio_reasoning: set[int] = set()
    if reasoning_positions and rng.random() < 0.9:
        span_len = int(rng.integers(0, len(reasoning_positions) + 1))
        start = int(rng.integers(0, len(reasoning_positions) - span_len + 1))
        span = reasoning_positions[start:start + span_len]
        visual_span = set(span)
        mode = rng.random()
        if mode < 0.4 and len(span) > 2:
            visual_reasoning = set(span[1:-1])
        elif mode < 0.8:
            visual_reasoning = set(visual_span)
        else:
            visual_reasoning = {p for p in span if rng.random() < 0.5}
    remaining = [p for p in reasoning_positions if p not in visual_span]
    audio_reasoning = {p for p in remaining if rng.random() < 0.4}

    return TokenLayout(
        length=length,
        video_input=video,
        audio_input=audio,
        visual_reasoning=visual_reasoning,
        audio_reasoning=audio_reasoning,
        visual_span=visual_span,
    )


class ScriptedSampler:
    """Sampler returning pre-recorded sample lists keyed by (id, setting)."""

    def __init__(self, script: Mapping[tuple[str, ProbeSetting], Sequence[tuple[str, str]]]):
        self._script = dict(script)

    def sample(self, instance: Instance, setting: ProbeSetting,
               n: int) -> tuple[tuple[str, str], ...]:
        if n < 2:
            raise ValueError("n must be >= 2")
        key = (instance.id, setting)
        if key not in self._script:
            raise SamplingError(f"no scripted samples for {key}")
        return tuple(self._script[key][:n])


def refuse_threads_after_the_first(monkeypatch) -> tuple[list, list]:
    """Make each ``threading.Thread.start`` after the first raise the
    ``RuntimeError`` of an OS that cannot start a thread. The first thread's
    ``MockCotSampler.sample`` calls wait (10 s at most) for that refusal, so a
    thread pool tries its second thread while the first is busy. Returns
    the started threads and the ids of the instances sampled."""
    start, sample = threading.Thread.start, MockCotSampler.sample
    refused = threading.Event()
    started, sampled = [], []

    def start_once(thread) -> None:
        if started:
            refused.set()
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    def held_sample(self, instance, setting, n):
        refused.wait(timeout=10)
        sampled.append(instance.id)
        return sample(self, instance, setting, n)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    monkeypatch.setattr(MockCotSampler, "sample", held_sample)
    return started, sampled


def write_trace_records(path, records: Iterable[tuple[str, str]]) -> None:
    """``{id, text}`` JSONL, the format ``read_trace_records`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for record_id, text in records:
            fh.write(json.dumps({"id": record_id, "text": text}, ensure_ascii=False,
                                sort_keys=True))
            fh.write("\n")


def write_weights_jsonl(path, layers: Sequence[np.ndarray]) -> None:
    """One layer per line, ``{layer, shape, data}`` with row-major data: the
    format ``read_weights_jsonl`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, matrix in enumerate(layers):
            arr = np.asarray(matrix, dtype=float)
            fh.write(json.dumps({
                "layer": idx,
                "shape": list(arr.shape),
                "data": arr.ravel().tolist(),
            }, sort_keys=True))
            fh.write("\n")
