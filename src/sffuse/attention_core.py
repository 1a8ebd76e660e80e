"""Reference masked attention, gradient verification, and analysis probes.

Single-head, double-precision scaled dot-product attention where blocked
logits are excluded from the softmax reduction, so blocked weights are
exactly zero rather than merely small. Multi-head use is a loop over
independent heads sharing one mask. On top of the kernel this module
provides finite-difference gradient checking, an attention-allocation
report (audio vs. visual reasoning span) over the last k layers, and a
synthetic probe quantifying direct attention leakage onto blocked
query-key pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import DEFAULT_ALLOCATION_WINDOW
from .jsonl import finite_floats, read_records
from .mask_engine import (
    BLOCKED_ROLE_PAIRS,
    MaskMatrix,
    TokenLayout,
    build_causal,
    build_composite,
)

# Rows per panel of the softmax backward's row reduction.
_PANEL_ROWS = 64


class FullyBlockedRowError(ValueError):
    """A mask row has no visible cell, so its softmax is undefined."""


@dataclass(frozen=True, eq=False)
class AttentionInputs:
    """Queries/keys/values plus the visibility mask for one head.

    q, k and v are held as read-only copies, so the softmax weights, computed
    on first use, stay valid for the life of the object and are shared by the
    forward and the backward pass. Logits are scaled by ``scale = 1 / sqrt(d)``
    for feature dimension d.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    mask: MaskMatrix
    scale: float = field(init=False)

    def __post_init__(self) -> None:
        q, k, v = (np.array(arr, dtype=float) for arr in (self.q, self.k, self.v))
        if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
            raise ValueError("q, k, v must share an (L, d) shape")
        if q.shape[1] < 1:
            raise ValueError("feature dimension must be >= 1")
        if q.shape[0] != self.mask.length:
            raise ValueError("mask length must match sequence length")
        for name, arr in zip("qkv", (q, k, v)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "scale", 1.0 / math.sqrt(q.shape[1]))

    @cached_property
    def weights(self) -> AttentionWeights:
        """Softmax of the scaled logits over visible cells, built in one
        L x L buffer: the row max and ``exp`` read visible cells only, and
        blocked cells are then set to exactly 0. A row with no visible cell
        raises FullyBlockedRowError, a row whose logits overflow ValueError."""
        visible = self.mask.visible
        with np.errstate(over="ignore", invalid="ignore"):
            w = self.q @ self.k.T
            w *= self.scale
            w -= w.max(axis=1, keepdims=True, where=visible, initial=-np.inf)
            np.exp(w, out=w, where=visible)
            np.copyto(w, 0.0, where=~visible)
            row_sums = w.sum(axis=1, keepdims=True)
        # A visible row's largest cell is exp(0) = 1, so a sound row sums to
        # >= 1; a row with no visible cell sums to exactly 0, and an
        # overflowed logit turns its row's sum into NaN.
        blocked = np.flatnonzero(row_sums == 0.0)
        if blocked.size:
            raise FullyBlockedRowError(f"mask rows fully blocked: {blocked.tolist()}")
        bad = np.flatnonzero(~(row_sums >= 1.0))
        if bad.size:
            raise ValueError(f"attention logits overflow in row {bad[0]}")
        w /= row_sums
        return AttentionWeights._adopt(w)


@dataclass(frozen=True, eq=False)
class AttentionWeights:
    """Row-stochastic attention matrix; exactly zero at blocked cells.
    The matrix is a read-only copy of the one passed in. Objects compare by
    identity; compare matrices with ``np.array_equal``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("weights must be a square matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _adopt(cls, matrix: np.ndarray) -> AttentionWeights:
        """Wrap a square float buffer that no one else holds, without a copy."""
        matrix.setflags(write=False)
        weights = object.__new__(cls)
        object.__setattr__(weights, "matrix", matrix)
        return weights


def masked_attention(inputs: AttentionInputs) -> tuple[np.ndarray, AttentionWeights]:
    """Softmax attention over visible cells only.

    Returns ``(output, weights)`` where ``output = weights @ v`` and
    ``weights`` is ``inputs.weights``. Blocked cells carry weight exactly 0;
    every row sums to 1.
    """
    weights = inputs.weights
    return weights.matrix @ inputs.v, weights


def attention_gradients(
    inputs: AttentionInputs, d_output: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of ``sum(output * d_output)`` w.r.t. q, k, v.

    ``d_output`` defaults to all-ones (the element-sum loss). The weights are
    ``inputs.weights``, so a forward already run is not run again. Blocked
    cells contribute exactly zero gradient: their weights are zero, which
    zeroes the softmax backward term.
    """
    out_shape = inputs.q.shape
    upstream = np.ones(out_shape) if d_output is None else np.asarray(d_output, dtype=float)
    if upstream.shape != out_shape:
        raise ValueError("d_output must match the output shape")
    if d_output is not None and not np.isfinite(upstream).all():
        raise ValueError("d_output contains non-finite entries")
    w = inputs.weights.matrix
    d_logits = upstream @ inputs.v.T
    d_v = w.T @ upstream
    # Softmax backward d = w * (d - rowsum(w * d)), one panel of rows at a
    # time, so w * d needs only a panel-sized buffer. Each row sum reads one
    # contiguous row, so its bytes do not depend on the panel height.
    length = len(w)
    panel = np.empty((min(_PANEL_ROWS, length), length))
    for r0 in range(0, length, _PANEL_ROWS):
        w_rows = w[r0:r0 + _PANEL_ROWS]
        d_rows = d_logits[r0:r0 + _PANEL_ROWS]
        products = panel[:len(w_rows)]
        np.multiply(w_rows, d_rows, out=products)
        d_rows -= products.sum(axis=1, keepdims=True)
        d_rows *= w_rows
    d_q = inputs.scale * (d_logits @ inputs.k)
    d_k = inputs.scale * (d_logits.T @ inputs.q)
    return d_q, d_k, d_v


def gradient_check(
    inputs: AttentionInputs,
    step: float,
    d_output: np.ndarray | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error uses a unit floor: ``|a - b| / max(1, |a|, |b|)``.
    """
    if not 1e-6 <= step <= 1e-3:
        raise ValueError("step must lie in [1e-6, 1e-3]")
    upstream = np.ones(inputs.q.shape) if d_output is None else np.asarray(d_output)

    def loss(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> float:
        probe = AttentionInputs(q=q, k=k, v=v, mask=inputs.mask)
        output, _ = masked_attention(probe)
        return float(np.sum(output * upstream))

    analytic = attention_gradients(inputs, upstream)
    arrays = (inputs.q, inputs.k, inputs.v)
    worst = 0.0
    for slot, grad in enumerate(analytic):
        base = arrays[slot]
        numeric = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[slot][idx] += step
            minus[slot][idx] -= step
            numeric[idx] = (loss(*plus) - loss(*minus)) / (2.0 * step)
        err = np.abs(grad - numeric) / np.maximum(
            1.0, np.maximum(np.abs(grad), np.abs(numeric)))
        worst = max(worst, float(err.max()))
    return worst


# --- Attention allocation over the last k layers ---------------------------

@dataclass(frozen=True)
class AllocationReport:
    """Normalized attention mass from the summary span into the audio vs.
    visual reasoning spans, per layer and aggregated over the window."""

    window: int
    audio_fraction: float
    visual_fraction: float
    per_layer: tuple[tuple[float, float] | None, ...]


def attention_allocation(
    weights_per_layer: Sequence,
    layout: TokenLayout,
    last_k: int = DEFAULT_ALLOCATION_WINDOW,
) -> AllocationReport:
    """Fraction of attention mass flowing to audio vs. visual reasoning.

    Sums, over the final ``last_k`` layers, the attention mass from the layout's
    summary-span rows into the inner audio-reasoning and visual-reasoning
    columns, then normalizes the pair to sum to 1. Layers with no mass into
    either span report ``None``. Every layer in the window must be L x L for
    the layout's length L, and no cell it reads may be negative.
    """
    if last_k < 1 or last_k > len(weights_per_layer):
        raise ValueError("last_k must be in [1, number of layers]")
    matrices = [layer.matrix if isinstance(layer, AttentionWeights)
                else np.asarray(layer, dtype=float) for layer in weights_per_layer[-last_k:]]
    square = (layout.length, layout.length)
    for idx, matrix in enumerate(matrices):
        if matrix.shape != square:
            raise ValueError(
                f"layer[-{last_k - idx}] weights have shape {list(matrix.shape)}, "
                f"the layout needs {list(square)}")
    rows = sorted(layout.summary_span)
    if not rows:
        raise ValueError("layout has no summary_span positions")
    audio_cols = sorted(layout.audio_reasoning)
    visual_cols = sorted(layout.visual_reasoning)

    per_layer: list[tuple[float, float] | None] = []
    audio_total = 0.0
    visual_total = 0.0
    for idx, matrix in enumerate(matrices):
        audio = matrix[np.ix_(rows, audio_cols)]
        visual = matrix[np.ix_(rows, visual_cols)]
        # Only the cells read must be non-negative; -0.0 passes.
        if (audio < 0).any() or (visual < 0).any():
            raise ValueError(f"layer[-{last_k - idx}] weights hold a negative value")
        audio_mass = float(audio.sum())
        visual_mass = float(visual.sum())
        audio_total += audio_mass
        visual_total += visual_mass
        layer_total = audio_mass + visual_mass
        if layer_total > 0.0:
            per_layer.append((audio_mass / layer_total, visual_mass / layer_total))
        else:
            per_layer.append(None)

    total = audio_total + visual_total
    if total <= 0.0:
        raise ValueError("zero attention mass into both reasoning spans")
    return AllocationReport(
        window=last_k,
        audio_fraction=audio_total / total,
        visual_fraction=visual_total / total,
        per_layer=tuple(per_layer),
    )


# --- Synthetic leakage probe -----------------------------------------------

# No role holds the question at 16-19 or the <a> tags at 28 and 35.
DEFAULT_LEAKAGE_LAYOUT = TokenLayout(
    length=40,
    video_input=range(0, 8),
    audio_input=range(8, 16),
    visual_reasoning=range(21, 27),
    audio_reasoning=range(29, 35),
    visual_span=range(20, 28),
    summary_span=range(36, 40),
)

_LEAKAGE_LAYERS = 3
_LEAKAGE_DIM = 16


@dataclass(frozen=True)
class LeakageReport:
    """Measured attention mass on the asymmetric-rule blocked pair families.

    ``blocked_pair_mass`` is the raw weight sum over those cells across all
    layers; ``direct_leakage`` normalizes it by (positions in any query role
    of ``BLOCKED_ROLE_PAIRS`` x layers), i.e. the fraction of those rows'
    total mass that lands on blocked pairs.
    """

    seed: int
    use_maam: bool
    length: int
    layers: int
    blocked_pair_mass: float
    direct_leakage: float


def leakage_probe(
    seed: int,
    layout: TokenLayout = DEFAULT_LEAKAGE_LAYOUT,
    use_maam: bool = True,
) -> LeakageReport:
    """Run a seeded random attention stack over ``layout`` and measure direct
    leakage.

    With the asymmetric mask the leakage is exactly zero by construction;
    without it the causal-only stack places measurable mass on the blocked
    pair families.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    causal = build_causal(layout.length)
    composite = build_composite(layout)
    blocked = causal.visible & ~composite.visible  # causal cells the rules block
    mask = composite if use_maam else causal
    rng = np.random.default_rng(seed)

    blocked_mass = 0.0
    for _ in range(_LEAKAGE_LAYERS):
        q = rng.normal(size=(layout.length, _LEAKAGE_DIM))
        k = rng.normal(size=(layout.length, _LEAKAGE_DIM))
        v = rng.normal(size=(layout.length, _LEAKAGE_DIM))
        _, weights = masked_attention(AttentionInputs(q=q, k=k, v=v, mask=mask))
        blocked_mass += float(weights.matrix[blocked].sum())

    query_rows = frozenset().union(*(getattr(layout, query) for query, _ in BLOCKED_ROLE_PAIRS))
    denom = len(query_rows) * _LEAKAGE_LAYERS
    leakage = blocked_mass / denom if denom else 0.0
    return LeakageReport(
        seed=seed,
        use_maam=use_maam,
        length=layout.length,
        layers=_LEAKAGE_LAYERS,
        blocked_pair_mass=blocked_mass,
        direct_leakage=leakage,
    )


# --- Weights persistence ----------------------------------------------------

def read_weights_jsonl(path: str | Path) -> list[np.ndarray]:
    """One layer per line, in line order: ``{"layer", "shape": [L, L],
    "data": [row-major values]}``; ``layer`` is not read, each shape entry
    must be a positive JSON integer (numpy would infer a -1), and ``data``
    must hold finite numbers (``jsonl.finite_floats``), one per cell."""
    def build(obj: dict, lineno: int) -> np.ndarray:
        shape = obj.get("shape")
        if not isinstance(shape, list) or not all(
                type(size) is int and size > 0 for size in shape):
            raise ValueError("weights shape must be a list of positive integers")
        if len(shape) != 2:
            raise ValueError(f"weights shape {shape} is not 2-D")
        data = finite_floats(obj.get("data"))
        if data is None:
            raise ValueError("data must hold finite numbers")
        if data.size != shape[0] * shape[1]:
            raise ValueError(f"data has {data.size} numbers, shape {shape} needs "
                             f"{shape[0] * shape[1]}")
        return data.reshape(shape)

    return read_records(path, build)
