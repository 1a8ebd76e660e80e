"""Causal and modality-asymmetric attention mask construction.

Over a token sequence we distinguish five position sets: video inputs,
audio inputs, the inner visual-reasoning tokens, the inner audio-reasoning
tokens, and the full visual span including its boundary tags. The
composite mask blocks exactly the three query-key families listed in
``BLOCKED_ROLE_PAIRS`` on top of plain causal visibility; every mask path
reads that table. Everything else keeps default causal visibility. Masks
are stored as boolean matrices (True = visible); the additive 0 / -inf
semantics are realized by the attention core at softmax time.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .jsonl import read_document
from .tag_grammar import TAG_NAMES


class LayoutError(ValueError):
    """A token layout violates one of its invariants."""


# (query role, key role): queries in the first role never see keys in the second.
BLOCKED_ROLE_PAIRS = (
    ("visual_reasoning", "audio_input"),
    ("audio_reasoning", "video_input"),
    ("audio_reasoning", "visual_span"),  # the whole span, boundary tags included
)


# The longest layout whose row table numpy can size: the table holds a row
# of L bools per rule set, 1 << len(BLOCKED_ROLE_PAIRS) rows in all.
_MAX_LENGTH = np.iinfo(np.intp).max >> len(BLOCKED_ROLE_PAIRS)


def _check_extents(length: int, extents: Sequence[tuple[str, int, int]]) -> None:
    """The length checks, then the bounds of each (role, lowest index,
    highest index) in ``extents``, in order."""
    if length < 1:
        raise LayoutError("length must be >= 1")
    if length > _MAX_LENGTH:
        raise LayoutError(f"length must be <= {_MAX_LENGTH}")
    for name, low, high in extents:
        if low < 0 or high >= length:
            raise LayoutError(f"{name} index out of range [0, {length})")


@dataclass(frozen=True)
class TokenLayout:
    """The position sets that drive mask construction.

    Each role takes any iterable of positions, such as a ``range``, and is
    held as a frozenset. ``summary_span`` is not a masking role; it is
    carried so attention-allocation reports can read their query rows from
    the summary tokens.
    """

    length: int
    video_input: frozenset[int] = frozenset()
    audio_input: frozenset[int] = frozenset()
    visual_reasoning: frozenset[int] = frozenset()
    audio_reasoning: frozenset[int] = frozenset()
    visual_span: frozenset[int] = frozenset()
    summary_span: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        for name in ROLE_NAMES:
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        _check_extents(self.length, [(name, min(indices), max(indices)) for name in ROLE_NAMES
                                     if (indices := getattr(self, name))])
        if self.video_input & self.audio_input:
            raise LayoutError("video_input and audio_input must be disjoint")
        if not self.visual_reasoning <= self.visual_span:
            raise LayoutError("visual_reasoning must be a subset of visual_span")
        if self.visual_span & self.audio_reasoning:
            raise LayoutError("visual_span and audio_reasoning must be disjoint")
        inputs = self.video_input | self.audio_input
        reasoning = self.visual_reasoning | self.audio_reasoning | self.visual_span
        if inputs and reasoning and max(inputs) >= min(reasoning):
            raise LayoutError("input positions must precede reasoning positions")

    @cached_property
    def _row_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Visible keys per query position, stated once from ``BLOCKED_ROLE_PAIRS``.

        Returns ``(table, codes)``: ``codes[i]`` is the set of rules position i
        triggers as a query (bit b for rule b of ``BLOCKED_ROLE_PAIRS``), and
        row c of ``table`` holds the keys visible under rule set c, for all
        ``1 << len(BLOCKED_ROLE_PAIRS)`` sets. Causality is not applied; a
        caller keeps keys ``<= i`` of row ``codes[i]``. Both are read-only.
        """
        def positions(role: str) -> np.ndarray:
            indices = getattr(self, role)
            return np.fromiter(indices, dtype=np.intp, count=len(indices))

        rule_sets = np.arange(1 << len(BLOCKED_ROLE_PAIRS))
        codes = np.zeros(self.length, dtype=np.intp)
        table = np.ones((rule_sets.size, self.length), dtype=bool)
        for bit, (query, key) in enumerate(BLOCKED_ROLE_PAIRS):
            codes[positions(query)] |= 1 << bit
            unblocked = np.ones(self.length, dtype=bool)
            unblocked[positions(key)] = False
            table[rule_sets >> bit & 1 == 1] &= unblocked
        table.setflags(write=False)
        codes.setflags(write=False)
        return table, codes


ROLE_NAMES = tuple(f.name for f in fields(TokenLayout) if f.name != "length")


@dataclass(frozen=True, eq=False)
class MaskMatrix:
    """Immutable square visibility matrix. True = visible, False = blocked.
    The matrix is a read-only copy of the one passed in."""

    visible: np.ndarray

    def __post_init__(self) -> None:
        self._seal(np.array(self.visible, dtype=bool))

    @classmethod
    def _adopt(cls, visible: np.ndarray) -> MaskMatrix:
        """Wrap a fresh boolean buffer that no one else holds, without a copy."""
        mask = object.__new__(cls)
        mask._seal(visible)
        return mask

    def _seal(self, visible: np.ndarray) -> None:
        if visible.dtype != bool or visible.ndim != 2 or visible.shape[0] != visible.shape[1]:
            raise ValueError("mask must be a square matrix")
        visible.setflags(write=False)
        object.__setattr__(self, "visible", visible)

    @property
    def length(self) -> int:
        return self.visible.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskMatrix):
            return NotImplemented
        return bool(np.array_equal(self.visible, other.visible))

    def __hash__(self) -> int:
        return hash((self.length, self.visible.tobytes()))


def build_causal(length: int) -> MaskMatrix:
    """Plain causal mask: cell (i, j) visible iff j <= i."""
    _check_extents(length, [])
    return MaskMatrix._adopt(np.tri(length, dtype=bool))


def build_composite(layout: TokenLayout) -> MaskMatrix:
    """Causal visibility with every ``BLOCKED_ROLE_PAIRS`` cell cleared: row i
    is the layout's row-table row for position i, cut to keys <= i."""
    table, codes = layout._row_table
    visible = table[codes]
    visible &= np.tri(layout.length, dtype=bool)
    return MaskMatrix._adopt(visible)


def incremental_row(layout: TokenLayout, i: int) -> np.ndarray:
    """Visibility row for query position ``i`` over keys 0..i; an ``i``
    outside [0, L) raises LayoutError.

    Equals row ``i`` of the composite mask restricted to columns <= i. It is
    a read-only view into the layout's row table, built once in O(L), so
    each call is O(1) with no allocation and no LxL materialization; this
    is the decode-time path where each step appends a single query row.
    """
    if not 0 <= i < layout.length:
        raise LayoutError(f"row {i} out of range [0, {layout.length})")
    table, codes = layout._row_table
    return table[codes[i], : i + 1]


@dataclass(frozen=True)
class MarkerTable:
    """Token ids of modality indicators and control tags for layout location.

    ``video``/``audio`` give (start, end) indicator ids delimiting the input
    payloads; ``tag_open``/``tag_close`` map each control-tag name (mod, v, a,
    sum, ans) to its token id. The input sets hold the payload between the
    indicators, not the indicator tokens themselves.
    """

    video: tuple[int, int]
    audio: tuple[int, int]
    tag_open: Mapping[str, int] = field(default_factory=dict)
    tag_close: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in [*self.tag_open, *self.tag_close]:
            if name not in TAG_NAMES:
                raise LayoutError(f"unknown tag name {name!r}")
        for name in TAG_NAMES:
            if (name in self.tag_open) != (name in self.tag_close):
                missing = "tag_close" if name in self.tag_open else "tag_open"
                raise LayoutError(f"tag {name!r} has no {missing} id")


def _pair(starts: list[int], ends: list[int], label: str) -> tuple[int, int] | None:
    if not starts and not ends:
        return None
    if len(starts) > 1 or len(ends) > 1:
        raise LayoutError(f"duplicated {label} marker")
    if not starts or not ends:
        raise LayoutError(f"unpaired {label} marker")
    if ends[0] < starts[0]:
        raise LayoutError(f"{label} end marker precedes its start")
    return starts[0], ends[0]


def locate_layout(tokens: Sequence[int], markers: MarkerTable) -> TokenLayout:
    """Scan a token sequence and derive its layout from marker ids.

    The input sets are the strict interiors of the modality indicator pairs
    and the reasoning sets those of the v/a tag pairs, with the visual span
    also covering both v boundary tags. The video and audio pairs may touch
    but not overlap; absent pairs give empty sets (unimodal layouts are legal).
    """
    tokens = list(tokens)
    if not tokens:
        raise LayoutError("empty token sequence")

    tags = [name for name in TAG_NAMES if name in markers.tag_open]
    ids = [markers.video, markers.audio]
    ids += [(markers.tag_open[name], markers.tag_close[name]) for name in tags]
    labels = ["video", "audio"] + [f"<{name}>" for name in tags]
    # One pass collects every position of every marker id; ids may coincide.
    positions: dict[int, list[int]] = {marker: [] for pair in ids for marker in pair}
    for k, token in enumerate(tokens):
        hits = positions.get(token)
        if hits is not None:
            hits.append(k)
    found = [_pair(positions[start], positions[end], label)
             for (start, end), label in zip(ids, labels)]
    video, audio = found[:2]
    pairs = {name: pair for name, pair in zip(tags, found[2:]) if pair is not None}

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

    # An absent pair reads as (0, -1), whose interior and span are both empty.
    video_start, video_end = video or (0, -1)
    audio_start, audio_end = audio or (0, -1)
    v_start, v_end = pairs.get("v", (0, -1))
    a_start, a_end = pairs.get("a", (0, -1))
    sum_start, sum_end = pairs.get("sum", (0, -1))
    layout = TokenLayout(
        length=len(tokens),
        video_input=range(video_start + 1, video_end),
        audio_input=range(audio_start + 1, audio_end),
        visual_reasoning=range(v_start + 1, v_end),
        audio_reasoning=range(a_start + 1, a_end),
        visual_span=range(v_start, v_end + 1),
        summary_span=range(sum_start + 1, sum_end),
    )
    if video and audio and max(video, audio)[0] < min(video, audio)[1]:
        raise LayoutError("video and audio indicator pairs overlap")
    return layout


# --- Declarative layout specs -------------------------------------------

def _spec_int(value: object, what: str) -> int:
    """A JSON integer; bools and floats are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _spec_ranges(ranges: object, role: str) -> list[range]:
    """A role's ``[[first, last], ...]`` pairs, checked but not expanded."""
    not_pairs = f"{role} must be a list of [first, last] pairs"
    if not isinstance(ranges, (list, tuple)):
        raise ValueError(not_pairs)
    spans = []
    for r in ranges:
        if not isinstance(r, (list, tuple)) or len(r) != 2:
            raise ValueError(not_pairs)
        first = _spec_int(r[0], f"{role}: range bound")
        last = _spec_int(r[1], f"{role}: range bound")
        if last < first:
            raise ValueError(f"{role}: range [{first}, {last}] is reversed")
        spans.append(range(first, last + 1))
    return spans


def layout_from_spec(spec: Mapping) -> TokenLayout:
    """Resolve a declarative ``{role: [[first, last], ...]}`` record."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"layout spec must be a JSON object, got {type(spec).__name__}")
    if "length" not in spec:
        raise ValueError("layout spec needs a 'length' field")
    known = set(ROLE_NAMES) | {"length"}
    unknown = set(spec) - known
    if unknown:
        raise ValueError(f"unknown layout roles: {sorted(unknown)}")
    length = _spec_int(spec["length"], "length")
    roles = {name: _spec_ranges(spec.get(name, []), name) for name in ROLE_NAMES}
    # Checked before the ranges are expanded, so a bound far outside the
    # layout is rejected without allocating its indices.
    _check_extents(length, [(name, min(r.start for r in spans), max(r.stop for r in spans) - 1)
                            for name, spans in roles.items() if spans])
    return TokenLayout(length=length,
                       **{name: itertools.chain(*spans) for name, spans in roles.items()})


def load_layout_spec(path: str | Path) -> TokenLayout:
    """The layout spec in the file at ``path``; every error names ``path``."""
    return read_document(path, layout_from_spec)


# --- Mask export formats --------------------------------------------------

def text_grid(visible: np.ndarray) -> memoryview:
    """The 2-D boolean array ``visible`` as ASCII bytes, one line per row:
    a "0"/"1" character per cell (1 = visible), then "\n". The one cell
    encoder of the text grid, whether written as a file, a string or a row."""
    rows, cols = visible.shape
    grid = np.empty((rows, cols + 1), dtype=np.uint8)
    grid[:, cols] = ord("\n")
    np.add(visible, ord("0"), out=grid[:, :cols], dtype=np.uint8)
    return grid.reshape(-1).data


def mask_to_text(mask: MaskMatrix) -> str:
    """Dense grid of 0/1 characters, one row per line. 1 = visible."""
    return str(text_grid(mask.visible), "ascii")


def mask_from_text(text: str) -> MaskMatrix:
    """Inverse of ``mask_to_text``, and exactly as strict: the text must be
    L rows of L "0"/"1" cells, each row ending in "\\n". Any other text
    raises ValueError, which names the first bad row where there is one:
    a "\\r\\n" break, a blank line or a missing final "\\n" among them."""
    # An exact grid of 0/1 rows, each ending in "\n", is read in one pass;
    # any other text is diagnosed line by line below.
    width = text.find("\n")
    if width > 0 and len(text) % (width + 1) == 0 and text.isascii():
        grid = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, width + 1)
        cells = grid[:, :width]
        # Reductions only: "0" and "1" are the adjacent codes 48 and 49.
        if ((grid[:, width] == ord("\n")).all()
                and cells.min() >= ord("0") and cells.max() <= ord("1")):
            return MaskMatrix._adopt(cells == ord("1"))
    *rows, last = text.split("\n")
    if last:
        raise ValueError(f'mask text row {len(rows)} does not end in "\\n"')
    if not any(rows):
        raise ValueError("mask text has no rows")
    if "" in rows:
        raise ValueError(f"mask text row {rows.index('')} is blank")
    width = len(rows[0])
    ragged = next((k for k, line in enumerate(rows) if len(line) != width), None)
    if ragged is not None:
        raise ValueError(
            f"mask text row {ragged} has {len(rows[ragged])} cells, row 0 has {width}")
    # Rows of equal width, each ending in "\n", fail the one-pass read only
    # at a cell that is not "0" or "1". "replace" maps each non-ASCII
    # character to one "?", keeping positions.
    codes = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8)
    bad = np.flatnonzero((codes | 1) != ord("1"))  # "0" and "1" differ in bit 0 only
    row, col = divmod(int(bad[0]), width)
    raise ValueError(f"mask text row {row} column {col}: {rows[row][col]!r} is not 0 or 1")


_RLE_MAGIC = b"MRL1"
_RLE_HEADER = struct.Struct("<IBI")  # length, first bit, run count
_RLE_RUNS_AT = len(_RLE_MAGIC) + _RLE_HEADER.size


def mask_to_rle(mask: MaskMatrix) -> bytes:
    """Compact run-length record over the row-major flattened grid."""
    flat = mask.visible.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(np.concatenate(([0], edges, [flat.size])))
    header = _RLE_HEADER.pack(mask.length, int(flat[0]), runs.size)
    return _RLE_MAGIC + header + runs.astype("<u4").tobytes()


def mask_from_rle(blob: bytes) -> MaskMatrix:
    """Inverse of ``mask_to_rle``; a record it would not write raises ValueError."""
    if len(blob) < _RLE_RUNS_AT or blob[:4] != _RLE_MAGIC:
        raise ValueError("not a mask run-length record")
    length, first_bit, n_runs = _RLE_HEADER.unpack_from(blob, len(_RLE_MAGIC))
    if length < 1:
        raise ValueError("mask run-length record has length 0")
    if first_bit > 1:
        raise ValueError(f"mask run-length record has first bit {first_bit}")
    size = _RLE_RUNS_AT + 4 * n_runs
    if len(blob) != size:
        raise ValueError(
            f"mask run-length record is {len(blob)} bytes, its header needs {size}")
    runs = np.frombuffer(blob, dtype="<u4", count=n_runs, offset=_RLE_RUNS_AT)
    if not runs.all():  # mask_to_rle writes no empty run
        raise ValueError(f"mask run-length record run {int(np.argmin(runs))} is empty")
    if int(runs.sum(dtype=np.uint64)) != length * length:
        raise ValueError("run lengths do not cover the grid")
    bits = np.arange(n_runs) % 2 != first_bit
    return MaskMatrix._adopt(np.repeat(bits, runs).reshape(length, length))
