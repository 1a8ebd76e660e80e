"""Parser, validator, and renderer for separate-then-fuse reasoning traces.

A well-formed trace carries five tagged segments in a fixed order:

    <mod>PEM</mod><v>visual reasoning</v><a>audio reasoning</a>
    <sum>fused summary</sum><ans>answer</ans>

The ``<mod>`` segment names the preferred evidence modality, ``<v>`` and
``<a>`` hold the isolated per-modality reasoning, ``<sum>`` the fused
summary, and ``<ans>`` the final answer. Parsing is total: malformed input
yields typed diagnostics instead of exceptions, so the structure check can
serve directly as a crisp 0/1 reward predicate.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from pathlib import Path

from .jsonl import read_records, str_fields

TAG_NAMES = ("mod", "v", "a", "sum", "ans")

# Splitting on this pattern keeps each whole tag as its own piece, so the
# tags are the odd pieces and the text around them the even ones.
_TAG_SPLIT = re.compile(f"(</?(?:{'|'.join(TAG_NAMES)})>)")
# The one well-formed tag sequence: <mod></mod><v></v>...<ans></ans>.
_CANONICAL = [literal for name in TAG_NAMES for literal in (f"<{name}>", f"</{name}>")]


class PemLabel(enum.Enum):
    """Preferred evidence modality: which input suffices to answer."""

    AUDIO = "Audio"
    VISUAL = "Visual"
    AUDIO_VISUAL = "Audio-Visual"

    @classmethod
    def from_text(cls, text: str) -> "PemLabel | None":
        """Match the exact serialized form after trimming whitespace; no case folding."""
        return _PEM_BY_TEXT.get(text.strip())


_PEM_BY_TEXT = {label.value: label for label in PemLabel}


class DiagnosticKind(enum.Enum):
    MISSING_TAG = "MissingTag"
    UNCLOSED_TAG = "UnclosedTag"
    DUPLICATE_TAG = "DuplicateTag"
    OUT_OF_ORDER = "OutOfOrder"
    NESTED_TAG = "NestedTag"
    UNKNOWN_PEM_VALUE = "UnknownPemValue"
    STRAY_CONTENT = "StrayContent"


@dataclass(frozen=True)
class ParseDiagnostic:
    """A structural defect; every kind is fatal for the trace."""

    kind: DiagnosticKind
    offset: int
    message: str

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "offset": self.offset, "message": self.message}


@dataclass(frozen=True)
class SfrTrace:
    """A parsed trace: the label and the four segment texts. Whitespace
    between tags is not kept, so re-parsing a canonical rendering yields an
    equal value regardless of original whitespace."""

    pem: PemLabel
    visual_text: str
    audio_text: str
    summary_text: str
    answer_text: str


# A tag token is (literal, name, closing, start, end), in source order.
_Token = tuple[str, str, bool, int, int]


def _diagnose_tags(tokens: list[_Token]) -> list[ParseDiagnostic]:
    """Why a tag sequence is not the canonical one: the count defects of
    every tag, else the first reversed or overlapping pair, else the first
    tag out of place."""
    opens: dict[str, list[_Token]] = {name: [] for name in TAG_NAMES}
    closes: dict[str, list[_Token]] = {name: [] for name in TAG_NAMES}
    for token in tokens:
        (closes if token[2] else opens)[token[1]].append(token)

    diags = []
    for name in TAG_NAMES:
        name_opens, name_closes = opens[name], closes[name]
        if not name_opens and not name_closes:
            diags.append(ParseDiagnostic(
                DiagnosticKind.MISSING_TAG, 0, f"tag <{name}> not found"))
            continue
        if not name_closes:
            diags.append(ParseDiagnostic(
                DiagnosticKind.UNCLOSED_TAG, name_opens[0][3],
                f"<{name}> is never closed"))
        if not name_opens:
            diags.append(ParseDiagnostic(
                DiagnosticKind.MISSING_TAG, name_closes[0][3],
                f"</{name}> has no opening <{name}>"))
        for extra in name_opens[1:] + name_closes[1:]:
            diags.append(ParseDiagnostic(
                DiagnosticKind.DUPLICATE_TAG, extra[3], f"duplicate {extra[0]}"))
    if diags:
        return diags

    # Exactly one open and one close per tag from here on.
    pairs = []
    for name in TAG_NAMES:
        (open_tok,), (close_tok,) = opens[name], closes[name]
        if close_tok[3] < open_tok[3]:
            return [ParseDiagnostic(
                DiagnosticKind.OUT_OF_ORDER, open_tok[3],
                f"<{name}> appears after </{name}>")]
        pairs.append((open_tok[3], close_tok[4], name))
    pairs.sort()
    for (_, outer_end, outer_name), (inner_start, _, inner_name) in zip(pairs, pairs[1:]):
        if inner_start < outer_end:
            return [ParseDiagnostic(
                DiagnosticKind.NESTED_TAG, inner_start,
                f"<{inner_name}> span overlaps <{outer_name}> span")]

    # Ten tags, each pair sound and apart: some tag is out of canonical place.
    want, got = next((want, got) for want, got in zip(_CANONICAL, tokens) if got[0] != want)
    return [ParseDiagnostic(
        DiagnosticKind.OUT_OF_ORDER, got[3], f"expected {want} but found {got[0]}")]


def _diagnose(pieces: list[str]) -> list[ParseDiagnostic]:
    """Why the split pieces of a trace are not a sound trace: the tag
    sequence's defects, else an unknown PEM value and any stray content,
    in offset order."""
    starts = list(itertools.accumulate(map(len, pieces), initial=0))  # piece i is at starts[i]
    if pieces[1::2] != _CANONICAL:
        return _diagnose_tags([
            (literal, literal.strip("</>"), literal[1] == "/", start, end)
            for literal, start, end in zip(pieces[1::2], starts[1::2], starts[2::2])])

    diags = []
    pem_text = pieces[2]
    if PemLabel.from_text(pem_text) is None:
        diags.append(ParseDiagnostic(
            DiagnosticKind.UNKNOWN_PEM_VALUE, starts[2],
            f"{pem_text.strip()!r} is not one of {list(_PEM_BY_TEXT)}"))

    # The gaps before the first span, between spans, and after the last.
    for gap, start in zip(pieces[0::4], starts[0::4]):
        if gap.strip():
            offset = start + (len(gap) - len(gap.lstrip()))
            diags.append(ParseDiagnostic(
                DiagnosticKind.STRAY_CONTENT, offset,
                "non-whitespace content outside tags"))
    return sorted(diags, key=lambda d: d.offset)


def parse_trace(text: str) -> tuple[SfrTrace | None, list[ParseDiagnostic]]:
    """Parse a trace, returning ``(trace, [])`` or ``(None, diagnostics)``.

    Whitespace between and around tags is tolerated; any other content
    outside the tagged segments is a StrayContent defect. Never raises on
    malformed input.
    """
    # A sound trace splits into exactly gap, <mod>, segment, </mod>, gap,
    # <v>, ..., </ans>, gap: tag k opens at piece 4k + 1 and closes at 4k + 3.
    # Soundness is decided from the pieces alone; offsets are for diagnostics.
    pieces = _TAG_SPLIT.split(text)
    if pieces[1::2] == _CANONICAL and not "".join(pieces[0::4]).strip():
        pem_text, *texts = pieces[2::4]  # in TAG_NAMES order, as SfrTrace's fields
        pem = PemLabel.from_text(pem_text)
        if pem is not None:
            return SfrTrace(pem, *texts), []
    return None, _diagnose(pieces)


def validate_structure(text: str) -> tuple[bool, list[ParseDiagnostic]]:
    """Structural half of the modality-preference & structure reward."""
    trace, diags = parse_trace(text)
    return trace is not None, diags


def render_trace(trace: SfrTrace) -> str:
    """Canonical serialization: no whitespace between tags."""
    segments = (trace.pem.value, trace.visual_text, trace.audio_text,
                trace.summary_text, trace.answer_text)
    return "".join(f"<{name}>{text}</{name}>" for name, text in zip(TAG_NAMES, segments))


def read_trace_records(path: str | Path) -> list[tuple[str, str]]:
    """Read one-per-line ``{id, text}`` JSONL records."""
    return read_records(path, lambda obj, _: str_fields(obj, "id", "text"))
