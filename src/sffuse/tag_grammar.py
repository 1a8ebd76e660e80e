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
import re
from dataclasses import dataclass, field
from pathlib import Path

from .jsonl import read_objects, str_fields

TAG_NAMES = ("mod", "v", "a", "sum", "ans")

_TAG_TOKEN = re.compile(f"</?({'|'.join(TAG_NAMES)})>")
# The one well-formed tag sequence: <mod></mod><v></v>...<ans></ans>.
_CANONICAL = [literal for name in TAG_NAMES for literal in (f"<{name}>", f"</{name}>")]


class PemLabel(enum.Enum):
    """Preferred evidence modality: which input suffices to answer."""

    AUDIO = "Audio"
    VISUAL = "Visual"
    AUDIO_VISUAL = "Audio-Visual"

    @property
    def serialized(self) -> str:
        return self.value

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
    """A parsed trace. Equality compares the label and the four segment texts;
    ``spans`` records the (tag, start, end) source offsets of each tagged
    region and is excluded from comparison so that re-parsing a canonical
    rendering yields an equal value regardless of original whitespace."""

    pem: PemLabel
    visual_text: str
    audio_text: str
    summary_text: str
    answer_text: str
    spans: tuple[tuple[str, int, int], ...] = field(default=(), compare=False)


# A tag token is (literal, name, closing, start, end), in source order.
_Token = tuple[str, str, bool, int, int]


def _tokenize(text: str) -> list[_Token]:
    return [(m[0], m[1], m[0][1] == "/", *m.span()) for m in _TAG_TOKEN.finditer(text)]


def _diagnose(tokens: list[_Token]) -> list[ParseDiagnostic]:
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


def parse_trace(text: str) -> tuple[SfrTrace | None, list[ParseDiagnostic]]:
    """Parse a trace, returning ``(trace, [])`` or ``(None, diagnostics)``.

    Whitespace between and around tags is tolerated; any other content
    outside the tagged segments is a StrayContent defect. Never raises on
    malformed input.
    """
    tokens = _tokenize(text)
    # Sound structure is exactly the canonical tag sequence, so the k-th
    # tag name opens at token 2k and closes at token 2k + 1.
    if [token[0] for token in tokens] != _CANONICAL:
        return None, _diagnose(tokens)
    opens, closes = tokens[0::2], tokens[1::2]
    segments = [text[open_tok[4]:close_tok[3]] for open_tok, close_tok in zip(opens, closes)]
    spans = tuple((name, open_tok[3], close_tok[4])
                  for name, open_tok, close_tok in zip(TAG_NAMES, opens, closes))

    diags = []
    pem = PemLabel.from_text(segments[0])
    if pem is None:
        diags.append(ParseDiagnostic(
            DiagnosticKind.UNKNOWN_PEM_VALUE, opens[0][4],
            f"{segments[0].strip()!r} is not one of {list(_PEM_BY_TEXT)}"))

    # The gaps before the first span, between spans, and after the last.
    gap_starts = [0, *(close_tok[4] for close_tok in closes)]
    gap_ends = [*(open_tok[3] for open_tok in opens), len(text)]
    for start, end in zip(gap_starts, gap_ends):
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
        visual_text=segments[1],
        audio_text=segments[2],
        summary_text=segments[3],
        answer_text=segments[4],
        spans=spans,
    )
    return trace, []


def validate_structure(text: str) -> tuple[bool, list[ParseDiagnostic]]:
    """Structural half of the modality-preference & structure reward."""
    trace, diags = parse_trace(text)
    return trace is not None, diags


def render_trace(trace: SfrTrace) -> str:
    """Canonical serialization: no whitespace between tags."""
    segments = (trace.pem.serialized, trace.visual_text, trace.audio_text,
                trace.summary_text, trace.answer_text)
    return "".join(f"<{name}>{text}</{name}>" for name, text in zip(TAG_NAMES, segments))


def read_trace_records(path: str | Path) -> list[tuple[str, str]]:
    """Read one-per-line ``{id, text}`` JSONL records."""
    records = []
    for lineno, obj in read_objects(path):
        records.append(str_fields(f"{path}:{lineno}", obj, "id", "text"))
    return records
