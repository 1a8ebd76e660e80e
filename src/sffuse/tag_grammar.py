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

_TAG_TOKEN = re.compile(r"</?(mod|v|a|sum|ans)>")


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
        stripped = text.strip()
        for label in cls:
            if stripped == label.value:
                return label
        return None


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


@dataclass(frozen=True)
class _TagToken:
    name: str
    closing: bool
    start: int
    end: int

    @property
    def literal(self) -> str:
        return f"</{self.name}>" if self.closing else f"<{self.name}>"


def _tokenize(text: str) -> list[_TagToken]:
    tokens = []
    for m in _TAG_TOKEN.finditer(text):
        closing = m.group(0).startswith("</")
        tokens.append(_TagToken(m.group(1), closing, m.start(), m.end()))
    return tokens


def _check_counts(tokens: list[_TagToken]) -> list[ParseDiagnostic]:
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


def _check_pairing(tokens: list[_TagToken]) -> list[ParseDiagnostic]:
    """Reversed pairs and nesting/overlap, given exactly one open+close per tag."""
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


def _check_order(tokens: list[_TagToken]) -> list[ParseDiagnostic]:
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


def parse_trace(text: str) -> tuple[SfrTrace | None, list[ParseDiagnostic]]:
    """Parse a trace, returning ``(trace, [])`` or ``(None, diagnostics)``.

    Whitespace between and around tags is tolerated; any other content
    outside the tagged segments is a StrayContent defect. Never raises on
    malformed input.
    """
    tokens = _tokenize(text)

    diags = _check_counts(tokens)
    if diags:
        return None, diags
    diags = _check_pairing(tokens)
    if diags:
        return None, diags
    diags = _check_order(tokens)
    if diags:
        return None, diags

    # Structure is sound; extract segments and run content checks.
    open_tok = {t.name: t for t in tokens if not t.closing}
    close_tok = {t.name: t for t in tokens if t.closing}
    segments = {
        name: text[open_tok[name].end:close_tok[name].start] for name in TAG_NAMES
    }
    spans = tuple(
        (name, open_tok[name].start, close_tok[name].end) for name in TAG_NAMES
    )

    diags = []
    pem = PemLabel.from_text(segments["mod"])
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
        spans=spans,
    )
    return trace, []


def validate_structure(text: str) -> tuple[bool, list[ParseDiagnostic]]:
    """Structural half of the modality-preference & structure reward."""
    trace, diags = parse_trace(text)
    return trace is not None, diags


def render_trace(trace: SfrTrace) -> str:
    """Canonical serialization: no whitespace between tags."""
    pem = trace.pem.serialized
    return (
        f"<mod>{pem}</mod>"
        f"<v>{trace.visual_text}</v>"
        f"<a>{trace.audio_text}</a>"
        f"<sum>{trace.summary_text}</sum>"
        f"<ans>{trace.answer_text}</ans>"
    )


def read_trace_records(path: str | Path) -> list[tuple[str, str]]:
    """Read one-per-line ``{id, text}`` JSONL records."""
    records = []
    for lineno, obj in read_objects(path):
        records.append(str_fields(f"{path}:{lineno}", obj, "id", "text"))
    return records
