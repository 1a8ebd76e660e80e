import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sffuse.tag_grammar import (
    TAG_NAMES,
    DiagnosticKind,
    ParseDiagnostic,
    PemLabel,
    SfrTrace,
    parse_trace,
    read_trace_records,
    render_trace,
    validate_structure,
)

from conftest import reference_parse_trace, write_trace_records

WELL_FORMED = ("<mod>Audio</mod><v>sheep visible</v><a>barking only</a>"
               "<sum>dog barks</sum><ans>collie</ans>")


def kinds(diags: list[ParseDiagnostic]) -> list[DiagnosticKind]:
    return [d.kind for d in diags]


def test_parse_well_formed() -> None:
    trace, diags = parse_trace(WELL_FORMED)
    assert diags == []
    assert trace.pem is PemLabel.AUDIO
    assert trace.visual_text == "sheep visible"
    assert trace.audio_text == "barking only"
    assert trace.summary_text == "dog barks"
    assert trace.answer_text == "collie"


def test_parse_swapped_reasoning_spans_is_out_of_order_at_a_tag() -> None:
    text = "<mod>Audio</mod><a>x</a><v>y</v><sum>s</sum><ans>z</ans>"
    trace, diags = parse_trace(text)
    assert trace is None
    assert kinds(diags) == [DiagnosticKind.OUT_OF_ORDER]
    assert diags[0].offset == text.index("<a>")


def test_parse_unknown_pem_value() -> None:
    trace, diags = parse_trace(
        "<mod>Sound</mod><v>y</v><a>x</a><sum>s</sum><ans>z</ans>")
    assert trace is None
    assert kinds(diags) == [DiagnosticKind.UNKNOWN_PEM_VALUE]


def test_pem_matching_is_exact_after_trim() -> None:
    ok, _ = validate_structure(
        "<mod>  Audio  </mod><v></v><a></a><sum></sum><ans>x</ans>")
    assert ok
    bad, diags = validate_structure(
        "<mod>audio</mod><v></v><a></a><sum></sum><ans>x</ans>")
    assert not bad
    assert kinds(diags) == [DiagnosticKind.UNKNOWN_PEM_VALUE]


def test_validate_well_formed() -> None:
    assert validate_structure(WELL_FORMED) == (True, [])


def test_validate_unclosed_sum() -> None:
    text = WELL_FORMED.replace("</sum>", "")
    ok, diags = validate_structure(text)
    assert not ok
    assert kinds(diags) == [DiagnosticKind.UNCLOSED_TAG]
    assert diags[0].offset == text.index("<sum>")


def test_validate_empty_string() -> None:
    ok, diags = validate_structure("")
    assert not ok
    assert kinds(diags) == [DiagnosticKind.MISSING_TAG] * 5


def test_duplicate_closing_tag_reported_at_second_occurrence() -> None:
    text = "<mod>Audio</mod></mod><v>y</v><a>x</a><sum>s</sum><ans>z</ans>"
    ok, diags = validate_structure(text)
    assert not ok
    assert kinds(diags) == [DiagnosticKind.DUPLICATE_TAG]
    assert diags[0].offset == text.index("</mod>", text.index("</mod>") + 1)


def test_nested_tags() -> None:
    ok, diags = validate_structure(
        "<mod>Audio</mod><v><a>x</a>y</v><sum>s</sum><ans>z</ans>")
    assert not ok
    assert kinds(diags) == [DiagnosticKind.NESTED_TAG]


def test_crossing_tags_rejected() -> None:
    ok, diags = validate_structure(
        "<mod>Audio</mod><v>x<a>y</v>z</a><sum>s</sum><ans>w</ans>")
    assert not ok
    assert kinds(diags) == [DiagnosticKind.NESTED_TAG]


def test_whitespace_between_tags_tolerated() -> None:
    ok, diags = validate_structure(
        "<mod>Audio</mod>\n  <v>y</v> <a>x</a>\t<sum>s</sum>\n<ans>z</ans>\n")
    assert ok and diags == []


def test_stray_content_outside_tags() -> None:
    ok, diags = validate_structure(
        "hello <mod>Audio</mod><v>y</v><a>x</a><sum>s</sum><ans>z</ans>")
    assert not ok
    assert kinds(diags) == [DiagnosticKind.STRAY_CONTENT]
    assert diags[0].offset == 0

    ok, diags = validate_structure(WELL_FORMED + "  trailing words")
    assert not ok
    assert kinds(diags) == [DiagnosticKind.STRAY_CONTENT]


def test_render_canonical_form() -> None:
    trace = SfrTrace(pem=PemLabel.VISUAL, visual_text="a", audio_text="b",
                     summary_text="c", answer_text="d")
    assert render_trace(trace) == "<mod>Visual</mod><v>a</v><a>b</a><sum>c</sum><ans>d</ans>"


def test_render_empty_segments_legal() -> None:
    trace = SfrTrace(pem=PemLabel.AUDIO_VISUAL, visual_text="", audio_text="",
                     summary_text="", answer_text="")
    text = render_trace(trace)
    reparsed, diags = parse_trace(text)
    assert diags == []
    assert reparsed == trace


def _random_segment(rng: np.random.Generator) -> str:
    # Arbitrary text; no '>' so no control-tag literal can assemble, while
    # lone '<' stays legal content.
    alphabet = list("abcdefghijklmnop qrstuvwxyz0123456789.,!?<")
    length = int(rng.integers(0, 30))
    return "".join(rng.choice(alphabet) for _ in range(length))


def random_trace(rng: np.random.Generator) -> SfrTrace:
    return SfrTrace(
        pem=list(PemLabel)[int(rng.integers(0, 3))],
        visual_text=_random_segment(rng),
        audio_text=_random_segment(rng),
        summary_text=_random_segment(rng),
        answer_text=_random_segment(rng),
    )


def test_round_trip_200_random_traces() -> None:
    rng = np.random.default_rng(7)
    for _ in range(200):
        trace = random_trace(rng)
        reparsed, diags = parse_trace(render_trace(trace))
        assert diags == []
        assert reparsed == trace


def test_tag_order_is_total_over_permutations() -> None:
    pieces = {
        "mod": "<mod>Audio</mod>",
        "v": "<v>v</v>",
        "a": "<a>a</a>",
        "sum": "<sum>s</sum>",
        "ans": "<ans>z</ans>",
    }
    canonical = ("mod", "v", "a", "sum", "ans")
    for perm in itertools.permutations(canonical):
        text = "".join(pieces[name] for name in perm)
        ok, diags = validate_structure(text)
        if perm == canonical:
            assert ok
        else:
            assert not ok
            assert kinds(diags) == [DiagnosticKind.OUT_OF_ORDER]


def test_fuzz_never_crashes() -> None:
    rng = np.random.default_rng(11)
    for _ in range(1000):
        raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 80))).tolist())
        text = raw.decode("utf-8", errors="replace")
        ok, diags = validate_structure(text)
        assert isinstance(ok, bool)
        assert ok or len(diags) >= 1
        assert all(isinstance(d.offset, int) for d in diags)


def test_fuzz_with_tag_fragments() -> None:
    rng = np.random.default_rng(13)
    fragments = ["<mod>", "</mod>", "<v>", "</v>", "<a>", "</a>", "<sum>",
                 "</sum>", "<ans>", "</ans>", "Audio", "Visual", "x", " ", "<", ">"]
    for _ in range(1000):
        count = int(rng.integers(0, 14))
        text = "".join(fragments[int(rng.integers(0, len(fragments)))]
                       for _ in range(count))
        ok, diags = validate_structure(text)
        assert ok or len(diags) >= 1


_TAGS = [literal for name in TAG_NAMES for literal in (f"<{name}>", f"</{name}>")]
_PEM_VALUES = ["Audio", "Visual", "Audio-Visual", " Visual\n", "audio", "Sound", ""]
_NEAR_MISSES = ["<V>", "<vv>", "</", "<", ">", "< a>", "</ans >", "<mod/>"]
# No-break and em spaces are whitespace to str.strip, and the non-BMP note
# makes a code-point offset differ from a UTF-16 or UTF-8 one.
_FILLER = [" ", "\n", "\t", "  \r\n", "\u00a0", "\u2003", "word", "two birds",
           "collie.", "\U0001F3B5"]

_fragment_texts = st.lists(
    st.sampled_from(_TAGS + _PEM_VALUES + _NEAR_MISSES + _FILLER), max_size=24,
).map("".join)


@st.composite
def _mutated_renderings(draw) -> str:
    """A rendered trace, as a list of tags and bodies, with up to three
    tags or bodies dropped, duplicated, swapped or moved, stray text or
    padding inserted, and any PEM value."""
    bodies = st.sampled_from(_FILLER + _NEAR_MISSES + [""])
    pieces = []
    for name, body in zip(TAG_NAMES, [draw(st.sampled_from(_PEM_VALUES))]
                          + [draw(bodies) for _ in range(4)]):
        pieces += [f"<{name}>", body, f"</{name}>"]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "insert", "pad"]))
        i = draw(st.integers(0, len(pieces) - 1))
        j = draw(st.integers(0, len(pieces) - 1))
        if op == "drop":
            del pieces[i]
        elif op == "duplicate":
            pieces.insert(j, pieces[i])
        elif op == "swap":
            pieces[i], pieces[j] = pieces[j], pieces[i]
        elif op == "insert":
            pieces.insert(i, draw(st.sampled_from(_FILLER + _NEAR_MISSES + _TAGS)))
        else:  # stray text or whitespace at the edge of a span
            pieces.insert(3 * (i // 3), draw(st.sampled_from(_FILLER)))
    return "".join(pieces)


def _assert_parse_matches_reference(text: str) -> None:
    trace, diags = parse_trace(text)
    want_trace, want_diags = reference_parse_trace(text)
    assert trace == want_trace
    assert diags == want_diags


@settings(max_examples=200, deadline=None)
@given(_fragment_texts)
def test_parse_of_tag_fragments_matches_reference(text) -> None:
    _assert_parse_matches_reference(text)


@settings(max_examples=200, deadline=None)
@given(_mutated_renderings())
def test_parse_of_mutated_renderings_matches_reference(text) -> None:
    _assert_parse_matches_reference(text)


def test_trace_records_jsonl_round_trip(tmp_path) -> None:
    path = tmp_path / "traces.jsonl"
    records = [("t1", WELL_FORMED), ("t2", "<mod>broken")]
    write_trace_records(path, records)
    assert read_trace_records(path) == records
    with open(path, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"id", "text"}


@pytest.mark.parametrize("line, message", [
    ('{"id": "t1", "text": 5}', "field 'text' must be a string"),
    ('{"id": 1, "text": "x"}', "field 'id' must be a string"),
    ('{"id": "t1", "text": null}', "field 'text' must be a string"),
    ('{"id": "t1"}', "missing field 'text'"),
])
def test_trace_records_reject_non_string_fields(tmp_path, line, message) -> None:
    path = tmp_path / "traces.jsonl"
    path.write_text('{"id": "t0", "text": "ok"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"traces\.jsonl:2: {message}"):
        read_trace_records(path)
