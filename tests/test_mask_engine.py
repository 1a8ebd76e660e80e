import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sffuse.mask_engine import (
    BLOCKED_ROLE_PAIRS,
    LayoutError,
    MarkerTable,
    MaskMatrix,
    TokenLayout,
    build_causal,
    build_composite,
    incremental_row,
    layout_from_spec,
    load_layout_spec,
    locate_layout,
    mask_from_rle,
    mask_from_text,
    mask_to_rle,
    mask_to_text,
    text_grid,
)
from sffuse.tag_grammar import TAG_NAMES

from conftest import (
    blocked_cells,
    brute_force_mask,
    random_layout,
    reference_incremental_row,
    reference_locate_layout,
    reference_mask_from_text,
    reference_mask_to_rle,
    reference_mask_to_text,
)


def outcome(func, *args):
    """``("ok", result)`` or the exception's type and message."""
    try:
        return "ok", func(*args)
    except Exception as exc:  # the oracle comparison covers every error
        return type(exc), str(exc)


# (min, max) layout length: a single token, short layouts and L >= 256.
LENGTHS = {"one": (1, 1), "short": (2, 64), "long": (256, 320)}


# --- causal -----------------------------------------------------------------

def test_causal_single_token() -> None:
    assert build_causal(1).visible.tolist() == [[True]]


def test_causal_l3_lower_triangular() -> None:
    mask = build_causal(3)
    assert int(mask.visible.sum()) == 6
    for i in range(3):
        for j in range(3):
            assert mask.visible[i, j] == (j <= i)


def test_causal_l64_count_matches_brute_enumeration() -> None:
    mask = build_causal(64)
    brute = sum(1 for i in range(64) for j in range(64) if j <= i)
    assert int(mask.visible.sum()) == brute == 64 * 65 // 2


def test_causal_rejects_zero_length() -> None:
    with pytest.raises(ValueError):
        build_causal(0)


# The row table holds 1 << len(BLOCKED_ROLE_PAIRS) rows of L bools; numpy
# cannot size it beyond this length.
MAX_LENGTH = np.iinfo(np.intp).max >> len(BLOCKED_ROLE_PAIRS)


def test_causal_and_layout_reject_a_length_numpy_cannot_index() -> None:
    message = f"^length must be <= {MAX_LENGTH}$"
    for length in (MAX_LENGTH + 1, 1 << 62, np.iinfo(np.intp).max + 1, 10**400):
        with pytest.raises(LayoutError, match=message):
            build_causal(length)
        with pytest.raises(LayoutError, match=message):
            TokenLayout(length=length)


def test_layout_accepts_the_longest_length_its_row_table_can_hold() -> None:
    # Checked without building the table, which is built on first use.
    assert TokenLayout(length=MAX_LENGTH).length == MAX_LENGTH


def test_mask_matrix_copies_a_callers_matrix() -> None:
    visible = np.ones((3, 3), dtype=bool)
    mask = MaskMatrix(visible)
    visible[0, 0] = False
    assert mask.visible.all()
    assert visible.flags.writeable
    twin = MaskMatrix(np.ones((3, 3), dtype=bool))
    assert mask == twin and hash(mask) == hash(twin)
    assert mask != build_causal(3) and mask != MaskMatrix(np.ones((2, 2), dtype=bool))
    assert mask != "111\n111\n111\n" and mask != [[True] * 3] * 3


# --- composite mask -------------------------------------------------------------

def test_maam_vacuous_when_no_audio_roles() -> None:
    layout = TokenLayout(length=5, video_input={0, 1}, visual_reasoning={3},
                         visual_span={2, 3, 4})
    assert build_composite(layout) == build_causal(5)


def test_maam_fixture_blocked_cells(fixture_layout) -> None:
    # The rule cells are the blocked cells on or below the diagonal; the
    # brute-force oracle applies the three rules over all 36 pairs.
    rule_cells = {(i, j) for i, j in blocked_cells(build_composite(fixture_layout)) if j <= i}
    expected = {(i, j) for i, j in blocked_cells(brute_force_mask(fixture_layout)) if j <= i}
    assert rule_cells == {(2, 1), (3, 0), (3, 2)} == expected


def test_maam_blocks_full_visual_span_for_audio_queries() -> None:
    layout = TokenLayout(length=10, visual_span={2, 3, 4}, visual_reasoning={3},
                         audio_reasoning={7, 8})
    blocked = blocked_cells(build_composite(layout))
    assert {(i, j) for i in (7, 8) for j in (2, 3, 4)} <= blocked


def test_maam_rejects_invalid_layout_with_named_invariant() -> None:
    with pytest.raises(LayoutError, match="disjoint"):
        TokenLayout(length=4, video_input={0}, audio_input={0})
    with pytest.raises(LayoutError, match="subset"):
        TokenLayout(length=4, visual_reasoning={1}, visual_span={2})
    with pytest.raises(LayoutError, match="^visual_span and audio_reasoning must be disjoint$"):
        TokenLayout(length=4, visual_span={1, 2}, audio_reasoning={2})
    with pytest.raises(LayoutError, match="precede"):
        TokenLayout(length=4, video_input={3}, visual_span={1}, visual_reasoning={1})
    with pytest.raises(LayoutError, match="range"):
        TokenLayout(length=4, audio_input={9})
    with pytest.raises(LayoutError, match="length"):
        TokenLayout(length=0)


def test_composite_fixture_blocked_union(fixture_layout) -> None:
    mask = build_composite(fixture_layout)
    causal_blocked = {(i, j) for i in range(6) for j in range(6) if j > i}
    assert blocked_cells(mask) == causal_blocked | {(2, 1), (3, 0), (3, 2)}


def test_oracle_equivalence_on_random_layouts() -> None:
    rng = np.random.default_rng(101)
    for _ in range(100):
        layout = random_layout(rng)
        assert build_composite(layout) == brute_force_mask(layout)


def test_diagonal_always_visible_in_composites() -> None:
    rng = np.random.default_rng(23)
    for _ in range(50):
        layout = random_layout(rng)
        mask = build_composite(layout)
        assert bool(np.diag(mask.visible).all())


def test_monotone_locality_removing_key_indices_never_blocks() -> None:
    rng = np.random.default_rng(31)
    for _ in range(30):
        layout = random_layout(rng)
        before = build_composite(layout).visible
        keep_audio = {p for p in layout.audio_input if rng.random() < 0.5}
        keep_video = {p for p in layout.video_input if rng.random() < 0.5}
        dropped_span = {p for p in layout.visual_span if rng.random() < 0.5}
        shrunk = TokenLayout(
            length=layout.length,
            video_input=keep_video,
            audio_input=keep_audio,
            visual_reasoning=layout.visual_reasoning - dropped_span,
            audio_reasoning=layout.audio_reasoning,
            visual_span=layout.visual_span - dropped_span,
        )
        after = build_composite(shrunk).visible
        assert bool((after | ~before).all())  # before-visible stays visible


def test_asymmetry_is_exactly_three_rule_families(fixture_layout) -> None:
    mask = build_composite(fixture_layout)
    assert mask.visible[2, 0]  # visual reasoning may see video input
    assert mask.visible[3, 1]  # audio reasoning may see audio input


# --- incremental rows -------------------------------------------------------------

def test_incremental_row_first_token(fixture_layout) -> None:
    assert incremental_row(fixture_layout, 0).tolist() == [True]


def test_incremental_row_fixture_row3(fixture_layout) -> None:
    row = incremental_row(fixture_layout, 3)
    assert row.tolist() == [False, True, False, True]


def test_incremental_row_summary_sees_everything() -> None:
    layout = TokenLayout(length=8, video_input={0}, audio_input={1},
                         visual_reasoning={3}, visual_span={2, 3, 4},
                         audio_reasoning={5}, summary_span={6, 7})
    assert incremental_row(layout, 6).all()
    assert incremental_row(layout, 7).all()


def test_incremental_row_out_of_range(fixture_layout) -> None:
    with pytest.raises(LayoutError, match=r"^row 6 out of range \[0, 6\)$"):
        incremental_row(fixture_layout, 6)


def test_incremental_row_leaves_cached_table_read_only_and_unchanged() -> None:
    layout = TokenLayout(length=8, video_input={0}, audio_input={1},
                         visual_reasoning={3}, visual_span={2, 3, 4},
                         audio_reasoning={5}, summary_span={6, 7})
    before = [arr.copy() for arr in layout._row_table]
    rows = [incremental_row(layout, i) for i in range(layout.length)]
    cached = layout._row_table
    assert cached is layout._row_table  # computed once, then shared
    for arr, old in zip(cached, before):
        assert not arr.flags.writeable
        assert arr.tobytes() == old.tobytes()
    assert all(not row.flags.writeable for row in rows)
    table, codes = cached
    with pytest.raises(ValueError):
        table[0, 0] = False
    with pytest.raises(ValueError):
        codes[0] = 1
    assert incremental_row(layout, 3).tolist() == [True, False, True, True]


def test_cached_flags_leave_layout_equality_and_hash_unchanged(fixture_layout) -> None:
    fresh = TokenLayout(length=6, video_input={0}, audio_input={1},
                        visual_reasoning={2}, audio_reasoning={3}, visual_span={2})
    build_composite(fixture_layout)
    incremental_row(fixture_layout, 5)
    assert fixture_layout == fresh
    assert hash(fixture_layout) == hash(fresh)
    assert repr(fixture_layout) == repr(fresh)


def test_incremental_rows_agree_with_full_matrix() -> None:
    rng = np.random.default_rng(401)
    for _ in range(25):
        layout = random_layout(rng, max_length=32)
        full = build_composite(layout).visible
        for i in range(layout.length):
            assert incremental_row(layout, i).tolist() == full[i, : i + 1].tolist()


@pytest.mark.parametrize("lengths", sorted(LENGTHS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rows_and_composite_equal_the_oracles(lengths, seed) -> None:
    low, high = LENGTHS[lengths]
    layout = random_layout(np.random.default_rng(seed), max_length=high, min_length=low)
    for i in range(layout.length):
        row, expected = incremental_row(layout, i), reference_incremental_row(layout, i)
        assert row.dtype == expected.dtype and row.shape == expected.shape
        assert row.tobytes() == expected.tobytes()
    for i in (-1, layout.length):
        assert outcome(incremental_row, layout, i) == outcome(
            reference_incremental_row, layout, i)
    assert build_composite(layout) == brute_force_mask(layout)


def test_row_table_is_indexed_by_rule_bits() -> None:
    # A position's code is the set of rules it triggers as a query, bit b for
    # rule b, so it follows from the position's own roles alone.
    rng = np.random.default_rng(23)
    for _ in range(10):
        layout = random_layout(rng, max_length=40)
        table, codes = layout._row_table
        assert table.shape == (1 << len(BLOCKED_ROLE_PAIRS), layout.length)
        for i, code in enumerate(codes.tolist()):
            assert code == sum(1 << bit for bit, (query, _) in enumerate(BLOCKED_ROLE_PAIRS)
                               if i in getattr(layout, query))
        for rules, row in enumerate(table.tolist()):
            blocked = set().union(*(getattr(layout, key)
                                    for bit, (_, key) in enumerate(BLOCKED_ROLE_PAIRS)
                                    if rules >> bit & 1))
            assert row == [j not in blocked for j in range(layout.length)]


def test_rows_are_read_only_views() -> None:
    layout = random_layout(np.random.default_rng(5), max_length=300, min_length=256)
    for i in (0, layout.length // 2, layout.length - 1):
        row = incremental_row(layout, i)
        assert not row.flags.owndata  # a view into the layout's row table
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row.setflags(write=True)
        with pytest.raises(ValueError):
            row[0] = not row[0]
        assert row.tobytes() == reference_incremental_row(layout, i).tobytes()


# Each takes a valid grid's text and returns a mutated text.
TEXT_MUTATIONS = {
    "none": lambda text, k: text,
    "crlf": lambda text, k: text.replace("\n", "\r\n"),
    "vertical tab": lambda text, k: text.replace("\n", "\x0b"),
    "line separator": lambda text, k: text.replace("\n", "\u2028", k + 1),
    "blank lines": lambda text, k: text.replace("\n", "\n\n", k + 1),
    "leading blank line": lambda text, k: "\n" + text,
    "no final newline": lambda text, k: text[:-1],
    "last row runs on": lambda text, k: text[:-1] + "1",
    "a 2": lambda text, k: text[:k] + "2" + text[k + 1:],
    "an e acute": lambda text, k: text[:k] + "\u00e9" + text[k + 1:],
    "a space": lambda text, k: text[:k] + " " + text[k + 1:],
    "ragged": lambda text, k: text[:k] + text[k + 1:],
    "extra cell": lambda text, k: text[:k] + "1" + text[k:],
    "extra row": lambda text, k: text + text[:text.index("\n") + 1],
    "extra column": lambda text, k: text.replace("\n", "0\n"),
    "empty": lambda text, k: "",
}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from([1, 2, 7, 40, 300]),
       mutation=st.sampled_from(sorted(TEXT_MUTATIONS)))
def test_text_reader_equals_the_oracle_on_grids_and_mutations(seed, length, mutation) -> None:
    rng = np.random.default_rng(seed)
    text = mask_to_text(MaskMatrix(rng.random((length, length)) < 0.5))
    text = TEXT_MUTATIONS[mutation](text, int(rng.integers(0, len(text))))
    assert outcome(mask_from_text, text) == outcome(reference_mask_from_text, text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="01\n\r\x0b\u2028\u00e92 ", max_size=40))
def test_text_reader_equals_the_oracle_on_arbitrary_text(text) -> None:
    assert outcome(mask_from_text, text) == outcome(reference_mask_from_text, text)


# --- locate_layout ------------------------------------------------------------------

MARKERS = MarkerTable(
    video=(100, 101),
    audio=(102, 103),
    tag_open={"mod": 118, "v": 110, "a": 112, "sum": 114, "ans": 116},
    tag_close={"mod": 119, "v": 111, "a": 113, "sum": 115, "ans": 117},
)

# 12 tokens: video pair around one payload token, audio pair likewise, then
# a v-span and an a-span each wrapping one reasoning token.
SEQUENCE = [100, 5, 101, 102, 6, 103, 110, 7, 111, 112, 8, 113]


def test_locate_layout_hand_built_sequence() -> None:
    layout = locate_layout(SEQUENCE, MARKERS)
    assert layout.length == 12
    assert layout.video_input == {1}
    assert layout.audio_input == {4}
    assert layout.visual_reasoning == {7}
    assert layout.visual_span == {6, 7, 8}
    assert layout.audio_reasoning == {10}


def test_locate_layout_no_audio_tags_is_valid() -> None:
    sequence = [100, 5, 101, 110, 7, 111]
    layout = locate_layout(sequence, MARKERS)
    assert layout.audio_reasoning == frozenset()
    assert layout.visual_reasoning == {4}


def test_locate_layout_nested_tags_rejected() -> None:
    sequence = [100, 5, 101, 112, 110, 7, 111, 113]
    with pytest.raises(LayoutError, match="NestedTag"):
        locate_layout(sequence, MARKERS)


def test_locate_layout_duplicate_and_unpaired_markers() -> None:
    with pytest.raises(LayoutError, match="duplicated"):
        locate_layout([100, 1, 101, 100, 2, 101], MARKERS)
    with pytest.raises(LayoutError, match="unpaired"):
        locate_layout([100, 1], MARKERS)
    with pytest.raises(LayoutError, match="precedes"):
        locate_layout([101, 1, 100], MARKERS)


def test_locate_layout_tags_before_inputs_rejected() -> None:
    sequence = [110, 7, 111, 100, 5, 101]
    with pytest.raises(LayoutError, match="precede"):
        locate_layout(sequence, MARKERS)


# Marker tables: the standard one, one that names only some tags (the others
# are not located), and one whose ids coincide.
MARKER_TABLES = {
    "standard": MARKERS,
    "partial tags": MarkerTable(
        video=(100, 101), audio=(102, 103),
        tag_open={"v": 110, "a": 112, "sum": 114},
        tag_close={"v": 111, "a": 113, "sum": 115}),
    "shared ids": MarkerTable(
        video=(100, 101), audio=(101, 103),
        tag_open={"mod": 118, "v": 110, "a": 110, "sum": 114, "ans": 116},
        tag_close={"mod": 119, "v": 111, "a": 113, "sum": 114, "ans": 117}),
}


@pytest.mark.parametrize("tokens", [
    [100, 1, 102, 101, 2, 103],
    [102, 1, 100, 103, 2, 101],
    [100, 102, 103, 101, 110, 7, 111],
], ids=["crossing", "crossing-audio-first", "nested-empty"])
def test_locate_layout_overlapping_indicator_pairs_rejected(tokens) -> None:
    # Each input set is a clean interior here, but it holds the other pair's markers.
    for locate in (locate_layout, reference_locate_layout):
        with pytest.raises(LayoutError, match="^video and audio indicator pairs overlap$"):
            locate(tokens, MARKERS)


@pytest.mark.parametrize("side", ["tag_open", "tag_close"])
def test_marker_table_rejects_an_unknown_tag_name(side) -> None:
    # A misspelled name would otherwise never be located, dropping its rules.
    tags = {"tag_open": dict(MARKERS.tag_open), "tag_close": dict(MARKERS.tag_close)}
    tags[side]["A"] = tags[side].pop("a")
    with pytest.raises(LayoutError, match="^unknown tag name 'A'$"):
        MarkerTable(video=MARKERS.video, audio=MARKERS.audio, **tags)


@pytest.mark.parametrize("name", TAG_NAMES)
@pytest.mark.parametrize("missing", ["tag_open", "tag_close"])
def test_marker_table_rejects_a_tag_named_on_one_side_only(missing, name) -> None:
    # Such a pair would never be located, dropping its rules.
    tags = {"tag_open": dict(MARKERS.tag_open), "tag_close": dict(MARKERS.tag_close)}
    del tags[missing][name]
    with pytest.raises(LayoutError, match=f"^tag '{name}' has no {missing} id$"):
        MarkerTable(video=MARKERS.video, audio=MARKERS.audio, **tags)


@pytest.mark.parametrize("missing", ["tag_open", "tag_close"])
def test_marker_table_with_one_side_empty_names_the_first_tag(missing) -> None:
    tags = {"tag_open": dict(MARKERS.tag_open), "tag_close": dict(MARKERS.tag_close)}
    tags[missing] = {}
    with pytest.raises(LayoutError, match=f"^tag 'mod' has no {missing} id$"):
        MarkerTable(video=MARKERS.video, audio=MARKERS.audio, **tags)


def test_locate_layout_without_tag_ids_reads_tags_as_payload() -> None:
    # With no tag ids named, SEQUENCE's tag tokens are ordinary tokens: only
    # the input sets are located.
    layout = locate_layout(SEQUENCE, MarkerTable(video=MARKERS.video, audio=MARKERS.audio))
    assert (layout.video_input, layout.audio_input) == ({1}, {4})
    assert layout.visual_span == layout.audio_reasoning == frozenset()
    assert layout == reference_locate_layout(
        SEQUENCE, MarkerTable(video=MARKERS.video, audio=MARKERS.audio))


def test_locate_layout_touching_indicator_pairs_are_valid() -> None:
    # Under the shared ids, 101 ends the video pair and starts the audio pair.
    layout = locate_layout([100, 1, 101, 2, 103], MARKER_TABLES["shared ids"])
    assert layout.video_input == {1}
    assert layout.audio_input == {3}
    assert layout == reference_locate_layout([100, 1, 101, 2, 103], MARKER_TABLES["shared ids"])


def render_stream(rng: np.random.Generator) -> list[int]:
    """A valid stream under ``MARKERS``: optional input pairs, then optional
    tag pairs in order, each around 0-3 payload tokens."""
    payload = lambda: [int(t) for t in rng.integers(0, 100, size=rng.integers(0, 4))]
    tokens = []
    for start, end in (MARKERS.video, MARKERS.audio):
        if rng.random() < 0.8:
            tokens += [start, *payload(), end]
    for name in ("mod", "v", "a", "sum", "ans"):
        if rng.random() < 0.8:
            tokens += [MARKERS.tag_open[name], *payload(), MARKERS.tag_close[name]]
    return tokens or [5]


def mutate_stream(rng: np.random.Generator, tokens: list[int]) -> list[int]:
    """Duplicate, drop, swap or move tokens, so markers get duplicated,
    unpaired, reversed or nested."""
    tokens = list(tokens)
    for _ in range(int(rng.integers(0, 4))):
        kind, k = rng.integers(0, 4), int(rng.integers(0, len(tokens)))
        if kind == 0:
            tokens.insert(int(rng.integers(0, len(tokens) + 1)), tokens[k])
        elif kind == 1 and len(tokens) > 1:
            del tokens[k]
        elif kind == 2:
            j = int(rng.integers(0, len(tokens)))
            tokens[k], tokens[j] = tokens[j], tokens[k]
        else:
            tokens.insert(int(rng.integers(0, len(tokens))), tokens.pop(k))
    return tokens


@pytest.mark.parametrize("table", sorted(MARKER_TABLES))
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_locate_layout_equals_the_oracle_on_mutated_streams(table, seed) -> None:
    rng = np.random.default_rng(seed)
    tokens = mutate_stream(rng, render_stream(rng))
    markers = MARKER_TABLES[table]
    assert outcome(locate_layout, tokens, markers) == outcome(
        reference_locate_layout, tokens, markers)


def test_locate_layout_equals_the_oracle_on_the_empty_stream() -> None:
    assert outcome(locate_layout, [], MARKERS) == outcome(reference_locate_layout, [], MARKERS)


# --- layout specs ---------------------------------------------------------------------

FIXTURE_SPEC = {
    "length": 6,
    "video_input": [[0, 0]],
    "audio_input": [[1, 1]],
    "visual_reasoning": [[2, 2]],
    "visual_span": [[2, 2]],
    "audio_reasoning": [[3, 3]],
}


def test_layout_from_spec_resolves_fixture(fixture_layout) -> None:
    assert layout_from_spec(FIXTURE_SPEC) == fixture_layout


def test_layout_spec_validation() -> None:
    with pytest.raises(ValueError, match="length"):
        layout_from_spec({"video_input": [[0, 1]]})
    with pytest.raises(ValueError, match="reversed"):
        layout_from_spec({"length": 4, "video_input": [[2, 0]]})
    with pytest.raises(ValueError, match="unknown"):
        layout_from_spec({"length": 4, "noise": []})


def test_load_layout_spec_file(tmp_path, fixture_layout) -> None:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(FIXTURE_SPEC), encoding="utf-8")
    assert load_layout_spec(path) == fixture_layout


# --- exports ----------------------------------------------------------------------------

def test_mask_text_round_trip(fixture_layout) -> None:
    mask = build_composite(fixture_layout)
    text = mask_to_text(mask)
    assert mask_from_text(text) == mask
    assert text.splitlines()[3] == "010100"


def test_mask_rle_round_trip() -> None:
    rng = np.random.default_rng(77)
    for _ in range(20):
        layout = random_layout(rng, max_length=24)
        mask = build_composite(layout)
        assert mask_from_rle(mask_to_rle(mask)) == mask


def test_mask_rle_rejects_garbage() -> None:
    with pytest.raises(ValueError):
        mask_from_rle(b"not-a-record")


FIXTURE_RLE_HEX = (
    "4d524c31" "06000000" "01" "0f000000"  # magic, L=6, first bit 1, 15 runs
    "01000000" "05000000" "02000000" "04000000" "01000000"
    "01000000" "01000000" "04000000" "01000000" "01000000"
    "01000000" "02000000" "05000000" "01000000" "06000000"
)


def test_mask_rle_fixture_golden(fixture_layout) -> None:
    blob = mask_to_rle(build_composite(fixture_layout))
    assert blob == bytes.fromhex(FIXTURE_RLE_HEX)


def _export_cases() -> list[MaskMatrix]:
    rng = np.random.default_rng(2024)
    masks = [build_composite(random_layout(rng)) for _ in range(300)]
    masks.append(build_causal(1))
    masks.append(MaskMatrix(np.ones((7, 7), dtype=bool)))
    masks.append(MaskMatrix(np.zeros((5, 5), dtype=bool)))
    large = []
    while len(large) < 3:
        layout = random_layout(rng, max_length=400)
        if layout.length >= 300:
            large.append(build_composite(layout))
    return masks + large


@pytest.mark.parametrize("cells, text", [
    ([[1]], b"1\n"),
    ([[0, 1, 1, 0, 1]], b"01101\n"),
    ([[1], [0], [1]], b"1\n0\n1\n"),
    ([[1, 0, 0], [1, 1, 0]], b"100\n110\n"),
], ids=["1x1", "1x5", "3x1", "2x3"])
def test_text_grid_writes_a_line_per_row(cells, text) -> None:
    grid = text_grid(np.array(cells, dtype=bool))
    assert isinstance(grid, memoryview)
    assert bytes(grid) == text


def test_text_grid_matches_the_per_cell_encoder_on_any_shape() -> None:
    rng = np.random.default_rng(39)
    for rows, cols in [(1, 1), (1, 40), (40, 1), (7, 13), (13, 7), (64, 64)]:
        visible = rng.random((rows, cols)) < 0.5
        expected = "".join("".join("1" if cell else "0" for cell in row) + "\n"
                           for row in visible)
        assert bytes(text_grid(visible)) == expected.encode("ascii")
        # A strided, read-only view encodes the same as its copy.
        view = visible.T
        view.flags.writeable = False
        assert bytes(text_grid(view)) == bytes(text_grid(view.copy()))


def test_exports_byte_identical_to_reference_encoders() -> None:
    for mask in _export_cases():
        text = mask_to_text(mask)
        blob = mask_to_rle(mask)
        assert text == reference_mask_to_text(mask)
        assert blob == reference_mask_to_rle(mask)
        assert mask_from_text(text) == mask
        assert mask_from_rle(blob) == mask


def _rle(length: int, first_bit: int, runs: list[int]) -> bytes:
    return (b"MRL1" + struct.pack("<IBI", length, first_bit, len(runs))
            + struct.pack(f"<{len(runs)}I", *runs))


@pytest.mark.parametrize("blob, message", [
    (b"MRL1\x01", "not a mask"),
    (_rle(2, 1, [1, 3])[:-2], "bytes"),
    (_rle(2, 1, [1, 3]) + b"\x00", "bytes"),
    (_rle(0, 1, []), "length 0"),
    (_rle(2, 2, [1, 3]), "first bit"),
    (_rle(2, 1, [1, 2]), "cover"),
    # Each decodes to the grid mask_to_rle writes as first bit 1, runs [2, 2].
    (_rle(2, 0, [0, 2, 2]), "^mask run-length record run 0 is empty$"),
    (_rle(2, 1, [2, 0, 0, 2]), "^mask run-length record run 1 is empty$"),
])
def test_mask_rle_rejects_malformed_records(blob, message) -> None:
    with pytest.raises(ValueError, match=message):
        mask_from_rle(blob)


@pytest.mark.parametrize("text, message", [
    ("12\n11\n", "'2' is not 0 or 1"),
    ("10\n1\n", "row 1 has 1 cells"),
    ("1\u00e9\n11\n", "'\u00e9' is not 0 or 1"),
    ("\n\n", "no rows"),
    ("0\n1\n", "mask must be a square matrix"),
    ("10\r\n01\r\n", r"row 0 column 2: '\\r' is not 0 or 1"),
    ("10\n\n01\n", "row 1 is blank"),
    ("10\n01", r'row 1 does not end in "\\n"'),
])
def test_mask_text_rejects_malformed_grids(text, message) -> None:
    with pytest.raises(ValueError, match=message):
        mask_from_text(text)


def test_mask_matrix_is_immutable(fixture_layout) -> None:
    mask = build_composite(fixture_layout)
    # Every builder and reader.
    for made in (mask, build_causal(6), mask_from_text(mask_to_text(mask)),
                 mask_from_rle(mask_to_rle(mask))):
        with pytest.raises(ValueError):
            made.visible[0, 0] = False
