import dataclasses
import math
import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sffuse import attention_core
from sffuse.attention_core import (
    AttentionInputs,
    AttentionWeights,
    FullyBlockedRowError,
    attention_allocation,
    attention_gradients,
    gradient_check,
    leakage_probe,
    masked_attention,
    read_weights_jsonl,
)
from sffuse.mask_engine import (
    BLOCKED_ROLE_PAIRS,
    MaskMatrix,
    TokenLayout,
    build_causal,
    build_composite,
)

from conftest import (
    blocked_cells,
    brute_force_mask,
    random_layout,
    reference_attention_gradients,
    reference_masked_attention,
    write_weights_jsonl,
)

# Measured once on seed 0 with the default layout and frozen here; the probe
# must reproduce it and must stay strictly positive.
PINNED_NO_MAAM_LEAKAGE_SEED0 = 0.40773659582707406


def oracle_attention(q, k, v, scale, visible):
    """Independent dense softmax with explicit visibility filtering."""
    n, _ = q.shape
    weights = np.zeros((n, n))
    for i in range(n):
        cols = [j for j in range(n) if visible[i, j]]
        logits = [scale * float(np.dot(q[i], k[j])) for j in cols]
        peak = max(logits)
        exps = [math.exp(x - peak) for x in logits]
        total = sum(exps)
        for j, e in zip(cols, exps):
            weights[i, j] = e / total
    return weights @ v, weights


def random_inputs(rng, layout, dim=4):
    mask = build_composite(layout)
    return AttentionInputs(
        q=rng.normal(size=(layout.length, dim)),
        k=rng.normal(size=(layout.length, dim)),
        v=rng.normal(size=(layout.length, dim)),
        mask=mask,
    )


# --- masked attention --------------------------------------------------------

def test_zero_queries_give_uniform_rows(fixture_layout) -> None:
    n = fixture_layout.length
    inputs = AttentionInputs(
        q=np.zeros((n, 3)), k=np.zeros((n, 3)), v=np.ones((n, 3)),
        mask=build_composite(fixture_layout))
    _, weights = masked_attention(inputs)
    visible = inputs.mask.visible
    for i in range(n):
        count = int(visible[i].sum())
        for j in range(n):
            expected = 1.0 / count if visible[i, j] else 0.0
            assert weights.matrix[i, j] == pytest.approx(expected, abs=1e-12)


def test_causal_first_row_is_one_zero() -> None:
    rng = np.random.default_rng(3)
    inputs = AttentionInputs(q=rng.normal(size=(2, 4)), k=rng.normal(size=(2, 4)),
                             v=rng.normal(size=(2, 4)), mask=build_causal(2))
    _, weights = masked_attention(inputs)
    assert weights.matrix[0].tolist() == [1.0, 0.0]


def test_fixture_mask_blocks_exactly(fixture_layout) -> None:
    rng = np.random.default_rng(5)
    inputs = random_inputs(rng, fixture_layout)
    output, weights = masked_attention(inputs)
    assert weights.matrix[3, 0] == 0.0
    assert weights.matrix[3, 2] == 0.0
    assert weights.matrix[2, 1] == 0.0
    oracle_out, oracle_w = oracle_attention(
        inputs.q, inputs.k, inputs.v, inputs.scale, inputs.mask.visible)
    np.testing.assert_allclose(weights.matrix, oracle_w, atol=1e-12)
    np.testing.assert_allclose(output, oracle_out, atol=1e-12)


def test_rows_stochastic_and_blocked_exact_on_random_layouts() -> None:
    rng = np.random.default_rng(17)
    for _ in range(25):
        layout = random_layout(rng, max_length=24)
        inputs = random_inputs(rng, layout)
        _, weights = masked_attention(inputs)
        sums = weights.matrix.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        blocked = ~inputs.mask.visible
        assert (weights.matrix[blocked] == 0.0).all()


def test_fully_blocked_row_rejected() -> None:
    visible = np.ones((2, 2), dtype=bool)
    visible[1] = False
    inputs_mask = MaskMatrix(visible)
    with pytest.raises(FullyBlockedRowError, match=r"^mask rows fully blocked: \[1\]$"):
        masked_attention(AttentionInputs(
            q=np.zeros((2, 2)), k=np.zeros((2, 2)), v=np.zeros((2, 2)),
            mask=inputs_mask))


def test_fully_blocked_rows_are_named_before_an_overflow() -> None:
    # Row 0's logits overflow; rows 1 and 3 see no key, whatever their logits.
    visible = np.tri(4, dtype=bool)
    visible[[1, 3]] = False
    big = np.full((4, 2), 1e154)
    inputs = AttentionInputs(q=big, k=big, v=np.ones((4, 2)), mask=MaskMatrix(visible))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FullyBlockedRowError, match=r"^mask rows fully blocked: \[1, 3\]$"):
            masked_attention(inputs)


def test_inputs_validation() -> None:
    mask = build_causal(2)
    with pytest.raises(ValueError, match="shape"):
        AttentionInputs(q=np.zeros((2, 3)), k=np.zeros((2, 2)),
                        v=np.zeros((2, 3)), mask=mask)
    with pytest.raises(ValueError, match="finite"):
        AttentionInputs(q=np.full((2, 2), np.nan), k=np.zeros((2, 2)),
                        v=np.zeros((2, 2)), mask=mask)
    with pytest.raises(ValueError, match="^feature dimension must be >= 1$"):
        AttentionInputs(q=np.zeros((2, 0)), k=np.zeros((2, 0)), v=np.zeros((2, 0)), mask=mask)
    with pytest.raises(ValueError, match="^mask length must match sequence length$"):
        AttentionInputs(q=np.zeros((3, 2)), k=np.zeros((3, 2)), v=np.zeros((3, 2)), mask=mask)
    with pytest.raises(ValueError, match="^weights must be a square matrix$"):
        AttentionWeights(np.zeros((2, 3)))
    inputs = AttentionInputs(q=np.zeros((2, 2)), k=np.zeros((2, 2)), v=np.zeros((2, 2)),
                             mask=mask)
    with pytest.raises(ValueError, match="^d_output must match the output shape$"):
        attention_gradients(inputs, np.ones((2, 3)))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 31, 32, 33, 64])
def test_logits_are_scaled_by_one_over_root_dim(dim) -> None:
    # Row 1's logits are q[1] . k = [dim, 0], so its weights are the softmax
    # of [sqrt(dim), 0].
    ones, zeros = np.ones(dim), np.zeros(dim)
    inputs = AttentionInputs(q=np.array([zeros, ones]), k=np.array([ones, zeros]),
                             v=np.zeros((2, dim)), mask=build_causal(2))
    assert inputs.scale == 1.0 / math.sqrt(dim)
    _, weights = masked_attention(inputs)
    top = math.exp(math.sqrt(dim))
    assert weights.matrix[1].tolist() == pytest.approx([top / (top + 1), 1 / (top + 1)],
                                                       rel=1e-12)


@pytest.mark.parametrize("how", ["init", "replace"])
def test_scale_is_derived_not_passed(how) -> None:
    inputs = AttentionInputs(q=np.zeros((2, 4)), k=np.zeros((2, 4)), v=np.zeros((2, 4)),
                             mask=build_causal(2))
    with pytest.raises((TypeError, ValueError), match="scale"):
        if how == "init":
            AttentionInputs(q=inputs.q, k=inputs.k, v=inputs.v, mask=inputs.mask, scale=1.0)
        else:
            dataclasses.replace(inputs, scale=1.0)
    # A rebuild with another feature dimension derives its own scale.
    wider = dataclasses.replace(inputs, q=np.zeros((2, 9)), k=np.zeros((2, 9)),
                                v=np.zeros((2, 9)))
    assert (inputs.scale, wider.scale) == (0.5, 1.0 / 3.0)


@pytest.mark.parametrize("q_row, row", [([1.0, 1.0], 0), ([0.0, 0.0], 1)])
def test_weights_reject_overflowing_logits(q_row, row) -> None:
    # Finite inputs whose scaled logits overflow: all-NaN weights before.
    q = 1e154 * np.array([q_row, [1.0, 1.0], [0.0, 0.0]])
    inputs = AttentionInputs(q=q, k=np.full((3, 2), 1e154), v=np.ones((3, 2)),
                             mask=build_causal(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^attention logits overflow in row {row}$"):
            masked_attention(inputs)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_gradients_reject_a_non_finite_d_output(value) -> None:
    # An all-inf d_output gave NaN gradients and three RuntimeWarnings.
    inputs = AttentionInputs(q=np.ones((2, 2)), k=np.ones((2, 2)), v=np.ones((2, 2)),
                             mask=build_causal(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^d_output contains non-finite entries$"):
            attention_gradients(inputs, np.full((2, 2), value))
        d_output = np.ones((2, 2))
        d_output[1, 0] = value
        with pytest.raises(ValueError, match="^d_output contains non-finite entries$"):
            attention_gradients(inputs, d_output)


# (min, max) sequence length: a single token, short layouts, L >= 256, and
# lengths on either side of one and two 64-row backward panels.
LENGTHS = {"one": (1, 1), "short": (2, 40), "long": (256, 320),
           **{f"panel{n}": (n, n) for n in (63, 64, 65, 128, 129)}}


def oracle_test_mask(rng, layout, kind):
    """The layout's composite mask, or a non-causal one over its length:
    every cell visible, or random cells with at least one visible per row."""
    n = layout.length
    if kind == "composite":
        return build_composite(layout)
    if kind == "all-visible":
        return MaskMatrix(np.ones((n, n), dtype=bool))
    visible = rng.random((n, n)) < rng.random()
    visible[np.arange(n), rng.integers(0, n, size=n)] = True
    return MaskMatrix(visible)


@pytest.mark.parametrize("lengths", sorted(LENGTHS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 4, 64]),
       default_upstream=st.booleans(),
       mask_kind=st.sampled_from(["composite", "random", "all-visible"]))
def test_kernel_bytes_equal_the_dense_oracle(lengths, seed, dim, default_upstream,
                                             mask_kind) -> None:
    rng = np.random.default_rng(seed)
    low, high = LENGTHS[lengths]
    layout = random_layout(rng, max_length=high, min_length=low)
    inputs = AttentionInputs(
        q=rng.normal(size=(layout.length, dim)), k=rng.normal(size=(layout.length, dim)),
        v=rng.normal(size=(layout.length, dim)), mask=oracle_test_mask(rng, layout, mask_kind))
    d_output = None if default_upstream else rng.normal(size=(layout.length, dim))
    output, weights = masked_attention(inputs)
    gradients = attention_gradients(inputs, d_output)
    ref_output, ref_weights = reference_masked_attention(inputs)
    ref_gradients = reference_attention_gradients(inputs, d_output)
    assert weights.matrix.tobytes() == ref_weights.tobytes()
    assert output.tobytes() == ref_output.tobytes()
    for got, want in zip(gradients, ref_gradients):
        assert got.tobytes() == want.tobytes()


def test_an_overflowing_blocked_logit_gets_weight_zero() -> None:
    # q[0] . k[1] = 1e400 = inf at the causally blocked cell (0, 1); every
    # visible logit is finite, so exp must never see the blocked one.
    q = np.array([[1e200, 0.0], [0.0, 1.0]])
    k = np.array([[0.0, 1.0], [1e200, 0.0]])
    inputs = AttentionInputs(q=q, k=k, v=np.ones((2, 2)), mask=build_causal(2))
    with np.errstate(over="ignore"):
        assert np.isinf((q @ k.T)[0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        output, weights = masked_attention(inputs)
        gradients = attention_gradients(inputs)
    assert np.isfinite(weights.matrix).all()
    assert weights.matrix[0].tolist() == [1.0, 0.0]
    assert np.isfinite(output).all()
    assert all(np.isfinite(grad).all() for grad in gradients)


def test_gradients_peak_below_two_weight_matrices() -> None:
    # The softmax backward keeps one L x L matrix (the logit gradients) plus
    # a panel of rows; a second full-size temporary would reach 2 L^2 floats.
    n = 512
    rng = np.random.default_rng(11)
    inputs = AttentionInputs(q=rng.normal(size=(n, 64)), k=rng.normal(size=(n, 64)),
                             v=rng.normal(size=(n, 64)), mask=build_causal(n))
    inputs.weights  # computed before the measured call
    tracemalloc.start()
    try:
        attention_gradients(inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8


def test_masked_attention_returns_the_cached_weights(fixture_layout) -> None:
    inputs = random_inputs(np.random.default_rng(7), fixture_layout)
    assert masked_attention(inputs)[1] is inputs.weights
    assert masked_attention(inputs)[1] is inputs.weights


def test_gradients_do_not_run_the_forward_again(fixture_layout, monkeypatch) -> None:
    forward_calls, softmax_calls = [], []
    forward = attention_core.masked_attention
    softmax = AttentionInputs.__dict__["weights"].func

    def counted_forward(inputs):
        forward_calls.append(inputs)
        return forward(inputs)

    def counted_softmax(inputs):
        softmax_calls.append(inputs)
        return softmax(inputs)

    counted = cached_property(counted_softmax)
    counted.__set_name__(AttentionInputs, "weights")
    monkeypatch.setattr(attention_core, "masked_attention", counted_forward)
    monkeypatch.setattr(AttentionInputs, "weights", counted)
    inputs = random_inputs(np.random.default_rng(8), fixture_layout)
    attention_core.masked_attention(inputs)
    attention_core.attention_gradients(inputs)
    assert len(forward_calls) == 1
    assert len(softmax_calls) == 1


def test_inputs_hold_copies_of_the_callers_arrays(fixture_layout) -> None:
    rng = np.random.default_rng(9)
    q, k, v = (rng.normal(size=(fixture_layout.length, 4)) for _ in range(3))
    mask = build_composite(fixture_layout)
    inputs = AttentionInputs(q=q, k=k, v=v, mask=mask)
    untouched = AttentionInputs(q=q.copy(), k=k, v=v, mask=mask)
    q[:] = 5.0
    assert inputs.weights.matrix.tobytes() == untouched.weights.matrix.tobytes()
    assert attention_gradients(inputs)[1].tobytes() == attention_gradients(untouched)[1].tobytes()


def test_inputs_and_weights_are_read_only(fixture_layout) -> None:
    inputs = random_inputs(np.random.default_rng(10), fixture_layout)
    for arr in (inputs.q, inputs.k, inputs.v, masked_attention(inputs)[1].matrix):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("size", [1, 2])
def test_attention_objects_compare_and_hash_by_identity(fixture_layout, size) -> None:
    first, second = AttentionWeights(np.eye(size)), AttentionWeights(np.eye(size))
    inputs = random_inputs(np.random.default_rng(11), fixture_layout)
    twin = AttentionInputs(q=inputs.q, k=inputs.k, v=inputs.v, mask=inputs.mask)
    assert first == first and first != second
    assert inputs == inputs and inputs != twin
    assert len({first, second, inputs, twin}) == 4
    assert np.array_equal(first.matrix, second.matrix)


def test_mask_monotonicity_extra_block_renormalizes_upward(fixture_layout) -> None:
    rng = np.random.default_rng(29)
    inputs = random_inputs(rng, fixture_layout)
    _, base = masked_attention(inputs)
    # Block one currently-visible off-diagonal cell of row 4.
    visible = inputs.mask.visible.copy()
    row = 4
    col = next(j for j in range(row) if visible[row, j])
    visible[row, col] = False
    stricter = AttentionInputs(q=inputs.q, k=inputs.k, v=inputs.v, mask=MaskMatrix(visible))
    _, tightened = masked_attention(stricter)
    for j in range(inputs.mask.length):
        if visible[row, j]:
            assert tightened.matrix[row, j] >= base.matrix[row, j] - 1e-15
    _, oracle_w = oracle_attention(inputs.q, inputs.k, inputs.v, inputs.scale, visible)
    np.testing.assert_allclose(tightened.matrix, oracle_w, atol=1e-12)


# --- gradients -----------------------------------------------------------------

def test_gradient_check_zero_inputs() -> None:
    inputs = AttentionInputs(q=np.zeros((3, 2)), k=np.zeros((3, 2)),
                             v=np.zeros((3, 2)), mask=build_causal(3))
    assert gradient_check(inputs, step=1e-4) < 1e-8


def test_gradient_check_random_causal() -> None:
    rng = np.random.default_rng(41)
    inputs = AttentionInputs(q=rng.normal(size=(4, 3)), k=rng.normal(size=(4, 3)),
                             v=rng.normal(size=(4, 3)), mask=build_causal(4))
    assert gradient_check(inputs, step=1e-4) < 1e-4


def test_gradient_check_five_seeds_with_asymmetric_masks() -> None:
    for seed in range(5):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng, max_length=10)
        inputs = random_inputs(rng, layout, dim=3)
        assert gradient_check(inputs, step=1e-4) < 1e-4


@pytest.mark.parametrize("dim", [1, 4, 64])
def test_gradient_check_at_each_feature_dimension(dim) -> None:
    # The probes that gradient_check builds derive their scale from d as the
    # checked inputs do, so the numeric and analytic gradients agree at any d.
    rng = np.random.default_rng(dim)
    inputs = AttentionInputs(q=rng.normal(size=(4, dim)), k=rng.normal(size=(4, dim)),
                             v=rng.normal(size=(4, dim)), mask=build_causal(4))
    assert gradient_check(inputs, step=1e-4) < 1e-4


def test_gradient_check_step_bounds(fixture_layout) -> None:
    rng = np.random.default_rng(2)
    inputs = random_inputs(rng, fixture_layout)
    with pytest.raises(ValueError):
        gradient_check(inputs, step=1e-2)


def test_blocked_pair_gets_zero_gradient(fixture_layout) -> None:
    """No gradient flows to key row 1 through the blocked query row 2."""
    rng = np.random.default_rng(43)
    inputs = random_inputs(rng, fixture_layout)
    upstream = np.zeros_like(inputs.q)
    upstream[2] = 1.0  # loss depends on output row 2 only
    _, d_k, _ = attention_gradients(inputs, upstream)
    assert np.all(d_k[1] == 0.0)

    # Finite-difference probe of the same blocked path.
    def row2_loss(k):
        probe = AttentionInputs(q=inputs.q, k=k, v=inputs.v, mask=inputs.mask)
        out, _ = masked_attention(probe)
        return float(out[2].sum())

    step = 1e-4
    for col in range(inputs.k.shape[1]):
        plus = inputs.k.copy()
        minus = inputs.k.copy()
        plus[1, col] += step
        minus[1, col] -= step
        assert abs(row2_loss(plus) - row2_loss(minus)) / (2 * step) < 1e-9


def test_gradient_check_with_row_restricted_loss(fixture_layout) -> None:
    rng = np.random.default_rng(47)
    inputs = random_inputs(rng, fixture_layout)
    upstream = np.zeros_like(inputs.q)
    upstream[2] = 1.0
    assert gradient_check(inputs, step=1e-4, d_output=upstream) < 1e-4


# --- allocation ------------------------------------------------------------------

ALLOC_LAYOUT = TokenLayout(
    length=10,
    visual_reasoning={2, 3},
    visual_span={1, 2, 3, 4},
    audio_reasoning={5, 6},
    summary_span={8, 9},
)


def _weights_with(rows, cols_to_mass, length=10):
    matrix = np.zeros((length, length))
    for i in rows:
        for j, mass in cols_to_mass.items():
            matrix[i, j] = mass
        matrix[i, 0] += 1.0 - sum(cols_to_mass.values())
    for i in range(length):
        if matrix[i].sum() == 0:
            matrix[i, 0] = 1.0
    return matrix


def test_allocation_all_mass_on_audio_span() -> None:
    layer = _weights_with((8, 9), {5: 0.3, 6: 0.2})
    report = attention_allocation([layer], ALLOC_LAYOUT, last_k=1)
    assert report.audio_fraction == pytest.approx(1.0)
    assert report.visual_fraction == pytest.approx(0.0)


def test_allocation_equal_split() -> None:
    layer = _weights_with((8, 9), {2: 0.2, 3: 0.1, 5: 0.1, 6: 0.2})
    report = attention_allocation([layer], ALLOC_LAYOUT, last_k=1)
    assert report.audio_fraction == pytest.approx(0.5)
    assert report.visual_fraction == pytest.approx(0.5)


def test_allocation_three_layer_stack_matches_brute_summation() -> None:
    rng = np.random.default_rng(53)
    layers = []
    for _ in range(3):
        matrix = rng.random(size=(10, 10))
        matrix /= matrix.sum(axis=1, keepdims=True)
        layers.append(matrix)
    report = attention_allocation(layers, ALLOC_LAYOUT, last_k=3)
    # AttentionWeights layers, as masked_attention returns them, read the same.
    wrapped = [AttentionWeights(matrix) for matrix in layers]
    assert attention_allocation(wrapped, ALLOC_LAYOUT, last_k=3) == report

    audio = visual = 0.0
    for matrix in layers:
        for i in (8, 9):
            for j in (5, 6):
                audio += matrix[i, j]
            for j in (2, 3):
                visual += matrix[i, j]
    assert report.audio_fraction == pytest.approx(audio / (audio + visual), abs=1e-12)
    assert report.visual_fraction == pytest.approx(visual / (audio + visual), abs=1e-12)
    assert report.audio_fraction + report.visual_fraction == pytest.approx(1.0, abs=1e-9)
    assert len(report.per_layer) == 3


def test_allocation_window_takes_last_k_layers() -> None:
    early = _weights_with((8, 9), {5: 0.5})          # all audio
    late = _weights_with((8, 9), {2: 0.5})           # all visual
    report = attention_allocation([early, late], ALLOC_LAYOUT, last_k=1)
    assert report.visual_fraction == pytest.approx(1.0)


def test_allocation_head_mass_averaged_before_normalization() -> None:
    head_a = _weights_with((8, 9), {5: 0.4})
    head_b = _weights_with((8, 9), {2: 0.2})
    layer = np.mean([head_a, head_b], axis=0)  # a multi-head layer is one mean matrix
    report = attention_allocation([layer], ALLOC_LAYOUT, last_k=1)
    assert report.audio_fraction == pytest.approx(0.4 / 0.6)


def test_allocation_errors() -> None:
    layer = _weights_with((8, 9), {5: 0.5})
    with pytest.raises(ValueError, match="last_k"):
        attention_allocation([layer], ALLOC_LAYOUT, last_k=2)
    with pytest.raises(ValueError, match="^layout has no summary_span positions$"):
        attention_allocation([layer], TokenLayout(length=10), last_k=1)
    no_mass = _weights_with((8, 9), {})
    with pytest.raises(ValueError, match="zero attention mass"):
        attention_allocation([no_mass], ALLOC_LAYOUT, last_k=1)


def test_allocation_rejects_a_negative_cell_it_reads() -> None:
    layer = _weights_with((8, 9), {2: 0.2, 5: 0.3})
    negative = layer.copy()
    negative[9, 6] = -0.01
    with pytest.raises(ValueError, match=r"^layer\[-1\] weights hold a negative value$"):
        attention_allocation([layer, negative], ALLOC_LAYOUT, last_k=2)
    with pytest.raises(ValueError, match=r"^layer\[-2\] weights hold a negative value$"):
        attention_allocation([negative, layer], ALLOC_LAYOUT, last_k=2)
    # A cell no report reads may be negative, and -0.0 is not negative.
    unread = layer.copy()
    unread[7, 6] = -0.5
    unread[8, 3] = -0.0
    assert attention_allocation([unread], ALLOC_LAYOUT, last_k=1) == attention_allocation(
        [layer], ALLOC_LAYOUT, last_k=1)


def test_allocation_without_an_audio_span_is_all_visual() -> None:
    layout = TokenLayout(length=10, visual_reasoning={2, 3}, visual_span={1, 2, 3, 4},
                         summary_span={8, 9})
    layer = _weights_with((8, 9), {2: 0.2, 5: 0.3})
    report = attention_allocation([layer], layout, last_k=1)
    assert (report.audio_fraction, report.visual_fraction) == (0.0, 1.0)


# --- leakage probe ------------------------------------------------------------------

def test_leakage_zero_with_asymmetric_mask() -> None:
    for seed in (0, 1, 2):
        report = leakage_probe(seed, use_maam=True)
        assert report.direct_leakage == 0.0
        assert report.blocked_pair_mass == 0.0


def test_leakage_positive_without_mask_pinned_seed() -> None:
    report = leakage_probe(0, use_maam=False)
    assert report.direct_leakage > 0.0
    assert report.direct_leakage == pytest.approx(PINNED_NO_MAAM_LEAKAGE_SEED0, rel=1e-6)


def test_leakage_zero_when_no_audio_roles() -> None:
    layout = TokenLayout(length=13, video_input=range(0, 4), visual_reasoning=range(7, 10),
                         visual_span=range(6, 11), summary_span=range(11, 13))
    assert leakage_probe(0, layout, use_maam=True).direct_leakage == 0.0
    assert leakage_probe(0, layout, use_maam=False).direct_leakage == 0.0


def test_leakage_normalizes_by_the_rule_query_rows() -> None:
    rng = np.random.default_rng(31)
    for seed in range(25):
        layout = random_layout(rng, max_length=32)
        report = leakage_probe(seed, layout, use_maam=False)
        q = sum(1 for i in range(layout.length)
                if any(i in getattr(layout, query) for query, _ in BLOCKED_ROLE_PAIRS))
        expected = report.blocked_pair_mass / (q * 3) if q else 0.0
        assert report.direct_leakage == expected


def test_leakage_blocked_cells_match_brute_force() -> None:
    layout = TokenLayout(length=14, video_input=range(0, 2), audio_input=range(2, 4),
                         visual_reasoning=range(6, 8), audio_reasoning=range(10, 12),
                         visual_span=range(5, 9), summary_span=range(13, 14))
    # The probe sums weights over exactly these cells: causally visible, rule-blocked.
    blocked = build_causal(layout.length).visible & ~build_composite(layout).visible
    rows, cols = np.nonzero(blocked)
    oracle = brute_force_mask(layout)
    causal_extra = {(i, j) for (i, j) in blocked_cells(oracle) if j <= i}
    assert causal_extra
    assert set(zip(rows.tolist(), cols.tolist())) == causal_extra


# --- persistence ----------------------------------------------------------------------

@pytest.mark.parametrize("line", ['{"shape": [2, 2]}', '{"shape": 3, "data": [1]}', '[1]'])
def test_read_weights_rejects_bad_records_with_their_place(tmp_path, line) -> None:
    path = tmp_path / "weights.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"weights\.jsonl:1: "):
        read_weights_jsonl(path)


@pytest.mark.parametrize("line, message", [
    ('{"shape": [], "data": null}', r"shape \[\] is not 2-D"),
    ('{"shape": [2], "data": [1, 2]}', r"shape \[2\] is not 2-D"),
    ('{"shape": [2, 2], "data": [1, 2, 3]}', r"data has 3 numbers, shape \[2, 2\] needs 4$"),
    ('{"shape": [2, 1], "data": [[1], [2, 3]]}', "data must hold finite numbers$"),
])
def test_read_weights_requires_a_2d_layer(tmp_path, line, message) -> None:
    path = tmp_path / "weights.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"weights\.jsonl:1: .*{message}"):
        read_weights_jsonl(path)


@pytest.mark.parametrize("data", ['["0.5", true]', "[0.5, true]", "[false, 0.5]",
                                  "[0.5, null]", '"0.5"', "0.5", "{}"])
def test_read_weights_rejects_data_that_is_not_json_numbers(tmp_path, data) -> None:
    # ["0.5", true] would load as [0.5, 1.0] if numpy coerced it.
    path = tmp_path / "weights.jsonl"
    path.write_text('{"shape": [1, 1], "data": [1.0]}\n'
                    f'{{"shape": [1, 2], "data": {data}}}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"weights\.jsonl:2: data must hold finite numbers$"):
        read_weights_jsonl(path)


@pytest.mark.parametrize("shape", ["[-1, 2]", "[2, -1]", "[0, 0]", "[2.0, 2]", "[true, 4]",
                                   '"2x2"', "null", "{}"])
def test_read_weights_rejects_shapes_that_are_not_positive_integers(tmp_path, shape) -> None:
    # [-1, 2] with four values would load as a 2 x 2 layer if numpy inferred the -1.
    path = tmp_path / "weights.jsonl"
    path.write_text(f'{{"shape": {shape}, "data": [0.5, 0.5, 0.5, 0.5]}}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"^.*weights\.jsonl:1: weights shape must be a list "
                                         r"of positive integers$"):
        read_weights_jsonl(path)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_read_weights_rejects_non_finite_values(tmp_path, value) -> None:
    path = tmp_path / "weights.jsonl"
    path.write_text('{"shape": [1, 1], "data": [1.0]}\n'
                    f'{{"shape": [1, 2], "data": [0.5, {value}]}}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"weights\.jsonl:2: data must hold finite numbers$"):
        read_weights_jsonl(path)


def test_weights_jsonl_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(61)
    layers = [rng.random(size=(5, 5)) for _ in range(3)]
    path = tmp_path / "weights.jsonl"
    write_weights_jsonl(path, layers)
    loaded = read_weights_jsonl(path)
    assert len(loaded) == 3
    for original, restored in zip(layers, loaded):
        np.testing.assert_array_equal(original, restored)
