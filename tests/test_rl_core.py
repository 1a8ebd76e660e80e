import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_group_advantages, reference_grpo_objective, reference_parse_trace
from sffuse.normalize import answers_match
from sffuse.rl_core import (
    GroupError,
    GrpoConfig,
    RewardConfig,
    RolloutGroup,
    group_advantages,
    grpo_gradient_logp_new,
    grpo_objective,
    grpo_objectives,
    read_rollout_groups,
    reward_stage2,
    score_trace,
)
from sffuse import rl_core
from sffuse.tag_grammar import PemLabel

GOOD = "<mod>Audio</mod><v>sheep visible</v><a>barking only</a><sum>dog barks</sum><ans>collie</ans>"
BAD_STRUCTURE = "<mod>Audio</mod><v>sheep</v><ans>collie</ans>"


# --- rewards -------------------------------------------------------------------

def test_reward_mps_correct_label() -> None:
    assert score_trace(GOOD, PemLabel.AUDIO, "collie").r_mps == 1


def test_reward_mps_label_mismatch() -> None:
    assert score_trace(GOOD, PemLabel.VISUAL, "collie").r_mps == 0


def test_reward_mps_malformed() -> None:
    assert score_trace(BAD_STRUCTURE, PemLabel.AUDIO, "collie").r_mps == 0


def test_reward_acc_case_fold() -> None:
    assert score_trace(GOOD, PemLabel.AUDIO, "Collie").r_acc == 1


def test_reward_acc_mismatch() -> None:
    assert score_trace(GOOD, PemLabel.AUDIO, "sheep").r_acc == 0


def test_reward_acc_missing_ans_tag() -> None:
    assert score_trace(BAD_STRUCTURE, PemLabel.AUDIO, "collie").r_acc == 0


def test_reward_acc_normalization_pipeline() -> None:
    trace = GOOD.replace("<ans>collie</ans>", "<ans>  The   Collie. </ans>")
    assert score_trace(trace, PemLabel.AUDIO, "the collie").r_acc == 1


def test_reward_stage2_default_weights() -> None:
    assert reward_stage2(GOOD, PemLabel.AUDIO, "collie") == pytest.approx(1.2)
    assert reward_stage2(GOOD, PemLabel.VISUAL, "collie") == pytest.approx(1.0)
    assert reward_stage2(GOOD, PemLabel.AUDIO, "sheep") == pytest.approx(0.2)


def test_score_trace_equals_the_reference_predicates() -> None:
    texts = [GOOD, BAD_STRUCTURE, GOOD.replace("collie", "the Collie!"),
             GOOD.replace("Audio", "Visual"), GOOD + " stray", ""]
    cfg = RewardConfig(lambda_acc=0.7, lambda_mps=0.3)
    for text, gold_pem, answer in itertools.product(texts, PemLabel, ["collie", "sheep"]):
        score = score_trace(text, gold_pem, answer, cfg)
        trace, diags = reference_parse_trace(text)
        assert score.r_mps == int(trace is not None and trace.pem == gold_pem)
        assert score.r_acc == int(trace is not None and answers_match(trace.answer_text, answer))
        assert score.diagnostics == tuple(diags)
        assert (rl_core.reward_mps(text, gold_pem), rl_core.reward_acc(text, answer)) == (
            score.r_mps, score.r_acc)
        assert score.r_stage2 == reward_stage2(text, gold_pem, answer, cfg)
        assert score.r_stage2 == 0.7 * score.r_acc + 0.3 * score.r_mps


def test_score_trace_parses_once_and_keeps_diagnostics(monkeypatch) -> None:
    calls = []
    parse = rl_core.parse_trace
    monkeypatch.setattr(rl_core, "parse_trace", lambda text: calls.append(text) or parse(text))
    good = score_trace(GOOD, PemLabel.AUDIO, "collie")
    bad = score_trace(BAD_STRUCTURE, PemLabel.AUDIO, "collie")
    assert calls == [GOOD, BAD_STRUCTURE]
    assert (good.r_mps, good.r_acc, good.r_stage2, good.diagnostics) == (1, 1, 1.2, ())
    assert (bad.r_mps, bad.r_acc, bad.r_stage2) == (0, 0, 0.0)
    assert tuple(bad.diagnostics) == tuple(parse(BAD_STRUCTURE)[1])
    assert bad.diagnostics


def test_reward_config_validation() -> None:
    with pytest.raises(ValueError):
        RewardConfig(lambda_acc=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["lambda_acc", "lambda_mps"])
def test_reward_config_rejects_nan_weights(field, value) -> None:
    with pytest.raises(ValueError, match="reward weights must be nonnegative"):
        RewardConfig(**{field: value})


# --- advantages -----------------------------------------------------------------

def test_advantages_all_equal_rewards() -> None:
    assert group_advantages([0.7, 0.7, 0.7], 1e-8) == [0.0, 0.0, 0.0]
    assert group_advantages([0.7, 0.7], 0.0) == [0.0, 0.0]


@pytest.mark.parametrize("tiny", [1e-300, 5e-324])
def test_advantages_with_zero_eps_survive_underflowing_deviations(tiny) -> None:
    # The squared deviations underflow to 0; the group is not all equal.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert group_advantages([tiny, 0.0], 0.0) == [1.0, -1.0]
        assert group_advantages([0.0, tiny, tiny, 0.0], 0.0) == [-1.0, 1.0, 1.0, -1.0]
        assert group_advantages([tiny, tiny], 0.0) == [0.0, 0.0]


def test_advantages_hand_computed() -> None:
    # mean 0.5, population std 0.5
    assert group_advantages([1, 0, 0, 1], 0.0) == pytest.approx([1, -1, -1, 1])


def test_advantages_stage2_pair_is_antisymmetric() -> None:
    a = group_advantages([1.2, 0.2], 0.0)
    assert a[0] == pytest.approx(-a[1])
    assert a[0] == pytest.approx(1.0)  # (1.2-0.7)/0.5


def test_advantages_centering() -> None:
    rng = np.random.default_rng(3)
    for _ in range(50):
        rewards = rng.normal(size=int(rng.integers(2, 12))).tolist()
        adv = group_advantages(rewards, 1e-8)
        if np.var(rewards) > 0:
            assert abs(float(np.mean(adv))) <= 1e-9


def test_advantages_affine_invariance_with_zero_eps() -> None:
    rng = np.random.default_rng(5)
    for _ in range(50):
        rewards = rng.normal(size=6)
        if float(np.var(rewards)) == 0.0:
            continue
        scale = float(rng.uniform(0.1, 10.0))
        shift = float(rng.normal())
        base = group_advantages(rewards.tolist(), 0.0)
        mapped = group_advantages((scale * rewards + shift).tolist(), 0.0)
        assert mapped == pytest.approx(base, abs=1e-9)


def test_advantages_require_group_of_two() -> None:
    with pytest.raises(ValueError):
        group_advantages([1.0], 1e-8)


# --- KL estimator -----------------------------------------------------------------

def _kl(logp_new, logp_ref) -> float:
    """The objective's KL term for these log-probs, with equal rewards and
    logp_old = logp_new, so that no other check can fail first."""
    group = RolloutGroup(rewards=[0.0] * len(logp_new), logp_new=logp_new,
                         logp_old=logp_new, logp_ref=logp_ref)
    return grpo_objective(group, GrpoConfig()).kl


def test_kl_zero_for_identical_policies() -> None:
    assert _kl([-1.0, -2.0], [-1.0, -2.0]) == 0.0


def test_kl_ln2_closed_form() -> None:
    expected = 2.0 - math.log(2.0) - 1.0
    assert _kl([0.0, 0.0], [math.log(2), math.log(2)]) == pytest.approx(expected)


def test_advantages_reject_overflowing_rewards() -> None:
    # The mean of these finite rewards overflows: NaN advantages before.
    for rewards in ([1e308, 1e308, -1e308], [1e308, -1e308]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="reward variance overflows"):
                group_advantages(rewards, 1e-8)


def test_kl_rejects_an_overflowing_estimate() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="KL estimate overflows"):
            _kl([0.0, 0.0], [710.0, 0.0])
        assert math.isfinite(_kl([0.0, 0.0], [709.0, 0.0]))


def test_kl_rejects_an_overflowing_difference_without_a_warning() -> None:
    # Each log-prob is finite, but logp_ref - logp_new is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="KL estimate overflows"):
            _kl([-1e308, 0.0], [1e308, 0.0])


def test_objective_rejects_overflowing_surrogate_terms() -> None:
    # Each ratio exp(709) is finite, but ratio times advantage is not.
    group = RolloutGroup(rewards=[0.0] * 99 + [1.0], logp_new=[709.0] * 100,
                         logp_old=[0.0] * 100, logp_ref=[709.0] * 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="objective overflows"):
            grpo_objective(group, GrpoConfig())


@pytest.mark.parametrize("field, objective_error, gradient_error", [
    ("logp_new", "non-finite importance ratios", "non-finite importance ratios"),
    ("logp_ref", "KL estimate overflows", "gradient overflows"),
])
def test_gradient_rejects_an_overflow_like_the_objective(field, objective_error,
                                                         gradient_error) -> None:
    # exp(1000) overflows: as the first ratio when logp_new holds it, and as
    # exp(logp_ref - logp_new) in the KL term when logp_ref does.
    logps = {"logp_new": [0.0, 0.0], "logp_old": [0.0, 0.0], "logp_ref": [0.0, 0.0]}
    group = RolloutGroup(rewards=[1.0, 0.0], **{**logps, field: [1000.0, 0.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=objective_error):
            grpo_objective(group, GrpoConfig())
        with pytest.raises(ValueError, match=gradient_error):
            grpo_gradient_logp_new(group, GrpoConfig())


def test_kl_is_directional() -> None:
    assert _kl([0.0, 0.0], [1.0, 1.0]) != _kl([1.0, 1.0], [0.0, 0.0])


def test_kl_nonnegative_random() -> None:
    rng = np.random.default_rng(7)
    for _ in range(100):
        new = rng.normal(size=5)
        ref = rng.normal(size=5)
        assert _kl(new.tolist(), ref.tolist()) >= 0.0


def test_kl_validation() -> None:
    with pytest.raises(ValueError, match="logp_ref length differs"):
        _kl([0.0, 0.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="logp_new must hold finite numbers"):
        _kl([float("inf"), 0.0], [0.0, 0.0])


# --- GRPO objective ------------------------------------------------------------------

def _group(rewards, logp_new=None, logp_old=None, logp_ref=None):
    size = len(rewards)
    zeros = [0.0] * size
    return RolloutGroup(
        rewards=rewards,
        logp_new=zeros if logp_new is None else logp_new,
        logp_old=zeros if logp_old is None else logp_old,
        logp_ref=zeros if logp_ref is None else logp_ref,
    )


def test_objective_zero_for_equal_rewards() -> None:
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.0, eps_stab=1e-8)
    result = grpo_objective(_group([1.0, 1.0, 1.0]), cfg)
    assert result.objective == 0.0
    assert result.advantages == (0.0, 0.0, 0.0)


def test_objective_unit_ratios_binary_rewards() -> None:
    # (min(1,1)*1 + min(1,1)*(-1)) / 2 = 0
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.0, eps_stab=1e-8)
    result = grpo_objective(_group([1.0, 0.0]), cfg)
    assert result.objective == pytest.approx(0.0, abs=1e-12)
    assert result.surrogate_terms == pytest.approx((1.0, -1.0), abs=1e-4)


def test_clip_arithmetic_positive_advantage() -> None:
    # rho = 1.5 on the A=+1 sample: min(1.5, clip=1.2) * 1 = 1.2
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.0, eps_stab=1e-8)
    group = _group([1.0, 0.0], logp_new=[math.log(1.5), 0.0])
    result = grpo_objective(group, cfg)
    assert result.surrogate_terms[0] == pytest.approx(1.2, abs=1e-4)


def test_pessimism_never_exceeds_unclipped_surrogate() -> None:
    rng = np.random.default_rng(11)
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.0, eps_stab=1e-8)
    for _ in range(100):
        size = int(rng.integers(2, 8))
        group = RolloutGroup(
            rewards=rng.normal(size=size).tolist(),
            logp_new=rng.normal(scale=0.5, size=size).tolist(),
            logp_old=rng.normal(scale=0.5, size=size).tolist(),
            logp_ref=rng.normal(scale=0.5, size=size).tolist(),
        )
        result = grpo_objective(group, cfg)
        advantages = np.asarray(group_advantages(group.rewards, cfg.eps_stab))
        ratios = np.asarray(result.ratios)
        unclipped = float(np.mean(ratios * advantages))
        assert result.objective <= unclipped + 1e-12


def test_clip_inactive_means_exact_equality() -> None:
    rng = np.random.default_rng(13)
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.0, eps_stab=1e-8)
    for _ in range(50):
        size = int(rng.integers(2, 8))
        # Ratios within [0.9, 1.1], strictly inside the clip band.
        logp_old = rng.normal(size=size)
        logp_new = logp_old + rng.uniform(math.log(0.9), math.log(1.1), size=size)
        group = RolloutGroup(rewards=rng.normal(size=size).tolist(),
                             logp_new=logp_new.tolist(),
                             logp_old=logp_old.tolist(),
                             logp_ref=logp_old.tolist())
        result = grpo_objective(group, cfg)
        advantages = np.asarray(group_advantages(group.rewards, cfg.eps_stab))
        unclipped = float(np.mean(np.asarray(result.ratios) * advantages))
        assert result.objective == unclipped


def test_objective_includes_kl_penalty() -> None:
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.5, eps_stab=1e-8)
    group = _group([1.0, 1.0], logp_ref=[math.log(2), math.log(2)])
    result = grpo_objective(group, cfg)
    expected_kl = 2.0 - math.log(2.0) - 1.0
    assert result.kl == pytest.approx(expected_kl)
    assert result.objective == pytest.approx(-0.5 * expected_kl)


def test_rollout_group_validation() -> None:
    with pytest.raises(ValueError, match="G >= 2"):
        RolloutGroup(rewards=[1.0], logp_new=[0.0], logp_old=[0.0], logp_ref=[0.0])
    with pytest.raises(ValueError, match="length"):
        RolloutGroup(rewards=[1.0, 0.0], logp_new=[0.0], logp_old=[0.0, 0.0],
                     logp_ref=[0.0, 0.0])


@pytest.mark.parametrize("field", ["rewards", "logp_new", "logp_old", "logp_ref"])
# float() would coerce the last four, but none of them is a number.
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", b"1", True, np.bool_(True)],
                         ids=["nan", "inf", "-inf", "str", "bytes", "bool", "np-bool"])
def test_rollout_group_rejects_non_finite_values(field, value) -> None:
    values = {name: [0.0, 1.0] for name in ("rewards", "logp_new", "logp_old", "logp_ref")}
    values[field] = [value, 1.0]
    with pytest.raises(ValueError, match=f"{field} must hold finite numbers"):
        RolloutGroup(**values)


def test_rollout_group_accepts_numpy_numbers() -> None:
    group = RolloutGroup(rewards=np.array([1.0, 0.0]), logp_new=[np.float32(0.5), 0.0],
                         logp_old=[np.int64(0), 0], logp_ref=np.zeros(2))
    assert group.rewards == (1.0, 0.0) and group.logp_new == (0.5, 0.0)
    assert group_advantages(np.array([1, 0]), 0.0) == [1.0, -1.0]


def test_grpo_config_validation() -> None:
    with pytest.raises(ValueError):
        GrpoConfig(clip_alpha=1.5)
    with pytest.raises(ValueError):
        GrpoConfig(kl_beta=-0.1)
    with pytest.raises(ValueError):
        GrpoConfig(eps_stab=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field, message", [
    ("clip_alpha", "clip_alpha must lie in"),
    ("kl_beta", "kl_beta must be nonnegative"),
    ("eps_stab", "eps_stab must be positive"),
])
def test_grpo_config_rejects_nan(field, message, value) -> None:
    with pytest.raises(ValueError, match=message):
        GrpoConfig(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_advantages_reject_a_nan_eps(value) -> None:
    with pytest.raises(ValueError, match="eps_stab must be nonnegative"):
        group_advantages([0.0, 1.0], value)


@pytest.mark.parametrize("reward", [math.nan, math.inf, 10**400, "1", b"1", True, np.bool_(True),
                                    np.str_("1")],
                         ids=["nan", "inf", "int-beyond-float", "str", "bytes", "bool",
                              "np-bool", "np-str"])
def test_advantages_reject_a_reward_that_is_not_finite(reward) -> None:
    with pytest.raises(ValueError, match="^rewards must hold finite numbers$"):
        group_advantages([reward, 1.0], 1e-8)


# float() raises TypeError for each of these; both entry points must say
# ValueError, as for any other value that is not a finite number.
@pytest.mark.parametrize("rewards", [[None, 1.0], [[1.0], 0.0], [1j, 0.0], 5],
                         ids=["none", "nested", "complex", "not-iterable"])
def test_rewards_that_float_cannot_take_are_a_value_error(rewards) -> None:
    with pytest.raises(ValueError, match="^rewards must hold finite numbers$"):
        group_advantages(rewards, 1e-8)
    with pytest.raises(ValueError, match="^rewards must hold finite numbers$"):
        RolloutGroup(rewards=rewards, logp_new=[0.0, 0.0], logp_old=[0.0, 0.0],
                     logp_ref=[0.0, 0.0])


# --- many groups in one array pass --------------------------------------------------

# Scales of the deviations for "tiny" rows, around sqrt of the smallest
# normal (~1.5e-154) and of the smallest subnormal (~2.2e-162): their
# squares are subnormal, or 0 for some or all of a row.
NEAR_SQRT_TINY = (1e-155, 1e-160, 1e-162, 1e-170, 1e-300)
# In the order they are applied; the last four make a check fail (objective
# overflow needs G >= 3).
ROW_KINDS = ("random", "equal", "clip", "tiny", "objective", "variance", "ratio", "kl")


def _row(kinds, size: int, seed: int) -> RolloutGroup:
    """One group of ``size`` responses with each of ``kinds``' special cases,
    so one row may fail several checks."""
    rng = np.random.default_rng(seed)
    rewards = rng.choice([0.0, 0.2, 1.0, 1.2], size=size)
    logp_old = rng.normal(-1.0, 0.5, size=size)
    logp_new = logp_old + rng.normal(0.0, 0.1, size=size)
    logp_ref = logp_old + rng.normal(0.0, 0.1, size=size)
    for kind in sorted(kinds, key=ROW_KINDS.index):
        if kind == "random":
            rewards = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4)
        elif kind == "equal":  # some means overflow, yet the advantages are exact zeros
            rewards[:] = rng.choice([0.2, 0.7, 1e308, -1e308])
        elif kind == "clip":  # every ratio beyond the clip band, on either side
            logp_new = logp_old + rng.choice([-0.5, 0.5], size=size)
        elif kind == "tiny":
            rewards = rng.normal(size=size) * rng.choice(NEAR_SQRT_TINY)
        elif kind == "objective":  # each ratio is finite, their weighted sum is not
            rewards = np.zeros(size)
            rewards[-1] = 1.0
            logp_new[:] = logp_ref[:] = 709.5
            logp_old[:] = 0.0
        elif kind == "variance":
            rewards[: size // 2 + 1] = 1e308
            rewards[-1] = -1e308
        elif kind == "ratio":  # exp overflows, or logp_new - logp_old does first
            logp_new[0], logp_old[0] = rng.choice([(1000.0, 0.0), (1e308, -1e308)])
        elif kind == "kl":  # in the last response, whose ratio is 1
            logp_ref[-1], logp_new[-1] = rng.choice([(710.0, 0.0), (1e308, -1e308)])
            logp_old[-1] = logp_new[-1]
    return RolloutGroup(rewards.tolist(), logp_new.tolist(), logp_old.tolist(),
                        logp_ref.tolist())


def _reference_run(groups, cfg):
    """Results one group at a time, or (index, message) of the first failure."""
    results = []
    for index, group in enumerate(groups):
        try:
            # The reference's last subtraction is not guarded: it may warn.
            with np.errstate(over="ignore", invalid="ignore"):
                results.append(reference_grpo_objective(group, cfg))
        except ValueError as exc:
            return index, str(exc)
    return results


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sets(st.sampled_from(ROW_KINDS), max_size=3),
                               st.integers(2, 16), st.integers(0, 2**32 - 1)),
                     min_size=1, max_size=20),
       alpha=st.sampled_from([0.1, 0.2, 0.5]), beta=st.sampled_from([0.0, 0.01, 1.0]),
       eps=st.sampled_from([1e-8, 1.0, 5e-324]))
def test_grpo_objectives_have_the_bits_of_one_group_at_a_time(rows, alpha, beta, eps) -> None:
    groups = [_row(kinds, size, seed) for kinds, size, seed in rows]
    cfg = GrpoConfig(clip_alpha=alpha, kl_beta=beta, eps_stab=eps)
    want = _reference_run(groups, cfg)
    try:
        got = grpo_objectives(groups, cfg)
    except GroupError as exc:
        assert (exc.index, str(exc)) == want
    else:
        assert repr(got) == repr(want)  # repr tells every float apart, -0.0 too


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from([{"tiny"}, {"equal"}, {"random"}]),
                               st.integers(0, 2**32 - 1)), min_size=1, max_size=20),
       size=st.integers(2, 16))
def test_advantage_rows_with_zero_eps_have_the_bits_of_one_row_at_a_time(rows, size) -> None:
    # GrpoConfig requires eps_stab > 0; group_advantages accepts 0, and then
    # a row whose squared deviations underflow is rescaled.
    stacked = np.array([_row(kinds, size, seed).rewards for kinds, seed in rows])
    advantages, overflow = rl_core._advantage_rows(stacked, 0.0)
    for row, rewards in enumerate(stacked.tolist()):
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_group_advantages(rewards, 0.0)
        assert repr(advantages[row].tolist()) == repr(want)
        assert repr(group_advantages(rewards, 0.0)) == repr(want)
    assert not overflow.any()


def test_grpo_objectives_name_the_first_failing_group_across_sizes() -> None:
    # Size 3 is stacked first, and its failing group comes later in the input.
    groups = [_row({"random"}, 3, 1), _row({"kl"}, 2, 2), _row({"ratio"}, 3, 3)]
    with pytest.raises(GroupError, match="^KL estimate overflows") as caught:
        grpo_objectives(groups, GrpoConfig())
    assert caught.value.index == 1
    assert grpo_objectives([], GrpoConfig()) == []


# --- GRPO gradient fidelity -----------------------------------------------------------

def _objective_of_logp_new(group: RolloutGroup, cfg: GrpoConfig, logp_new) -> float:
    probe = RolloutGroup(rewards=group.rewards, logp_new=list(logp_new),
                         logp_old=group.logp_old, logp_ref=group.logp_ref)
    return grpo_objective(probe, cfg).objective


def _numeric_gradient(group: RolloutGroup, cfg: GrpoConfig, step: float = 1e-5):
    base = np.asarray(group.logp_new, dtype=float)
    numeric = np.zeros_like(base)
    for idx in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[idx] += step
        minus[idx] -= step
        numeric[idx] = (_objective_of_logp_new(group, cfg, plus)
                        - _objective_of_logp_new(group, cfg, minus)) / (2 * step)
    return numeric


def _max_rel_error(analytic, numeric) -> float:
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / scale).max())


def test_grpo_gradient_matches_finite_differences_five_seeds() -> None:
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.3, eps_stab=1e-8)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 8))
        group = RolloutGroup(
            rewards=rng.normal(size=size).tolist(),
            logp_new=rng.normal(scale=0.4, size=size).tolist(),
            logp_old=rng.normal(scale=0.4, size=size).tolist(),
            logp_ref=rng.normal(scale=0.4, size=size).tolist(),
        )
        analytic = grpo_gradient_logp_new(group, cfg)
        numeric = _numeric_gradient(group, cfg)
        assert _max_rel_error(analytic, numeric) <= 1e-4


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("boundary", ["upper", "lower"])
def test_grpo_gradient_at_clip_boundaries_from_both_sides(side, boundary) -> None:
    """Probe rho just inside/outside each clip edge; fd must match analytic."""
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.1, eps_stab=1e-8)
    edge = 1.0 + cfg.clip_alpha if boundary == "upper" else 1.0 - cfg.clip_alpha
    rho = edge * math.exp(side * 1e-3)  # strictly one side of the kink
    group = RolloutGroup(
        rewards=[1.0, 0.0],
        logp_new=[math.log(rho), 0.1],
        logp_old=[0.0, 0.2],
        logp_ref=[0.05, -0.05],
    )
    analytic = grpo_gradient_logp_new(group, cfg)
    numeric = _numeric_gradient(group, cfg, step=1e-6)
    assert _max_rel_error(analytic, numeric) <= 1e-4


# --- persistence ------------------------------------------------------------------------

def test_read_rollout_groups(tmp_path) -> None:
    path = tmp_path / "rollouts.jsonl"
    path.write_text(
        '{"group_id": "g1", "rewards": [1, 0], "logp_new": [0, 0], '
        '"logp_old": [0, 0], "logp_ref": [0, 0]}\n', encoding="utf-8")
    groups = read_rollout_groups(path)
    assert len(groups) == 1
    assert groups[0][0] == "g1"
    assert groups[0][1].rewards == (1.0, 0.0)


@pytest.mark.parametrize("line", ['[1]', '"g1"', '{"rewards": 5, "logp_new": [0], '
                                  '"logp_old": [0], "logp_ref": [0]}'])
def test_read_rollout_groups_rejects_bad_lines_with_their_place(tmp_path, line) -> None:
    path = tmp_path / "rollouts.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"rollouts\.jsonl:2: "):
        read_rollout_groups(path)


@pytest.mark.parametrize("field, value", [
    ("rewards", '"12"'), ("rewards", "[true, false]"), ("rewards", "[1, null]"),
    ("logp_new", '["0", 0]'), ("logp_old", "{}"), ("logp_ref", "[[0], [0]]"),
])
def test_read_rollout_groups_requires_lists_of_numbers(tmp_path, field, value) -> None:
    record = {name: "[0, 1]" for name in ("rewards", "logp_new", "logp_old", "logp_ref")}
    record[field] = value
    path = tmp_path / "rollouts.jsonl"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=rf"rollouts\.jsonl:1: {field} must hold finite "
                                         "numbers$"):
        read_rollout_groups(path)


@pytest.mark.parametrize("group_id, expected", [(None, None), (5, None), ("g5", "g5")])
def test_read_rollout_groups_group_id_is_a_string_or_the_line(tmp_path, group_id,
                                                              expected) -> None:
    record = {"rewards": [0, 1], "logp_new": [0, 0], "logp_old": [0, 0], "logp_ref": [0, 0]}
    path = tmp_path / "rollouts.jsonl"
    path.write_text("\n" + json.dumps(record) + "\n"
                    + json.dumps(dict(record, group_id=group_id)) + "\n", encoding="utf-8")
    if expected is None:
        with pytest.raises(ValueError, match=r"rollouts\.jsonl:3: field 'group_id' must be a "
                                             "string"):
            read_rollout_groups(path)
    else:
        assert [gid for gid, _ in read_rollout_groups(path)] == ["2", expected]


def test_read_rollout_groups_names_the_place_of_a_short_group(tmp_path) -> None:
    path = tmp_path / "rollouts.jsonl"
    path.write_text('{"rewards": [1], "logp_new": [0], "logp_old": [0], "logp_ref": [0]}\n',
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"rollouts\.jsonl:1: a rollout group needs G >= 2"):
        read_rollout_groups(path)


def test_read_rollout_groups_missing_field(tmp_path) -> None:
    path = tmp_path / "rollouts.jsonl"
    path.write_text('{"group_id": "g1", "rewards": [1, 0]}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="missing field"):
        read_rollout_groups(path)
