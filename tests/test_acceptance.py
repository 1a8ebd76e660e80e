"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything here is offline and deterministic: mock sampler, fixed
seeds, pinned tolerances.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from sffuse.attention_core import (
    DEFAULT_ALLOCATION_WINDOW,
    AttentionInputs,
    attention_gradients,
    gradient_check,
    leakage_probe,
    masked_attention,
)
from sffuse.cli import main
from sffuse.config import AppConfig
from sffuse.mask_engine import TokenLayout, build_composite, incremental_row
from sffuse.pem_pipeline import DiscardReason, PipelineConfig, decide_pem
from sffuse.rl_core import (
    GrpoConfig,
    RewardConfig,
    RolloutGroup,
    group_advantages,
    grpo_gradient_logp_new,
    grpo_objective,
    reward_stage2,
)
from sffuse.tag_grammar import PemLabel, parse_trace, render_trace, validate_structure

from conftest import brute_force_mask, random_layout
from test_rl_core import _max_rel_error, _numeric_gradient
from test_tag_grammar import random_trace

DATA = Path(__file__).parent / "data"

PERFECT_TRACE = ("<mod>Audio</mod><v>collie visible</v><a>barking</a>"
                 "<sum>the collie barks</sum><ans>collie</ans>")


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_acceptance_1_mask_oracle_equivalence() -> None:
    rng = np.random.default_rng(1000)
    for _ in range(1000):
        layout = random_layout(rng, max_length=64)
        engine = build_composite(layout)
        oracle = brute_force_mask(layout)
        assert engine == oracle  # exact equality, zero tolerance
    _ok(1, "mask oracle equivalence, 1000 layouts")


def test_acceptance_2_incremental_decoding_fidelity() -> None:
    rng = np.random.default_rng(2000)
    for _ in range(100):
        layout = random_layout(rng, max_length=64)
        full = build_composite(layout).visible
        for i in range(layout.length):
            row = incremental_row(layout, i)
            assert row.tolist() == full[i, : i + 1].tolist()
    _ok(2, "incremental rows equal full matrix rows, 100 layouts")


def test_acceptance_3_exact_attention_blocking_and_leakage() -> None:
    rng = np.random.default_rng(3000)
    for _ in range(50):
        layout = random_layout(rng, max_length=24)
        mask = build_composite(layout)
        inputs = AttentionInputs(
            q=rng.normal(size=(layout.length, 4)),
            k=rng.normal(size=(layout.length, 4)),
            v=rng.normal(size=(layout.length, 4)),
            mask=mask,
        )
        _, weights = masked_attention(inputs)
        assert (weights.matrix[~mask.visible] == 0.0).all()
        np.testing.assert_allclose(weights.matrix.sum(axis=1), 1.0, atol=1e-6)

    for seed in (0, 1, 2):
        assert leakage_probe(seed, use_maam=True).direct_leakage == 0.0
        assert leakage_probe(seed, use_maam=False).direct_leakage > 0.0
    _ok(3, "blocked weights exactly 0, rows stochastic, leakage 0 vs > 0")


def test_acceptance_4_gradient_checks() -> None:
    # Masked attention vs central finite differences, 5 seeds.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng, max_length=10)
        inputs = AttentionInputs(
            q=rng.normal(size=(layout.length, 3)),
            k=rng.normal(size=(layout.length, 3)),
            v=rng.normal(size=(layout.length, 3)),
            mask=build_composite(layout),
        )
        assert gradient_check(inputs, step=1e-4) <= 1e-4

    # Zero gradient flow through a blocked attention pair.
    fixture = TokenLayout(length=6, video_input={0}, audio_input={1},
                          visual_reasoning={2}, audio_reasoning={3}, visual_span={2})
    rng = np.random.default_rng(99)
    inputs = AttentionInputs(q=rng.normal(size=(6, 3)), k=rng.normal(size=(6, 3)),
                             v=rng.normal(size=(6, 3)), mask=build_composite(fixture))
    upstream = np.zeros((6, 3))
    upstream[3] = 1.0  # query row 3 is blocked from keys 0 and 2
    _, d_k, _ = attention_gradients(inputs, upstream)
    assert np.all(d_k[0] == 0.0) and np.all(d_k[2] == 0.0)
    assert gradient_check(inputs, step=1e-4, d_output=upstream) <= 1e-4

    # GRPO objective vs central finite differences, 5 seeds.
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.3, eps_stab=1e-8)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        size = int(rng.integers(2, 8))
        group = RolloutGroup(
            rewards=rng.normal(size=size).tolist(),
            logp_new=rng.normal(scale=0.4, size=size).tolist(),
            logp_old=rng.normal(scale=0.4, size=size).tolist(),
            logp_ref=rng.normal(scale=0.4, size=size).tolist(),
        )
        assert _max_rel_error(grpo_gradient_logp_new(group, cfg),
                              _numeric_gradient(group, cfg)) <= 1e-4

    # Clip boundaries approached from both sides.
    for edge in (1.0 - cfg.clip_alpha, 1.0 + cfg.clip_alpha):
        for side in (-1.0, 1.0):
            rho = edge * math.exp(side * 1e-3)
            group = RolloutGroup(rewards=[1.0, 0.0],
                                 logp_new=[math.log(rho), 0.1],
                                 logp_old=[0.0, 0.2],
                                 logp_ref=[0.05, -0.05])
            assert _max_rel_error(grpo_gradient_logp_new(group, cfg),
                                  _numeric_gradient(group, cfg, step=1e-6)) <= 1e-4
    _ok(4, "attention + GRPO gradients within 1e-4 of finite differences")


def test_acceptance_5_grpo_algebra() -> None:
    rng = np.random.default_rng(5000)
    cfg = GrpoConfig(clip_alpha=0.2, kl_beta=0.01, eps_stab=1e-8)
    for _ in range(200):
        size = int(rng.integers(2, 10))
        rewards = rng.normal(size=size)
        advantages = group_advantages(rewards.tolist(), cfg.eps_stab)
        if float(np.var(rewards)) > 0:
            assert abs(float(np.mean(advantages))) <= 1e-9
        scale = float(rng.uniform(0.2, 5.0))
        shift = float(rng.normal())
        if float(np.var(rewards)) > 0:
            base = group_advantages(rewards.tolist(), 0.0)
            mapped = group_advantages((scale * rewards + shift).tolist(), 0.0)
            assert np.allclose(base, mapped, atol=1e-9)

    zero_beta = GrpoConfig(clip_alpha=0.2, kl_beta=0.0, eps_stab=1e-8)
    for _ in range(200):
        size = int(rng.integers(2, 8))
        group = RolloutGroup(
            rewards=rng.normal(size=size).tolist(),
            logp_new=rng.normal(scale=0.5, size=size).tolist(),
            logp_old=rng.normal(scale=0.5, size=size).tolist(),
            logp_ref=rng.normal(scale=0.5, size=size).tolist(),
        )
        result = grpo_objective(group, zero_beta)
        advantages = np.asarray(group_advantages(group.rewards, zero_beta.eps_stab))
        unclipped = float(np.mean(np.asarray(result.ratios) * advantages))
        assert result.objective <= unclipped + 1e-9

    unit = RolloutGroup(rewards=[1.0, 0.0], logp_new=[0.0, 0.0],
                        logp_old=[0.0, 0.0], logp_ref=[0.0, 0.0])
    result = grpo_objective(unit, zero_beta)
    assert result.objective == pytest.approx(0.0, abs=1e-12)
    _ok(5, "advantage centering, affine invariance, pessimism, unit-ratio zero")


def test_acceptance_6_recipe_constants() -> None:
    assert reward_stage2(PERFECT_TRACE, PemLabel.AUDIO, "collie") == pytest.approx(1.2)

    defaults = AppConfig()  # documented default config
    assert defaults.pipeline.n == 8
    assert defaults.pipeline.tau_acc == 0.75
    assert defaults.pipeline.tau_cons == 0.8
    assert defaults.rewards.lambda_acc == 1.0
    assert defaults.rewards.lambda_mps == 0.2
    assert DEFAULT_ALLOCATION_WINDOW == 16

    assert PipelineConfig() == PipelineConfig(n=8, tau_acc=0.75, tau_cons=0.8)
    assert RewardConfig() == RewardConfig(lambda_acc=1.0, lambda_mps=0.2)
    _ok(6, "recipe constants: 1.2 composite, n=8, taus 0.75/0.8, window 16")


def test_acceptance_7_pem_decision_totality_and_golden(tmp_path) -> None:
    expected = {
        (True, False, True): PemLabel.AUDIO,
        (False, True, True): PemLabel.VISUAL,
        (False, False, True): PemLabel.AUDIO_VISUAL,
        (True, True, True): DiscardReason.TRIVIALLY_EASY,
        (True, True, False): DiscardReason.CONTRADICTORY,
        (True, False, False): DiscardReason.CONTRADICTORY,
        (False, True, False): DiscardReason.CONTRADICTORY,
        (False, False, False): DiscardReason.UNSOLVABLE,
    }
    seen_labels = 0
    for pattern in itertools.product([False, True], repeat=3):
        decision = decide_pem(*pattern)
        assert decision == expected[pattern]
        if isinstance(decision, PemLabel):
            seen_labels += 1
    assert seen_labels == 3

    out = tmp_path / "labeled.jsonl"
    code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"),
                 "--out", str(out), "--mock"])
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_labeled.jsonl").read_bytes()
    _ok(7, "decision table total over 8 patterns; golden JSONL byte-for-byte")


def test_acceptance_8_parser_robustness() -> None:
    rng = np.random.default_rng(8000)
    for _ in range(200):
        trace = random_trace(rng)
        reparsed, diags = parse_trace(render_trace(trace))
        assert diags == []
        assert reparsed == trace

    fragments = ["<mod>", "</mod>", "<v>", "</v>", "<a>", "</a>", "<sum>",
                 "</sum>", "<ans>", "</ans>", "Audio", "Visual", "Audio-Visual"]
    for k in range(10_000):
        if k % 2 == 0:
            raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 60))).tolist())
            text = raw.decode("utf-8", errors="replace")
        else:
            count = int(rng.integers(0, 12))
            text = "".join(fragments[int(rng.integers(0, len(fragments)))]
                           for _ in range(count))
        ok, diags = validate_structure(text)
        assert isinstance(ok, bool)
        assert ok or len(diags) >= 1
    _ok(8, "200 exact round-trips; 10k fuzz inputs yield trace or diagnostics")


def test_acceptance_9_annotation_determinism(tmp_path, capsys) -> None:
    payloads = {}
    for bound in (1, 4, 16):
        out = tmp_path / f"out_{bound}.jsonl"
        records = tmp_path / f"records_{bound}.jsonl"
        report = tmp_path / f"stats_{bound}.json"
        code = main(["annotate", "--in", str(DATA / "instances_12.jsonl"),
                     "--out", str(out), "--mock", "--parallelism", str(bound),
                     "--report", str(report), "--records", str(records)])
        assert code == 0
        payloads[bound] = (out.read_bytes(), records.read_bytes(),
                           report.read_bytes())
    assert payloads[1] == payloads[4] == payloads[16]
    _ok(9, "annotate output identical at parallelism 1, 4, 16")
