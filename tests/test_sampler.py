"""Tests for the decode loop and the coupled paired sampler."""

import numpy as np
import pytest

from reuselab.drift import DriftProfile, drift_score
from reuselab.errors import ConfigError, DegenerateInputError, DimensionError
from reuselab.model import ModelConfig, init_weights
from reuselab.sampler import (
    CoupledPair,
    SamplerConfig,
    coupled_generate,
    diffusion_generate,
    maximal_coupling_sample,
)


def make_model(seed=3, B=4, n_vocab=12):
    cfg = ModelConfig(L=1, H=1, d=4, d_int=8, n_vocab=n_vocab, B=B,
                      activation="relu", seed=seed)
    return cfg, init_weights(cfg)


def disabled_profile(L=1):
    return DriftProfile(s_layer=(0.0,) * L, phi_layer=(0.0,) * L,
                        tau_layer=(None,) * L, phi_bar=0.0, epsilon=1.0)


def flat_profile(tau, L=1):
    return DriftProfile(s_layer=(0.0,) * L, phi_layer=(1.0,) * L,
                        tau_layer=(tau,) * L, phi_bar=1.0, epsilon=1.0)


# ---------------------------------------------------------------------------
# SamplerConfig
# ---------------------------------------------------------------------------

def test_sampler_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(gen_length=0)
    with pytest.raises(ConfigError):
        SamplerConfig(temperature=-0.1)
    with pytest.raises(ConfigError):
        SamplerConfig(gen_length=6, block_size=4)
    with pytest.raises(ConfigError):
        SamplerConfig(block_size=8, gen_length=8, steps_per_block=3,
                      tokens_unmasked_per_step=2)


# ---------------------------------------------------------------------------
# maximal coupling
# ---------------------------------------------------------------------------

def test_coupling_identical_distributions_always_agree():
    rng = np.random.default_rng(1)
    p = np.array([0.2, 0.3, 0.5])
    for _ in range(200):
        j, jhat = maximal_coupling_sample(p, p.copy(), rng)
        assert j == jhat


def test_coupling_disjoint_support_never_agrees():
    rng = np.random.default_rng(2)
    for _ in range(200):
        j, jhat = maximal_coupling_sample([1.0, 0.0], [0.0, 1.0], rng)
        assert (j, jhat) == (0, 1)


def test_coupling_reference_pair_frequencies():
    # P(agree) should approach 1 - TV = 0.75 and the marginals stay exact.
    rng = np.random.default_rng(3)
    p = np.array([0.5, 0.5])
    q = np.array([0.75, 0.25])
    n = 100_000
    js = np.empty(n, dtype=int)
    jhats = np.empty(n, dtype=int)
    for i in range(n):
        js[i], jhats[i] = maximal_coupling_sample(p, q, rng)
    agree = float(np.mean(js == jhats))
    assert abs(agree - 0.75) <= 0.01
    freq_p = np.bincount(js, minlength=2) / n
    freq_q = np.bincount(jhats, minlength=2) / n
    assert np.abs(freq_p - p).sum() <= 0.02
    assert np.abs(freq_q - q).sum() <= 0.02


def test_coupling_rejects_bad_inputs():
    rng = np.random.default_rng(4)
    with pytest.raises(DegenerateInputError):
        maximal_coupling_sample([0.5, 0.6], [0.5, 0.5], rng)
    with pytest.raises(DegenerateInputError):
        maximal_coupling_sample([1.5, -0.5], [0.5, 0.5], rng)
    with pytest.raises(DimensionError):
        maximal_coupling_sample([1.0], [0.5, 0.5], rng)


@pytest.mark.parametrize("bad", [
    [float("nan"), 1.0],
    [1.0, float("nan")],
    [float("nan"), float("nan")],
    [float("inf"), 0.0],
    [float("inf"), float("-inf")],
    [1e308, 1e308],
])
@pytest.mark.parametrize("n", [2, 100])
def test_coupling_rejects_non_finite_entries(bad, n):
    rng = np.random.default_rng(4)
    p = np.full(n, 1.0 / n)
    p_bad = p.copy()
    p_bad[:2] = bad
    with pytest.raises(DegenerateInputError):
        maximal_coupling_sample(p_bad, p, rng)
    with pytest.raises(DegenerateInputError):
        maximal_coupling_sample(p, p_bad, rng)


def linear_support(n, reverse=False):
    w = np.arange(1.0, n + 1.0)
    if reverse:
        w = w[::-1].copy()
    return w / w.sum()


# Draws recorded from the original numpy cumsum/searchsorted sampler. The
# coupled runs, the bound fixtures and `verify` consume this stream, so a
# faster sampler must reproduce it exactly. "differ" pairs that agree come
# from the overlap path, pairs that disagree from the residual path.
PINNED_COUPLING_DRAWS = {
    (1, "equal"): [(0, 0)] * 12,
    (1, "differ"): [(0, 0)] * 12,
    (4, "equal"): [(2, 2), (3, 3), (3, 3), (0, 0), (1, 1), (1, 1),
                   (3, 3), (2, 2), (2, 2), (3, 3), (2, 2), (3, 3)],
    (4, "differ"): [(0, 0), (3, 0), (1, 1), (1, 1), (1, 1), (2, 2),
                    (1, 1), (2, 0), (2, 2), (1, 1), (0, 0), (1, 1)],
    (8, "equal"): [(7, 7), (0, 0), (6, 6), (5, 5), (6, 6), (2, 2),
                   (7, 7), (4, 4), (4, 4), (5, 5), (3, 3), (5, 5)],
    (8, "differ"): [(5, 5), (2, 2), (1, 1), (2, 2), (6, 3), (5, 1),
                    (3, 3), (2, 2), (6, 0), (5, 1), (3, 3), (5, 2)],
    (16, "equal"): [(12, 12), (12, 12), (15, 15), (11, 11), (5, 5),
                    (12, 12), (12, 12), (14, 14), (5, 5), (7, 7),
                    (15, 15), (11, 11)],
    (16, "differ"): [(7, 7), (3, 3), (9, 0), (6, 6), (15, 0), (3, 3),
                     (4, 4), (13, 13), (11, 4), (9, 9), (6, 6), (8, 8)],
}


def test_coupling_draw_stream_is_pinned():
    rng = np.random.default_rng(2024)
    for n in (1, 4, 8, 16):
        p = linear_support(n)
        if n == 1:
            # Within the 1e-9 tolerance but not bitwise equal: the
            # overlap path with alpha = 1.
            differ = (np.array([1.0]), np.array([1.0 + 1e-10]))
        else:
            differ = (p, linear_support(n, reverse=True))
        for name, (a, b) in (("equal", (p, p.copy())), ("differ", differ)):
            got = [maximal_coupling_sample(a, b, rng) for _ in range(12)]
            assert got == PINNED_COUPLING_DRAWS[n, name], (n, name)


# ---------------------------------------------------------------------------
# diffusion_generate
# ---------------------------------------------------------------------------

def test_generate_greedy_is_deterministic():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=4,
                       tokens_unmasked_per_step=1, temperature=0.0, seed=7)
    t1, _ = diffusion_generate(w, sc, None, "full")
    t2, _ = diffusion_generate(w, sc, None, "full")
    assert np.array_equal(t1, t2)
    assert w.mask_token not in t1


def test_generate_sampled_is_seed_deterministic():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=4,
                       tokens_unmasked_per_step=1, temperature=0.8, seed=7)
    t1, _ = diffusion_generate(w, sc, None, "full")
    t2, _ = diffusion_generate(w, sc, None, "full")
    t3, _ = diffusion_generate(
        w, SamplerConfig(gen_length=4, block_size=4, steps_per_block=4,
                         tokens_unmasked_per_step=1, temperature=0.8,
                         seed=8), None, "full")
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)  # seed must matter at temperature > 0


def test_generate_unmasks_each_position_once():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=8, block_size=4, steps_per_block=4,
                       tokens_unmasked_per_step=1, temperature=0.0, seed=1)
    tokens, trace = diffusion_generate(w, sc, None, "full")
    assert w.mask_token not in tokens
    seen = []
    for rec in trace.records:
        seen.extend(rec.block * 4 + i for i in rec.unmasked)
    assert sorted(seen) == list(range(8))


def test_generate_single_step_schedule():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=4,
                       tokens_unmasked_per_step=4, temperature=0.0, seed=1)
    tokens, trace = diffusion_generate(w, sc, None, "full")
    assert len(trace.records) == 1  # ceil(B / B) effective steps
    assert w.mask_token not in tokens


def test_generate_kv_disabled_equals_full():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=8, block_size=4, steps_per_block=4,
                       tokens_unmasked_per_step=2, temperature=0.6, seed=11)
    t_full, _ = diffusion_generate(w, sc, None, "full")
    t_kv, _ = diffusion_generate(w, sc, disabled_profile(), "kv")
    t_o, _ = diffusion_generate(w, sc, disabled_profile(), "o",
                                refresh_interval=1)
    assert np.array_equal(t_full, t_kv)
    assert np.array_equal(t_full, t_o)


def test_generate_prompt_positions_are_frozen():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=4,
                       tokens_unmasked_per_step=1, temperature=0.0, seed=2)
    prompt = np.array([3, 5, w.mask_token, w.mask_token])
    tokens, trace = diffusion_generate(w, sc, None, "full",
                                       initial_tokens=prompt)
    assert tokens[0] == 3 and tokens[1] == 5
    assert w.mask_token not in tokens
    unmasked = sorted(i for rec in trace.records for i in rec.unmasked)
    assert unmasked == [2, 3]


def test_generate_requires_profile_for_reuse_modes():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=4)
    with pytest.raises(ConfigError):
        diffusion_generate(w, sc, None, "kv")
    with pytest.raises(ConfigError):
        diffusion_generate(w, SamplerConfig(gen_length=4, block_size=2,
                                            steps_per_block=2), None, "full")


def test_trace_structure_and_jsonl():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=8, block_size=4, steps_per_block=4,
                       tokens_unmasked_per_step=2, temperature=0.0, seed=5)
    _, trace = diffusion_generate(w, sc, flat_profile(0.5), "kv")
    trajs = trace.q_trajectories()
    assert len(trajs) == 2  # two blocks
    assert all(len(step_layers) == cfg.L for tr in trajs
               for step_layers in tr)
    rows = list(trace.jsonl_records())
    decision_rows = [r for r in rows if "reused_count" in r]
    assert {"step", "layer", "reused_count", "refreshed_count",
            "staleness_l2"} <= set(decision_rows[0])
    assert any(r.get("event") == "unmask" for r in rows)


def test_trace_zero_mode_property():
    # Unchanged token ids between consecutive steps imply layer-0 drift 0.
    cfg, w = make_model(B=4, n_vocab=16)
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=4,
                       tokens_unmasked_per_step=1, temperature=0.9, seed=13)
    _, trace = diffusion_generate(w, sc, flat_profile(0.05), "kv")
    checked = 0
    for prev, cur in zip(trace.records, trace.records[1:]):
        if prev.block != cur.block:
            continue
        for i in range(cfg.B):
            if prev.input_tokens[i] != cur.input_tokens[i]:
                continue
            a, b = cur.q_head0[0][i], prev.q_head0[0][i]
            if not a.any() or not b.any():
                continue
            assert drift_score(a, b) <= 1e-9
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# coupled_generate
# ---------------------------------------------------------------------------

def test_coupled_disabled_reuse_is_lossless():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=6,
                       tokens_unmasked_per_step=1, seed=3)
    pair = coupled_generate(w, sc, disabled_profile(), "kv")
    assert np.array_equal(pair.full_tokens, pair.reuse_tokens)
    assert np.max(pair.per_step_embed_error) == 0.0
    assert np.max(pair.per_step_l1_gap) == 0.0
    assert np.max(pair.per_step_delta_l2) == 0.0


def test_coupled_forced_reuse_grows_staleness_linearly():
    cfg, w = make_model()
    T = 6
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=T,
                       tokens_unmasked_per_step=1, seed=9)
    pair = coupled_generate(w, sc, flat_profile(2.0), "kv",
                            refresh_interval=T + 1)
    for t in range(1, T):
        assert np.all(pair.per_step_delta[t] == t)
    assert isinstance(pair, CoupledPair)
    assert pair.per_step_embed_error.shape == (T + 1,)
    assert pair.per_step_l1_gap.shape == (T,)
    assert pair.per_step_embed_error[0] == 0.0


def test_coupled_run_validation():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=4)
    with pytest.raises(ConfigError):
        coupled_generate(w, sc, disabled_profile(), "full")
    with pytest.raises(ConfigError):
        coupled_generate(
            w, SamplerConfig(gen_length=8, block_size=4, steps_per_block=4),
            disabled_profile(), "kv")


def test_coupled_reuse_modes_record_decisions():
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=5,
                       tokens_unmasked_per_step=1, seed=21)
    for mode in ("kv", "o"):
        pair = coupled_generate(w, sc, flat_profile(0.3), mode,
                                refresh_interval=2)
        assert len(pair.decisions) == 5
        assert all(d.layer == 0 for d in pair.decisions)
        assert np.all(pair.per_step_embed_error >= 0.0)
        assert np.all(pair.per_step_l1_gap >= 0.0)
