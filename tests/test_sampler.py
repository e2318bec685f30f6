"""Tests for the decode loop and the coupled paired sampler."""

import dataclasses
import hashlib
import warnings
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reuselab import sampler
from reuselab.drift import DriftProfile, drift_score, reuse_set
from reuselab.errors import ConfigError, DegenerateInputError, DimensionError
from reuselab.model import ModelConfig, init_weights
from reuselab.sampler import (
    CoupledRun,
    SamplerConfig,
    _sample_candidates,
    couple_blocks,
    coupled_generate,
    diffusion_generate,
    maximal_coupling_sample,
)
from reuselab.theory import verify_run
from trace_staleness import staleness_norms


# The benchmark's mid-model decode shape.
MID = ModelConfig(L=4, H=2, d=64, d_int=128, n_vocab=32, B=32,
                  activation="relu", seed=1)


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
        SamplerConfig(temperature=float("nan"))


def test_diffusion_generate_checks_the_schedule():
    # How the settings fit together and the model is checked by the decode
    # loop that applies them; SamplerConfig checks each field alone.
    _, w = make_model()
    with pytest.raises(ConfigError, match="multiple of block_size"):
        diffusion_generate(w, SamplerConfig(gen_length=6, block_size=4),
                           None, "full")
    _, w8 = make_model(B=8)
    config = SamplerConfig(block_size=8, gen_length=8, steps_per_block=3,
                           tokens_unmasked_per_step=2)
    with pytest.raises(ConfigError, match="schedule cannot resolve"):
        diffusion_generate(w8, config, None, "full")


@pytest.mark.parametrize("mode", ["kv", "o"])
@pytest.mark.parametrize("model_L, profile_L", [(1, 2), (2, 1)])
def test_wrong_depth_profile_is_refused_by_the_state(mode, model_L,
                                                      profile_L):
    # ReuseState alone checks a profile's depth against the model, for the
    # decode loop, the coupled runs and verify alike.
    cfg = ModelConfig(L=model_L, H=1, d=4, d_int=8, n_vocab=12, B=4,
                      activation="relu", seed=3)
    w = init_weights(cfg)
    profile = flat_profile(0.05, L=profile_L)
    with pytest.raises(DimensionError, match="one per layer of the model"):
        diffusion_generate(w, SamplerConfig(), profile, mode)
    with pytest.raises(DimensionError, match="one per layer of the model"):
        coupled_generate(w, mode, [(0, profile)], 2)
    if model_L == 1:  # verify's bounds cover one-layer models only
        with pytest.raises(DimensionError,
                           match="one per layer of the model"):
            verify_run(w, SamplerConfig(), profile, mode, trials=2)


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
# block coupling
# ---------------------------------------------------------------------------

def couple_rows(P, Q, rng):
    """couple_blocks on one block drawing from ``rng``."""
    return couple_blocks(P, Q, [rng])


def looped_coupling(P, Q, rng):
    """The reference for couple_rows: one maximal_coupling_sample per row
    pair, in row order."""
    pairs = [maximal_coupling_sample(P[i], Q[i], rng) for i in range(len(P))]
    return [j for j, _ in pairs], [jhat for _, jhat in pairs]


def random_distribution(gen, n, sparse):
    w = gen.random(n) + 1e-3
    if sparse and n > 1:
        w[gen.random(n) < 0.5] = 0.0
        w[gen.integers(n)] += 1.0  # keep at least one entry positive
    return w / w.sum()


def row_pair(gen, n, kind):
    """One (p, q) row pair of the given kind over a support of n."""
    p = random_distribution(gen, n, sparse=kind == "sparse")
    if kind == "equal":
        return p, p.copy()
    if kind == "near":
        # One entry one ulp higher: q >= p everywhere, so the overlap is p
        # and alpha is p's total, 1 to within rounding.
        q = p.copy()
        k = gen.integers(n)
        q[k] = np.nextafter(q[k], 2.0)
        return p, q
    if kind == "disjoint" and n > 1:
        cut = int(gen.integers(1, n))
        p = np.zeros(n)
        q = np.zeros(n)
        p[:cut] = random_distribution(gen, cut, sparse=False)
        q[cut:] = random_distribution(gen, n - cut, sparse=False)
        return p, q
    return p, random_distribution(gen, n, sparse=kind == "sparse")


ROW_KINDS = ("equal", "near", "disjoint", "random", "sparse")


@settings(max_examples=300, deadline=None)
@given(n_rows=st.integers(1, 32), n=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=32))
def test_couple_rows_matches_looped_coupling(n_rows, n, seed, kinds):
    gen = np.random.default_rng(seed)
    rows = [row_pair(gen, n, kinds[i % len(kinds)]) for i in range(n_rows)]
    P = np.array([p for p, _ in rows])
    Q = np.array([q for _, q in rows])
    rng_loop = np.random.default_rng(seed + 1)
    rng_block = np.random.default_rng(seed + 1)
    want = looped_coupling(P, Q, rng_loop)
    j, jhat = couple_rows(P, Q, rng_block)
    assert j.dtype == jhat.dtype == np.int64
    assert (j.tolist(), jhat.tolist()) == want
    assert rng_block.bit_generator.state == rng_loop.bit_generator.state


def test_couple_rows_all_equal_rows_use_the_batched_draw():
    # Every row pair bitwise equal: one rng.random(n) call, same stream.
    gen = np.random.default_rng(5)
    P = np.array([random_distribution(gen, 33, sparse=False)
                  for _ in range(6)])
    rng_loop = np.random.default_rng(9)
    rng_block = np.random.default_rng(9)
    want = looped_coupling(P, P.copy(), rng_loop)
    j, jhat = couple_rows(P, P.copy(), rng_block)
    assert (j.tolist(), jhat.tolist()) == want
    assert j is not jhat
    assert rng_block.bit_generator.state == rng_loop.bit_generator.state


def bad_row_inputs():
    p = linear_support(4)
    good = np.array([p, p[::-1], p])
    cases = {}
    for name, value in (("negative", -0.1), ("nan", float("nan")),
                        ("inf", float("inf")), ("huge", 1e308)):
        bad = good.copy()
        bad[1, 2] = value
        cases[f"P {name}"] = (bad, good)
        cases[f"Q {name}"] = (good, bad)
    off = good.copy()
    off[2] *= 1.0 + 1e-6
    cases["P row sum off"] = (off, good)
    cases["Q row sum off"] = (good, off)
    cases["Q wider"] = (good, np.array([linear_support(5)] * 3))
    cases["P wider"] = (np.array([linear_support(5)] * 3), good)
    return cases


@pytest.mark.parametrize("case", sorted(bad_row_inputs()))
def test_couple_rows_rejects_what_the_loop_rejects(case):
    P, Q = bad_row_inputs()[case]

    def error_type(fn):
        with pytest.raises((DegenerateInputError, DimensionError)) as info:
            fn(P, Q, np.random.default_rng(0))
        return info.type

    assert error_type(couple_rows) is error_type(looped_coupling)


def test_couple_rows_needs_non_empty_matrices():
    rng = np.random.default_rng(0)
    p = linear_support(3)
    for P, Q in ((p, p), (np.zeros((0, 3)), np.zeros((0, 3))),
                 (np.array([p]), p)):
        with pytest.raises(DimensionError):
            couple_rows(P, Q, rng)


# ---------------------------------------------------------------------------
# batched candidate draws
# ---------------------------------------------------------------------------

def scalar_candidate(p, temperature, rng):
    """The per-position draw the decode loop made before draws were
    batched: one inverse-CDF draw on Python floats per masked row."""
    if temperature == 0.0:
        j = int(np.argmax(p))
        return j, float(p[j])
    with np.errstate(divide="ignore"):
        z = np.log(p) / temperature
    z -= z.max()
    w = np.exp(z)
    weights = w / w.sum()
    cdf = list(accumulate(weights.tolist()))
    j = min(bisect_right(cdf, rng.random() * cdf[-1]), weights.size - 1)
    return j, float(p[j])


def candidate_rows(rng, m, V):
    """m probability rows over V tokens: softmax rows at random scales,
    rows with exact zeros, one-hot rows and rows with tied maxima."""
    rows = np.empty((m, V))
    for i in range(m):
        w = np.exp(rng.standard_normal(V) * 10.0 ** rng.uniform(-1.0, 1.5))
        kind = rng.integers(4)
        if kind == 1:
            w[rng.random(V) < 0.5] = 0.0
            w[rng.integers(V)] = 1.0
        elif kind == 2:
            w = np.zeros(V)
            w[rng.integers(V)] = 1.0
        elif kind == 3:
            w[rng.choice(V, size=rng.integers(2, V + 1), replace=False)] = \
                w.max()
        rows[i] = w / w.sum()
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.integers(2, 300),
       st.sampled_from([0.0, 0.25, 0.7, 1.0, 3.0]),
       st.integers(0, 2 ** 32 - 1))
def test_batched_candidates_match_scalar_draws(m, V, temperature, seed):
    probs = candidate_rows(np.random.default_rng(seed), m, V)
    before = probs.copy()
    rng_ref = np.random.default_rng(seed + 1)
    want = [scalar_candidate(p, temperature, rng_ref) for p in probs]
    rng = np.random.default_rng(seed + 1)
    tokens, conf = _sample_candidates(probs, temperature, rng)
    assert np.array_equal(probs.view(np.int64), before.view(np.int64))
    assert tokens.tolist() == [j for j, _ in want]
    assert np.array_equal(conf.view(np.int64),
                          np.array([c for _, c in want]).view(np.int64))
    assert rng.bit_generator.state == rng_ref.bit_generator.state


# name -> (model, tokens committed per step, flat tau). "bench" is the
# benchmark's mid-model decode shape, at its tau.
PIN_CONFIGS = {
    "default": (ModelConfig(), 1, 0.05),
    "l2h2-gelu": (ModelConfig(L=2, H=2, d=16, d_int=32, B=8,
                              activation="gelu", seed=1), 1, 0.05),
    "bench": (MID, 1, 0.002),
    "bench-4": (MID, 4, 0.002),
}

# Two blocks per decode, seed 5; recorded before candidate draws were
# batched ("default", "l2h2-gelu") or before attention ran over all heads
# in one product ("bench", "bench-4"). Each entry is the final token
# sequence and, where listed, the reused count of every (step, layer) slot
# in step order; the trace digests below pin every bit of the rest.
PINNED_DECODES = {
    ("default", 1.0, "full"): ([1, 12, 31, 9, 2, 26, 20, 31], None),
    ("default", 1.0, "kv"): ([1, 12, 31, 9, 2, 26, 20, 31],
                             [0, 3, 0, 3, 0, 4, 0, 3]),
    ("default", 1.0, "o"): ([1, 31, 12, 9, 2, 26, 20, 31],
                            [0, 3, 0, 3, 0, 4, 0, 3]),
    ("default", 0.7, "full"): ([1, 31, 16, 12, 2, 26, 20, 31], None),
    ("default", 0.7, "kv"): ([1, 31, 16, 12, 2, 26, 20, 31],
                             [0, 3, 0, 3, 0, 4, 0, 3]),
    ("default", 0.7, "o"): ([1, 31, 16, 12, 4, 26, 20, 31],
                            [0, 3, 0, 3, 0, 4, 0, 3]),
    ("l2h2-gelu", 1.0, "full"): (
        [27, 9, 15, 0, 27, 11, 29, 0, 27, 20, 25, 23, 4, 0, 13, 16], None),
    ("l2h2-gelu", 1.0, "kv"): (
        [0, 10, 10, 16, 29, 6, 16, 0, 27, 20, 24, 23, 20, 0, 25, 13],
        [0, 0, 7, 7, 0, 0, 7, 7, 0, 0, 7, 3, 0, 0, 7, 2,
         0, 0, 7, 8, 0, 0, 7, 7, 0, 0, 7, 1, 0, 0, 7, 3]),
    ("l2h2-gelu", 1.0, "o"): (
        [0, 10, 10, 16, 29, 6, 16, 0, 27, 25, 24, 23, 20, 0, 12, 13],
        [0, 0, 7, 7, 0, 0, 7, 7, 0, 0, 7, 7, 0, 0, 7, 7,
         0, 0, 7, 8, 0, 0, 7, 7, 0, 0, 7, 7, 0, 0, 7, 7]),
    ("l2h2-gelu", 0.7, "full"): (
        [27, 0, 15, 0, 17, 27, 12, 27, 27, 27, 20, 5, 4, 0, 25, 16], None),
    ("l2h2-gelu", 0.7, "kv"): (
        [27, 0, 10, 15, 17, 11, 16, 0, 27, 27, 20, 5, 4, 0, 25, 16],
        [0, 0, 7, 8, 0, 0, 7, 6, 0, 0, 7, 3, 0, 0, 7, 3,
         0, 0, 7, 8, 0, 0, 7, 7, 0, 0, 7, 1, 0, 0, 7, 4]),
    ("l2h2-gelu", 0.7, "o"): (
        [27, 0, 10, 15, 17, 12, 16, 0, 27, 27, 20, 5, 4, 0, 25, 16],
        [0, 0, 7, 8, 0, 0, 7, 7, 0, 0, 7, 7, 0, 0, 7, 7,
         0, 0, 7, 8, 0, 0, 7, 7, 0, 0, 7, 7, 0, 0, 7, 7]),
    ("bench", 1.0, "full"): (
        [14, 17, 29, 13, 13, 29, 13, 29, 13, 26, 29, 13, 4, 29, 29, 13, 29,
         13, 29, 13, 29, 13, 7, 13, 29, 10, 29, 13, 10, 13, 29, 13, 4, 13,
         29, 29, 13, 26, 13, 13, 13, 29, 26, 29, 13, 4, 13, 26, 13, 21, 26,
         29, 17, 13, 26, 13, 4, 29, 26, 13, 13, 4, 13, 13],
        None),
    ("bench", 1.0, "kv"): (
        [15, 17, 29, 13, 14, 29, 13, 29, 13, 26, 29, 13, 4, 29, 29, 13, 29,
         13, 29, 13, 29, 13, 7, 13, 29, 10, 29, 13, 10, 13, 29, 13, 4, 13,
         29, 29, 13, 26, 13, 13, 29, 29, 29, 29, 13, 13, 13, 4, 26, 13, 26,
         26, 21, 13, 17, 26, 13, 29, 29, 13, 4, 4, 13, 13],
        None),
    ("bench", 1.0, "o"): (
        [15, 17, 29, 13, 14, 29, 13, 29, 13, 26, 29, 13, 4, 29, 29, 13, 29,
         13, 29, 13, 29, 13, 7, 13, 29, 10, 29, 13, 10, 13, 29, 13, 4, 13,
         29, 29, 13, 26, 13, 13, 29, 29, 29, 29, 13, 13, 13, 4, 26, 13, 26,
         26, 21, 13, 17, 26, 13, 29, 29, 13, 4, 4, 13, 13],
        None),
    ("bench", 0.7, "full"): (
        [29, 13, 13, 29, 3, 29, 10, 29, 29, 29, 13, 13, 13, 13, 29, 13, 4,
         29, 29, 29, 13, 29, 13, 7, 13, 13, 29, 13, 13, 13, 29, 13, 13, 13,
         29, 29, 13, 13, 13, 13, 13, 29, 26, 29, 17, 13, 13, 4, 26, 13, 21,
         26, 29, 13, 13, 13, 26, 29, 4, 13, 13, 4, 13, 13],
        None),
    ("bench", 0.7, "kv"): (
        [29, 13, 13, 29, 3, 29, 10, 29, 29, 29, 13, 13, 13, 13, 29, 13, 4,
         29, 29, 29, 13, 29, 13, 7, 13, 13, 29, 13, 13, 13, 29, 13, 13, 13,
         29, 29, 13, 13, 13, 13, 13, 29, 26, 29, 17, 13, 13, 4, 26, 13, 21,
         26, 29, 13, 13, 26, 4, 29, 13, 13, 4, 13, 13, 13],
        None),
    ("bench", 0.7, "o"): (
        [29, 13, 13, 29, 3, 29, 10, 29, 29, 29, 13, 13, 13, 13, 29, 13, 4,
         29, 29, 29, 13, 29, 13, 7, 13, 13, 29, 13, 13, 13, 29, 13, 13, 13,
         29, 29, 13, 13, 13, 13, 29, 13, 29, 26, 17, 13, 13, 4, 26, 13, 21,
         26, 29, 13, 13, 26, 4, 29, 13, 13, 4, 13, 13, 13],
        None),
    ("bench-4", 1.0, "full"): (
        [6, 13, 10, 17, 26, 6, 13, 17, 13, 29, 26, 29, 13, 26, 29, 13, 6,
         22, 29, 26, 13, 29, 29, 26, 10, 29, 29, 29, 30, 13, 4, 17, 13, 13,
         13, 29, 7, 29, 15, 13, 17, 26, 7, 10, 13, 29, 25, 13, 14, 14, 13,
         10, 29, 29, 15, 6, 28, 7, 17, 4, 13, 29, 6, 10],
        None),
    ("bench-4", 1.0, "kv"): (
        [27, 13, 15, 17, 10, 6, 4, 13, 13, 6, 29, 26, 29, 10, 29, 26, 13,
         13, 29, 6, 15, 22, 29, 29, 26, 29, 26, 29, 10, 30, 4, 17, 13, 13,
         13, 29, 7, 29, 15, 13, 7, 25, 26, 29, 7, 7, 10, 29, 13, 14, 13,
         14, 10, 29, 28, 29, 6, 7, 30, 17, 4, 13, 6, 10],
        None),
    ("bench-4", 1.0, "o"): (
        [27, 13, 15, 17, 10, 6, 4, 13, 13, 6, 29, 26, 29, 10, 29, 26, 13,
         13, 29, 6, 15, 21, 29, 29, 26, 29, 25, 29, 10, 30, 4, 17, 13, 13,
         13, 29, 7, 29, 15, 13, 7, 25, 26, 29, 7, 7, 10, 29, 13, 14, 13,
         14, 10, 29, 28, 29, 6, 7, 30, 17, 4, 13, 6, 10],
        None),
    ("bench-4", 0.7, "full"): (
        [6, 13, 13, 10, 26, 6, 17, 13, 13, 13, 26, 29, 29, 26, 29, 13, 7,
         22, 29, 29, 26, 10, 29, 13, 29, 29, 29, 29, 10, 30, 13, 4, 13, 13,
         13, 29, 7, 29, 15, 13, 25, 29, 26, 29, 13, 7, 29, 10, 13, 13, 13,
         10, 15, 29, 29, 10, 13, 7, 13, 28, 13, 29, 4, 10],
        None),
    ("bench-4", 0.7, "kv"): (
        [6, 13, 13, 10, 26, 6, 17, 13, 13, 13, 26, 29, 29, 26, 29, 13, 7,
         22, 29, 29, 26, 26, 29, 10, 13, 29, 29, 29, 10, 30, 13, 4, 13, 13,
         13, 29, 7, 29, 15, 13, 25, 29, 26, 29, 13, 7, 29, 10, 13, 13, 13,
         10, 15, 29, 29, 10, 13, 7, 13, 28, 13, 29, 4, 10],
        None),
    ("bench-4", 0.7, "o"): (
        [6, 13, 13, 10, 26, 6, 17, 13, 13, 13, 26, 29, 29, 26, 29, 13, 7,
         21, 29, 29, 26, 10, 29, 13, 13, 29, 10, 29, 30, 13, 13, 4, 13, 13,
         13, 29, 7, 29, 15, 13, 25, 29, 26, 29, 13, 7, 29, 10, 13, 13, 13,
         10, 15, 29, 29, 10, 13, 7, 13, 28, 13, 29, 4, 10],
        None),
}

# sha256 of trace_digest's bytes, per PINNED_DECODES key.
PINNED_TRACE_DIGESTS = {
    ("bench", 0.7, "full"):
        "e1ac9bd027d705f22a6022277fda042415ff137ddf58f585a601413f3dc52c4a",
    ("bench", 0.7, "kv"):
        "c98374a037572873c713637982ed250d8371c49362e67b0e432a677a314e12a1",
    ("bench", 0.7, "o"):
        "7d784f654b45b7b2770aae3401d91c44a312f4d1a977d9b3bc9c0d87b1e4c489",
    ("bench", 1.0, "full"):
        "63e96bf4f729bb15cf73796a52186771c5e632d34fc515feff3a79436cc04b68",
    ("bench", 1.0, "kv"):
        "eb4ae51ba94715751c78d29229bfbcf192c73565fbf0376f675b3876e9dc4eae",
    ("bench", 1.0, "o"):
        "421b2d2869edb1efe17001f8a06c69a9844f35da864c7f02c0c800b377b39329",
    ("bench-4", 0.7, "full"):
        "a587f58f5d08c054dfd2f950fdc9179cc47309712c8e5d85290d26cf39bec4ee",
    ("bench-4", 0.7, "kv"):
        "9a63a9bf57fad580ca0cafafe424b88c437234014f9fc2c9c85c3774845afc79",
    ("bench-4", 0.7, "o"):
        "6e04224ca8eeec253f771d5eeed955e540696c232d6db97006fb5cf546712703",
    ("bench-4", 1.0, "full"):
        "a4e3f8e73833cb326a17a6f29b4a7909d5bb1003c1052585ccf8d4c8bcd725f7",
    ("bench-4", 1.0, "kv"):
        "149885f85d2b6497ce43c366ad1aae8a6ae99e2451cca1189ff1c6e52f6032ba",
    ("bench-4", 1.0, "o"):
        "faa989b826779a2e85b3b55e68641a5386b6e6129fa956aecbe786e37c3e9871",
    ("default", 0.7, "full"):
        "77a74c6ff04f632b3523fc2a235d6a4343d1d653244de9abde8fc67bf3c1e34b",
    ("default", 0.7, "kv"):
        "75c149ce0bbd0406a934137c40884a8dc618dcf00c962ef22b3e4af7d2d439ad",
    ("default", 0.7, "o"):
        "d0fbd8de578f53a064579795feed38a0b123871c6e280a7f4cf7737a7773b175",
    ("default", 1.0, "full"):
        "83322b2ba5720c12394e4992fd11e73cd65a5a1eb6f7f03c122c976c4026bf04",
    ("default", 1.0, "kv"):
        "7079755ce85abee58b89d0dc9d52d08bf64db1d7eee2d6db27e70869199a5dcb",
    ("default", 1.0, "o"):
        "b1646e37157a1ab19d764b502dc856d38cd2ac5c7918cb8b3ba7e0d235599ad6",
    ("l2h2-gelu", 0.7, "full"):
        "a8d440a0abfab5b82b54922564c69ab6fafc4bd5ac74fae1f29216962c846a98",
    ("l2h2-gelu", 0.7, "kv"):
        "f7e41978e11d736bc877e7d50de751884fd011c2f92ec670b6a716d28204a419",
    ("l2h2-gelu", 0.7, "o"):
        "a547a63ddb22b36a00e1bf4c97f3e50aa83d3cb31412aa29f167af690c7a87da",
    ("l2h2-gelu", 1.0, "full"):
        "a51b6443ee03a24f330e0812a143f87d8f8065704206381256b0864e7f262bd9",
    ("l2h2-gelu", 1.0, "kv"):
        "4728c0c7202af08ebfcaba4a3fc176dd134de7d644284ee63d93128f6520074c",
    ("l2h2-gelu", 1.0, "o"):
        "88ee9a037e0f0b3b2d634d390b55a6e149b63922eacd4831edbeee45cfba846d",
}


def trace_digest(trace) -> str:
    """Digest of every array a decode trace records, bit for bit."""
    h = hashlib.sha256()
    for rec, norm in zip(trace.records, staleness_norms(trace.records)):
        parts = [rec.input_tokens, rec.unmasked, rec.confidences,
                 np.float64(norm), *rec.q_head0]
        for dec in rec.decisions:
            parts += [dec.reused.astype(np.int64),
                      dec.refreshed.astype(np.int64),
                      np.array([dec.eligible, dec.staleness_l2])]
        for a in parts:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def pinned_decode(key):
    name, temperature, mode = key
    cfg, per_step, tau = PIN_CONFIGS[name]
    sc = SamplerConfig(gen_length=2 * cfg.B, block_size=cfg.B,
                       steps_per_block=cfg.B // per_step,
                       tokens_unmasked_per_step=per_step,
                       temperature=temperature, seed=5)
    profile = None if mode == "full" else flat_profile(tau, L=cfg.L)
    return diffusion_generate(init_weights(cfg), sc, profile, mode)


@pytest.mark.parametrize("temperature", [0.7, 1.0])
@pytest.mark.parametrize("cfg", [
    ModelConfig(seed=1),
    ModelConfig(L=2, H=2, d=8, d_int=16, n_vocab=32, B=4,
                activation="gelu", seed=1)], ids=["default", "L2-H2"])
def test_decoding_leaks_no_floating_point_warnings(cfg, temperature):
    # The gate and the sampler silence the 0/0 of a zero query row and the
    # log of a zero probability in their own np.errstate blocks.
    w = init_weights(cfg)
    sc = SamplerConfig(gen_length=4 * cfg.B, block_size=cfg.B,
                       steps_per_block=cfg.B, temperature=temperature, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("full", "kv", "o"):
            profile = None if mode == "full" else flat_profile(0.05, cfg.L)
            _, trace = diffusion_generate(w, sc, profile, mode)
            if mode != "full":
                assert sum(d.reused_count for d in trace.decisions_flat())
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert reuse_set(q, q.copy(), np.inf).tolist() == [0]
        _sample_candidates(np.array([[0.0, 1.0], [0.5, 0.5]]), temperature,
                           np.random.default_rng(0))


@pytest.mark.parametrize("key", sorted(PINNED_DECODES))
def test_decode_stream_is_pinned(key):
    tokens, trace = pinned_decode(key)
    want_tokens, want_reused = PINNED_DECODES[key]
    assert tokens.tolist() == want_tokens
    if want_reused is not None:
        assert [d.reused_count for d in trace.decisions_flat()] \
            == want_reused
    assert trace_digest(trace) == PINNED_TRACE_DIGESTS[key]


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
    run = coupled_generate(w, "kv", [(3, disabled_profile())], 6)
    assert np.array_equal(run.full_tokens, run.reuse_tokens)
    assert np.max(run.per_step_embed_error) == 0.0
    assert np.max(run.per_step_l1_gap) == 0.0
    assert np.max(run.per_step_delta_l2) == 0.0
    assert not run.per_step_delta.any()


def test_coupled_forced_reuse_grows_staleness_linearly():
    cfg, w = make_model()
    T = 6
    run = coupled_generate(w, "kv", [(9, flat_profile(2.0))], T,
                           refresh_interval=T + 1)
    for t in range(T):
        assert np.all(run.per_step_delta[0, t] == t)
    assert isinstance(run, CoupledRun)
    assert run.per_step_embed_error.shape == (1, T + 1)
    assert run.per_step_l1_gap.shape == (1, T)
    assert run.per_step_embed_error[0, 0] == 0.0


def test_coupled_run_validation():
    # A reuse mode, and for each trial a profile of the model's layers.
    cfg, w = make_model()
    with pytest.raises(ConfigError):
        coupled_generate(w, "full", [(0, disabled_profile())], 4)
    with pytest.raises(ConfigError):
        coupled_generate(w, "kv", [(0, disabled_profile()), (1, None)], 4)
    two_layers = DriftProfile(s_layer=(0.0,) * 2, phi_layer=(1.0,) * 2,
                              tau_layer=(0.5,) * 2, phi_bar=1.0, epsilon=1.0)
    with pytest.raises(DimensionError):
        coupled_generate(w, "kv", [(0, two_layers)], 4)


def test_coupled_reuse_modes_record_decisions():
    # One L x B staleness matrix per step records the step's decisions:
    # rows reused there have counters > 0. Gated steps (even t at refresh
    # interval 2) reuse nothing.
    cfg, w = make_model()
    for mode in ("kv", "o"):
        run = coupled_generate(w, mode, [(21, flat_profile(0.3))], 5,
                               refresh_interval=2)
        assert run.per_step_delta.shape == (1, 5, cfg.L, cfg.B)
        assert not run.per_step_delta[0, ::2].any()
        assert np.all(run.per_step_delta <= 1)
        assert np.all(run.per_step_embed_error >= 0.0)
        assert np.all(run.per_step_l1_gap >= 0.0)


def test_decode_loops_check_the_mask_id_and_zero_rows():
    # The loops look rows up without range checks, so the mask id is
    # checked once per decode; an exactly-zero embedding row still fails.
    cfg, w = make_model()
    sc = SamplerConfig(gen_length=4, block_size=4, steps_per_block=4,
                       tokens_unmasked_per_step=1, seed=3)
    emb = w.emb.copy()
    emb[w.mask_token] = 0.0
    for bad in (dataclasses.replace(w, mask_token=cfg.n_vocab),
                dataclasses.replace(w, mask_token=-1),
                dataclasses.replace(w, emb=emb)):
        with pytest.raises(DegenerateInputError):
            diffusion_generate(bad, sc, None, "full")
        with pytest.raises(DegenerateInputError):
            coupled_generate(bad, "o", [(3, flat_profile(0.05))], 4)


def count_reference_passes(monkeypatch):
    """Patch the sampler so that each model_step call of a coupled run
    appends a counter of the forward_full calls that follow it."""
    per_step = []
    model_step, forward_full = sampler.model_step, sampler.forward_full

    def counted_step(*args):
        per_step.append(0)
        return model_step(*args)

    def counted_full(*args):
        per_step[-1] += 1
        return forward_full(*args)

    monkeypatch.setattr(sampler, "model_step", counted_step)
    monkeypatch.setattr(sampler, "forward_full", counted_full)
    return per_step


@pytest.mark.parametrize("mode", ["kv", "o"])
def test_coupled_reference_pass_runs_only_after_reuse(mode, monkeypatch):
    cfg, w = make_model()
    T = 6
    per_step = count_reference_passes(monkeypatch)
    coupled_generate(w, mode, [(9, disabled_profile())], T)
    assert per_step == [0] * T
    per_step.clear()
    run = coupled_generate(w, mode, [(9, flat_profile(2.0))], T,
                           refresh_interval=T + 1)
    assert len(per_step) == T and per_step[0] == 0
    assert all(n >= 1 for n in per_step[1:])
    # Every row reused at every step after the first.
    assert np.all(run.per_step_delta[0, 1:] > 0)


def test_coupled_step_without_reuse_still_checks_its_input(monkeypatch):
    cfg, w = make_model()
    embed_ids = sampler.embed_ids

    def unnormalized(weights, tokens):
        x = embed_ids(weights, tokens).copy()
        x[0] *= 2.0
        return x

    monkeypatch.setattr(sampler, "embed_ids", unnormalized)
    per_step = count_reference_passes(monkeypatch)
    with pytest.raises(DegenerateInputError):
        coupled_generate(w, "kv", [(3, disabled_profile())], 4)
    assert per_step == [0]  # step 0 reused nothing and ran no full pass
