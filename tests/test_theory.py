"""Tests for the closed-form reuse error bounds and the verify harness."""

import collections
import dataclasses
import gc
import hashlib
import json
import math
import warnings
import weakref

import numpy as np
import pytest

from reuselab import theory
from reuselab.drift import DriftProfile
from reuselab.errors import ConfigError, DegenerateInputError, RegimeError
from reuselab.linalg import condition_kappa
from reuselab.model import ModelConfig, init_weights
from reuselab.sampler import SamplerConfig
from reuselab.theory import (
    TheoryReport,
    cumulative_series,
    kv_step_bound,
    lipschitz_G,
    o_step_bound,
    softmax_lipschitz_gap,
    tau_tilde,
    verify_run,
)

# Frozen once from the first evaluation on the d=8/seed=1 fixture weights;
# guards the constant assembly against regressions. The independent numpy
# oracle below guards the norm primitives themselves.
G_D8_SEED1 = 3462.5257664004903
KV_BOUND_D8_TAU005_DELTA2 = 904.621079864213
O_BOUND_D8_TAU005_DELTA_1020 = 70411.11476317683


def theory_model():
    cfg = ModelConfig(L=1, H=1, d=8, d_int=16, n_vocab=32, B=4,
                      activation="relu", seed=1)
    return cfg, init_weights(cfg)


def flat_profile(tau, L=1):
    return DriftProfile(s_layer=(0.0,) * L, phi_layer=(1.0,) * L,
                        tau_layer=(tau,) * L, phi_bar=1.0, epsilon=1.0)


def svd_spectral(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# lipschitz_G
# ---------------------------------------------------------------------------

def test_lipschitz_g_zero_value_weights_gives_zero():
    _, w = theory_model()
    lw = dataclasses.replace(w.layers[0], w_v=np.zeros_like(w.layers[0].w_v))
    w0 = dataclasses.replace(w, layers=(lw,))
    assert lipschitz_G(w0) == 0.0


def test_lipschitz_g_doubles_with_w_o():
    _, w = theory_model()
    lw = dataclasses.replace(w.layers[0], w_o=2.0 * w.layers[0].w_o)
    w2 = dataclasses.replace(w, layers=(lw,))
    assert lipschitz_G(w2) == 2.0 * lipschitz_G(w)


def test_lipschitz_g_pinned_fixture_and_numpy_oracle():
    cfg, w = theory_model()
    g = lipschitz_G(w)
    assert abs(g - G_D8_SEED1) / G_D8_SEED1 < 1e-9

    lw = w.layers[0]
    rows = np.linalg.norm(w.emb, axis=1)
    oracle = (rows.sum() * svd_spectral(lw.w_d) * 1.0 * svd_spectral(lw.w_u)
              * svd_spectral(lw.w_o) * svd_spectral(lw.w_v)
              * cfg.B * (2.0 * w.r_emb ** 2 * svd_spectral(lw.w_q)
                         * svd_spectral(lw.w_k) / math.sqrt(cfg.d) + 1.0))
    assert abs(g - oracle) / oracle < 1e-8


def test_lipschitz_g_rejects_wrong_regime():
    cfg = ModelConfig(L=2, H=1, d=8, d_int=16, n_vocab=32, B=4,
                      activation="relu", seed=1)
    with pytest.raises(RegimeError):
        lipschitz_G(init_weights(cfg))
    cfg = ModelConfig(L=1, H=2, d=8, d_int=16, n_vocab=32, B=4,
                      activation="relu", seed=1)
    with pytest.raises(RegimeError):
        lipschitz_G(init_weights(cfg))


# ---------------------------------------------------------------------------
# tau_tilde
# ---------------------------------------------------------------------------

def test_tau_tilde_isotropic_query_map_is_exact():
    for tau in (0.0, 1e-3, 0.05, 0.3, 1.0):
        for d in (1, 4, 8, 64):
            assert tau_tilde(tau, d, 1.0) == tau * d


def test_tau_tilde_zero_threshold():
    assert tau_tilde(0.0, 8, 5.0) == 0.0


def test_tau_tilde_reference_value():
    assert abs(tau_tilde(0.1, 8, 2.0) - 6.4 / 2.3) < 1e-12


def test_tau_tilde_monotone_in_all_arguments():
    taus = np.linspace(0.01, 0.5, 8)
    ds = (2, 4, 8, 16)
    kappas = (1.0, 1.5, 2.0, 4.0, 8.0)
    for d in ds:
        for k in kappas:
            vals = [tau_tilde(t, d, k) for t in taus]
            assert all(b > a for a, b in zip(vals, vals[1:]))
    for t in (0.05, 0.2):
        for k in kappas:
            vals = [tau_tilde(t, d, k) for d in ds]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for d in ds:
            vals = [tau_tilde(t, d, k) for k in kappas]
            assert all(b > a for a, b in zip(vals, vals[1:]))


def direct_tau_tilde(tau, d, kappa):
    """tau_tilde's direct form, which overflows for a huge tau."""
    return 2.0 * tau * d * kappa ** 2 / (2.0 + tau * (kappa ** 2 - 1.0))


@pytest.mark.parametrize("tau", [1e300, 1e305, 1e306, 1e308, math.inf])
def test_tau_tilde_is_finite_for_huge_tau(tau):
    # The limit 2 d kappa^2 / (kappa^2 - 1) is 16.02 at d = 8, kappa = 28;
    # the direct form is inf from 1e305 and NaN from 1e306 there.
    d, kappa = 8, 28.0
    limit = 2.0 * d * kappa ** 2 / (kappa ** 2 - 1.0)
    got = tau_tilde(tau, d, kappa)
    assert math.isfinite(got)
    assert abs(got - limit) <= 1e-15 * limit
    assert got <= limit
    assert tau_tilde(tau, d, 1.0) == tau * d  # inf from 1e306 on


def test_tau_tilde_keeps_the_direct_forms_finite_values():
    # Every tau whose direct form is finite keeps its bits, so no bound
    # the verify pins read moves; where it overflows, the value is the
    # limit to rounding.
    taus = [0.0] + [m * 10.0 ** e for e in range(-320, 309, 7)
                    for m in (1.0, 2.5, 7.3)] + [1e306, 1e308, math.inf]
    for d in (1, 8, 64):
        for kappa in (1.0, 2.0, 28.0, 1e3):
            limit = (2.0 * d * kappa ** 2 / (kappa ** 2 - 1.0)
                     if kappa > 1.0 else math.inf)
            for t in taus:
                got = tau_tilde(t, d, kappa)
                want = direct_tau_tilde(t, d, kappa)
                if math.isfinite(want):
                    assert np.float64(got).tobytes() \
                        == np.float64(want).tobytes(), (t, d, kappa)
                else:
                    assert got == limit or abs(got - limit) <= 1e-15 * limit, \
                        (t, d, kappa)


def test_tau_tilde_rejects_bad_domain():
    with pytest.raises(DegenerateInputError):
        tau_tilde(-0.1, 8, 2.0)
    with pytest.raises(DegenerateInputError):
        tau_tilde(0.1, 8, 0.5)
    with pytest.raises(DegenerateInputError):
        tau_tilde(0.1, 0, 2.0)


# ---------------------------------------------------------------------------
# kv_step_bound
# ---------------------------------------------------------------------------

def test_kv_step_bound_zero_cases():
    _, w = theory_model()
    assert kv_step_bound(w, 0.05, 0.0) == 0.0
    assert kv_step_bound(w, 0.0, 2.0) == 0.0
    assert kv_step_bound(w, None, 2.0) == 0.0


def test_kv_step_bound_fixture_matches_scalar_reevaluation():
    cfg, w = theory_model()
    got = kv_step_bound(w, 0.05, 2.0)
    assert abs(got - KV_BOUND_D8_TAU005_DELTA2) < 1e-6

    # Re-evaluate the formula as one scalar expression with the package
    # norms (guards the assembly)...
    from reuselab.linalg import norm_2_to_inf, spectral_norm
    lw = w.layers[0]
    kappa = condition_kappa(lw.w_q)
    tt = 2.0 * 0.05 * cfg.d * kappa ** 2 / (2.0 + 0.05 * (kappa ** 2 - 1.0))
    sv = spectral_norm(lw.w_v)
    expr = (math.sqrt(2.0) * cfg.B * norm_2_to_inf(w.emb)
            * spectral_norm(lw.w_d) * 1.0 * spectral_norm(lw.w_u)
            * spectral_norm(lw.w_o)
            * (sv + sv * spectral_norm(lw.w_q) / math.sqrt(cfg.d))
            * math.sqrt(tt) * 2.0)
    assert abs(got - expr) / expr < 1e-10

    # ...and once more with numpy norms only (guards the primitives).
    rows_max = float(np.linalg.norm(w.emb, axis=1).max())
    s = np.linalg.svd(lw.w_q, compute_uv=False)
    kappa_np = float(s[0] / s[-1])
    tt_np = 2.0 * 0.05 * cfg.d * kappa_np ** 2 / (2.0 + 0.05 * (kappa_np ** 2 - 1.0))
    sv_np = svd_spectral(lw.w_v)
    oracle = (math.sqrt(2.0) * cfg.B * rows_max * svd_spectral(lw.w_d)
              * svd_spectral(lw.w_u) * svd_spectral(lw.w_o)
              * (sv_np + sv_np * svd_spectral(lw.w_q) / math.sqrt(cfg.d))
              * math.sqrt(tt_np) * 2.0)
    assert abs(got - oracle) / oracle < 1e-8


def test_kv_step_bound_linear_in_staleness_norm():
    _, w = theory_model()
    one = kv_step_bound(w, 0.05, 1.0)
    three = kv_step_bound(w, 0.05, 3.0)
    assert abs(three - 3.0 * one) / three < 1e-12
    with pytest.raises(DegenerateInputError):
        kv_step_bound(w, 0.05, -1.0)


def test_kv_step_constant_ties_out():
    cfg, w = theory_model()
    kappa = condition_kappa(w.layers[0].w_q)
    tt = tau_tilde(0.05, cfg.d, kappa)
    expect = theory._model_bounds(w).C_W * math.sqrt(tt) * 2.0
    got = kv_step_bound(w, 0.05, 2.0)
    assert abs(got - expect) / expect < 1e-12


# ---------------------------------------------------------------------------
# o_step_bound
# ---------------------------------------------------------------------------

def test_o_step_bound_zero_cases():
    _, w = theory_model()
    assert o_step_bound(w, 0.05, (0, 0, 0, 0)) == 0.0
    assert o_step_bound(w, 0.0, (1, 0, 2, 0)) == 0.0
    assert o_step_bound(w, None, (1, 0, 2, 0)) == 0.0


def test_o_step_bound_fixture_matches_scalar_reevaluation():
    cfg, w = theory_model()
    got = o_step_bound(w, 0.05, (1, 0, 2, 0))
    assert abs(got - O_BOUND_D8_TAU005_DELTA_1020) / got < 1e-9

    lw = w.layers[0]
    rows_max = float(np.linalg.norm(w.emb, axis=1).max())
    s = np.linalg.svd(lw.w_q, compute_uv=False)
    kappa_np = float(s[0] / s[-1])
    tt_np = 2.0 * 0.05 * cfg.d * kappa_np ** 2 / (2.0 + 0.05 * (kappa_np ** 2 - 1.0))
    move = math.sqrt(2.0 * tt_np)
    fro = lambda a: float(np.linalg.norm(a))
    four = fro(lw.w_o) * fro(lw.w_v) * fro(lw.w_k) * fro(lw.w_q)
    total = 0.0
    for delta_i in (1, 2):
        m = delta_i * move
        total += (cfg.B * math.sqrt(cfg.d) * four * m
                  + math.sqrt(cfg.B * cfg.d) * four * math.sqrt(cfg.B) * m
                  + fro(lw.w_o) * fro(lw.w_v) * math.sqrt(cfg.B) * m)
    oracle = (rows_max * svd_spectral(lw.w_d) * 1.0 * svd_spectral(lw.w_u)
              * total)
    assert abs(got - oracle) / oracle < 1e-8


def test_o_step_terms_zero_query_map_leaves_values_term():
    _, w = theory_model()
    lw = dataclasses.replace(w.layers[0], w_q=np.zeros_like(w.layers[0].w_q))
    wq0 = dataclasses.replace(w, layers=(lw,))
    got = theory._model_bounds(wq0).o_terms(1.0, (1, 0, 2, 0))
    fro = lambda a: float(np.linalg.norm(a))
    expect = fro(lw.w_o) * fro(lw.w_v) * 2.0 * (1.0 + 2.0)
    assert abs(got - expect) / expect < 1e-12


def test_o_step_bound_scales_with_staleness():
    _, w = theory_model()
    one = o_step_bound(w, 0.05, (1, 0, 2, 0))
    two = o_step_bound(w, 0.05, (2, 0, 4, 0))
    assert abs(two - 2.0 * one) / two < 1e-12


@pytest.mark.parametrize("tau", [None, 0.0, 0.05, 0.5, math.inf])
def test_step_bounds_take_a_runs_stacked_staleness(tau):
    # One call on (trials, T) norms or (trials, T, B) counts gives every
    # entry the bits of its own scalar call, zero staleness included.
    _, w = theory_model()
    gen = np.random.default_rng(3)
    delta = gen.integers(0, 3, (5, 6, 4))
    delta[:, 0] = 0
    delta[1, 2, 1:] = 0
    norms = np.sqrt((delta * delta).sum(axis=2)).astype(np.float64)
    for stacked, scalar in ((kv_step_bound(w, tau, norms),
                             [[kv_step_bound(w, tau, x) for x in row]
                              for row in norms]),
                            (o_step_bound(w, tau, delta),
                             [[o_step_bound(w, tau, x) for x in row]
                              for row in delta])):
        assert stacked.shape == (5, 6) and stacked.dtype == np.float64
        assert all(type(x) is np.ndarray and x.shape == ()
                   for row in scalar for x in row)
        assert stacked.tobytes() == np.array(scalar).tobytes()
        if tau:
            assert (stacked[:, 1:] > 0).any()


def test_o_terms_skip_zero_counters_at_a_nan_displacement():
    _, w = theory_model()
    bounds = theory._model_bounds(w)
    zero = bounds.o_terms(math.nan, (0, 0, 0, 0))
    assert type(zero) is np.ndarray and zero.shape == () and zero == 0.0
    assert math.isnan(bounds.o_terms(math.nan, (0, 1, 0, 0)))
    got = bounds.o_terms(math.nan, [[0, 0, 0, 0], [0, 0, 2, 0]])
    assert got[0] == 0.0 and math.isnan(got[1])


def test_step_bounds_at_an_infinite_tau_tilde_warn_nothing(monkeypatch):
    # tau_tilde is inf at tau = inf when kappa_q is 1. Steps with no stale
    # token still get 0.0, and no inf * 0 reaches stderr as a warning.
    monkeypatch.setattr(theory, "tau_tilde", lambda t, d, k: math.inf)
    _, w = theory_model()
    delta = np.array([[[0, 0, 0, 0], [0, 1, 0, 2]]])
    norms = np.sqrt((delta * delta).sum(axis=2)).astype(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kv = kv_step_bound(w, math.inf, norms)
        o = o_step_bound(w, math.inf, delta)
    for got in (kv, o):
        assert got.tolist() == [[0.0, math.inf]]


def test_o_step_terms_rejects_bad_inputs():
    _, w = theory_model()
    bounds = theory._model_bounds(w)
    with pytest.raises(DegenerateInputError):
        bounds.o_terms(-1.0, (1, 0, 2, 0))
    with pytest.raises(DegenerateInputError):
        bounds.o_terms(1.0, (1, 0))


def test_step_bounds_read_the_weights_config():
    # Both bounds read B from the weights' own config. A B = 8 model has
    # the same arrays, so its kv bound doubles and its o bound needs one
    # staleness entry per token of its block.
    cfg, w = theory_model()
    wide = init_weights(dataclasses.replace(cfg, B=8))
    assert (wide.emb == w.emb).all()
    assert o_step_bound(w, 0.05, (1, 0, 2, 0)) \
        == O_BOUND_D8_TAU005_DELTA_1020
    assert kv_step_bound(wide, 0.05, 2.0) == 2.0 * kv_step_bound(w, 0.05, 2.0)
    assert o_step_bound(wide, 0.05, (1, 0, 2, 0, 0, 0, 0, 0)) > 0.0
    with pytest.raises(DegenerateInputError):
        o_step_bound(wide, 0.05, (1, 0, 2, 0))


# ---------------------------------------------------------------------------
# cumulative recursion
# ---------------------------------------------------------------------------

def test_cumulative_hand_recursion():
    series = cumulative_series(2.0, (1.0, 1.0, 1.0))
    assert series.tolist() == [0.0, 1.0, 3.0, 7.0]


def test_cumulative_zero_cases():
    assert cumulative_series(5.0, (0.0, 0.0, 0.0))[-1] == 0.0
    assert cumulative_series(0.0, (3.0, 2.0, 9.0))[-1] == 9.0
    assert cumulative_series(2.0, ()).tolist() == [0.0]


def test_cumulative_rejects_negative_inputs():
    with pytest.raises(DegenerateInputError):
        cumulative_series(-1.0, (1.0,))
    with pytest.raises(DegenerateInputError):
        cumulative_series(1.0, (-1.0,))


# ---------------------------------------------------------------------------
# softmax contraction
# ---------------------------------------------------------------------------

def test_softmax_gap_reference_pair():
    l1, linf = softmax_lipschitz_gap(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert abs(l1 - 0.4621171572600098) < 1e-12
    assert linf == 1.0
    assert l1 <= linf


def test_softmax_contraction_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n = int(rng.integers(2, 65))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        z = rng.normal(0.0, scale, n)
        z_prime = rng.normal(0.0, scale, n)
        l1, linf = softmax_lipschitz_gap(z, z_prime)
        assert l1 <= linf + 1e-9


def test_softmax_gap_rejects_mismatch():
    with pytest.raises(DegenerateInputError):
        softmax_lipschitz_gap(np.zeros(3), np.zeros(4))
    with pytest.raises(DegenerateInputError):
        softmax_lipschitz_gap(np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# verify_run
# ---------------------------------------------------------------------------

def run_config(T=8, seed=11):
    return SamplerConfig(gen_length=4, block_size=4, steps_per_block=T,
                         tokens_unmasked_per_step=1, temperature=1.0,
                         seed=seed)


def test_verify_run_kv_fixture_has_no_violations():
    _, w = theory_model()
    report = verify_run(w, run_config(), flat_profile(0.05), "kv", trials=8)
    assert report.violations == 0
    assert report.trials == 8
    assert len(report.per_step_bound) == 8
    assert len(report.cumulative_bound_series) == 9
    assert report.cumulative_bound == report.cumulative_bound_series[-1]
    assert report.cumulative_empirical == report.cumulative_empirical_series[-1]
    # Reuse actually fired, and every bound dominates its measurement.
    assert max(report.per_step_empirical) > 0.0
    for b, e in zip(report.per_step_bound, report.per_step_empirical):
        assert e <= b
    for b, e in zip(report.cumulative_bound_series,
                    report.cumulative_empirical_series):
        assert e <= b
    assert report.G > 0.0 and report.C_W > 0.0 and report.tau_tilde > 0.0
    assert report.kappa_q >= 1.0


def test_verify_run_o_mode_has_no_violations():
    _, w = theory_model()
    report = verify_run(w, run_config(seed=23), flat_profile(0.05), "o",
                        trials=4)
    assert report.violations == 0
    assert report.mode == "o"
    assert max(report.per_step_empirical) > 0.0


@pytest.mark.parametrize("mode", ["kv", "o"])
@pytest.mark.parametrize("tau", [math.inf, 1e308])
def test_verify_run_counts_nan_bounds_as_violations(mode, tau, monkeypatch):
    # tau_tilde's direct form is inf / inf there, so with it every bound at
    # a step with stale tokens is NaN. No gap lies below a NaN bound.
    # (tau_tilde itself falls back to a finite form there, as
    # test_tau_tilde_is_finite_for_huge_tau checks.)
    monkeypatch.setattr(theory, "tau_tilde", direct_tau_tilde)
    _, w = theory_model()
    report = verify_run(w, run_config(), flat_profile(tau), mode, trials=3)
    assert any(math.isnan(b) for b in report.per_step_bound)
    assert math.isnan(report.cumulative_bound)
    assert report.violations > 0


@pytest.mark.parametrize("mode, seed", [("kv", 11), ("o", 23)])
def test_verify_run_leaks_no_floating_point_warnings(mode, seed):
    _, w = theory_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_run(w, run_config(seed=seed), flat_profile(0.05),
                            mode, trials=8)
    assert max(report.per_step_empirical) > 0.0


def test_verify_run_disabled_profile_is_lossless():
    _, w = theory_model()
    profile = DriftProfile(s_layer=(0.0,), phi_layer=(0.0,),
                           tau_layer=(None,), phi_bar=0.0, epsilon=1.0)
    report = verify_run(w, run_config(T=4), profile, "kv", trials=3)
    assert report.violations == 0
    assert report.tau is None
    assert all(e == 0.0 for e in report.per_step_empirical)
    assert all(b == 0.0 for b in report.per_step_bound)
    assert report.cumulative_empirical == 0.0


def test_verify_run_is_deterministic():
    _, w = theory_model()
    a = verify_run(w, run_config(T=4), flat_profile(0.05), "kv", trials=3)
    b = verify_run(w, run_config(T=4), flat_profile(0.05), "kv", trials=3)
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert payload["violations"] == 0
    assert len(payload["per_step_bound"]) == 4


# A run seed and trial count at which each mode reuses at tau 0.05 on the
# theory_model weights, so that its per-step bounds are evaluated.
REUSING_RUN = {"kv": (23, 2), "o": (21, 3)}


@pytest.mark.parametrize("mode", ["kv", "o"])
def test_verify_run_computes_weight_constants_once(mode, monkeypatch):
    # kappa_q and the spectral norms depend on the weights only: the first
    # call on a weights object takes them and every later call on it
    # shares them. The weights cannot be edited in place; a model with an
    # edited matrix is a new object and takes its own.
    _, w = theory_model()
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(theory, "condition_kappa",
                        counted("kappa", theory.condition_kappa))
    monkeypatch.setattr(theory, "spectral_norm",
                        counted("spectral", theory.spectral_norm))

    def every_bound():
        return (lipschitz_G(w), kv_step_bound(w, 0.05, 2.0),
                o_step_bound(w, 0.05, (1, 0, 2, 0)))

    for run_mode in (mode, "o" if mode == "kv" else "kv"):
        seed, trials = REUSING_RUN[run_mode]
        report = verify_run(w, run_config(seed=seed), flat_profile(0.05),
                            run_mode, trials=trials)
        assert max(report.per_step_bound) > 0.0
        # One spectral norm per weight matrix on the first call: G, C_W
        # and the o-mode scale share them. None on the second.
        assert calls == ({"spectral": 6, "kappa": 1} if run_mode == mode
                         else {})
        calls.clear()
    before = every_bound()
    assert calls == {}

    with pytest.raises(ValueError):
        w.layers[0].w_v[0, 0] += 1.0
    assert every_bound() == before
    w_v = w.layers[0].w_v.copy()
    w_v[0, 0] += 1.0
    w = dataclasses.replace(
        w, layers=(dataclasses.replace(w.layers[0], w_v=w_v),))
    after = every_bound()
    assert calls == {"spectral": 6, "kappa": 1}
    assert after[0] != before[0]
    calls.clear()
    assert every_bound() == after
    assert calls == {}


def test_zero_step_bounds_read_no_weight_constants(monkeypatch):
    # A bound that is 0 for its tau or staleness alone neither takes the
    # constants nor digests the weights.
    _, w = theory_model()

    def unread(weights):
        raise AssertionError("weight constants read")

    monkeypatch.setattr(theory, "_model_bounds", unread)
    assert kv_step_bound(w, None, 2.0) == 0.0
    assert kv_step_bound(w, 0.0, 2.0) == 0.0
    assert kv_step_bound(w, 0.05, 0.0) == 0.0
    assert o_step_bound(w, None, (1, 0, 2, 0)) == 0.0
    assert o_step_bound(w, 0.05, (0, 0, 0, 0)) == 0.0


def test_weight_constants_keep_no_model_alive():
    _, w = theory_model()
    lipschitz_G(w)
    ref = weakref.ref(w)
    del w
    gc.collect()
    assert ref() is None


def test_weight_constants_follow_each_model():
    # Two weights objects with equal arrays each take their own constants;
    # neither can be edited in place, and a replaced copy with an edited
    # embedding takes fresh ones, leaving the original's as they were.
    _, w = theory_model()
    _, twin = theory_model()
    G = lipschitz_G(w)
    assert lipschitz_G(twin) == G
    with pytest.raises(ValueError):
        twin.emb[0] *= 2.0
    emb = twin.emb.copy()
    emb[0] *= 2.0
    assert lipschitz_G(dataclasses.replace(twin, emb=emb)) != G
    assert lipschitz_G(w) == G
    # r_emb is the embedding's: scaling the embedding scales it, and G.
    scaled = dataclasses.replace(w, emb=2.0 * w.emb)
    assert scaled.r_emb == 2.0 * w.r_emb
    assert lipschitz_G(scaled) != G


# The softmax spot check of verify_run as a loop of one softmax_lipschitz_gap
# call per pair: the same stream, the same draws in the same order.
def looped_spot_check(seed):
    rng = np.random.default_rng([int(seed), theory.SOFTMAX_CHECK_PAIRS])
    pairs = []
    for _ in range(theory.SOFTMAX_CHECK_PAIRS):
        n = int(rng.integers(2, 65))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        z, z_prime = rng.normal(0.0, scale, n), rng.normal(0.0, scale, n)
        pairs.append((z, z_prime, *softmax_lipschitz_gap(z, z_prime)))
    return pairs


def test_batched_spot_check_matches_the_per_pair_loop():
    # L1 sums the same |P - P'| terms in another order (the padded rows
    # are summed in full), and P and P' themselves are normalized by
    # sums taken in another order. Every term is at most 2 in total, so
    # the gap moves by a few ulps of 2, however small L1 is.
    slack = theory.SOFTMAX_CHECK_SLACK
    for seed in range(200):
        logits = theory._softmax_check_logits(seed)
        l1, linf = softmax_lipschitz_gap(*logits)
        pairs = looped_spot_check(seed)
        for i, (z, z_prime, want_l1, want_linf) in enumerate(pairs):
            n = z.size
            assert (logits[0, i, :n] == z).all()
            assert (logits[1, i, :n] == z_prime).all()
            assert (logits[:, i, n:] == -np.inf).all()
            assert linf[i] == want_linf
            assert abs(l1[i] - want_l1) <= 4 * np.spacing(2.0)
            assert (l1[i] > linf[i] + slack) == (want_l1 > want_linf + slack)


def test_verify_run_counts_spot_check_violations(monkeypatch):
    # A "softmax" that is not a contraction must make the spot check fail,
    # pair by pair as the per-pair loop counts it.
    _, w = theory_model()
    config = run_config(seed=23)
    clean = verify_run(w, config, flat_profile(0.05), "kv", trials=2)
    assert clean.violations == 0
    softmax_rows = theory.softmax_rows
    monkeypatch.setattr(theory, "softmax_rows",
                        lambda a: 50.0 * softmax_rows(a))
    seed = np.random.SeedSequence(config.seed).generate_state(2)[0]
    want = sum(l1 > linf + theory.SOFTMAX_CHECK_SLACK
               for *_, l1, linf in looped_spot_check(seed))
    report = verify_run(w, config, flat_profile(0.05), "kv", trials=2)
    assert 0 < want < theory.SOFTMAX_CHECK_PAIRS
    assert report.violations == want


def test_softmax_gap_batch_rows_are_their_pairs():
    # Each row of a batch gives its own pair's gaps bit for bit, and -inf
    # padding at the same places on both sides adds nothing to them.
    z = np.array([[0.0, 1.0, -np.inf], [2.0, -0.5, 1.5]])
    z_prime = np.array([[0.5, -1.0, -np.inf], [2.0, 0.25, -3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l1, linf = softmax_lipschitz_gap(z, z_prime)
    assert l1.shape == linf.shape == (2,)
    for i, n in enumerate((2, 3)):
        assert (l1[i], linf[i]) == softmax_lipschitz_gap(z[i, :n],
                                                         z_prime[i, :n])
    l1, linf = softmax_lipschitz_gap(z, z.copy())
    assert (l1 == 0.0).all() and (linf == 0.0).all()
    with pytest.raises(DegenerateInputError):
        softmax_lipschitz_gap(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(DegenerateInputError):
        softmax_lipschitz_gap(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))


# sha256 over the newline-terminated report.to_json() of every run in the
# grid of report_grid_digest, frozen when the coupled step was batched:
# reports must keep every bit.
PINNED_REPORT_DIGESTS = {
    "kv": "9a6ba6839a688ef871251d57d422a94b31e4ce625a8c8b84eab2471950b11d2a",
    "o": "67dca437869e1b461dee3120dafc4b0cd792133200753e6eea6bafb00516134e",
}


def report_grid_digest(mode):
    """Two weight seeds x tau in (0.01, 0.05, 0.3) x run seeds 11-13."""
    cfg, _ = theory_model()
    digest = hashlib.sha256()
    for weight_seed in (1, 2):
        w = init_weights(dataclasses.replace(cfg, seed=weight_seed))
        for tau in (0.01, 0.05, 0.3):
            for seed in (11, 12, 13):
                report = verify_run(w, run_config(seed=seed),
                                    flat_profile(tau), mode, trials=6)
                digest.update(report.to_json().encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("mode", ["kv", "o"])
def test_verify_run_reports_are_pinned(mode):
    assert report_grid_digest(mode) == PINNED_REPORT_DIGESTS[mode]


def test_lipschitz_g_and_kv_constant_match_the_step_bounds():
    _, w = theory_model()
    bounds = theory._model_bounds(w)
    assert lipschitz_G(w) == bounds.G


def test_verify_run_report_rows_align_with_series():
    _, w = theory_model()
    report = verify_run(w, run_config(T=4), flat_profile(0.05), "kv", trials=2)
    rows = list(report.per_step_rows())
    assert len(rows) == 4
    assert rows[0]["step"] == 0
    assert rows[2]["step_bound"] == report.per_step_bound[2]
    assert rows[3]["cumulative_bound"] == report.cumulative_bound_series[3]


def test_verify_run_validation():
    _, w = theory_model()
    profile = flat_profile(0.05)
    with pytest.raises(ConfigError):
        verify_run(w, run_config(), profile, "full", trials=2)
    with pytest.raises(ConfigError):
        verify_run(w, run_config(), profile, "kv", trials=0)
    with pytest.raises(ConfigError):
        verify_run(w, run_config(), None, "kv", trials=2)
    deep = ModelConfig(L=2, H=1, d=8, d_int=16, n_vocab=32, B=4,
                       activation="relu", seed=1)
    with pytest.raises(RegimeError):
        verify_run(init_weights(deep), run_config(), flat_profile(0.05, L=2),
                   "kv", trials=2)
