"""Acceptance suite: ten numbered behavior criteria, one test each.

Every test prints exactly one pass/fail verdict line with capture
disabled, so the line always reaches the run log, and then asserts.
Criteria with runtime budgets include the elapsed time in the verdict
and fail if the budget is exceeded.
"""

import dataclasses
import time

import numpy as np
import pytest

from reuselab.analysis import CostModel, flops_for_trace
from reuselab.cli import main as cli_main
from reuselab.drift import DriftProfile, allocate_quantiles, drift_score
from reuselab.linalg import condition_kappa
from reuselab.model import ModelConfig, init_weights
from reuselab.reuse import reuse_accounting
from reuselab.sampler import (
    SamplerConfig,
    couple_blocks,
    diffusion_generate,
)
from reuselab.theory import (
    lipschitz_G,
    softmax_lipschitz_gap,
    tau_tilde,
    verify_run,
)

from csv_metadata import read_csv_with_metadata


@pytest.fixture
def verdict(capsys):
    def report(num: int, name: str, passed: bool, detail: str) -> None:
        word = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] criterion {num:02d} ({name}): {word} "
                  f"| {detail}", flush=True)
        assert passed, f"criterion {num} ({name}) failed: {detail}"

    return report


def disabled_profile(L: int) -> DriftProfile:
    return DriftProfile(s_layer=(0.0,) * L, phi_layer=(0.0,) * L,
                        tau_layer=(None,) * L, phi_bar=0.0, epsilon=1.0)


def flat_profile(tau: float, L: int = 1) -> DriftProfile:
    return DriftProfile(s_layer=(0.0,) * L, phi_layer=(1.0,) * L,
                        tau_layer=(tau,) * L, phi_bar=1.0, epsilon=1.0)


# ---------------------------------------------------------------------------
# 1. Reuse disabled reproduces the full sampler exactly.
# ---------------------------------------------------------------------------

def test_criterion_01_disabled_reuse_is_exact(verdict):
    t0 = time.monotonic()
    rng = np.random.default_rng(20260814)
    mismatches = 0
    for i in range(100):
        d = int(rng.choice([4, 8, 16]))
        L = int(rng.choice([1, 2, 4]))
        B = int(rng.choice([2, 4, 8]))
        config = ModelConfig(
            L=L, H=int(rng.choice([1, 2])), d=d, d_int=2 * d,
            n_vocab=int(rng.integers(8, 33)), B=B,
            activation="relu" if i % 2 == 0 else "gelu",
            seed=int(rng.integers(2 ** 31)),
        )
        weights = init_weights(config)
        sampler = SamplerConfig(
            gen_length=2 * B, block_size=B, steps_per_block=B,
            tokens_unmasked_per_step=1, temperature=1.0,
            seed=int(rng.integers(2 ** 31)),
        )
        full, _ = diffusion_generate(weights, sampler, None, "full")
        if i % 2 == 0:
            # Route A: thresholds disabled in the profile.
            profile, refresh = disabled_profile(L), 2
        else:
            # Route B: thresholds wide open but a refresh forced every step.
            profile, refresh = flat_profile(2.0, L), 1
        for mode in ("kv", "o"):
            got, _ = diffusion_generate(weights, sampler, profile, mode,
                                        refresh_interval=refresh)
            mismatches += int(not np.array_equal(full, got))
    elapsed = time.monotonic() - t0
    verdict(1, "disabled reuse equals full decoding",
           mismatches == 0 and elapsed < 120.0,
           f"0 mismatches required, got {mismatches}; "
           f"100 configs x 2 modes in {elapsed:.1f}s (budget 120s)")


# ---------------------------------------------------------------------------
# 2. Maximal coupling: marginals and agreement probability.
# ---------------------------------------------------------------------------

def test_criterion_02_coupling_marginals_and_tv(verdict):
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    draws = 100_000
    worst_marginal = 0.0
    worst_tv_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        p = rng.random(n) + 1e-3
        p /= p.sum()
        q = rng.random(n) + 1e-3
        q /= q.sum()
        # The coupling the coupled sampler runs, on one block of `draws`
        # rows of the pair: the draws of `draws` maximal_coupling_sample
        # calls on the same generator.
        j, j_hat = couple_blocks(np.tile(p, (draws, 1)),
                                 np.tile(q, (draws, 1)), [rng])
        counts_p = np.bincount(j, minlength=n)
        counts_q = np.bincount(j_hat, minlength=n)
        disagreements = int((j != j_hat).sum())
        worst_marginal = max(worst_marginal,
                             float(np.abs(counts_p / draws - p).sum()),
                             float(np.abs(counts_q / draws - q).sum()))
        tv = 0.5 * float(np.abs(p - q).sum())
        worst_tv_gap = max(worst_tv_gap, abs(disagreements / draws - tv))
    elapsed = time.monotonic() - t0
    verdict(2, "coupling marginals and disagreement rate",
           worst_marginal <= 0.02 and worst_tv_gap <= 0.01 and elapsed < 60.0,
           f"worst marginal L1 {worst_marginal:.4f} (limit 0.02), "
           f"worst |P(disagree) - TV| {worst_tv_gap:.4f} (limit 0.01), "
           f"{elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# 3. Softmax output moves at most the sup-norm of the logit change.
# ---------------------------------------------------------------------------

def test_criterion_03_softmax_contraction(verdict):
    rng = np.random.default_rng(303)
    violations = 0
    worst_excess = -np.inf
    for k in range(10_000):
        n = int(rng.integers(2, 65))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        z = rng.normal(0.0, scale, n)
        if k % 2 == 0:
            z_prime = z + rng.normal(0.0, scale * 1e-2, n)
        else:
            z_prime = rng.normal(0.0, scale, n)
        l1, linf = softmax_lipschitz_gap(z, z_prime)
        worst_excess = max(worst_excess, l1 - linf)
        if l1 > linf + 1e-9:
            violations += 1
    verdict(3, "softmax sup-norm contraction",
           violations == 0,
           f"10000 pairs, dims 2..64, slack 1e-9; {violations} violations, "
           f"max l1 - linf = {worst_excess:.3e}")


# ---------------------------------------------------------------------------
# 4 and 5. Per-step and cumulative error bounds on the fixture grid.
# ---------------------------------------------------------------------------

BOUND_TAUS = (0.01, 0.05, 0.1)


@pytest.fixture(scope="module")
def bound_reports():
    config = ModelConfig(L=1, H=1, d=8, d_int=16, n_vocab=32, B=4,
                         activation="relu", seed=1)
    weights = init_weights(config)
    sampler = SamplerConfig(gen_length=4, block_size=4, steps_per_block=8,
                            tokens_unmasked_per_step=1, temperature=1.0,
                            seed=101)
    t0 = time.monotonic()
    reports = {}
    for mode in ("kv", "o"):
        for tau in BOUND_TAUS:
            reports[(mode, tau)] = verify_run(
                weights, sampler, flat_profile(tau), mode, 50)
    return reports, time.monotonic() - t0


def test_criterion_04_per_step_bounds(bound_reports, verdict):
    reports, elapsed = bound_reports
    violations = 0
    for report_ in reports.values():
        violations += report_.violations
        emp = np.asarray(report_.per_step_empirical)
        bound = np.asarray(report_.per_step_bound)
        violations += int(np.sum(emp > bound))
    verdict(4, "per-step output-gap bounds",
           violations == 0 and elapsed < 300.0,
           f"50 trials x tau in {BOUND_TAUS} x (kv, o) at d=8, B=4, T=8; "
           f"{violations} violations, {elapsed:.1f}s (budget 300s)")


def test_criterion_05_cumulative_bounds(bound_reports, verdict):
    reports, _ = bound_reports
    violations = 0
    for report_ in reports.values():
        emp = np.asarray(report_.cumulative_empirical_series)
        bound = np.asarray(report_.cumulative_bound_series)
        violations += int(np.sum(emp > bound))
    verdict(5, "cumulative error recursion dominates trial averages",
           violations == 0,
           f"6 fixture runs, T+1 checkpoints each; {violations} violations")


# ---------------------------------------------------------------------------
# 6. Geometric displacement bound for query-cosine-accepted pairs.
# ---------------------------------------------------------------------------

def test_criterion_06_geometric_displacement_bound(verdict):
    TAU = 0.1
    PAIRS_PER_CELL = 10_000
    violations = 0
    cells = 0
    for d in (4, 8, 16):
        for kappa_target in (1.0, 4.0, 16.0):
            rng = np.random.default_rng([606, d, int(kappa_target)])
            u, _ = np.linalg.qr(rng.normal(size=(d, d)))
            v, _ = np.linalg.qr(rng.normal(size=(d, d)))
            w = u @ np.diag(np.linspace(1.0, kappa_target, d)) @ v.T
            kappa = condition_kappa(w)
            limit = (4.0 * d * TAU * kappa ** 2
                     / (2.0 + TAU * (kappa ** 2 - 1.0)) + 1e-9)
            accepted = 0
            while accepted < PAIRS_PER_CELL:
                m = 20_000
                x = rng.normal(size=(m, d))
                x *= np.sqrt(d) / np.linalg.norm(x, axis=1, keepdims=True)
                step = 10.0 ** rng.uniform(-3.0, 0.3, size=(m, 1))
                y = x + step * rng.normal(size=(m, d))
                y *= np.sqrt(d) / np.linalg.norm(y, axis=1, keepdims=True)
                qx = x @ w
                qy = y @ w
                cos = (qx * qy).sum(axis=1) / (
                    np.linalg.norm(qx, axis=1) * np.linalg.norm(qy, axis=1))
                keep = cos >= 1.0 - TAU
                if not keep.any():
                    continue
                dist_sq = ((x[keep] - y[keep]) ** 2).sum(axis=1)
                take = min(PAIRS_PER_CELL - accepted, int(keep.sum()))
                violations += int(np.sum(dist_sq[:take] > limit))
                accepted += take
            cells += 1
    verdict(6, "accepted-pair displacement bound",
           violations == 0 and cells == 9,
           f"9 (d, kappa) cells x {PAIRS_PER_CELL} accepted pairs at "
           f"tau={TAU}, slack 1e-9; {violations} violations")


# ---------------------------------------------------------------------------
# 7. Budget allocation: mass conservation, monotonicity, hot limit.
# ---------------------------------------------------------------------------

def test_criterion_07_allocation_contract(verdict):
    rng = np.random.default_rng(707)
    worst_sum_gap = 0.0
    monotone = True
    worst_uniform_gap = 0.0
    for _ in range(200):
        L = int(rng.integers(1, 9))
        s = rng.uniform(0.0, 1.5, L)
        phi_bar = float(rng.uniform(0.05, 0.95))
        epsilon = float(10.0 ** rng.uniform(-2.0, 1.0))
        phi = allocate_quantiles(s, phi_bar, epsilon, clamp=False)
        worst_sum_gap = max(worst_sum_gap,
                            abs(float(phi.sum()) - L * phi_bar))
        order = np.argsort(s)
        if not np.all(np.diff(phi[order]) <= 1e-12):
            monotone = False
        phi_hot = allocate_quantiles(s, phi_bar, 1e9, clamp=False)
        worst_uniform_gap = max(worst_uniform_gap,
                                float(np.abs(phi_hot - phi_bar).max()))
    verdict(7, "budget allocation contract",
           worst_sum_gap <= 1e-9 and monotone and worst_uniform_gap < 1e-6,
           f"pre-clamp sum gap {worst_sum_gap:.2e} (limit 1e-9), "
           f"monotone in -s: {monotone}, "
           f"epsilon=1e9 uniform gap {worst_uniform_gap:.2e} (limit 1e-6)")


# ---------------------------------------------------------------------------
# 8. Accounting exactness and the budget sweep trend.
# ---------------------------------------------------------------------------

def test_criterion_08_accounting_exactness(tmp_path, monkeypatch, verdict):
    config = ModelConfig(L=2, H=1, d=8, d_int=16, n_vocab=16, B=4,
                         activation="relu", seed=8)
    weights = init_weights(config)
    sampler = SamplerConfig(gen_length=8, block_size=4, steps_per_block=8,
                            tokens_unmasked_per_step=1, temperature=1.0,
                            seed=88)
    _, trace = diffusion_generate(weights, sampler, flat_profile(1.0, L=2),
                                  "kv")
    accounting = reuse_accounting(trace.decisions_flat(), config.B)
    reused = 0
    eligible = 0
    decisions = 0
    for record in trace.records:
        for decision in record.decisions:
            decisions += 1
            reused += decision.reused_count
            eligible += int(decision.eligible)
    count_ok = (accounting["total_reused"] == reused
                and accounting["eligible_slots"] == eligible
                and accounting["reuse_fraction"]
                == reused / (eligible * config.B))

    cost = CostModel.from_config(config)
    full, actual, _ = flops_for_trace(trace, config, "kv")
    flops_ok = (full == cost.layer_step_flops() * decisions
                and full - actual == cost.kv_saving_per_token() * reused
                and reused > 0)

    monkeypatch.chdir(tmp_path)
    assert cli_main(["init-model", "--weights", "m.dare",
                     "--output-dir", "out"]) == 0
    assert cli_main(["bench", "--weights", "m.dare", "--output-dir", "out",
                     "--mode", "kv",
                     "--phi-grid", "0.0,0.25,0.5,0.75,1.0"]) == 0
    _, _, rows = read_csv_with_metadata("out/bench.csv")
    fractions = [float(r[1]) for r in rows]
    trend_ok = fractions == sorted(fractions) and fractions[-1] > 0.0

    verdict(8, "reuse accounting exact and sweep nondecreasing",
           count_ok and flops_ok and trend_ok,
           f"recount match {count_ok}, flop event-sum match {flops_ok}, "
           f"sweep fractions {fractions}")


# ---------------------------------------------------------------------------
# 9. Unchanged embedding rows score zero drift at layer 0.
# ---------------------------------------------------------------------------

def test_criterion_09_zero_mode_for_unchanged_rows(verdict):
    config = ModelConfig(L=2, H=1, d=8, d_int=16, n_vocab=16, B=4,
                         activation="relu", seed=9)
    weights = init_weights(config)
    worst = 0.0
    checked = 0
    for mode, seed in (("full", 91), ("kv", 92), ("o", 93)):
        sampler = SamplerConfig(gen_length=8, block_size=4,
                                steps_per_block=8,
                                tokens_unmasked_per_step=1,
                                temperature=1.0, seed=seed)
        profile = None if mode == "full" else flat_profile(0.5, L=2)
        _, trace = diffusion_generate(weights, sampler, profile, mode)
        for prev, cur in zip(trace.records, trace.records[1:]):
            if prev.block != cur.block:
                continue
            unchanged = prev.input_tokens == cur.input_tokens
            for i in np.flatnonzero(unchanged):
                worst = max(worst, drift_score(cur.q_head0[0][i],
                                               prev.q_head0[0][i]))
                checked += 1
    verdict(9, "zero drift for unchanged rows",
           checked > 0 and worst <= 1e-9,
           f"{checked} unchanged rows across full/kv/o traces, "
           f"max layer-0 score {worst:.2e} (limit 1e-9)")


# ---------------------------------------------------------------------------
# 10. Closed-form regressions of the bound constants.
# ---------------------------------------------------------------------------

def test_criterion_10_constant_formula_regressions(verdict):
    isotropic_exact = all(
        tau_tilde(tau, d, 1.0) == tau * d
        for tau in (1e-4, 0.01, 0.05, 0.1, 0.5, 1.0)
        for d in (2, 4, 8, 64, 512)
    )
    weights = init_weights(ModelConfig(L=1, H=1, d=8, d_int=16, n_vocab=32,
                                       B=4, activation="relu", seed=1))
    base = lipschitz_G(weights)
    ratios = []
    for name in ("w_o", "w_v"):
        layer = dataclasses.replace(
            weights.layers[0],
            **{name: 2.0 * getattr(weights.layers[0], name)})
        doubled = dataclasses.replace(weights, layers=(layer,))
        ratios.append(lipschitz_G(doubled) / base)
    linear_ok = all(abs(r - 2.0) <= 1e-9 for r in ratios)
    verdict(10, "bound-constant closed forms",
           isotropic_exact and linear_ok,
           f"isotropic threshold exact: {isotropic_exact}; "
           f"doubling w_o, w_v scales G by {ratios} (target 2 +- 1e-9)")
