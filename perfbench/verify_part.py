"""The verify part: ``theory.verify_run`` at the CLI default model.

L=1, H=1, d=8, B=4, T=8 is the only regime with closed-form bounds. Each
call runs TRIALS coupled trials at one flat tau > 0 (tau = 0 is left out:
the o-mode bound is 0 there while o reuse still opens a gap).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from reuselab import theory
from reuselab.model import init_weights
from reuselab.sampler import SamplerConfig

from decode_part import flat_profile
from workloads import TINY_MODEL as MODEL

STEPS = 8
TEMPERATURE = 1.0
REFRESH_INTERVAL = 2
TAU = 0.05
TRIALS = 25
MODES = ("kv", "o")
# G from power iteration (relative tolerance 1e-10 on each squared norm)
# against G from SVD norms.
G_RTOL = 1e-8
# The recursion is recomputed with the same operations in the same order.
SERIES_RTOL = 1e-12


def sampler_config(seed: int) -> SamplerConfig:
    return SamplerConfig(gen_length=MODEL.B, block_size=MODEL.B,
                         steps_per_block=STEPS, tokens_unmasked_per_step=1,
                         temperature=TEMPERATURE, seed=seed)


def verify(weights, config: SamplerConfig, mode: str, trials: int = TRIALS,
           debug_zero_bounds: bool = False):
    """One timed verify_run; returns (seconds, report)."""
    start = perf_counter()
    report = theory.verify_run(weights, config, flat_profile(1, TAU), mode,
                               trials, refresh_interval=REFRESH_INTERVAL,
                               debug_zero_bounds=debug_zero_bounds)
    return perf_counter() - start, report


def reference_G(weights) -> float:
    """The growth constant from SVD spectral norms and exact row norms."""
    lw = weights.layers[0]
    cfg = weights.config

    def sigma(m):
        return float(np.linalg.svd(m, compute_uv=False)[0])

    rows = np.sqrt((weights.emb ** 2).sum(axis=1))
    r = float(rows.max())
    stack = (float(rows.sum()) * sigma(lw.w_d) * theory.G_SIGMA[cfg.activation]
             * sigma(lw.w_u) * sigma(lw.w_o) * sigma(lw.w_v))
    gain = cfg.B * (2.0 * r * r * sigma(lw.w_q) * sigma(lw.w_k)
                    / math.sqrt(cfg.d) + 1.0)
    return stack * gain


def check_report(report, G_ref: float, trials: int) -> list:
    problems = []
    if report.violations != 0:
        problems.append(f"{report.violations} bound violations")
    if report.trials != trials:
        problems.append(f"report covers {report.trials} trials, ran {trials}")
    series = [0.0]
    for b in report.per_step_bound:
        series.append(report.G * series[-1] + b)
    got = report.cumulative_bound_series
    if len(got) != len(series) or got[0] != 0.0 or any(
            abs(g - s) > SERIES_RTOL * abs(s) for g, s in zip(got, series)):
        problems.append("cumulative series breaks e0 = 0, "
                        "e(t+1) = G e(t) + b(t)")
    if not abs(report.G - G_ref) <= G_RTOL * G_ref:
        problems.append(f"G {report.G!r} != SVD recomputation {G_ref!r}")
    return problems


class VerifyPart:
    """Closed-loop verify calls; one round verifies one seed per mode."""

    def __init__(self, ledger) -> None:
        self.ledger = ledger
        self.weights = init_weights(MODEL)
        self.G_ref = reference_G(self.weights)
        self.times = {mode: [] for mode in MODES}

    def warm_up(self) -> None:
        for mode in MODES:
            verify(self.weights, sampler_config(0), mode, trials=2)

    def round(self, seed: int) -> float:
        config = sampler_config(seed)
        wall = 0.0
        for mode in MODES:
            def check(got, mode=mode):
                self.times[mode].append(got[0])
                return check_report(got[1], self.G_ref, TRIALS)
            got = self.ledger.run(
                f"verify {mode} seed {seed}",
                lambda mode=mode: verify(self.weights, config, mode), check)
            if got is not None:
                wall += got[0]
        return wall

    def metrics(self) -> dict:
        return {f"verify_{mode}_trials_s":
                TRIALS / float(np.mean(self.times[mode])) for mode in MODES}
