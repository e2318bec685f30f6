"""Closed-form error bounds for activation reuse, plus an empirical checker.

The bounds cover the single-layer, single-head regime. ``lipschitz_G`` bounds
how much one denoising step can amplify an input perturbation;
``kv_step_bound`` and ``o_step_bound`` bound the L1 gap a single reuse step
can open between the exact and the reusing model at the same input; and
``cumulative_series`` chains the two through the recursion
``e_{t+1} = G * e_t + b_t``. ``verify_run`` replays coupled generation runs
and counts how often any measured error exceeds its bound (the expected
count is zero; a violation means an implementation bug, not a tight run).
It runs all of its trials in one lockstep ``coupled_generate`` call, whose
trials have the bits of one-seed runs, so the report is that of running
them one after another; the gaps, embedding errors and staleness come
straight from the returned ``CoupledRun``, one row per trial.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegenerateInputError, RegimeError
from .linalg import (
    condition_kappa,
    frobenius_norm,
    norm_2_to_1_upper,
    norm_2_to_inf,
    softmax_rows,
    spectral_norm,
)
from .model import G_SIGMA, ModelConfig, ModelWeights
from .sampler import SamplerConfig, coupled_generate

# Logit pairs drawn for the softmax contraction spot-check in verify_run,
# and the largest pair size drawn.
SOFTMAX_CHECK_PAIRS = 128
SOFTMAX_CHECK_WIDTH = 64
# Additive slack for the softmax contraction check (pure float noise).
SOFTMAX_CHECK_SLACK = 1e-9


def _check_regime(weights: ModelWeights) -> ModelConfig:
    """The weights' config, if the closed-form bounds cover it."""
    cfg = weights.config
    if cfg.L != 1 or cfg.H != 1:
        raise RegimeError(
            f"closed-form bounds cover L=1, H=1 models only, got L={cfg.L}, H={cfg.H}"
        )
    return cfg


def tau_tilde(tau: float, d: int, kappa_q: float) -> float:
    """Worst-case squared input half-displacement implied by a query-cosine
    acceptance at threshold tau, for inputs of norm sqrt(d) and a query map
    of condition number kappa_q.

    A token accepted for reuse moved by at most ``sqrt(2 * tau_tilde)``
    between consecutive steps. Where the direct form overflows (a huge tau
    makes both of its terms inf), the form divided through by tau gives
    the value, which tends to 2 d kappa_q**2 / (kappa_q**2 - 1) as tau
    grows; every finite value of the direct form is returned as it is.
    """
    if tau < 0.0:
        raise DegenerateInputError(f"tau must be >= 0, got {tau}")
    if kappa_q < 1.0:
        raise DegenerateInputError(f"kappa_q must be >= 1, got {kappa_q}")
    if d < 1:
        raise DegenerateInputError(f"d must be >= 1, got {d}")
    value = 2.0 * tau * d * kappa_q ** 2 / (2.0 + tau * (kappa_q ** 2 - 1.0))
    if math.isfinite(value):
        return value
    denominator = 2.0 / tau + (kappa_q ** 2 - 1.0)
    # At kappa_q = 1 the form is tau * d, which an infinite tau takes to inf.
    return 2.0 * d * kappa_q ** 2 / denominator if denominator else math.inf


class _ModelBounds:
    """The constants of one model's bounds, built from the layer-0
    spectral and Frobenius norms and the embedding's row norms: ``G``
    (``lipschitz_G``), ``C_W``, the o-mode scale ``o_scale`` and the
    per-token o coefficients, and kappa_q.

    kappa_q is taken on first use, since a singular W_Q has none and only
    the bounds at tau > 0 need it. The weight arrays are read-only, so it
    describes the same W_Q as the rest.
    """

    def __init__(self, weights: ModelWeights) -> None:
        cfg = _check_regime(weights)
        lw = weights.layers[0]
        s = {name: spectral_norm(m) for name, m in lw.named()}
        r, b, d = weights.r_emb, cfg.B, cfg.d
        self.d, self.B, self._w_q = d, b, lw.w_q
        stack = (norm_2_to_1_upper(weights.emb) * s["w_d"]
                 * G_SIGMA[cfg.activation] * s["w_u"] * s["w_o"] * s["w_v"])
        self.G = stack * (b * (
            2.0 * r * r * s["w_q"] * s["w_k"] / math.sqrt(d) + 1.0))
        self.o_scale = (norm_2_to_inf(weights.emb) * s["w_d"]
                        * G_SIGMA[cfg.activation] * s["w_u"])
        # C_W folds in the sqrt(2) and batch factors, so the kv bound is
        # C_W * sqrt(tau_tilde) * ||Delta||_2. Its product starts with the
        # o-mode scale's four factors in the same left-to-right order, so
        # starting from that partial product keeps every bit.
        sv = s["w_v"]
        self.C_W = math.sqrt(2.0) * b * (
            self.o_scale * s["w_o"] * (sv + sv * s["w_q"] / math.sqrt(d)))
        # The factors of o_terms' query, keys and values terms, each the
        # left-to-right product that multiplies a token's movement.
        f_o, f_v, f_k, f_q = (frobenius_norm(m)
                              for m in (lw.w_o, lw.w_v, lw.w_k, lw.w_q))
        four = f_o * f_v * f_k * f_q
        self.o_coefficients = (b * math.sqrt(d) * four,
                               math.sqrt(b * d) * four * math.sqrt(b),
                               f_o * f_v * math.sqrt(b))

    @cached_property
    def kappa_q(self) -> float:
        return condition_kappa(self._w_q)

    def o_terms(self, displacement: float, delta):
        """Sum over stale tokens of the three attention-output deviation
        terms (query moved, keys moved, values moved), given a bound
        ``displacement`` on how far any accepted token's input row moves in
        one step.

        Each stale token's total input movement is its staleness count
        times ``displacement``; the keys/values terms spread that movement
        across the whole block, hence the extra sqrt(B) factors.

        ``delta`` holds one count per block token, or stacks such vectors
        on leading axes, as a run's (trials, T, B) staleness does; the
        result is an array of one sum per vector, 0-d for one vector. Each
        sum adds its tokens in order and skips zero counters: a skipped
        token adds nothing, even where the displacement is NaN.
        """
        if displacement < 0.0:
            raise DegenerateInputError(
                f"displacement must be >= 0, got {displacement}")
        delta = np.asarray(delta)
        if delta.ndim < 1 or delta.shape[-1] != self.B:
            raise DegenerateInputError(
                f"delta must have one entry per block token ({self.B}), "
                f"got {delta.shape}"
            )
        query, keys, values = self.o_coefficients
        # An infinite displacement makes NaN at zero counters, which the
        # mask clears.
        with np.errstate(invalid="ignore"):
            move = delta.astype(np.float64) * displacement
            terms = query * move + keys * move + values * move
        terms[delta == 0] = 0.0
        # cumsum adds left to right; adding the result to 0.0, as a running
        # total from 0.0 does, turns an all -0.0 sum into 0.0.
        return np.asarray(0.0 + np.cumsum(terms, axis=-1)[..., -1])


def _model_bounds(weights: ModelWeights) -> _ModelBounds:
    """The bound constants of a model, computed once per model and kept
    on the weights object itself, as ``cached_property`` keeps a value, so
    they go when the model does. The weight arrays are read-only; a model
    with other arrays (``dataclasses.replace``) is another object and
    takes its own."""
    kept = vars(weights).get("_theory_bounds")
    if kept is None:
        kept = vars(weights)["_theory_bounds"] = _ModelBounds(weights)
    return kept


def lipschitz_G(weights: ModelWeights) -> float:
    """One-step amplification constant of the denoising map.

    Product of operator norms of the weight stack, times the batch size,
    times an attention-sensitivity factor driven by the query/key norms and
    the largest raw embedding row norm. The 2->1 norm of the embedding is
    replaced by its sum-of-row-norms upper bound, which inflates G but keeps
    the bound direction.
    """
    return _model_bounds(weights).G


def kv_step_bound(weights: ModelWeights, tau: float | None, delta_l2):
    """Bound on the summed per-token L1 output gap opened by one step of
    key/value reuse with staleness vector of Euclidean norm ``delta_l2``:
    ``C_W * sqrt(tau_tilde) * delta_l2``, and 0 when tau is None or 0 or
    nothing is stale, without reading a constant.

    ``delta_l2`` is one norm or an array of them, such as a run's
    (trials, T) norms; the bounds are returned as an array of its shape,
    0-d for one norm.
    """
    _check_regime(weights)
    delta_l2 = np.asarray(delta_l2, dtype=np.float64)
    stale = delta_l2 != 0.0
    if tau is None or tau == 0.0 or not stale.any():
        return np.zeros(delta_l2.shape)
    if (delta_l2 < 0.0).any():
        raise DegenerateInputError(
            f"delta_l2 must be >= 0, got {delta_l2.min()}")
    bounds = _model_bounds(weights)
    scale = bounds.C_W * math.sqrt(tau_tilde(tau, bounds.d, bounds.kappa_q))
    # An infinite scale makes NaN where nothing is stale, which
    # np.where clears.
    with np.errstate(invalid="ignore"):
        return np.where(stale, scale * delta_l2, 0.0)


def o_step_bound(weights: ModelWeights, tau: float | None, delta):
    """Bound on the summed per-token L1 output gap opened by one step of
    attention-output reuse with per-token staleness counts ``delta``: the
    o-mode scale times ``o_terms`` at the displacement sqrt(2 * tau_tilde),
    the farthest an accepted token's input row moves in one step; and 0
    when tau is None or 0 or nothing is stale, without reading a constant.

    ``delta`` is one block's counts or stacks them on leading axes, as a
    run's (trials, T, B) staleness does; the bounds are returned as an
    array of its leading shape, 0-d for one block.
    """
    _check_regime(weights)
    delta = np.asarray(delta)
    if delta.ndim < 1:
        raise DegenerateInputError("delta must have one entry per token")
    stale = (delta > 0).any(axis=-1)
    if tau is None or tau == 0.0 or not stale.any():
        return np.zeros(stale.shape)
    bounds = _model_bounds(weights)
    tt = tau_tilde(tau, bounds.d, bounds.kappa_q)
    with np.errstate(invalid="ignore"):
        return np.where(stale, bounds.o_scale
                        * bounds.o_terms(math.sqrt(2.0 * tt), delta), 0.0)


def cumulative_series(G: float, per_step_bounds) -> np.ndarray:
    """Error-recursion series e_0 = 0, e_{t+1} = G * e_t + b_t.

    Entry t bounds the summed embedding-row gap between the exact and the
    reusing branch at the input of step t.
    """
    if G < 0.0:
        raise DegenerateInputError(f"G must be >= 0, got {G}")
    series = np.zeros(len(per_step_bounds) + 1)
    for t, b in enumerate(per_step_bounds):
        b = float(b)
        if b < 0.0:
            raise DegenerateInputError(f"per-step bounds must be >= 0, got {b}")
        series[t + 1] = G * series[t] + b
    return series


def softmax_lipschitz_gap(z, z_prime):
    """Return (L1 gap of the softmaxes, Linf gap of the logits).

    The contraction property says the first never exceeds the second. For
    two logit vectors both gaps are floats. ``z`` and ``z_prime`` may also
    be (pairs, width) batches with one pair per row; the gaps are then
    arrays with one entry per pair. A pair narrower than the batch is
    padded with -inf at the same places on both sides, which adds nothing
    to either gap.
    """
    z = np.asarray(z, dtype=np.float64)
    z_prime = np.asarray(z_prime, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape != z_prime.shape or z.size == 0:
        raise DegenerateInputError(
            "need two equal-length logit vectors or two equal-shape "
            f"batches, got {z.shape} and {z_prime.shape}"
        )
    l1, linf = _softmax_gaps(
        np.stack((z, z_prime)).reshape(2, -1, z.shape[-1]))
    if z.ndim == 1:
        return float(l1[0]), float(linf[0])
    return l1, linf


def _softmax_gaps(logits: np.ndarray):
    """``softmax_lipschitz_gap`` of a (2, pairs, width) stack of both
    sides' batches, in one ``softmax_rows`` pass over all its rows. Where
    the two sides' logits are equal, -inf padding included, the Linf gap
    takes 0 without subtracting them, so -inf - -inf never forms. The Linf
    gap is taken before the softmax and the L1 gap in the softmax output's
    first half, so the pass takes at most as much memory again as
    ``logits`` does."""
    z, z_prime = logits
    linf = np.abs(np.subtract(z, z_prime, out=np.zeros_like(z),
                              where=z != z_prime)).max(axis=1)
    p = softmax_rows(logits)
    gap = np.subtract(p[0], p[1], out=p[0])
    return np.abs(gap, out=gap).sum(axis=1), linf


def _softmax_check_logits(seed) -> np.ndarray:
    """The softmax spot check's logit pairs for one run seed, as one
    (2, SOFTMAX_CHECK_PAIRS, SOFTMAX_CHECK_WIDTH) array padded with -inf:
    ``logits[0, i]`` and ``logits[1, i]`` are pair i.

    One stream makes three draws, however many pairs there are: every
    pair's size n in [2, width], then every pair's scale 10**U(-2, 2),
    then 2 * sum(n) standard normals, the first half for side 0. Each half
    holds the pairs' n normals in pair order, placed into the first n
    places of each pair's row without a loop over pairs. Each pair's row
    is then scaled by its scale, so its logits are N(0, scale) and its
    -inf padding stays -inf.
    """
    pairs, width = SOFTMAX_CHECK_PAIRS, SOFTMAX_CHECK_WIDTH
    rng = np.random.default_rng([int(seed), pairs])
    sizes = rng.integers(2, width + 1, pairs)
    scales = 10.0 ** rng.uniform(-2.0, 2.0, pairs)
    z = rng.standard_normal(2 * int(sizes.sum()))
    logits = np.full((2, pairs, width), -np.inf)
    drawn = np.arange(width) < sizes[:, None]
    np.place(logits, np.broadcast_to(drawn, logits.shape), z)
    logits *= scales[:, None]
    return logits


@dataclass(frozen=True)
class TheoryReport:
    """Constants, per-step bound/measurement series (trial means), the
    cumulative recursion, and the violation count from one verify_run.

    ``per_step_*`` are indexed by producing step (length T);
    ``cumulative_*_series`` by the step whose input they describe
    (length T + 1, entry 0 is the shared start). violations counts every
    (trial, step) per-step exceedance, every cumulative-series exceedance,
    and every failed softmax contraction spot-check.
    """

    G: float
    kappa_q: float
    tau_tilde: float
    C_W: float
    mode: str
    tau: float | None
    trials: int
    per_step_bound: tuple
    per_step_empirical: tuple
    cumulative_bound_series: tuple
    cumulative_empirical_series: tuple
    cumulative_bound: float
    cumulative_empirical: float
    violations: int

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        for key, value in payload.items():
            if isinstance(value, tuple):
                payload[key] = list(value)
        return json.dumps(payload, sort_keys=True)

    def per_step_rows(self):
        """Rows (step, bound, empirical, cumulative bound, cumulative
        empirical) for CSV emission; the cumulative columns describe the
        input of the named step."""
        for t in range(len(self.per_step_bound)):
            yield {
                "step": t,
                "step_bound": self.per_step_bound[t],
                "step_empirical": self.per_step_empirical[t],
                "cumulative_bound": self.cumulative_bound_series[t],
                "cumulative_empirical": self.cumulative_empirical_series[t],
            }


def verify_run(
    weights: ModelWeights,
    run_config: SamplerConfig,
    drift_profile,
    mode: str,
    trials: int,
    *,
    skip_first_layers: int = 0,
    refresh_interval: int = 2,
    debug_zero_bounds: bool = False,
) -> TheoryReport:
    """Run coupled generation ``trials`` times and check every bound.

    Three checks feed the violation count: (a) each trial's per-step L1 gap
    against the per-step bound at that trial's staleness, (b) the
    trial-averaged embedding gap at every step against the error recursion
    driven by the trial-averaged per-step bounds, (c) softmax contraction on
    SOFTMAX_CHECK_PAIRS random logit pairs, drawn from the first trial
    seed in three generator calls and checked in one batched
    ``softmax_lipschitz_gap`` pass. Of ``run_config`` it reads only the
    seed and the step count: the coupled chain samples from the model's
    own distributions over one block. Trials use independent seeds derived
    from the run seed, so the report is reproducible; each is paired with
    ``drift_profile``, and they run in lockstep through one
    ``coupled_generate`` call. The per-step bounds of every
    trial come from one ``kv_step_bound`` or ``o_step_bound`` call on the
    run's stacked staleness; the bound constants are taken once per model
    and shared with every later call on the same weights. A NaN bound, per
    step or cumulative, is a violation. It checks the regime and the
    trial count before the run; the run checks the mode and the profile.

    ``debug_zero_bounds`` replaces G and every per-step bound with zero; a
    lossy run must then report violations. It exists to prove the harness
    can fail and has no other use.
    """
    cfg = _check_regime(weights)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")

    trial_seeds = np.random.SeedSequence(run_config.seed).generate_state(trials)
    run = coupled_generate(
        weights, mode, [(int(seed), drift_profile) for seed in trial_seeds],
        run_config.steps_per_block, skip_first_layers=skip_first_layers,
        refresh_interval=refresh_interval)
    tau = drift_profile.tau_layer[0]
    bounds = (kv_step_bound(weights, tau, run.per_step_delta_l2)
              if mode == "kv" else
              o_step_bound(weights, tau, run.per_step_delta[:, :, 0]))
    if debug_zero_bounds:
        bounds[:] = 0.0

    mean_bounds = bounds.mean(axis=0)
    mean_gaps = run.per_step_l1_gap.mean(axis=0)
    mean_embed = run.per_step_embed_error.mean(axis=0)
    constants = _model_bounds(weights)
    G = 0.0 if debug_zero_bounds else constants.G
    series = cumulative_series(G, mean_bounds)
    # Negated so that a NaN bound counts.
    violations = int((~(run.per_step_l1_gap <= bounds)).sum()
                     + (~(mean_embed <= series)).sum())

    l1, linf = _softmax_gaps(_softmax_check_logits(trial_seeds[0]))
    violations += int((l1 > linf + SOFTMAX_CHECK_SLACK).sum())

    kappa = constants.kappa_q
    return TheoryReport(
        G=G,
        kappa_q=kappa,
        tau_tilde=tau_tilde(0.0 if tau is None else tau, cfg.d, kappa),
        C_W=constants.C_W,
        mode=mode,
        tau=tau,
        trials=trials,
        per_step_bound=tuple(float(b) for b in mean_bounds),
        per_step_empirical=tuple(float(g) for g in mean_gaps),
        cumulative_bound_series=tuple(float(e) for e in series),
        cumulative_empirical_series=tuple(float(e) for e in mean_embed),
        cumulative_bound=float(series[-1]),
        cumulative_empirical=float(mean_embed[-1]),
        violations=violations,
    )
