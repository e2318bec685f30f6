"""Token-wise activation reuse: one forward pass for every mode.

``layer_step`` is the one layer computation. It scores each token's head-0
query drift between consecutive denoising steps and, where the gate is
open and the drift is at most the layer threshold, splices the previous
step's cached activations instead of recomputing them. The two mechanisms
differ only in the splice:

* kv mode keeps a hybrid key/value cache: only refreshed rows are
  projected from the current input, and they are written into the cache in
  place; reused rows stay as cached (stale rows stay stale, so staleness
  can exceed 1).
* o mode computes Q/K/V fully but evaluates attention rows only for
  refreshed tokens, written in place into the cached pre-projection
  attention output whose other rows are reused; W_O is applied after
  splicing.

Full mode is the same step with no slot eligible, and ``forward_full`` is
one full-mode ``model_step`` on a fresh state. The caches are owned by
``ReuseState`` alone (nothing returned to a caller aliases them), which is
what makes the in-place updates safe.

Step 0 of a block and gated (layer, step) slots always recompute in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drift import reuse_set
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    StateError,
)
from .model import (
    LayerWeights,
    ModelConfig,
    ModelWeights,
    attention_rows,
    mlp,
    unembed,
)

MODES = ("full", "kv", "o")

# Shared by every decision that reuses nothing; never written to.
_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


@dataclass(frozen=True, slots=True)
class ReuseDecision:
    """Outcome of one (layer, step) slot.

    ``reused`` and ``refreshed`` are disjoint index arrays whose union is
    all B positions. ``eligible`` records whether the gate allowed reuse at
    this slot at all; ``staleness_l2`` is the norm of the layer's staleness
    row after the step. One is built per layer step; with slots its
    constructor sets each field through a slot, not an instance dict,
    which makes it faster and the record smaller.
    """

    layer: int
    step: int
    reused: np.ndarray
    refreshed: np.ndarray
    eligible: bool
    staleness_l2: float

    @property
    def reused_count(self) -> int:
        return int(self.reused.size)

    @property
    def refreshed_count(self) -> int:
        return int(self.refreshed.size)

    def to_record(self) -> dict:
        return {
            "step": self.step,
            "layer": self.layer,
            "reused_count": self.reused_count,
            "refreshed_count": self.refreshed_count,
            "staleness_l2": self.staleness_l2,
        }


@dataclass
class ReuseState:
    """Single-owner mutable state of one generation (one block at a time).

    Caches are per layer; entries are None until the layer has run once.
    ``all_rows`` is the read-only index array 0..B-1 that decisions
    refreshing every row share.
    """

    config: ModelConfig
    mode: str
    tau_layer: tuple
    skip_first_layers: int = 0
    refresh_interval: int = 1
    prev_q_head0: list = field(init=False)
    prev_k: list = field(init=False)
    prev_v: list = field(init=False)
    prev_o_pre: list = field(init=False)
    delta: np.ndarray = field(init=False)
    all_rows: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.refresh_interval < 1:
            raise ConfigError("refresh_interval must be >= 1")
        if self.skip_first_layers < 0:
            raise ConfigError("skip_first_layers must be >= 0")
        if len(self.tau_layer) != self.config.L:
            raise DimensionError(
                f"tau_layer has {len(self.tau_layer)} entries for "
                f"{self.config.L} layers")
        self.all_rows = np.arange(self.config.B, dtype=np.int64)
        self.all_rows.flags.writeable = False
        self.reset_block()

    def reset_block(self) -> None:
        """Drop all caches and staleness at a block boundary."""
        L = self.config.L
        self.prev_q_head0 = [None] * L
        self.prev_k = [None] * L
        self.prev_v = [None] * L
        self.prev_o_pre = [None] * L
        self.delta = np.zeros((L, self.config.B), dtype=np.int64)

    def staleness_l2(self) -> float:
        """Euclidean norm of the whole staleness matrix."""
        return staleness_norm(self.delta)


def staleness_norm(delta: np.ndarray) -> float:
    """Euclidean norm of an int64 staleness row or matrix.

    The bits of ``np.linalg.norm(delta.astype(np.float64))``, which is
    ``sqrt(x.dot(x))`` on the raveled array: ``vdot`` ravels too, its
    integer dot is exact, and so is that sum's conversion to float below
    2**53.
    """
    return math.sqrt(np.vdot(delta, delta))


def gate(layer: int, step: int, skip_first_layers: int,
         refresh_interval: int) -> bool:
    """True when reuse may fire at this (layer, step) slot.

    The first ``skip_first_layers`` layers always recompute, and every
    step with step % refresh_interval == 0 is a forced refresh (this
    includes step 0).
    """
    if layer < skip_first_layers:
        return False
    return step % refresh_interval != 0


def update_staleness(delta_row: np.ndarray, reused) -> np.ndarray:
    """Consecutive-reuse counters, updated in place: reused tokens age by
    one, refreshed tokens drop to zero.

    ``delta_row`` is an int64 row and ``reused`` an index array into it.
    The reused counters are gathered and aged, the row is zeroed and the
    aged counters are scattered back. Returns ``delta_row``.
    """
    aged = delta_row[reused] + 1
    delta_row.fill(0)
    delta_row[reused] = aged
    return delta_row


def _age_staleness(state: ReuseState, ell: int, reused: np.ndarray):
    """Age layer ell's staleness row in place for one slot.

    After ``update_staleness`` a reused row's counter is at least 1 and a
    refreshed row's is 0, so the zero counters are the refreshed set.
    Returns (refreshed rows, norm of the row).
    """
    row = state.delta[ell]
    if not reused.size:
        row.fill(0)
        return state.all_rows, 0.0
    update_staleness(row, reused)
    return (row == 0).nonzero()[0], staleness_norm(row)


def layer_step(lw: LayerWeights, x_t: np.ndarray, state: ReuseState,
               ell: int, t: int):
    """One layer step in the state's mode.

    Queries are always fresh. Where the gate is open in a reuse mode, rows
    whose head-0 query drift is within the layer threshold are reused:

    * kv: the reused rows' keys and values stay as cached (stale rows stay
      stale) and only the refreshed rows are projected, into the cache in
      place, before attention runs over the hybrid cache;
    * o: Q, K and V are computed in full, attention rows are evaluated for
      the refreshed tokens only, into the cached pre-W_O output in place.

    Full mode is the case where no slot is eligible, so every row is
    recomputed. Every mode leaves the head-0 queries, K, V and the pre-W_O
    attention output of this step in the state's caches.

    Returns:
        (o, decision): the post-W_O attention output and the slot decision.
    """
    cfg = state.config
    if t > 0 and state.mode != "full" and state.prev_k[ell] is None:
        raise StateError(
            f"no cached activations for layer {ell} at step {t}; "
            "steps must be driven in order from 0")
    q = x_t @ lw.w_q
    q0 = q[:, :cfg.d // cfg.H]
    eligible = state.mode != "full" and gate(
        ell, t, state.skip_first_layers, state.refresh_interval)
    reused = (reuse_set(q0, state.prev_q_head0[ell], state.tau_layer[ell])
              if eligible else _NO_ROWS)
    refreshed, staleness_l2 = _age_staleness(state, ell, reused)

    if not reused.size:
        k = x_t @ lw.w_k
        v = x_t @ lw.w_v
        o_pre = attention_rows(q, k, v, cfg.H)
    elif state.mode == "kv":
        # Only refreshed rows are projected, into the cache in place. A
        # one-row product goes through gemv, whose bits differ from the
        # gemm row of the full product, so one row i is taken from the
        # two-row gemm of rows i and i + 1 (mod B); from two rows on, a row
        # subset's gemm gives the same bits as the full product.
        k = state.prev_k[ell]
        v = state.prev_v[ell]
        if refreshed.size == 1:
            i = refreshed[0]
            x_r = x_t[[i, (i + 1) % cfg.B]]
            k[i] = (x_r @ lw.w_k)[0]
            v[i] = (x_r @ lw.w_v)[0]
        elif refreshed.size:
            x_r = x_t[refreshed]
            k[refreshed] = x_r @ lw.w_k
            v[refreshed] = x_r @ lw.w_v
        o_pre = attention_rows(q, k, v, cfg.H)
    else:
        k = x_t @ lw.w_k
        v = x_t @ lw.w_v
        o_pre = state.prev_o_pre[ell]
        if refreshed.size:
            o_pre[refreshed] = attention_rows(q[refreshed], k, v, cfg.H)

    state.prev_q_head0[ell] = q0
    state.prev_k[ell] = k
    state.prev_v[ell] = v
    state.prev_o_pre[ell] = o_pre
    decision = ReuseDecision(
        layer=ell, step=t, reused=reused, refreshed=refreshed,
        eligible=eligible, staleness_l2=staleness_l2)
    return o_pre @ lw.w_o, decision


# One entry per mode, all one function: the benchmark wraps each mode's entry.
_LAYER_STEPS = dict.fromkeys(MODES, layer_step)


def model_step(weights, state: ReuseState, x: np.ndarray, t: int):
    """Run the whole layer stack for one denoising step in the state's mode.

    Returns:
        (probs, decisions, q_head0): per-token distributions, the per-layer
        decisions, and the per-layer head-0 query matrices of this step
        (used for calibration and counterfactual replay).
    """
    cfg = state.config
    if x.shape != (cfg.B, cfg.d):
        raise DimensionError(f"input shape {x.shape} != ({cfg.B}, {cfg.d})")
    step_fn = _LAYER_STEPS[state.mode]
    cur = x
    decisions = []
    q_head0 = []
    for ell, lw in enumerate(weights.layers):
        o, decision = step_fn(lw, cur, state, ell, t)
        decisions.append(decision)
        q_head0.append(state.prev_q_head0[ell])
        cur = mlp(lw, o, cfg.activation)
    return unembed(weights, cur), decisions, q_head0


def _check_forward_input(config: ModelConfig, x: np.ndarray) -> None:
    if x.shape != (config.B, config.d):
        raise DimensionError(
            f"input shape {x.shape} != ({config.B}, {config.d})"
        )
    target = math.sqrt(config.d)
    # The arithmetic of np.linalg.norm(x, axis=1) and np.allclose(norms,
    # target, rtol=1e-9, atol=1e-9) without their wrappers' overhead; a
    # NaN norm fails the comparison.
    norms = np.sqrt((x * x).sum(axis=1))
    if not (np.abs(norms - target) <= 1e-9 + 1e-9 * target).all():
        raise DegenerateInputError(
            "input rows must be normalized to norm sqrt(d)"
        )


def forward_full(weights: ModelWeights, x: np.ndarray):
    """Full forward pass without any activation reuse: one full-mode
    ``model_step`` at step 0 on a fresh state.

    Args:
        weights: model parameters.
        x: B x d input with rows normalized to norm sqrt(d).

    Returns:
        (probs, state): probs is B x n_vocab with rows summing to 1; the
        state's per-layer caches hold this pass's head-0 queries
        (``prev_q_head0``), K, V and pre-W_O attention output.
    """
    config = weights.config
    _check_forward_input(config, x)
    state = ReuseState(config=config, mode="full",
                       tau_layer=(None,) * config.L)
    probs, _, _ = model_step(weights, state, x, 0)
    return probs, state


def reuse_accounting(decisions, B: int) -> dict:
    """Exact reuse bookkeeping over a flat decision list.

    The fraction's denominator counts tokens in reuse-eligible slots only
    (gate open); gated slots are reported separately. Pure integer
    arithmetic until the final division.
    """
    total_reused = 0
    eligible_slots = 0
    gated_slots = 0
    for dec in decisions:
        if dec.eligible:
            eligible_slots += 1
            total_reused += dec.reused_count
        else:
            gated_slots += 1
    fraction = (total_reused / (eligible_slots * B)
                if eligible_slots else 0.0)
    return {
        "total_reused": total_reused,
        "eligible_slots": eligible_slots,
        "gated_slots": gated_slots,
        "reuse_fraction": fraction,
    }


@dataclass(frozen=True)
class CounterfactualReuse:
    """Reuse statistics replayed from frozen drift scores at a new tau."""

    reused_per_slot: np.ndarray   # T x L ints
    delta_l2_per_step: np.ndarray  # T reals, norm of the full staleness
    eligible_slots: int

    @property
    def total_reused(self) -> int:
        return int(self.reused_per_slot.sum())


def simulate_reuse_counterfactual(scores, tau_layer, skip_first_layers: int,
                                  refresh_interval: int) -> CounterfactualReuse:
    """Replay gating/thresholding/staleness over a frozen score trajectory.

    Args:
        scores: per step, per layer, length-B drift score arrays; entry
            None (whole step, typically step 0) or math.inf (single token)
            means drift is undefined there and the token cannot be reused.
        tau_layer: per-layer threshold or None sentinel.
        skip_first_layers / refresh_interval: gate knobs.

    Because thresholding a fixed score is monotone in tau, every statistic
    returned here is monotone in tau as well; live reruns would instead
    change the scores themselves.
    """
    n_steps = len(scores)
    first = next(s for s in scores if s is not None)
    n_layers = len(first)
    B = len(first[0])
    delta = np.zeros((n_layers, B), dtype=np.int64)
    reused_per_slot = np.zeros((n_steps, n_layers), dtype=np.int64)
    delta_l2 = np.zeros(n_steps)
    eligible = 0
    for t in range(n_steps):
        for ell in range(n_layers):
            allowed = gate(ell, t, skip_first_layers, refresh_interval)
            if allowed:
                eligible += 1
            tau = tau_layer[ell]
            if allowed and tau is not None and scores[t] is not None:
                s = np.asarray(scores[t][ell], dtype=np.float64)
                reused = np.flatnonzero(s <= tau)
            else:
                reused = _NO_ROWS
            reused_per_slot[t, ell] = reused.size
            update_staleness(delta[ell], reused)
        delta_l2[t] = staleness_norm(delta)
    return CounterfactualReuse(
        reused_per_slot=reused_per_slot,
        delta_l2_per_step=delta_l2,
        eligible_slots=eligible,
    )
