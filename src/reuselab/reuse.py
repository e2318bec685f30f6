"""Token-wise activation reuse: the KV and attention-output mechanisms.

Both mechanisms score each token's head-0 query drift between consecutive
denoising steps and, where the drift is at most the layer threshold, splice
the previous step's cached activations instead of recomputing:

* kv mode keeps a hybrid key/value cache: only refreshed rows are
  projected from the current input, and they are written into the cache in
  place; reused rows stay as cached (stale rows stay stale, so staleness
  can exceed 1).
* o mode computes Q/K/V fully but evaluates attention rows only for
  refreshed tokens, written in place into the cached pre-projection
  attention output whose other rows are reused; W_O is applied after
  splicing.

The caches are owned by ``ReuseState`` alone (nothing returned to a caller
aliases them), which is what makes the in-place updates safe.

Step 0 of a block and gated (layer, step) slots always recompute in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drift import reuse_set
from .errors import ConfigError, DimensionError, StateError
from .model import LayerWeights, ModelConfig, attention_rows, mlp, unembed

MODES = ("full", "kv", "o")


@dataclass(frozen=True)
class ReuseDecision:
    """Outcome of one (layer, step) slot.

    ``reused`` and ``refreshed`` are disjoint index arrays whose union is
    all B positions. ``eligible`` records whether the gate allowed reuse at
    this slot at all; ``staleness_l2`` is the norm of the layer's staleness
    row after the step.
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
        return float(np.linalg.norm(self.delta.astype(np.float64)))


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
    """Consecutive-reuse counters: reused tokens age by one, refreshed
    tokens drop to zero."""
    out = np.zeros_like(np.asarray(delta_row, dtype=np.int64))
    idx = np.asarray(reused, dtype=np.int64)
    if idx.size:
        out[idx] = np.asarray(delta_row, dtype=np.int64)[idx] + 1
    return out


def _head0(q: np.ndarray, n_heads: int) -> np.ndarray:
    return q[:, : q.shape[1] // n_heads]


def _complement(n: int, idx: np.ndarray) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[idx] = False
    return np.flatnonzero(mask)


def _decide(state: ReuseState, ell: int, t: int,
            q0: np.ndarray) -> tuple[np.ndarray, bool]:
    """Reuse set for this slot (empty unless gated on with prior state)."""
    eligible = gate(ell, t, state.skip_first_layers, state.refresh_interval)
    if not eligible:
        return np.empty(0, dtype=np.int64), False
    reused = reuse_set(q0, state.prev_q_head0[ell], state.tau_layer[ell])
    return reused, True


def _require_prev(present: bool, t: int, ell: int, what: str) -> None:
    if t > 0 and not present:
        raise StateError(
            f"no cached {what} for layer {ell} at step {t}; "
            "steps must be driven in order from 0")


def dare_kv_layer_step(lw: LayerWeights, x_t: np.ndarray, state: ReuseState,
                       ell: int, t: int):
    """One layer step with hybrid key/value reuse.

    Queries are always fresh. Key/value rows of reused tokens stay as
    cached (including rows that were themselves stale), only the refreshed
    rows are projected, into the cache in place, and attention runs over
    the hybrid cache.

    Returns:
        (o, decision): the post-W_O attention output and the slot decision.
    """
    if state.mode != "kv":
        raise StateError(f"state mode is {state.mode!r}, expected 'kv'")
    _require_prev(state.prev_k[ell] is not None, t, ell, "K/V")
    cfg = state.config
    q = x_t @ lw.w_q
    q0 = _head0(q, cfg.H)
    reused, eligible = _decide(state, ell, t, q0)

    refreshed = _complement(cfg.B, reused)
    if not reused.size:
        k = x_t @ lw.w_k
        v = x_t @ lw.w_v
    else:
        # Only refreshed rows are projected, into the cache in place. A
        # one-row product goes through gemv, whose bits differ from the
        # gemm row of the full product, so one row is taken from the full
        # product; from two rows on, a row subset's gemm gives the same bits.
        k = state.prev_k[ell]
        v = state.prev_v[ell]
        if refreshed.size == 1:
            k[refreshed] = (x_t @ lw.w_k)[refreshed]
            v[refreshed] = (x_t @ lw.w_v)[refreshed]
        elif refreshed.size:
            x_r = x_t[refreshed]
            k[refreshed] = x_r @ lw.w_k
            v[refreshed] = x_r @ lw.w_v
    o_pre = attention_rows(q, k, v, cfg.H)
    o = o_pre @ lw.w_o

    state.prev_q_head0[ell] = q0
    state.prev_k[ell] = k
    state.prev_v[ell] = v
    state.delta[ell] = update_staleness(state.delta[ell], reused)
    decision = ReuseDecision(
        layer=ell, step=t, reused=reused, refreshed=refreshed,
        eligible=eligible,
        staleness_l2=float(np.linalg.norm(state.delta[ell])))
    return o, decision


def dare_o_layer_step(lw: LayerWeights, x_t: np.ndarray, state: ReuseState,
                      ell: int, t: int):
    """One layer step with attention-output reuse.

    Q, K, V are fully recomputed; attention rows are evaluated only for
    refreshed tokens, reused rows come from the cached pre-projection
    output, and W_O is applied to the spliced matrix.
    """
    if state.mode != "o":
        raise StateError(f"state mode is {state.mode!r}, expected 'o'")
    _require_prev(state.prev_o_pre[ell] is not None, t, ell, "attention output")
    cfg = state.config
    q = x_t @ lw.w_q
    k = x_t @ lw.w_k
    v = x_t @ lw.w_v
    q0 = _head0(q, cfg.H)
    reused, eligible = _decide(state, ell, t, q0)
    refreshed = _complement(cfg.B, reused)

    if reused.size:
        o_pre = state.prev_o_pre[ell]  # updated in place: no one else holds it
        if refreshed.size:
            o_pre[refreshed] = attention_rows(q[refreshed], k, v, cfg.H)
    else:
        o_pre = attention_rows(q, k, v, cfg.H)
    o = o_pre @ lw.w_o

    state.prev_q_head0[ell] = q0
    state.prev_o_pre[ell] = o_pre
    state.delta[ell] = update_staleness(state.delta[ell], reused)
    decision = ReuseDecision(
        layer=ell, step=t, reused=reused, refreshed=refreshed,
        eligible=eligible,
        staleness_l2=float(np.linalg.norm(state.delta[ell])))
    return o, decision


def full_layer_step(lw: LayerWeights, x_t: np.ndarray, state: ReuseState,
                    ell: int, t: int):
    """Reuse-free layer step in the same shape as the reuse steps."""
    cfg = state.config
    q = x_t @ lw.w_q
    k = x_t @ lw.w_k
    v = x_t @ lw.w_v
    o_pre = attention_rows(q, k, v, cfg.H)
    o = o_pre @ lw.w_o
    state.prev_q_head0[ell] = _head0(q, cfg.H)
    decision = ReuseDecision(
        layer=ell, step=t, reused=np.empty(0, dtype=np.int64),
        refreshed=np.arange(cfg.B, dtype=np.int64), eligible=False,
        staleness_l2=0.0)
    return o, decision


_LAYER_STEPS = {
    "full": full_layer_step,
    "kv": dare_kv_layer_step,
    "o": dare_o_layer_step,
}


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
                reused = np.empty(0, dtype=np.int64)
            reused_per_slot[t, ell] = reused.size
            delta[ell] = update_staleness(delta[ell], reused)
        delta_l2[t] = float(np.linalg.norm(delta.astype(np.float64)))
    return CounterfactualReuse(
        reused_per_slot=reused_per_slot,
        delta_l2_per_step=delta_l2,
        eligible_slots=eligible,
    )
