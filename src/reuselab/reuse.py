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
* o mode evaluates attention rows only for refreshed tokens, written in
  place into the cached pre-projection attention output whose other rows
  are reused; W_O and the MLP are applied after splicing. A slot that
  refreshes no row leaves that output as it was, so the layer returns its
  cached post-MLP output without computing K, V, W_O or the MLP. When the
  layer below refreshed no row, a layer's input is last step's, so its
  head-0 drifts are all 0: it reuses every row without computing Q or
  scoring, and returns its cached output in turn. When the top layer
  refreshed no row, ``model_step`` returns last step's distributions
  without the unembedding.

Full mode is the same step with no slot eligible, and ``forward_full`` is
one full-mode ``model_step`` on a fresh state.

A state, and every step on it, may hold a stack of n blocks (n * B rows,
block by block) that run in lockstep, as the coupled trials of a bound
check do. Every product runs per block (``model.block_matmul``), and a row
subset is multiplied per block at the shape a one-block step gives it, so
each block's rows, caches and staleness counters have the bits of that
block run alone. Each block has its own row of per-layer thresholds, so
the blocks of a stack may run under different drift profiles; the gate
decides each block's rows against its own threshold. A stacked step's
decisions cover all rows of the stack; a block's own decisions are read
from its columns of the staleness matrix, whose counters are > 0 exactly
on the reused rows. The o-mode skips above fire on a stack only when they
fire for every block in it: a block computed where its own run would skip
gets the skipped result bit for bit.

The caches are owned by ``ReuseState`` alone. The ones updated in place
are never returned to a caller. o mode's layer outputs and distributions
are read-only, because a later step that skips returns them again.

Step 0 of a block and gated (layer, step) slots always recompute in full.
``replay_reuse`` decides slots from frozen drift scores by the same two
rules (``gate``, then ``drift.below_threshold``) and only counts them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .drift import below_threshold, check_thresholds, reuse_set
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
    block_matmul,
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
    all rows of the step: the B positions of a block, or every row of a
    stack of blocks. ``eligible`` records whether the gate allowed reuse at
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

    The state may instead hold a stack of ``n_blocks`` blocks run in
    lockstep: every array below then stacks the blocks' rows, block by
    block, and the staleness matrix has n_blocks * B columns.

    ``tau_blocks`` gives each block its own row of L thresholds, each a
    number >= 0 or None (reuse disabled at that layer), and so sets the
    number of blocks, ``n_blocks``; a shared profile is the case where
    every row is the same object, which is checked once. The state keeps
    them per layer as the gate reads them (``tau_layer``): one value where
    every block has the same threshold, else a read-only vector of one
    threshold per row of the stack, -inf in the rows of a block where the
    layer is disabled, so that no score is below it.

    Caches are per layer; entries are None until the layer has run once.
    ``prev_q_head0`` holds the last step's head-0 queries and
    ``prev_o_pre`` the pre-W_O attention output, in every mode. ``prev_k``
    and ``prev_v`` hold the hybrid cache in kv mode; in full and o modes
    they hold K and V of the last step that computed them (o mode skips
    them on a slot that refreshes no row).

    o mode also keeps, per layer, ``prev_out``, the post-MLP output of the
    last step that computed one, and ``prev_probs``, the distributions of
    the last step that ran the unembedding; both are read-only.

    ``all_rows`` is the read-only index array over all rows that
    decisions refreshing or reusing every row share.
    """

    config: ModelConfig
    mode: str
    tau_blocks: InitVar[tuple]
    skip_first_layers: int = 0
    refresh_interval: int = 1
    n_blocks: int = field(init=False)
    tau_layer: list = field(init=False)
    prev_q_head0: list = field(init=False)
    prev_k: list = field(init=False)
    prev_v: list = field(init=False)
    prev_o_pre: list = field(init=False)
    prev_out: list = field(init=False)
    prev_probs: np.ndarray = field(init=False)
    delta: np.ndarray = field(init=False)
    all_rows: np.ndarray = field(init=False)

    def __post_init__(self, tau_blocks) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        check_gate_settings(self.skip_first_layers, self.refresh_interval)
        if not isinstance(tau_blocks, (tuple, list)) or not tau_blocks:
            raise DimensionError(
                "tau_blocks must hold one row of thresholds per block")
        self.n_blocks = len(tau_blocks)
        # A shared profile passes one row object for every block: it is
        # checked once and gives one value per layer.
        rows = {id(row): row for row in tau_blocks}.values()
        for row in rows:
            check_thresholds(row, self.config.L)
        self.tau_layer = list(tau_blocks[0]) if len(rows) == 1 else [
            column[0] if len(set(column)) == 1
            else _row_thresholds(column, self.config.B)
            for column in zip(*tau_blocks)]
        self.all_rows = np.arange(self.n_blocks * self.config.B,
                                  dtype=np.int64)
        self.all_rows.flags.writeable = False
        self.reset_block()

    def reset_block(self) -> None:
        """Drop all caches and staleness at a block boundary."""
        L = self.config.L
        self.prev_q_head0 = [None] * L
        self.prev_k = [None] * L
        self.prev_v = [None] * L
        self.prev_o_pre = [None] * L
        self.prev_out = [None] * L
        self.prev_probs = None
        self.delta = np.zeros((L, self.n_blocks * self.config.B),
                              dtype=np.int64)


def _row_thresholds(column, B: int) -> np.ndarray:
    """One layer's thresholds, one per block, as a read-only vector of one
    per row of B-row blocks; -inf where the layer is disabled (None)."""
    taus = np.repeat(np.array([-math.inf if t is None else t
                               for t in column], dtype=np.float64), B)
    taus.flags.writeable = False
    return taus


def staleness_norm(delta: np.ndarray) -> float:
    """Euclidean norm of an int64 staleness row or matrix.

    The bits of ``np.linalg.norm(delta.astype(np.float64))``, which is
    ``sqrt(x.dot(x))`` on the raveled array: ``vdot`` ravels too, its
    integer dot is exact, and so is that sum's conversion to float below
    2**53.
    """
    return math.sqrt(np.vdot(delta, delta))


def check_gate_settings(skip_first_layers: int, refresh_interval: int) -> None:
    """Raise ConfigError unless the two gate settings are in range."""
    if refresh_interval < 1:
        raise ConfigError("refresh_interval must be >= 1")
    if skip_first_layers < 0:
        raise ConfigError("skip_first_layers must be >= 0")


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


def _queries_unchanged(state: ReuseState, ell: int) -> bool:
    """True when an eligible o-mode slot of layer ell, whose input is last
    step's because the layer below refreshed no row, reuses every row
    without scoring: its head-0 queries are the cached ones bit for bit,
    so every drift is exactly 0.

    A drift of 0 is reused under every threshold, so the skip fires unless
    the layer is disabled in some block of the stack (None, or a -inf
    entry of the layer's vector). A zero (inf drift) or non-finite cached
    row sends the slot down the scoring path, which decides it as
    ``reuse_set`` does.
    """
    tau = state.tau_layer[ell]
    if tau is None or (type(tau) is np.ndarray and tau.min() < 0.0):
        return False
    q0 = state.prev_q_head0[ell]
    return bool(q0.any(axis=1).all() and np.isfinite(q0).all())


def layer_step(lw: LayerWeights, x_t: np.ndarray, state: ReuseState,
               ell: int, t: int, below_unchanged: bool = False):
    """One layer step in the state's mode: attention, W_O and the MLP.

    Queries are fresh unless skipped as below. Where the gate is open in a
    reuse mode, rows whose head-0 query drift is within the layer
    threshold of their block are reused:

    * kv: the reused rows' keys and values stay as cached (stale rows stay
      stale) and only the refreshed rows are projected, into the cache in
      place, before attention runs over the hybrid cache;
    * o: K and V are computed in full, attention rows are evaluated for
      the refreshed tokens only, into the cached pre-W_O output in place.
      A slot that refreshes no row computes neither K, V, W_O nor the MLP
      and returns the layer's cached output (``ReuseState.prev_out``), the
      same array object, bitwise what the computation would give. When
      ``below_unchanged`` says that the layer below, an o-mode slot,
      refreshed no row this step, so that ``x_t`` is last step's input,
      the queries and the drift scoring are skipped too
      (``_queries_unchanged``); staleness still ages and the decision is
      still built. ``model_step`` sets it; a direct call never skips.

    Full mode is the case where no slot is eligible, so every row is
    recomputed. Every mode leaves this step's head-0 queries and pre-W_O
    attention output in the state's caches, and kv and full modes this
    step's K and V.

    Returns:
        (h, decision): the layer's post-MLP output and the slot decision.
    """
    cfg = state.config
    mode = state.mode
    n = state.n_blocks
    matmul = block_matmul(n)
    if t > 0 and mode != "full" and state.prev_k[ell] is None:
        raise StateError(
            f"no cached activations for layer {ell} at step {t}; "
            "steps must be driven in order from 0")
    eligible = mode != "full" and gate(
        ell, t, state.skip_first_layers, state.refresh_interval)
    if eligible and below_unchanged and _queries_unchanged(state, ell):
        reused = state.all_rows
    else:
        q = matmul(x_t, lw.w_q)
        q0 = q[:, :cfg.d // cfg.H]
        reused = (reuse_set(q0, state.prev_q_head0[ell], state.tau_layer[ell])
                  if eligible else _NO_ROWS)
        state.prev_q_head0[ell] = q0
    refreshed, staleness_l2 = _age_staleness(state, ell, reused)
    decision = ReuseDecision(
        layer=ell, step=t, reused=reused, refreshed=refreshed,
        eligible=eligible, staleness_l2=staleness_l2)
    if mode == "o" and not refreshed.size:
        return state.prev_out[ell], decision

    if not reused.size:
        k = matmul(x_t, lw.w_k)
        v = matmul(x_t, lw.w_v)
        o_pre = attention_rows(q, k, v, cfg.H, n)
    elif mode == "kv":
        # Only refreshed rows are projected, into the cache in place. A
        # one-row product goes through gemv, whose bits differ from the
        # gemm row of the full product, so one row i is taken from the
        # two-row gemm of rows i and i + 1 (mod B). From two rows on, a
        # row subset's gemm gave the full product's rows bit for bit on
        # OpenBLAS 0.3.31 (Haswell kernels) for d <= 384 and for d from
        # 768 to 2048, the sizes checked; for d from 448 to 640, products
        # of 2-4 rows differed from them in the last bits. o mode's skips
        # reuse whole matrices and take no row-subset product. Rows are
        # gathered with take, which copies what fancy indexing copies in
        # less time at these sizes.
        k = state.prev_k[ell]
        v = state.prev_v[ell]
        for count, rows in _refresh_groups(refreshed, n, cfg.B):
            matmul_m = block_matmul(len(rows) // count)
            if count == 1:
                pairs = _row_pairs(len(x_t), cfg.B).take(rows, axis=0)
                x_r = x_t.take(pairs.ravel(), axis=0)
                k[rows] = matmul_m(x_r, lw.w_k)[::2]
                v[rows] = matmul_m(x_r, lw.w_v)[::2]
            else:
                x_r = x_t.take(rows, axis=0)
                k[rows] = matmul_m(x_r, lw.w_k)
                v[rows] = matmul_m(x_r, lw.w_v)
        o_pre = attention_rows(q, k, v, cfg.H, n)
    else:
        k = matmul(x_t, lw.w_k)
        v = matmul(x_t, lw.w_v)
        o_pre = state.prev_o_pre[ell]
        for count, rows in _refresh_groups(refreshed, n, cfg.B):
            m = len(rows) // count
            k_m, v_m = k, v
            if m < n:
                kv_rows = _block_rows(rows[::count] // cfg.B, cfg.B)
                k_m, v_m = k.take(kv_rows, axis=0), v.take(kv_rows, axis=0)
            o_pre[rows] = attention_rows(q.take(rows, axis=0), k_m, v_m,
                                         cfg.H, m)

    state.prev_k[ell] = k
    state.prev_v[ell] = v
    state.prev_o_pre[ell] = o_pre
    h = mlp(lw, matmul(o_pre, lw.w_o), cfg.activation, matmul)
    if mode == "o":
        h.flags.writeable = False
        state.prev_out[ell] = h
    return h, decision


def _block_rows(blocks: np.ndarray, B: int) -> np.ndarray:
    """The row indices of the given blocks of B rows, block by block."""
    return (blocks[:, None] * B + np.arange(B)).ravel()


@functools.lru_cache
def _row_pairs(n_rows: int, B: int) -> np.ndarray:
    """Each of n_rows rows, blocks of B, paired with the next row of its
    block, i + 1 mod B: a read-only (n_rows, 2) index array."""
    rows = np.arange(n_rows, dtype=np.int64)
    pairs = np.stack((rows, rows - rows % B + (rows + 1) % B), axis=1)
    pairs.flags.writeable = False
    return pairs


def _refresh_groups(refreshed: np.ndarray, n: int, B: int):
    """The refreshed rows of a stack of n blocks of B rows, grouped by how
    many rows each block refreshes: (count, rows) per count > 0, each
    group's rows block by block, so that one product per block over a
    group's rows has the shape a one-block step gives it."""
    if n == 1:
        return ((len(refreshed), refreshed),) if refreshed.size else ()
    block = refreshed // B
    counts = np.bincount(block, minlength=n)[block]
    # A set, not np.unique, which imports numpy.ma (about 1.2 MB).
    return [(count, refreshed[counts == count])
            for count in sorted(set(counts.tolist()))]


# One entry per mode, all one function: the benchmark wraps each mode's entry.
_LAYER_STEPS = dict.fromkeys(MODES, layer_step)


def model_step(weights, state: ReuseState, x: np.ndarray, t: int):
    """Run the whole layer stack for one denoising step in the state's mode.

    In o mode, a layer is told whether the layer below refreshed no row
    (``layer_step``'s ``below_unchanged``), and when the top layer
    refreshed no row, the distributions are last step's (the same
    read-only array) and the unembedding is skipped.

    Returns:
        (probs, decisions, q_head0): per-token distributions, the per-layer
        decisions, and the per-layer head-0 query matrices of this step
        (the trace keeps them; calibration, the drift histograms and the
        bench replay score them).
    """
    cfg = state.config
    rows = state.n_blocks * cfg.B
    if x.shape != (rows, cfg.d):
        raise DimensionError(f"input shape {x.shape} != ({rows}, {cfg.d})")
    step_fn = _LAYER_STEPS[state.mode]
    o_mode = state.mode == "o"
    cur = x
    unchanged = False
    decisions = []
    q_head0 = []
    for ell, lw in enumerate(weights.layers):
        cur, decision = step_fn(lw, cur, state, ell, t, unchanged)
        unchanged = o_mode and not decision.refreshed.size
        decisions.append(decision)
        q_head0.append(state.prev_q_head0[ell])
    if unchanged:
        return state.prev_probs, decisions, q_head0
    probs = unembed(weights, cur, block_matmul(state.n_blocks))
    if o_mode:
        probs.flags.writeable = False
        state.prev_probs = probs
    return probs, decisions, q_head0


def _check_forward_input(config: ModelConfig, x: np.ndarray) -> int:
    """The number of blocks ``x`` stacks, once its shape and row norms
    are checked."""
    if x.ndim != 2 or x.shape[1] != config.d or not x.shape[0] \
            or x.shape[0] % config.B:
        raise DimensionError(
            f"input shape {x.shape} is not a stack of ({config.B}, "
            f"{config.d}) blocks")
    target = math.sqrt(config.d)
    # The arithmetic of np.linalg.norm(x, axis=1) and np.allclose(norms,
    # target, rtol=1e-9, atol=1e-9) without their wrappers' overhead; a
    # NaN norm fails the comparison.
    norms = np.sqrt((x * x).sum(axis=1))
    if not (np.abs(norms - target) <= 1e-9 + 1e-9 * target).all():
        raise DegenerateInputError(
            "input rows must be normalized to norm sqrt(d)"
        )
    return x.shape[0] // config.B


def forward_full(weights: ModelWeights, x: np.ndarray):
    """Full forward pass without any activation reuse: one full-mode
    ``model_step`` at step 0 on a fresh state.

    Args:
        weights: model parameters.
        x: B x d input with rows normalized to norm sqrt(d), or a stack of
            such blocks (n * B rows), each of which gets the bits of its
            own pass.

    Returns:
        (probs, state): probs has one row per input row, each summing to
        1; the state's per-layer caches hold this pass's head-0 queries
        (``prev_q_head0``), K, V and pre-W_O attention output.
    """
    config = weights.config
    n_blocks = _check_forward_input(config, x)
    state = ReuseState(config=config, mode="full",
                       tau_blocks=((None,) * config.L,) * n_blocks)
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


def replay_reuse(scores, tau_layer, skip_first_layers: int,
                 refresh_interval: int) -> tuple[int, int]:
    """(rows reused, eligible slots) of one block replayed from frozen
    drift scores at the thresholds ``tau_layer``.

    ``scores`` holds, per step, the per-layer score vectors of
    ``drift.trajectory_drifts``, or None where the step has no previous one
    (step 0). ``tau_layer`` holds one threshold per layer of the scores,
    checked as ``ReuseState`` checks each block's row (DimensionError,
    ConfigError). Each slot is decided as live decoding decides it:
    ``gate``, then ``below_threshold``. Thresholding a fixed score is
    monotone in tau, so the reused count is too; live reruns would instead
    change the scores themselves.
    """
    check_gate_settings(skip_first_layers, refresh_interval)
    layers = {len(step) for step in scores if step is not None}
    if len(layers) > 1:
        raise DimensionError("scores hold different numbers of layers")
    check_thresholds(tau_layer, layers.pop() if layers else None)
    reused = eligible = 0
    for t, step in enumerate(scores):
        for ell, tau in enumerate(tau_layer):
            if gate(ell, t, skip_first_layers, refresh_interval):
                eligible += 1
                if step is not None:
                    reused += below_threshold(step[ell], tau).size
    return reused, eligible
