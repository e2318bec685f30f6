"""Blockwise masked-diffusion generation and the coupled paired sampler.

``diffusion_generate`` is the practical decode loop: all positions of a
block start masked, every denoising step samples candidates for all still
masked positions in one batched draw (the same draws, bit for bit, as one
inverse-CDF draw per position in position order), and the
highest-confidence candidates are committed (unmasked) until the block is
fully resolved. Given one seed per sequence, it decodes n sequences in
lockstep, as calibration decodes its prompts: each step is one
``model_step`` over the stack of their blocks, each sequence draws from
its own generator, and each gets the bits of its own one-seed run.

``coupled_generate`` is the measurement loop: it evolves a reuse branch and
a reuse-free reference branch in lockstep, resampling every position each
step through a maximal coupling so the two token strings agree wherever
the two distributions overlap. The recorded per-step gaps are what the
bound harness checks. It samples from the model's own distributions over
one block, so it takes no sampler settings, only a step count and its
trials: one (seed, drift profile) pair each, all run in lockstep. Each
step is one ``model_step`` over the stack of the trials' blocks, the
stacked state holds each trial's own thresholds, and every trial gets the
bits of its own one-trial run. verify pairs its derived seeds with one
shared profile; bench runs its whole phi_bar grid as one trial per
budget. It returns one ``CoupledRun`` whose arrays stack the trials on a
leading axis; the per-step staleness matrices are the record of every
reuse decision.
Each step couples every block in one call to ``couple_blocks``, which
validates both distribution matrices and finds the bitwise-equal rows in
one vectorized pass, then makes, block by block from that trial's own
generator, the draws ``maximal_coupling_sample`` would make for each pair
(one batched draw for a block whose pairs are all equal). A reference
pass at the reuse branch's input runs only for blocks where some layer
reused a row: for the others every layer took the full-mode path on the
same input, so the reuse branch's distribution is the reference one bit
for bit. Acceptance criterion 01 and
``test_model_step_full_matches_forward_full`` check that identity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError
# The decode loops below look rows up with embed_ids. embed_tokens is
# imported only because perfbench's span tracer wraps it by this module's
# name; drop it when perfbench gains a span for embed_ids.
from .model import ModelWeights, embed_ids, embed_tokens  # noqa: F401
from .reuse import (
    ReuseState,
    _block_rows,
    _check_forward_input,
    forward_full,
    model_step,
)

_DIST_ATOL = 1e-9


@dataclass(frozen=True)
class SamplerConfig:
    """Decode-loop knobs; block_size must match the model's B."""

    gen_length: int = 4
    block_size: int = 4
    steps_per_block: int = 4
    tokens_unmasked_per_step: int = 1
    temperature: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.gen_length, self.block_size, self.steps_per_block,
               self.tokens_unmasked_per_step) < 1:
            raise ConfigError("all sampler counts must be >= 1")
        # Negated so that NaN, for which every comparison is False, fails.
        if not self.temperature >= 0.0:
            raise ConfigError("temperature must be >= 0")
        if self.gen_length % self.block_size != 0:
            raise ConfigError("gen_length must be a multiple of block_size")
        if self.tokens_unmasked_per_step * self.steps_per_block \
                < self.block_size:
            raise ConfigError(
                "schedule cannot resolve the block: "
                "tokens_unmasked_per_step * steps_per_block < block_size")


@dataclass
class StepRecord:
    """Everything observed during one denoising step of one block; in a
    lockstep run, of the n sequences' blocks, whose rows every array field
    stacks block by block (n * B rows)."""

    block: int
    step: int
    input_tokens: np.ndarray          # block tokens fed to the model
    decisions: list                   # per-layer ReuseDecision
    q_head0: list                     # per-layer B x d_head query matrices
    unmasked: np.ndarray              # rows committed this step
    confidences: np.ndarray           # candidate confidence per row


@dataclass
class GenerationTrace:
    """Per-step record stream of one generation run of ``sequences``
    sequences decoded in lockstep."""

    mode: str
    records: list = field(default_factory=list)
    sequences: int = 1

    def decisions_flat(self):
        return [d for rec in self.records for d in rec.decisions]

    def q_trajectories(self):
        """Per sequence, then per block, the per-step per-layer head-0
        query matrices: each a slice of the record's stacked rows."""
        blocks = {}
        for rec in self.records:
            blocks.setdefault(rec.block, []).append(rec.q_head0)
        n = self.sequences
        return [[[q[k * len(q) // n:(k + 1) * len(q) // n] for q in step]
                 for step in blocks[b]]
                for k in range(n) for b in sorted(blocks)]

    def jsonl_records(self):
        """Decision and unmask events as JSON-ready dicts, step ordered."""
        for rec in self.records:
            for dec in rec.decisions:
                row = dec.to_record()
                row["block"] = rec.block
                row["eligible"] = dec.eligible
                yield row
            yield {
                "block": rec.block,
                "step": rec.step,
                "event": "unmask",
                "positions": [int(i) for i in rec.unmasked],
            }


def _check_distribution(p):
    """(p as a float64 vector, its entries as a Python list)."""
    a = np.asarray(p, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise DimensionError("distribution must be a non-empty vector")
    values = a.tolist()
    low, total = min(values), sum(values)
    # A NaN entry makes the total NaN, which fails the negated test.
    if low < 0.0 or not abs(total - 1.0) <= _DIST_ATOL:
        raise DegenerateInputError(
            "input is not a normalized probability vector")
    return a, values


def _check_rows(P):
    """(P as a float64 matrix, its row CDFs): every row checked against
    the rule ``_check_distribution`` applies to one vector, in one
    vectorized pass.

    ``cumsum(axis=1)`` adds each row left to right, so a row of the result
    is that row's 1-D CDF bit for bit, and its last entry is the row total
    the 1e-9 test reads.
    """
    a = np.asarray(P, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError("distributions must form a non-empty matrix")
    # Entries in [0, 2] keep the sums finite. The range test rejects no
    # valid row (a nonnegative row with an entry above 2 sums to more than
    # 2), and NaN fails both comparisons.
    if not (a.min() >= 0.0 and a.max() <= 2.0):
        raise DegenerateInputError(
            "input rows are not normalized probability vectors")
    cdf = np.cumsum(a, axis=1)
    if not (np.abs(cdf[:, -1] - 1.0) <= _DIST_ATOL).all():
        raise DegenerateInputError(
            "input rows are not normalized probability vectors")
    return a, cdf


def _draw(cdf, rng) -> int:
    """Inverse-CDF draw from a nondecreasing CDF given as a Python list.

    ``bisect_right`` is ``searchsorted(side="right")``; the draw runs on
    Python floats, where numpy's per-call overhead would dominate at
    vocabulary sizes.
    """
    return min(bisect_right(cdf, rng.random() * cdf[-1]), len(cdf) - 1)


def _draw_index(weights: np.ndarray, rng) -> int:
    """Inverse-CDF draw from nonnegative weights summing to ~1. The CDF is
    summed left to right on Python floats, which reproduces ``np.cumsum``
    bit for bit."""
    return _draw(list(accumulate(weights.tolist())), rng)


def _couple(p, q, overlap, alpha, rng):
    """(j, jhat) from the maximal coupling of two validated distributions
    that are not bitwise equal, given their overlap min(p, q) and its mass
    alpha. With probability alpha the pair lands on the diagonal, drawn
    from the normalized overlap; otherwise j and jhat are drawn
    independently from the normalized residuals.
    """
    if rng.random() < alpha:
        j = _draw_index(overlap / alpha, rng)
        return j, j
    res_p = p - overlap
    res_q = q - overlap
    j = _draw_index(res_p / res_p.sum(), rng)
    jhat = _draw_index(res_q / res_q.sum(), rng)
    return j, jhat


def maximal_coupling_sample(p, q, rng):
    """Draw (j, jhat) with marginals exactly p and q and maximal agreement.

    The overlap mass sum(min(p, q)) = 1 - TV(p, q) is placed on the
    diagonal; with the remaining probability the two indices are drawn
    independently from the normalized residuals. Bitwise-equal inputs take
    a fast path that always agrees.

    Raises:
        DegenerateInputError: if p or q has a negative or NaN entry, or does
            not sum to 1 within 1e-9.
        DimensionError: if p and q are not non-empty vectors of one length.
    """
    pa, p_values = _check_distribution(p)
    qa, q_values = _check_distribution(q)
    if pa.size != qa.size:
        raise DimensionError("p and q must share a support")
    # Checked entries hold no NaN, so the lists compare as (pa == qa).all().
    if p_values == q_values:
        j = _draw(list(accumulate(p_values)), rng)
        return j, j
    overlap = np.minimum(pa, qa)
    return _couple(pa, qa, overlap, float(overlap.sum()), rng)


def couple_blocks(P, Q, rngs):
    """One maximal-coupling draw per row pair (P[i], Q[i]), for a stack of
    len(rngs) equal blocks of rows, each block drawing from its own
    generator.

    Returns (j, jhat), two int64 vectors. The draws of block b, and the
    state ``rngs[b]`` is left in, are those of calling
    ``maximal_coupling_sample(P[i], Q[i], rngs[b])`` for the block's rows
    i in order. The checks, the equality test and the overlaps are batched
    over the whole stack, and the row reductions they use add in the 1-D
    order. A block whose row pairs are all bitwise equal makes one
    ``random(B)`` call on its generator, and the draws of all such blocks
    are made in one batch, as ``_sample_candidates`` makes its draws.

    Raises:
        DegenerateInputError: if a row has a negative or NaN entry, or does
            not sum to 1 within 1e-9.
        DimensionError: if P and Q are not non-empty matrices of one shape,
            or their rows do not split into len(rngs) blocks.
    """
    P, cdf_p = _check_rows(P)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != P.shape:
        _check_rows(Q)  # bad values in Q outrank the shape, as for one pair
        raise DimensionError("P and Q must share a shape")
    n = len(rngs)
    if not n or len(P) % n:
        raise DimensionError(f"{len(P)} rows do not split into {n} blocks")
    B = len(P) // n
    equal = (P == Q).all(axis=1)
    j = np.empty(len(P), dtype=np.int64)
    jhat = np.empty(len(P), dtype=np.int64)
    block_equal = equal.reshape(n, B).all(axis=1).tolist()
    if not all(block_equal):
        # Rows equal to P passed P's check; the rest are checked here.
        _check_rows(Q)
        overlap = np.minimum(P, Q)
        alpha = overlap.sum(axis=1).tolist()
        same = equal.tolist()
    draws = []
    for b, rng in enumerate(rngs):
        if block_equal[b]:
            # rng.random(B) continues the stream as B scalar calls would.
            draws.append(rng.random(B))
            continue
        for i in range(b * B, (b + 1) * B):
            if same[i]:
                j[i] = jhat[i] = _draw(cdf_p[i].tolist(), rng)
            else:
                j[i], jhat[i] = _couple(P[i], Q[i], overlap[i], alpha[i], rng)
    if draws:
        # Counting cdf <= u is bisect_right on a nondecreasing CDF.
        rows = _block_rows(np.flatnonzero(block_equal), B)
        cdf = cdf_p[rows]
        u = np.concatenate(draws) * cdf[:, -1]
        j[rows] = jhat[rows] = np.minimum((cdf <= u[:, None]).sum(axis=1),
                                          P.shape[1] - 1)
    return j, jhat


def _sample_candidates(p: np.ndarray, temperature: float, *rngs):
    """Sample one token per row of p; returns (tokens, confidences), where
    a confidence is the model probability of the sampled token. The rows
    split into len(rngs) equal groups, each drawing from its own
    generator.

    temperature 0 is greedy (no randomness consumed); otherwise each row is
    reshaped as p^(1/temperature) in log space and drawn from by inverse
    CDF with one ``random`` value per row, in row order, from its group's
    generator. Every step is the row-wise form of one row's draw and gives
    the same bits: ``rng.random(m)`` continues the stream as m scalar
    calls would, row reductions and ``cumsum(axis=1)`` add in the 1-D
    order, and counting
    ``cdf <= u`` is ``bisect_right`` on a nondecreasing CDF. The division
    by the temperature is skipped at exactly 1.0, where it is exact, and
    the shift, exp and normalization run in place on the log array this
    function allocated, so ``p`` is not written to.
    """
    rows = np.arange(p.shape[0])
    if temperature == 0.0:
        tokens = p.argmax(axis=1)
        return tokens, p[rows, tokens]
    with np.errstate(divide="ignore"):
        z = np.log(p)
    if temperature != 1.0:
        z /= temperature
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    cdf = z.cumsum(axis=1)
    m = p.shape[0] // len(rngs)
    u = np.concatenate([rng.random(m) for rng in rngs]) * cdf[:, -1]
    tokens = np.minimum((cdf <= u[:, None]).sum(axis=1), p.shape[1] - 1)
    return tokens, p[rows, tokens]


def _resolve_taus(drift_profile, L: int, mode: str):
    if mode == "full" or drift_profile is None:
        if mode != "full" and drift_profile is None:
            raise ConfigError(f"mode {mode!r} needs a drift profile")
        return (None,) * L
    if drift_profile.L != L:
        raise DimensionError(
            f"profile has {drift_profile.L} layers, model has {L}")
    return tuple(drift_profile.tau_layer)


def _mask_ids(weights: ModelWeights, n: int) -> np.ndarray:
    """n copies of the mask id, checked once against the vocabulary: the
    decode loops embed only ids checked here or in ``initial_tokens``, or
    sampled from the model's distributions, so they look rows up with
    ``embed_ids``, which skips ``embed_tokens``' range reductions."""
    if not 0 <= weights.mask_token < weights.config.n_vocab:
        raise DegenerateInputError(
            f"mask token {weights.mask_token} out of range "
            f"[0, {weights.config.n_vocab})")
    return np.full(n, weights.mask_token, dtype=np.int64)


def diffusion_generate(weights: ModelWeights, config: SamplerConfig,
                       drift_profile, mode: str, *,
                       skip_first_layers: int = 0,
                       refresh_interval: int = 2,
                       initial_tokens=None,
                       seeds=None):
    """Blockwise confidence-top-k masked-diffusion decoding.

    Non-mask entries of ``initial_tokens`` act as a frozen prompt; masked
    entries are denoised. Each block stops early once fully unmasked, so
    the effective step count can be below steps_per_block.

    One loop serves every n. Without ``seeds`` it decodes a stack of one
    sequence at ``config.seed``: ``initial_tokens``, if given, and the
    returned tokens have shape (gen_length,), and every record covers the
    block's B rows. With
    ``seeds``, one sequence per seed is decoded in lockstep: the prompts
    and the tokens have shape (n, gen_length), the state is one stacked
    ``ReuseState`` of n blocks, every step is one ``model_step`` over the
    n sequences' blocks, and every record field stacks their rows block by
    block (n * B rows): ``unmasked`` holds row indices into the stack,
    sequence by sequence, and the decisions and their staleness norms
    cover all rows. Each sequence draws from its own generator, one
    ``random(m)`` per step as its own run does, so sequence k's rows have
    the bits of a one-seed run at ``seeds[k]``. Every block must mask as
    many positions in every sequence, so that all of them finish on the
    same step.

    Returns:
        (tokens, trace): the resolved token sequence(s) and the step
        records.

    Raises:
        ConfigError: a block masks different numbers of positions in two
            sequences, ``seeds`` is empty, or block_size is not the
            model's B.
    """
    cfg = weights.config
    B = cfg.B
    if config.block_size != B:
        raise ConfigError(
            f"block_size {config.block_size} != model block length {B}")
    tau_layer = _resolve_taus(drift_profile, cfg.L, mode)
    run_seeds = [config.seed] if seeds is None else list(seeds)
    n = len(run_seeds)
    if not n:
        raise ConfigError("decoding needs at least one seed")
    shape = (n, config.gen_length)
    tokens = _mask_ids(weights, n * config.gen_length).reshape(shape)
    if initial_tokens is not None:
        given = np.asarray(initial_tokens, dtype=np.int64)
        want = shape if seeds is not None else shape[1:]
        if given.shape != want:
            raise DimensionError(f"initial_tokens must have shape {want}")
        if given.min() < 0 or given.max() >= cfg.n_vocab:
            raise DegenerateInputError("initial token out of range")
        tokens = given.reshape(shape)
    # Block-major copy: blocks[b] holds block b of every sequence, one
    # after another, so blocks[b].reshape(-1) is a view of the n * B rows
    # that a step decodes.
    blocks = tokens.reshape(n, -1, B).swapaxes(0, 1).copy()
    counts = (blocks == weights.mask_token).sum(axis=2)
    if (counts != counts[:, :1]).any():
        raise ConfigError("every sequence must mask as many positions "
                          "in each block")
    state = ReuseState(config=cfg, mode=mode, tau_blocks=(tau_layer,) * n,
                       skip_first_layers=skip_first_layers,
                       refresh_interval=refresh_interval)
    rngs = [np.random.default_rng(seed) for seed in run_seeds]
    per_step = config.tokens_unmasked_per_step
    no_conf = np.full(n * B, -np.inf)
    trace = GenerationTrace(mode=mode, sequences=n)

    # m is the number of rows each sequence still has masked in the block.
    for b, m in enumerate(counts[:, 0].tolist()):
        state.reset_block()
        block = blocks[b].reshape(-1)
        masked = block == weights.mask_token
        for t in range(config.steps_per_block):
            if not m:
                break
            x = embed_ids(weights, block)
            probs, decisions, q_head0 = model_step(weights, state, x, t)
            m_idx = masked.nonzero()[0]
            cand, m_conf = _sample_candidates(
                probs[m_idx], config.temperature, *rngs)
            # Sequence k's masked rows are its own run's m_idx offset by
            # its first row. A stable argsort gives one order, so row by
            # row it orders each as its own run does. (The array method
            # skips np.argsort's Python-level dispatch.)
            top = (-m_conf.reshape(n, m)).argsort(kind="stable")
            top = (top[:, :per_step] + np.arange(0, n * m, m)[:, None]).ravel()
            chosen = m_idx[top]
            conf = no_conf.copy()
            conf[m_idx] = m_conf
            input_copy = block.copy()
            block[chosen] = cand[top]
            masked[chosen] = False
            m -= len(chosen) // n
            # chosen and conf are new arrays of this step; the trace keeps
            # them as they are.
            trace.records.append(StepRecord(
                block=b, step=t, input_tokens=input_copy,
                decisions=decisions, q_head0=q_head0,
                unmasked=chosen, confidences=conf))
    tokens = blocks.swapaxes(0, 1).reshape(shape)
    return (tokens[0] if seeds is None else tokens), trace


@dataclass
class CoupledRun:
    """Lockstep full/reuse measurements of n trials over one block of T
    steps, stacked: every field has a leading trial axis.

    Index conventions: per_step_embed_error[k, t] compares trial k's two
    branches' input embeddings at step t (entry 0 is the shared all-mask
    start, entry T the final strings); the other step arrays are indexed
    by the step that produced them (0..T-1), with staleness taken after
    the step's reuse decisions.

    per_step_delta[k, t] is trial k's L x B staleness matrix after step t,
    and it records every reuse decision: layer ell reused a row at step t
    exactly where its counter is > 0, refreshed the rows whose counter is
    0, and was eligible where ``reuse.gate`` opens the (ell, t) slot.
    """

    full_tokens: np.ndarray            # (n, B)
    reuse_tokens: np.ndarray           # (n, B)
    per_step_embed_error: np.ndarray   # (n, T + 1)
    per_step_l1_gap: np.ndarray        # (n, T)
    per_step_delta: np.ndarray         # (n, T, L, B) int64

    @property
    def per_step_delta_l2(self) -> np.ndarray:
        """(n, T) staleness norms. Integer sums of squares are exact, and
        so is their conversion to float below 2**53; sqrt rounds correctly,
        so each has the bits of ``reuse.staleness_norm`` on its matrix."""
        delta = self.per_step_delta
        return np.sqrt((delta * delta).sum(axis=(2, 3)))


def coupled_generate(weights: ModelWeights, mode: str, trials, steps: int,
                     *, skip_first_layers: int = 0,
                     refresh_interval: int = 2) -> CoupledRun:
    """Run the reference and reuse branches of each trial coupled, step by
    step, over one block of ``steps`` steps.

    Both branches start from the all-mask block and resample every position
    at every step from the model's own distributions, so no sampler
    setting but the step count enters; each position's token pair is drawn
    from the maximal coupling of the reference branch's distribution (at
    its own input) and the reuse branch's distribution. The recorded L1
    gap compares the two models at the reuse branch's input, which is the
    quantity the per-step bounds constrain.

    ``forward_full`` runs at the reuse branch's input only on steps where
    some decision reused a row, and at the reference branch's input only
    on steps where the two token strings differ. A step that reused
    nothing ran the full-mode computation, so its distribution is the
    reference one exactly and its gap is 0; the input-norm check of
    ``forward_full`` still runs on it.

    ``trials`` holds one (seed, drift profile) pair per trial. Each
    distinct profile object is resolved once, so trials that share one
    give ``ReuseState`` one row of thresholds. Trial k of the returned run
    has the bits of a one-trial run of its pair: the trials run in
    lockstep, every step is one ``model_step`` over the stack of the
    trials' blocks, the reference passes run as one ``forward_full`` over
    the blocks that need them, and each trial draws from its own generator
    (``couple_blocks``).

    Raises:
        ConfigError: ``trials`` is empty, or the mode is not kv or o.
    """
    cfg = weights.config
    if mode not in ("kv", "o"):
        raise ConfigError("coupled runs need mode 'kv' or 'o'")
    n = len(trials)
    if not n:
        raise ConfigError("coupled runs need at least one trial")
    profiles = {id(profile): profile for _, profile in trials}
    taus = {key: _resolve_taus(profile, cfg.L, mode)
            for key, profile in profiles.items()}
    state = ReuseState(config=cfg, mode=mode,
                       tau_blocks=tuple(taus[id(p)] for _, p in trials),
                       skip_first_layers=skip_first_layers,
                       refresh_interval=refresh_interval)
    rngs = [np.random.default_rng(seed) for seed, _ in trials]
    T, L, B = steps, cfg.L, cfg.B
    x_tokens = _mask_ids(weights, n * B)
    xhat_tokens = x_tokens.copy()

    embed_err = np.zeros((n, T + 1))
    l1_gap = np.zeros((n, T))
    delta = np.zeros((n, T, L, B), dtype=np.int64)

    for t in range(T):
        x_hat = embed_ids(weights, xhat_tokens)
        p_hat, _, _ = model_step(weights, state, x_hat, t)
        delta[:, t] = state.delta.reshape(L, n, B).transpose(1, 0, 2)
        # A block with no stale row reused nothing this step: every layer
        # recomputed every row, which is the full pass on its input, so
        # p_hat is its reference distribution bit for bit.
        reused = delta[:, t].any(axis=(1, 2))
        if not reused.all():
            _check_forward_input(cfg, x_hat)
        p_ref = _replace_blocks(p_hat, reused, lambda rows: forward_full(
            weights, x_hat[rows])[0])
        differ = (x_tokens != xhat_tokens).reshape(n, B).any(axis=1)
        p_full = _replace_blocks(p_ref, differ, lambda rows: forward_full(
            weights, embed_ids(weights, x_tokens[rows]))[0])
        # One sum per block over its B * n_vocab entries, in the order of
        # the one-block run's sum over the whole matrix; 0 where p_ref is
        # p_hat.
        l1_gap[:, t] = np.abs(p_ref - p_hat).reshape(n, -1).sum(axis=1)
        x_tokens, xhat_tokens = couple_blocks(p_full, p_hat, rngs)
        if (x_tokens != xhat_tokens).any():
            # 0 for a block whose two strings agree: its rows are equal.
            diff = embed_ids(weights, x_tokens) \
                - embed_ids(weights, xhat_tokens)
            embed_err[:, t + 1] = np.linalg.norm(diff, axis=1).reshape(
                n, B).sum(axis=1)
    return CoupledRun(
        full_tokens=x_tokens.reshape(n, B),
        reuse_tokens=xhat_tokens.reshape(n, B),
        per_step_embed_error=embed_err,
        per_step_l1_gap=l1_gap,
        per_step_delta=delta,
    )


def _replace_blocks(p: np.ndarray, blocks: np.ndarray, compute):
    """``p`` with the rows of the marked blocks (a bool per block) replaced
    by ``compute(rows)``, which gets their row indices; ``p`` itself when
    no block is marked, and what ``compute`` returns when every one is."""
    if not blocks.any():
        return p
    rows = _block_rows(np.flatnonzero(blocks), len(p) // len(blocks))
    if len(rows) == len(p):
        return compute(rows)
    out = p.copy()
    out[rows] = compute(rows)
    return out
