"""Blockwise masked-diffusion generation and the coupled paired sampler.

``diffusion_generate`` is the practical decode loop: all positions of a
block start masked, every denoising step samples candidates for all still
masked positions in one batched draw (the same draws, bit for bit, as one
inverse-CDF draw per position in position order), and the
highest-confidence candidates are committed (unmasked) until the block is
fully resolved.

``coupled_generate`` is the measurement loop: it evolves a reuse branch and
a reuse-free reference branch in lockstep, resampling every position each
step through a maximal coupling so the two token strings agree wherever
the two distributions overlap. The recorded per-step gaps are what the
bound harness checks. Each step couples the whole block in one call to
``couple_rows``, which validates both distribution matrices and finds the
bitwise-equal rows in one vectorized pass, then makes, row by row, the
draws ``maximal_coupling_sample`` would make for each pair. A reference
pass at the reuse branch's input runs only on steps where some layer
reused a row: on the other steps every layer took the full-mode path on
the same input, so the reuse branch's distribution is the reference one
bit for bit. Acceptance criterion 01 and
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
from .reuse import ReuseState, _check_forward_input, forward_full, model_step

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
    """Everything observed during one denoising step of one block."""

    block: int
    step: int
    input_tokens: np.ndarray          # block tokens fed to the model
    decisions: list                   # per-layer ReuseDecision
    q_head0: list                     # per-layer B x d_head query matrices
    unmasked: np.ndarray              # positions committed this step
    confidences: np.ndarray           # candidate confidence per position
    staleness_l2: float


@dataclass
class GenerationTrace:
    """Per-step record stream of one generation run."""

    mode: str
    records: list = field(default_factory=list)

    def decisions_flat(self):
        return [d for rec in self.records for d in rec.decisions]

    def q_trajectories(self):
        """Per block, the per-step per-layer head-0 query matrices."""
        blocks = {}
        for rec in self.records:
            blocks.setdefault(rec.block, []).append(rec.q_head0)
        return [blocks[b] for b in sorted(blocks)]

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
    if not all(abs(t - 1.0) <= _DIST_ATOL for t in cdf[:, -1].tolist()):
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


def couple_rows(P, Q, rng):
    """One maximal-coupling draw per row pair (P[i], Q[i]).

    Returns (j, jhat), two int64 vectors. The draws, and the state ``rng``
    is left in, are those of calling ``maximal_coupling_sample(P[i], Q[i],
    rng)`` for i in row order: the checks, the equality test and the
    overlaps are batched, and the row reductions they use add in the 1-D
    order. When every row pair is bitwise equal, one draw per row is made
    in a batch, as ``_sample_candidates`` does.

    Raises:
        DegenerateInputError: if a row has a negative or NaN entry, or does
            not sum to 1 within 1e-9.
        DimensionError: if P and Q are not non-empty matrices of one shape.
    """
    P, cdf_p = _check_rows(P)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != P.shape:
        _check_rows(Q)  # bad values in Q outrank the shape, as for one pair
        raise DimensionError("P and Q must share a shape")
    equal = (P == Q).all(axis=1)
    if equal.all():
        # Q is P bit for bit, so Q passed P's check. rng.random(n)
        # continues the stream as n scalar calls would, and counting
        # cdf <= u is bisect_right on a nondecreasing CDF.
        u = rng.random(len(P)) * cdf_p[:, -1]
        j = np.minimum((cdf_p <= u[:, None]).sum(axis=1), P.shape[1] - 1)
        return j, j.copy()
    _check_rows(Q)
    overlap = np.minimum(P, Q)
    alpha = overlap.sum(axis=1).tolist()
    j = np.empty(len(P), dtype=np.int64)
    jhat = np.empty(len(P), dtype=np.int64)
    for i, same in enumerate(equal.tolist()):
        if same:
            j[i] = jhat[i] = _draw(cdf_p[i].tolist(), rng)
        else:
            j[i], jhat[i] = _couple(P[i], Q[i], overlap[i], alpha[i], rng)
    return j, jhat


def _sample_candidates(p: np.ndarray, temperature: float, rng):
    """Sample one token per row of p; returns (tokens, confidences), where
    a confidence is the model probability of the sampled token.

    temperature 0 is greedy (no randomness consumed); otherwise each row is
    reshaped as p^(1/temperature) in log space and drawn from by inverse
    CDF with one ``rng.random`` value per row, in row order. Every step is
    the row-wise form of one row's draw and gives the same bits:
    ``rng.random(m)`` continues the stream as m scalar calls would, row
    reductions and ``cumsum(axis=1)`` add in the 1-D order, and counting
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
    cdf = np.cumsum(z, axis=1)
    u = rng.random(p.shape[0]) * cdf[:, -1]
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
                       initial_tokens=None):
    """Blockwise confidence-top-k masked-diffusion decoding.

    Non-mask entries of ``initial_tokens`` act as a frozen prompt; masked
    entries are denoised. Each block stops early once fully unmasked, so
    the effective step count can be below steps_per_block.

    Returns:
        (tokens, trace): the resolved token sequence and the step records.
    """
    cfg = weights.config
    if config.block_size != cfg.B:
        raise ConfigError(
            f"block_size {config.block_size} != model block length {cfg.B}")
    tau_layer = _resolve_taus(drift_profile, cfg.L, mode)
    state = ReuseState(config=cfg, mode=mode, tau_layer=tau_layer,
                       skip_first_layers=skip_first_layers,
                       refresh_interval=refresh_interval)
    rng = np.random.default_rng(config.seed)
    tokens = _mask_ids(weights, config.gen_length)
    if initial_tokens is not None:
        given = np.asarray(initial_tokens, dtype=np.int64)
        if given.shape != tokens.shape:
            raise DimensionError(
                f"initial_tokens must have length {config.gen_length}")
        if given.min() < 0 or given.max() >= cfg.n_vocab:
            raise DegenerateInputError("initial token out of range")
        tokens = given.copy()
    trace = GenerationTrace(mode=mode)

    for b in range(config.gen_length // cfg.B):
        state.reset_block()
        lo = b * cfg.B
        block = tokens[lo:lo + cfg.B]
        masked = block == weights.mask_token
        for t in range(config.steps_per_block):
            if not masked.any():
                break
            x = embed_ids(weights, block)
            probs, decisions, q_head0 = model_step(weights, state, x, t)
            m_idx = masked.nonzero()[0]
            cand, m_conf = _sample_candidates(
                probs[m_idx], config.temperature, rng)
            top = np.argsort(-m_conf, kind="stable")[
                :config.tokens_unmasked_per_step]
            chosen = m_idx[top]
            conf = np.full(cfg.B, -np.inf)
            conf[m_idx] = m_conf
            input_copy = block.copy()
            block[chosen] = cand[top]
            masked[chosen] = False
            # chosen and conf are new arrays of this step; the trace keeps
            # them as they are.
            trace.records.append(StepRecord(
                block=b, step=t, input_tokens=input_copy,
                decisions=decisions, q_head0=q_head0,
                unmasked=chosen, confidences=conf,
                staleness_l2=state.staleness_l2()))
    return tokens, trace


@dataclass
class CoupledPair:
    """Lockstep full/reuse run measurements over one block of T steps.

    Index conventions: per_step_embed_error[t] compares the two branches'
    input embeddings at step t (entry 0 is the shared all-mask start,
    entry T the final strings); the other arrays are indexed by the step
    that produced them (0..T-1), with staleness taken after the step's
    reuse decisions.
    """

    full_tokens: np.ndarray
    reuse_tokens: np.ndarray
    per_step_embed_error: np.ndarray   # length T + 1
    per_step_l1_gap: np.ndarray        # length T
    per_step_delta_l2: np.ndarray      # length T
    per_step_delta: list               # length T, each an L x B int matrix
    decisions: list                    # flat ReuseDecision list


def coupled_generate(weights: ModelWeights, config: SamplerConfig,
                     drift_profile, mode: str, *,
                     skip_first_layers: int = 0,
                     refresh_interval: int = 2) -> CoupledPair:
    """Run the reference and reuse branches coupled step by step.

    Both branches start from the all-mask block and resample every position
    at every step; each position's token pair is drawn from the maximal
    coupling of the reference branch's distribution (at its own input) and
    the reuse branch's distribution. The recorded L1 gap compares the two
    models at the reuse branch's input, which is the quantity the per-step
    bounds constrain.

    ``forward_full`` runs at the reuse branch's input only on steps where
    some decision reused a row, and at the reference branch's input only
    on steps where the two token strings differ. A step that reused
    nothing ran the full-mode computation, so its distribution is the
    reference one exactly and its gap is 0; the input-norm check of
    ``forward_full`` still runs on it.
    """
    cfg = weights.config
    if mode not in ("kv", "o"):
        raise ConfigError("coupled runs need mode 'kv' or 'o'")
    if config.gen_length != cfg.B or config.block_size != cfg.B:
        raise ConfigError("coupled runs cover exactly one block")
    tau_layer = _resolve_taus(drift_profile, cfg.L, mode)
    state = ReuseState(config=cfg, mode=mode, tau_layer=tau_layer,
                       skip_first_layers=skip_first_layers,
                       refresh_interval=refresh_interval)
    rng = np.random.default_rng(config.seed)
    T = config.steps_per_block
    B = cfg.B
    x_tokens = _mask_ids(weights, B)
    xhat_tokens = x_tokens.copy()

    embed_err = np.zeros(T + 1)
    l1_gap = np.zeros(T)
    delta_l2 = np.zeros(T)
    deltas = []
    decisions_flat = []

    for t in range(T):
        x_hat = embed_ids(weights, xhat_tokens)
        p_hat, decisions, _ = model_step(weights, state, x_hat, t)
        if any(d.reused.size for d in decisions):
            p_ref, _ = forward_full(weights, x_hat)
        else:
            # Every layer recomputed every row, which is the full pass on
            # this input: p_hat is the reference distribution bit for bit.
            _check_forward_input(cfg, x_hat)
            p_ref = p_hat
        if (x_tokens == xhat_tokens).all():
            p_full = p_ref
        else:
            p_full, _ = forward_full(weights, embed_ids(weights, x_tokens))
        l1_gap[t] = float(np.abs(p_ref - p_hat).sum())
        delta_l2[t] = state.staleness_l2()
        deltas.append(state.delta.copy())
        decisions_flat.extend(decisions)
        x_tokens, xhat_tokens = couple_rows(p_full, p_hat, rng)
        if (x_tokens == xhat_tokens).all():
            embed_err[t + 1] = 0.0
        else:
            diff = embed_ids(weights, x_tokens) \
                - embed_ids(weights, xhat_tokens)
            embed_err[t + 1] = float(np.linalg.norm(diff, axis=1).sum())
    return CoupledPair(
        full_tokens=x_tokens,
        reuse_tokens=xhat_tokens,
        per_step_embed_error=embed_err,
        per_step_l1_gap=l1_gap,
        per_step_delta_l2=delta_l2,
        per_step_delta=deltas,
        decisions=decisions_flat,
    )
