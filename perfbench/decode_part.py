"""The decode part: ``sampler.diffusion_generate`` in full, kv and o modes.

The workload sets the model, the decode length and one flat threshold for
the reuse modes, at which reuse fires on most eligible rows but not on all
of them. Every decode runs at temperature 1.0, one token per step.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from reuselab import analysis, sampler
from reuselab.drift import DriftProfile
from reuselab.model import init_weights
from reuselab.sampler import SamplerConfig

UNMASK_PER_STEP = 1
TEMPERATURE = 1.0
REFRESH_INTERVAL = 2
MODES = ("full", "kv", "o")
# Full-mode confidences against the benchmark's own forward pass.
REFERENCE_ATOL = 1e-12
# A reused row's recomputed drift may exceed tau by float noise only.
DRIFT_SLACK = 1e-12
# An output fails the mask check when a sampler drawing from the reference
# distributions would commit at least that many mask ids with a chance
# below this.
MASK_TAIL = 1e-12


def flat_profile(L: int, tau) -> DriftProfile:
    return DriftProfile(s_layer=(0.0,) * L, phi_layer=(0.0,) * L,
                        tau_layer=(tau,) * L, phi_bar=0.5, epsilon=1.0)


def sampler_config(workload, seed: int) -> SamplerConfig:
    return SamplerConfig(gen_length=workload.gen_length,
                         block_size=workload.decode_model.B,
                         steps_per_block=workload.steps_per_block,
                         tokens_unmasked_per_step=UNMASK_PER_STEP,
                         temperature=TEMPERATURE, seed=seed)


def decode(weights, config: SamplerConfig, mode: str, tau):
    """One timed decode; returns (seconds, tokens, trace)."""
    profile = None if mode == "full" else flat_profile(weights.config.L, tau)
    start = perf_counter()
    tokens, trace = sampler.diffusion_generate(
        weights, config, profile, mode, refresh_interval=REFRESH_INTERVAL)
    return perf_counter() - start, tokens, trace


# ---------------------------------------------------------------------------
# checks, written apart from the program
# ---------------------------------------------------------------------------

def reference_probs(weights, tokens) -> np.ndarray:
    """The denoiser's output distributions for blocks of tokens (shape
    (S, B) -> (S, B, n_vocab)), by a forward pass written here from the
    model definition (row-normalized embedding, per-head softmax attention,
    W_O, ReLU MLP, tied unembedding)."""
    cfg = weights.config
    tokens = np.asarray(tokens)
    S, B = tokens.shape
    e = weights.emb[tokens.ravel()]
    # rows of every block stacked: row-wise maps are one matrix product
    x = e * (math.sqrt(cfg.d) / np.sqrt((e * e).sum(axis=1)))[:, None]
    dh = cfg.d // cfg.H
    for lw in weights.layers:
        q, k, v = ((x @ w).reshape(S, B, cfg.d)
                   for w in (lw.w_q, lw.w_k, lw.w_v))
        heads = []
        for h in range(cfg.H):
            c = slice(h * dh, (h + 1) * dh)
            s = q[..., c] @ k[..., c].transpose(0, 2, 1) / math.sqrt(dh)
            a = np.exp(s - s.max(axis=2, keepdims=True))
            heads.append((a / a.sum(axis=2, keepdims=True)) @ v[..., c])
        o = np.concatenate(heads, axis=2).reshape(S * B, cfg.d) @ lw.w_o
        x = np.maximum(o @ lw.w_u, 0.0) @ lw.w_d
    z = x @ weights.emb.T
    p = np.exp(z - z.max(axis=1, keepdims=True))
    return (p / p.sum(axis=1, keepdims=True)).reshape(S, B, -1)


def recount_flops(trace, cfg, mode: str):
    """(full, actual, saved fraction) by the closed form: 4d^2 FLOPs saved
    per reused token in kv, 4Bd + 5B in o."""
    d, B, d_int = cfg.d, cfg.B, cfg.d_int
    per_layer_step = B * (4 * 2 * d * d + 4 * d * d_int) + B * (4 * B * d + 5 * B)
    decisions = [dec for rec in trace.records for dec in rec.decisions]
    reused = sum(len(dec.reused) for dec in decisions)
    per_token = {"full": 0, "kv": 4 * d * d, "o": 4 * B * d + 5 * B}[mode]
    full = len(decisions) * per_layer_step
    saved = per_token * reused
    return full, full - saved, saved / full


def _drift(cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
    dots = (cur * prev).sum(axis=1)
    norms = np.sqrt((cur * cur).sum(axis=1) * (prev * prev).sum(axis=1))
    return 1.0 - dots / norms


def mask_commit_chance(probs: np.ndarray, masked: np.ndarray,
                       mask_token: int) -> float:
    """Upper bound on the chance that a step committing one token commits
    the mask id: some still-masked position i draws it, with probability
    p_i(mask), and no other masked position draws a token of higher
    probability (draws at different positions are independent)."""
    p = probs[masked]
    x = p[:, mask_token]
    # below[i, j]: chance that position j draws a token no likelier than x_i
    below = np.where(p[None, :, :] <= x[:, None, None], p[None, :, :],
                     0.0).sum(axis=2)
    np.fill_diagonal(below, 1.0)
    return float((x * below.prod(axis=1)).sum())


def mask_problems(count: int, expected: float) -> list:
    """A problem when ``count`` mask ids in an output are implausible for
    commits whose chances add up to ``expected``: by the Chernoff bound
    exp(-mu) (e mu / count)^count on P(at least count), below MASK_TAIL.

    The sampler draws candidates from the whole vocabulary, so a mask id
    committed with a chance that fits the distributions is the program's
    known behaviour (see FOUND in CHANGES.md); a mask id where the
    distributions give it next to none, or many more than they allow, is
    a wrong output."""
    if count <= expected:
        return []
    if expected > 0.0:
        log_tail = -expected + count * (1.0 + math.log(expected / count))
    else:
        log_tail = -math.inf
    if log_tail >= math.log(MASK_TAIL):
        return []
    return [f"{count} mask ids in the output; the reference distributions "
            f"expect at most {expected:.3g}"]


def check_decode(weights, config: SamplerConfig, mode: str, tau, tokens,
                 trace, flops) -> list:
    """Problems found in one decode's output; ``flops`` is the program's
    (full, actual, fraction) from ``analysis.flops_for_trace``."""
    cfg = weights.config
    B = cfg.B
    problems = []
    tokens = np.asarray(tokens)
    if tokens.shape != (config.gen_length,):
        problems.append(f"{tokens.shape[0]} tokens, expected "
                        f"{config.gen_length}")
        tokens = None
    elif tokens.min() < 0 or tokens.max() >= cfg.n_vocab:
        problems.append("a token is out of range")
    committed = np.concatenate([rec.block * B + rec.unmasked
                                for rec in trace.records])
    if not np.array_equal(np.sort(committed), np.arange(config.gen_length)):
        problems.append("a position is left masked or committed twice")

    still_masked = {}
    previous = {}
    mask_expected = 0.0
    step_probs = reference_probs(weights, [rec.input_tokens
                                           for rec in trace.records])
    for rec, probs in zip(trace.records, step_probs):
        masked = still_masked.setdefault(rec.block, np.ones(B, dtype=bool))
        want = min(config.tokens_unmasked_per_step, int(masked.sum()))
        if len(rec.unmasked) != want:
            problems.append(f"block {rec.block} step {rec.step} committed "
                            f"{len(rec.unmasked)} tokens, scheduled {want}")
        prev = previous.get(rec.block)
        for dec in rec.decisions:
            both = np.concatenate([dec.reused, dec.refreshed])
            if not np.array_equal(np.sort(both), np.arange(B)):
                problems.append(f"step {rec.step} layer {dec.layer}: reused "
                                "and refreshed rows do not partition the block")
            if len(dec.reused) == 0:
                continue
            if prev is None:
                problems.append(f"rows reused at step {rec.step} with no "
                                "previous step")
                continue
            drift = _drift(rec.q_head0[dec.layer][dec.reused],
                           prev.q_head0[dec.layer][dec.reused])
            if drift.max() > tau + DRIFT_SLACK:
                problems.append(f"step {rec.step} layer {dec.layer}: a reused "
                                f"row drifted {drift.max():.3e} > tau {tau}")
        previous[rec.block] = rec
        if masked.any():
            mask_expected += mask_commit_chance(probs, masked,
                                                weights.mask_token)
        masked[rec.unmasked] = False
        if mode == "full" and tokens is not None:
            final = tokens[rec.block * B:(rec.block + 1) * B]
            got = rec.confidences[rec.unmasked]
            want_p = probs[rec.unmasked, final[rec.unmasked]]
            if not np.all(np.abs(got - want_p) <= REFERENCE_ATOL):
                problems.append(f"block {rec.block} step {rec.step}: "
                                "confidences differ from the reference pass")
    if tokens is not None:
        problems += mask_problems(int((tokens == weights.mask_token).sum()),
                                  mask_expected)

    if tuple(flops) != recount_flops(trace, cfg, mode):
        problems.append(f"FLOPs {tuple(flops)} != closed-form recount "
                        f"{recount_flops(trace, cfg, mode)}")
    return problems


class DecodePart:
    """Closed-loop decodes; one round decodes one seed in every mode."""

    def __init__(self, ledger, workload) -> None:
        self.ledger = ledger
        self.workload = workload
        self.weights = init_weights(workload.decode_model)
        self.times = {mode: [] for mode in MODES}
        self.saved_fraction = {mode: [] for mode in MODES}

    def warm_up(self) -> None:
        config = sampler_config(self.workload, 0)
        for mode in MODES:
            decode(self.weights, config, mode, self.workload.tau)

    def check_disabled_reuse(self, seed: int) -> None:
        """Reuse with every tau disabled reproduces full decoding bitwise."""
        config = sampler_config(self.workload, seed)
        _, full_tokens, _ = decode(self.weights, config, "full", None)
        for mode in ("kv", "o"):
            self.ledger.run(
                f"decode {mode} with tau disabled",
                lambda: decode(self.weights, config, mode, None),
                lambda got: [] if np.array_equal(got[1], full_tokens)
                else ["tokens differ from full decoding"])

    def round(self, seed: int) -> float:
        """Decode one seed in every mode and check each output; returns the
        summed decode wall time."""
        config = sampler_config(self.workload, seed)
        tau = self.workload.tau
        wall = 0.0
        for mode in MODES:
            def check(got, mode=mode):
                seconds, tokens, trace = got
                flops = analysis.flops_for_trace(trace, self.weights.config,
                                                 mode)
                self.times[mode].append(seconds)
                self.saved_fraction[mode].append(flops[2])
                return check_decode(self.weights, config, mode, tau, tokens,
                                    trace, flops)
            got = self.ledger.run(f"decode {mode} seed {seed}",
                                  lambda mode=mode: decode(self.weights,
                                                           config, mode, tau),
                                  check)
            if got is not None:
                wall += got[0]
        return wall

    def metrics(self) -> dict:
        return {f"{mode}_tok_s":
                self.workload.gen_length / float(np.mean(self.times[mode]))
                for mode in MODES}
