"""Tests for lockstep trials: a stack of n blocks run through one forward
pass gives every block the bits of that block run alone.

``coupled_generate`` runs its (seed, profile) trials as one stack, whether
they share one profile or each has its own; ``verify_run`` makes one such
call for all of its trials, and ``bench`` one for its whole grid;
``diffusion_generate`` with ``seeds`` decodes its sequences as one stack,
as calibration does with its prompts. The bits guards
below check the two numpy rules the stack relies on, at every shape the
tests here reach, so that on a BLAS that breaks them a guard fails by name
before a digest moves.
"""

import itertools
import math

import numpy as np
import pytest

from reuselab import cli, reuse, sampler, theory
from reuselab.cli import RunConfig
from reuselab.drift import DriftProfile
from reuselab.errors import ConfigError, DimensionError
from reuselab.model import (
    ModelConfig,
    attention_rows,
    block_matmul,
    embed_tokens,
    init_weights,
)
from reuselab.reuse import forward_full, staleness_norm
from reuselab.sampler import (
    SamplerConfig,
    couple_blocks,
    coupled_generate,
    diffusion_generate,
)

# The golden coupled models, the benchmark's mid-model and the largest
# model the tests run (d_int 512).
LOCKSTEP_MODELS = {
    "default": RunConfig.default().model,
    "l2h2-gelu": ModelConfig(L=2, H=2, d=8, d_int=16, n_vocab=32, B=4,
                             activation="gelu", seed=3),
    "l4h2-d64": ModelConfig(L=4, H=2, d=64, d_int=128, n_vocab=32, B=32,
                            seed=1),
    "l2h4-d256": ModelConfig(L=2, H=4, d=256, d_int=512, n_vocab=32, B=16,
                             seed=2),
}
TAUS = (0.0, 0.05, 0.5)
# Per-trial thresholds, cycled over the trials of a stack and cut to the
# model's layers. The first two put a block whose layer 1 is disabled
# beside one that reuses every row at layers 0 and 1, so an o-mode skip
# taken for the whole stack at layer 1 would reuse the disabled layer.
TRIAL_TAUS = (
    (math.inf, None, 0.05, 0.0),    # per-layer mixed
    (math.inf,) * 4,
    (None,) * 4,                    # phi_bar = 0: every layer disabled
    (0.0,) * 4,
    (0.05, 0.5, None, math.inf),
)
REFRESH = (1, 2, 3)
STACKS = (1, 2, 25)
STEPS = 8
# A stack of MAX_BLOCKS trials splits into sub-stacks of any size up to it
# (the blocks that need a reference pass, the blocks that refresh one
# number of rows).
MAX_BLOCKS = max(STACKS)


def profile_of(taus):
    L = len(taus)
    return DriftProfile(s_layer=(0.0,) * L, phi_layer=(1.0,) * L,
                        tau_layer=tuple(taus), phi_bar=1.0, epsilon=1.0)


def flat_profile(tau, L):
    return profile_of((tau,) * L)


def trial_profiles(L, n):
    """n profiles, one per trial, cycling through TRIAL_TAUS."""
    return [profile_of(TRIAL_TAUS[k % len(TRIAL_TAUS)][:L])
            for k in range(n)]


def sampler_config(cfg, seed=0):
    return SamplerConfig(gen_length=cfg.B, block_size=cfg.B,
                         steps_per_block=STEPS,
                         tokens_unmasked_per_step=-(-cfg.B // STEPS),
                         temperature=1.0, seed=seed)


def trial_fields(run, k: int, refresh: int) -> list:
    """Trial k's slice of every CoupledRun field, and its decisions, as
    comparable bits.

    The decisions are read from the staleness matrices as a run records
    them: after step t, layer ell reused a row exactly where the row's
    counter is > 0, refreshed the rows whose counter is 0, had the norm of
    its counters as its staleness, and was eligible where ``reuse.gate``
    opens the slot (no layer is skipped here).
    """
    arrays = [run.full_tokens[k], run.reuse_tokens[k],
              run.per_step_embed_error[k], run.per_step_l1_gap[k],
              run.per_step_delta_l2[k], run.per_step_delta[k]]
    out = [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())
           for a in arrays]
    T, L = run.per_step_delta.shape[1:3]
    for t in range(T):
        for ell in range(L):
            row = run.per_step_delta[k, t, ell]
            out.append((ell, t, reuse.gate(ell, t, 0, refresh),
                        np.flatnonzero(row > 0).tobytes(),
                        np.flatnonzero(row == 0).tobytes(),
                        np.float64(reuse.staleness_norm(row)).tobytes()))
    return out


# ---------------------------------------------------------------------------
# bits guards
# ---------------------------------------------------------------------------

def model_matrices(cfg):
    """Every right-hand side a forward pass multiplies rows by: the four
    d x d projections share one shape, so W_Q stands for them."""
    w = init_weights(cfg)
    lw = w.layers[0]
    return {"w_q": lw.w_q, "w_u": lw.w_u, "w_d": lw.w_d, "emb.T": w.emb.T}


@pytest.mark.parametrize("model, matrix", [
    (model, matrix) for model in LOCKSTEP_MODELS
    for matrix in ("w_q", "w_u", "w_d", "emb.T")])
def test_per_block_products_keep_each_blocks_bits(model, matrix):
    # Per block a product takes B rows (a whole block) or 2 to B - 1 (a kv
    # splice, or the two-row product a one-row splice takes); one row,
    # which no product here takes, is checked as well.
    cfg = LOCKSTEP_MODELS[model]
    w = model_matrices(cfg)[matrix]
    gen = np.random.default_rng(7)
    for rows in range(1, cfg.B + 1):
        x = gen.normal(size=(MAX_BLOCKS * rows, w.shape[0]))
        want = np.concatenate([x[j * rows:(j + 1) * rows] @ w
                               for j in range(MAX_BLOCKS)])
        for n in range(2, MAX_BLOCKS + 1):
            got = block_matmul(n)(x[:n * rows], w)
            assert np.array_equal(got, want[:n * rows]), (
                f"per-block {matrix} product differs from the block's own "
                f"at k={w.shape[0]}, rows={rows}, n={n}")


@pytest.mark.parametrize("model", sorted(LOCKSTEP_MODELS))
def test_stacked_attention_keeps_each_blocks_bits(model):
    # Query rows per block from 1 (the stacked product of one-row blocks
    # runs gemv per block, as a one-row block does) to B.
    cfg = LOCKSTEP_MODELS[model]
    gen = np.random.default_rng(11)
    k = gen.normal(size=(MAX_BLOCKS * cfg.B, cfg.d))
    v = gen.normal(size=(MAX_BLOCKS * cfg.B, cfg.d))
    for rows in range(1, cfg.B + 1):
        q = gen.normal(size=(MAX_BLOCKS * rows, cfg.d))
        want = np.concatenate([
            attention_rows(q[j * rows:(j + 1) * rows],
                           k[j * cfg.B:(j + 1) * cfg.B],
                           v[j * cfg.B:(j + 1) * cfg.B], cfg.H)
            for j in range(MAX_BLOCKS)])
        for n in range(2, MAX_BLOCKS + 1):
            got = attention_rows(q[:n * rows], k[:n * cfg.B],
                                 v[:n * cfg.B], cfg.H, n)
            assert np.array_equal(got, want[:n * rows]), (
                f"stacked attention differs from the block's own at "
                f"H={cfg.H}, d={cfg.d}, rows={rows}, B={cfg.B}, n={n}")


# ---------------------------------------------------------------------------
# stacks against one-block runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", sorted(LOCKSTEP_MODELS))
def test_forward_full_on_a_stack_keeps_each_blocks_bits(model):
    cfg = LOCKSTEP_MODELS[model]
    w = init_weights(cfg)
    gen = np.random.default_rng(3)
    blocks = [embed_tokens(w, gen.integers(cfg.n_vocab, size=cfg.B))
              for _ in range(3)]
    probs, state = forward_full(w, np.concatenate(blocks))
    assert state.n_blocks == 3
    for j, x in enumerate(blocks):
        want, one = forward_full(w, x)
        rows = slice(j * cfg.B, (j + 1) * cfg.B)
        assert np.array_equal(probs[rows], want)
        for ell in range(cfg.L):
            for cache in ("prev_q_head0", "prev_k", "prev_v", "prev_o_pre"):
                assert np.array_equal(getattr(state, cache)[ell][rows],
                                      getattr(one, cache)[ell])


@pytest.mark.parametrize("model, mode", [
    (model, mode) for model in LOCKSTEP_MODELS for mode in ("kv", "o")])
def test_lockstep_trials_match_one_trial_runs(model, mode):
    # Under one profile shared by every trial (one per tau), and under one
    # profile per trial (TRIAL_TAUS).
    cfg = LOCKSTEP_MODELS[model]
    w = init_weights(cfg)
    seeds = [int(s) for s in
             np.random.SeedSequence(29).generate_state(MAX_BLOCKS)]
    per_trial = trial_profiles(cfg.L, MAX_BLOCKS)
    for profiles, refresh in itertools.product(
            [[flat_profile(tau, cfg.L)] * MAX_BLOCKS for tau in TAUS]
            + [per_trial], REFRESH):
        trials = list(zip(seeds, profiles))
        one = [trial_fields(coupled_generate(
                   w, mode, [trial], STEPS, refresh_interval=refresh),
                   0, refresh)
               for trial in trials]
        for n in STACKS:
            run = coupled_generate(w, mode, trials[:n], STEPS,
                                   refresh_interval=refresh)
            for k in range(n):
                assert trial_fields(run, k, refresh) == one[k], (
                    f"trial {k} of {n} differs from its one-trial run "
                    f"under {profiles[k].tau_layer}, refresh={refresh}")
            if profiles is per_trial and n == 2 and cfg.L > 1 and refresh > 1:
                # The trap is set: on some step both trials reused every
                # row at layer 0, and at layer 1 only the second did.
                d = run.per_step_delta
                assert ((d[:, :, 0] > 0).all(axis=(0, 2))
                        & (d[0, :, 1] == 0).all(axis=1)
                        & (d[1, :, 1] > 0).all(axis=1)).any()


RUN_FIELDS = ("full_tokens", "reuse_tokens", "per_step_embed_error",
              "per_step_l1_gap", "per_step_delta_l2", "per_step_delta")


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("model", ["default", "l2h2-gelu"])
def test_coupled_run_stacks_its_trials(model, n):
    # One run for any number of trials, every field with a leading trial
    # axis; its first trial is the one-trial run of the first pair.
    cfg = LOCKSTEP_MODELS[model]
    w = init_weights(cfg)
    profile = flat_profile(0.5, cfg.L)
    trials = [(seed, profile) for seed in (41, 42, 43)[:n]]
    run = coupled_generate(w, "kv", trials, STEPS)
    assert isinstance(run, sampler.CoupledRun)
    assert {name: getattr(run, name).shape for name in RUN_FIELDS} == {
        "full_tokens": (n, cfg.B), "reuse_tokens": (n, cfg.B),
        "per_step_embed_error": (n, STEPS + 1),
        "per_step_l1_gap": (n, STEPS), "per_step_delta_l2": (n, STEPS),
        "per_step_delta": (n, STEPS, cfg.L, cfg.B)}
    assert run.per_step_delta.dtype == np.int64
    assert run.per_step_delta.any(), "no row was reused"
    alone = coupled_generate(w, "kv", trials[:1], STEPS)
    for name in RUN_FIELDS:
        a, b = getattr(alone, name), getattr(run, name)[:1]
        assert (a.dtype, a.shape, a.tobytes()) \
            == (b.dtype, b.shape, b.tobytes()), name


def test_coupled_generate_needs_a_seed():
    # A run needs at least one (seed, profile) trial.
    with pytest.raises(ConfigError):
        coupled_generate(init_weights(LOCKSTEP_MODELS["default"]), "kv", [],
                         STEPS)


def test_shared_profile_is_checked_once(monkeypatch):
    # 100 trials that share one profile object give the state one row of
    # thresholds, which it checks once, not once per trial. One step: a
    # later one may run reference passes, each on a full-mode state of
    # its own.
    checks = []
    check = reuse.check_thresholds
    monkeypatch.setattr(reuse, "check_thresholds",
                        lambda *a: checks.append(1) or check(*a))
    cfg = LOCKSTEP_MODELS["default"]
    profile = flat_profile(0.05, cfg.L)
    run = coupled_generate(init_weights(cfg), "kv",
                           [(seed, profile) for seed in range(100)], 1)
    assert run.per_step_delta.shape[0] == 100
    assert checks == [1]


@pytest.mark.parametrize("mode", ["kv", "o"])
def test_verify_run_steps_its_trials_together(mode, monkeypatch):
    # One reuse step per step, and at most two reference passes (at the
    # reuse branch's input, and at the reference branch's own): 3T
    # model_step calls for all 25 trials, reference passes included.
    calls = []
    model_step = reuse.model_step

    def counted(*args):
        calls.append(args[1].n_blocks)
        return model_step(*args)

    monkeypatch.setattr(reuse, "model_step", counted)
    monkeypatch.setattr(sampler, "model_step", counted)
    cfg = LOCKSTEP_MODELS["default"]
    w = init_weights(cfg)
    report = theory.verify_run(w, sampler_config(cfg, 4),
                               flat_profile(0.05, cfg.L), mode, 25)
    assert report.violations == 0
    assert STEPS <= len(calls) <= 3 * STEPS
    assert calls.count(25) >= STEPS


@pytest.mark.parametrize("grid", ["0.5", "0,0.25,0.5,0.75,1.0"])
@pytest.mark.parametrize("mode", ["kv", "o"])
def test_bench_runs_its_grid_together(mode, grid, tmp_path, monkeypatch):
    # One coupled_generate call for the whole grid: one trial per budget,
    # each at the run's seed under its own profile.
    calls = []

    def counted(*args, **kwargs):
        calls.append([(seed, p.phi_bar) for seed, p in args[2]])
        return coupled_generate(*args, **kwargs)

    monkeypatch.setattr(cli, "coupled_generate", counted)
    monkeypatch.chdir(tmp_path)
    common = ["--weights", "m.dare", "--output-dir", "out"]
    assert cli.main(["init-model", *common]) == 0
    assert cli.main(["bench", *common, "--mode", mode,
                     "--phi-grid", grid]) == 0
    budgets = [float(p) for p in grid.split(",")]
    seed = RunConfig.default().sampler.seed
    assert calls == [[(seed, phi_bar) for phi_bar in budgets]]


# ---------------------------------------------------------------------------
# coupling a stack
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kinds", ["equal", "mixed", "differ"])
def test_couple_blocks_matches_one_block_coupling(kinds):
    # Each block draws from its own generator as a one-block call does on
    # the block alone, and leaves it in the same state.
    gen = np.random.default_rng(13)
    n, B, V = 6, 4, 9
    P = gen.random((n * B, V)) + 1e-3
    P /= P.sum(axis=1, keepdims=True)
    Q = P.copy()
    if kinds != "equal":
        changed = [1, 4] if kinds == "mixed" else range(n)
        for b in changed:
            Q[b * B + 2] = np.roll(Q[b * B + 2], 1)
    rngs = [np.random.default_rng(s) for s in range(n)]
    alone = [np.random.default_rng(s) for s in range(n)]
    j, jhat = couple_blocks(P, Q, rngs)
    for b in range(n):
        rows = slice(b * B, (b + 1) * B)
        want_j, want_jhat = couple_blocks(P[rows], Q[rows], [alone[b]])
        assert j[rows].tolist() == want_j.tolist()
        assert jhat[rows].tolist() == want_jhat.tolist()
        assert rngs[b].bit_generator.state == alone[b].bit_generator.state


def test_couple_blocks_needs_whole_blocks():
    P = np.full((5, 2), 0.5)
    with pytest.raises(DimensionError):
        couple_blocks(P, P, [np.random.default_rng(0)] * 2)


# ---------------------------------------------------------------------------
# lockstep decodes
# ---------------------------------------------------------------------------

DECODE_MODELS = ("default", "l2h2-gelu")
DECODE_SEEDS = (5, 17, 3, 99, 12, 40, 8, 61)


def decode_config(cfg, temperature, seed=5):
    return SamplerConfig(gen_length=2 * cfg.B, block_size=cfg.B,
                         steps_per_block=cfg.B, temperature=temperature,
                         seed=seed)


def decode_prompts(cfg, w, n):
    """n prompts that fix the first block and half of the second, each
    with its own tokens, never the mask id."""
    prompts = np.full((n, 2 * cfg.B), w.mask_token, dtype=np.int64)
    prefix = cfg.B + cfg.B // 2
    gen = np.random.default_rng(19)
    prompts[:, :prefix] = gen.integers(0, cfg.n_vocab - 1, (n, prefix))
    return prompts


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def sequence_fields(tokens, trace, k: int, n: int, B: int) -> list:
    """Sequence k's slice of a decode's tokens and of every record field,
    as comparable bits; a one-sequence decode has n = 1 and k = 0.

    The stack's staleness counters are rebuilt from its decisions (a
    reused row ages by one, any other drops to 0; all drop to 0 at a new
    block), which checks every stacked staleness norm, and the slice's
    norms are taken from sequence k's columns.
    """
    rows = slice(k * B, (k + 1) * B)
    out = [bits(tokens)]
    counters = None
    for rec in trace.records:
        if rec.step == 0:
            counters = np.zeros((len(rec.decisions), n * B), dtype=np.int64)
        chosen = rec.unmasked.reshape(n, -1)[k] - k * B
        out.append((rec.block, rec.step, bits(rec.input_tokens[rows]),
                    bits(chosen), bits(rec.confidences[rows]),
                    [bits(q[rows]) for q in rec.q_head0]))
        for dec in rec.decisions:
            aged = counters[dec.layer][dec.reused] + 1
            counters[dec.layer] = 0
            counters[dec.layer][dec.reused] = aged
            assert dec.staleness_l2 == staleness_norm(counters[dec.layer])
            assert np.array_equal(np.sort(np.concatenate(
                (dec.reused, dec.refreshed))), np.arange(n * B))
            mine = slice(k * B, (k + 1) * B)
            out.append((dec.layer, dec.step, dec.eligible,
                        bits(dec.reused[(dec.reused >= k * B)
                                        & (dec.reused < (k + 1) * B)]
                             - k * B),
                        staleness_norm(counters[dec.layer][mine])))
        out.append(staleness_norm(counters[:, rows]))
    return out


@pytest.mark.parametrize("prompt", [False, True], ids=["open", "prompt"])
@pytest.mark.parametrize("temperature", [0.0, 1.0])
@pytest.mark.parametrize("mode", ["full", "kv", "o"])
@pytest.mark.parametrize("model", DECODE_MODELS)
def test_lockstep_decode_matches_one_sequence_runs(model, mode, temperature,
                                                   prompt):
    cfg = LOCKSTEP_MODELS[model]
    w = init_weights(cfg)
    profile = None if mode == "full" else flat_profile(0.05, cfg.L)
    prompts = decode_prompts(cfg, w, len(DECODE_SEEDS))
    one = []
    for k, seed in enumerate(DECODE_SEEDS):
        tokens, trace = diffusion_generate(
            w, decode_config(cfg, temperature, seed), profile, mode,
            initial_tokens=prompts[k] if prompt else None)
        one.append(sequence_fields(tokens, trace, 0, 1, cfg.B))
    if mode != "full":
        assert any(dec.reused_count for dec in trace.decisions_flat())
    for n in (1, 2, 8):
        tokens, trace = diffusion_generate(
            w, decode_config(cfg, temperature), profile, mode,
            initial_tokens=prompts[:n] if prompt else None,
            seeds=DECODE_SEEDS[:n])
        assert tokens.shape == (n, 2 * cfg.B)
        assert trace.sequences == n
        for k in range(n):
            assert sequence_fields(tokens[k], trace, k, n, cfg.B) == one[k], (
                f"sequence {k} of {n} differs from its one-sequence run")


def test_lockstep_decode_without_seeds_keeps_its_shapes():
    # No seeds: the decode at the config's seed, with today's shapes; one
    # seed: the same bits with a leading sequence axis on the tokens.
    cfg = LOCKSTEP_MODELS["l2h2-gelu"]
    w = init_weights(cfg)
    sc = decode_config(cfg, 1.0)
    tokens, trace = diffusion_generate(w, sc, None, "full")
    assert tokens.shape == (2 * cfg.B,) and trace.sequences == 1
    rec = trace.records[0]
    assert rec.input_tokens.shape == rec.confidences.shape == (cfg.B,)
    assert rec.q_head0[0].shape == (cfg.B, cfg.d // cfg.H)
    seeded, seeded_trace = diffusion_generate(w, sc, None, "full",
                                              seeds=[sc.seed])
    assert sequence_fields(seeded[0], seeded_trace, 0, 1, cfg.B) \
        == sequence_fields(tokens, trace, 0, 1, cfg.B)
    for traj, seeded_traj in zip(trace.q_trajectories(),
                                 seeded_trace.q_trajectories()):
        assert [[bits(q) for q in step] for step in traj] \
            == [[bits(q) for q in step] for step in seeded_traj]


def test_lockstep_decode_trajectories_run_sequence_by_sequence():
    cfg = LOCKSTEP_MODELS["l2h2-gelu"]
    w = init_weights(cfg)
    sc = decode_config(cfg, 1.0)
    _, trace = diffusion_generate(w, sc, None, "full", seeds=[3, 4, 5])
    want = []
    for seed in (3, 4, 5):
        _, one = diffusion_generate(w, decode_config(cfg, 1.0, seed), None,
                                    "full")
        want += one.q_trajectories()
    got = trace.q_trajectories()
    assert len(got) == len(want) == 3 * 2
    for traj, one_traj in zip(got, want):
        assert [[bits(q) for q in step] for step in traj] \
            == [[bits(q) for q in step] for step in one_traj]


def test_lockstep_decode_needs_equal_mask_counts():
    cfg = LOCKSTEP_MODELS["default"]
    w = init_weights(cfg)
    sc = decode_config(cfg, 1.0)
    prompts = decode_prompts(cfg, w, 2)
    prompts[1, cfg.B] = w.mask_token   # one more masked in block 1
    with pytest.raises(ConfigError):
        diffusion_generate(w, sc, None, "full", initial_tokens=prompts,
                           seeds=[1, 2])
    # The same counts at other positions are fine.
    prompts = decode_prompts(cfg, w, 2)
    prompts[1, [cfg.B, 2 * cfg.B - 1]] = prompts[1, [2 * cfg.B - 1, cfg.B]]
    diffusion_generate(w, sc, None, "full", initial_tokens=prompts,
                       seeds=[1, 2])
    with pytest.raises(ConfigError):
        diffusion_generate(w, sc, None, "full", seeds=[])
    with pytest.raises(DimensionError):
        diffusion_generate(w, sc, None, "full", initial_tokens=prompts[0],
                           seeds=[1, 2])
