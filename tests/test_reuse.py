"""Tests for the reuse mechanisms, gating, and staleness bookkeeping."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reuselab import drift, reuse, sampler
from reuselab.cli import ReuseSettings
from reuselab.drift import DriftProfile, reuse_set, row_drift
from reuselab.errors import ConfigError, DimensionError, StateError
from reuselab.model import (
    ModelConfig,
    attention_rows,
    embed_ids,
    embed_tokens,
    init_weights,
    mlp,
    unembed,
)
from reuselab.reuse import (
    MODES,
    ReuseState,
    _age_staleness,
    forward_full,
    gate,
    layer_step,
    model_step,
    replay_reuse,
    reuse_accounting,
    staleness_norm,
    update_staleness,
)


def make_model(seed=3, B=3):
    cfg = ModelConfig(L=1, H=1, d=4, d_int=8, n_vocab=12, B=B,
                      activation="relu", seed=seed)
    return cfg, init_weights(cfg)


def make_state(cfg, mode, tau, refresh=2, skip=0):
    return ReuseState(config=cfg, mode=mode, tau_blocks=((tau,) * cfg.L,),
                      skip_first_layers=skip, refresh_interval=refresh)


def scalar_attention_rows(q, k, v, rows):
    """Per-row scalar attention oracle (single head)."""
    d = q.shape[1]
    n = k.shape[0]
    out = {}
    for i in rows:
        scores = [sum(q[i][c] * k[j][c] for c in range(d)) / math.sqrt(d)
                  for j in range(n)]
        mx = max(scores)
        es = [math.exp(s - mx) for s in scores]
        z = sum(es)
        attn = [e / z for e in es]
        out[i] = [sum(attn[j] * v[j][c] for j in range(n)) for c in range(n and d)]
    return out


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def test_gate_refresh_every_step_blocks_reuse():
    assert all(not gate(ell, t, 0, 1) for ell in range(3) for t in range(6))


def test_gate_skipped_layers_block_reuse():
    L = 4
    assert all(not gate(ell, t, L, 3) for ell in range(L) for t in range(6))


def test_gate_reference_points():
    assert gate(3, 3, 2, 2) is True
    assert gate(1, 3, 2, 2) is False
    assert gate(3, 4, 2, 2) is False


def test_gate_matches_truth_table():
    skip, refresh = 2, 3
    for ell in range(5):
        for t in range(9):
            want = ell >= skip and t % refresh != 0
            assert gate(ell, t, skip, refresh) == want


def test_gate_always_false_at_step_zero():
    assert all(not gate(ell, 0, 0, r)
               for ell in range(4) for r in range(1, 5))


# ---------------------------------------------------------------------------
# update_staleness
# ---------------------------------------------------------------------------

def test_update_staleness_full_refresh():
    out = update_staleness(np.array([3, 1, 4]), np.empty(0, dtype=int))
    assert list(out) == [0, 0, 0]


def test_update_staleness_consecutive_reuse():
    row = np.zeros(2, dtype=np.int64)
    for _ in range(3):
        row = update_staleness(row, np.array([0]))
    assert list(row) == [3, 0]


def test_update_staleness_matches_replay_oracle():
    rng = np.random.default_rng(13)
    B = 5
    row = np.zeros(B, dtype=np.int64)
    counters = [0] * B
    for _ in range(10):
        reused = np.flatnonzero(rng.random(B) < 0.5)
        row = update_staleness(row, reused)
        for i in range(B):
            counters[i] = counters[i] + 1 if i in reused else 0
        assert list(row) == counters


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(1, 8), st.data())
def test_age_staleness_matches_update_staleness_oracle(L, B, n_steps, data):
    # Empty, partial and full reuse in any order: the live bookkeeping
    # gives the refreshed set, aged row and norm of the shared rule.
    cfg = ModelConfig(L=L, H=1, d=4, d_int=8, n_vocab=12, B=B)
    state = make_state(cfg, "kv", tau=0.5)
    oracle = np.zeros((L, B), dtype=np.int64)
    for _ in range(n_steps):
        for ell in range(L):
            kind = data.draw(st.sampled_from(["empty", "partial", "full"]))
            if kind == "partial":
                rows = data.draw(st.lists(st.integers(0, B - 1), unique=True))
            else:
                rows = list(range(B)) if kind == "full" else []
            reused = np.array(sorted(rows), dtype=np.int64)
            refreshed, norm = _age_staleness(state, ell, reused)
            update_staleness(oracle[ell], reused)
            assert refreshed.tolist() == sorted(set(range(B)) - set(rows))
            assert np.array_equal(state.delta[ell], oracle[ell])
            assert bits(np.float64(norm)) \
                == bits(np.float64(staleness_norm(oracle[ell])))


# ---------------------------------------------------------------------------
# DARE-KV layer step
# ---------------------------------------------------------------------------

def test_kv_disabled_sentinel_is_bitwise_full():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=None)
    full = make_state(cfg, "full", tau=None)
    for t, tokens in enumerate([[1, 5, 9], [2, 5, 9], [2, 6, 9]]):
        x = embed_tokens(w, tokens)
        want, _ = layer_step(w.layers[0], x, full, 0, t)
        o, decision = layer_step(w.layers[0], x, state, 0, t)
        assert np.array_equal(bits(o), bits(want))
        assert decision.reused_count == 0
        assert state.delta.max() == 0


def test_kv_unchanged_input_reuses_everything():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=0.0)
    x = embed_tokens(w, [1, 5, 9])
    layer_step(w.layers[0], x, state, 0, 0)
    o, decision = layer_step(w.layers[0], x, state, 0, 1)
    _, full = forward_full(w, x)
    assert decision.reused_count == 3
    assert list(state.delta[0]) == [1, 1, 1]
    want = mlp(w.layers[0], full.prev_o_pre[0] @ w.layers[0].w_o,
               cfg.activation)
    assert np.max(np.abs(o - want)) < 1e-10


def test_kv_forced_single_token_matches_splice_oracle():
    cfg, w = make_model()
    lw = w.layers[0]
    state = make_state(cfg, "kv", tau=1e-9)
    x_prev = embed_tokens(w, [4, 1, 7])
    x_cur = embed_tokens(w, [4, 2, 8])  # only token 0 unchanged
    layer_step(lw, x_prev, state, 0, 0)
    o, decision = layer_step(lw, x_cur, state, 0, 1)
    assert list(decision.reused) == [0]
    assert sorted(decision.refreshed) == [1, 2]

    # Oracle: splice row 0 of the cached K/V, recompute attention per row.
    k = x_cur @ lw.w_k
    v = x_cur @ lw.w_v
    k[0] = (x_prev @ lw.w_k)[0]
    v[0] = (x_prev @ lw.w_v)[0]
    q = x_cur @ lw.w_q
    rows = scalar_attention_rows(q, k, v, range(3))
    o_pre = np.array([rows[i] for i in range(3)])
    want = mlp(lw, o_pre @ lw.w_o, cfg.activation)
    assert np.max(np.abs(o - want)) < 1e-12


def test_kv_hybrid_cache_rows_match_replay():
    # Refreshed rows equal x_t W_K; reused rows equal the fresh value from
    # step t - delta.
    cfg, w = make_model()
    lw = w.layers[0]
    state = make_state(cfg, "kv", tau=1e-9, refresh=4)
    token_seq = [[4, 1, 7], [4, 2, 8], [4, 2, 9], [4, 2, 9]]
    xs = [embed_tokens(w, tk) for tk in token_seq]
    for t, x in enumerate(xs):
        layer_step(lw, x, state, 0, t)
        delta = state.delta[0]
        for i in range(3):
            source = xs[t - delta[i]]
            assert np.array_equal(state.prev_k[0][i], (source @ lw.w_k)[i])
            assert np.array_equal(state.prev_v[0][i], (source @ lw.w_v)[i])
    # Token 0 never changed, so it aged through every eligible step.
    assert list(state.delta[0])[0] == 3


def test_kv_requires_prior_state():
    cfg, w = make_model()
    for mode in ("kv", "o"):
        state = make_state(cfg, mode, tau=0.1)
        with pytest.raises(StateError):
            layer_step(w.layers[0], embed_tokens(w, [1, 2, 3]), state, 0, 1)


# ---------------------------------------------------------------------------
# DARE-O layer step
# ---------------------------------------------------------------------------

def test_o_disabled_sentinel_is_bitwise_full():
    cfg, w = make_model()
    state = make_state(cfg, "o", tau=None)
    full = make_state(cfg, "full", tau=None)
    for t, tokens in enumerate([[1, 5, 9], [2, 6, 9]]):
        x = embed_tokens(w, tokens)
        want, _ = layer_step(w.layers[0], x, full, 0, t)
        o, _ = layer_step(w.layers[0], x, state, 0, t)
        assert np.array_equal(bits(o), bits(want))


def test_o_total_reuse_replays_previous_output():
    cfg, w = make_model()
    state = make_state(cfg, "o", tau=2.0)
    x = embed_tokens(w, [1, 5, 9])
    o_first, _ = layer_step(w.layers[0], x, state, 0, 0)
    o_second, decision = layer_step(w.layers[0], x, state, 0, 1)
    assert decision.reused_count == 3
    assert np.max(np.abs(o_second - o_first)) < 1e-12


def test_o_forced_single_token_matches_row_oracle():
    cfg, w = make_model()
    lw = w.layers[0]
    state = make_state(cfg, "o", tau=1e-9)
    x_prev = embed_tokens(w, [3, 6, 10])
    x_cur = embed_tokens(w, [5, 6, 11])  # only token 1 unchanged
    layer_step(lw, x_prev, state, 0, 0)
    cached_o_pre = state.prev_o_pre[0].copy()
    o, decision = layer_step(lw, x_cur, state, 0, 1)
    assert list(decision.reused) == [1]

    q = x_cur @ lw.w_q
    k = x_cur @ lw.w_k
    v = x_cur @ lw.w_v
    rows = scalar_attention_rows(q, k, v, [0, 2])
    o_pre = np.array([rows[0], cached_o_pre[1], rows[2]])
    want = mlp(lw, o_pre @ lw.w_o, cfg.activation)
    assert np.max(np.abs(o - want)) < 1e-12


def test_o_fresh_rows_see_fresh_keys():
    # Refreshed rows must attend over the *current* K/V even while other
    # rows are reused.
    cfg, w = make_model()
    lw = w.layers[0]
    state = make_state(cfg, "o", tau=1e-9)
    x_prev = embed_tokens(w, [3, 6, 10])
    x_cur = embed_tokens(w, [5, 6, 11])
    layer_step(lw, x_prev, state, 0, 0)
    layer_step(lw, x_cur, state, 0, 1)
    fresh = scalar_attention_rows(x_cur @ lw.w_q, x_cur @ lw.w_k,
                                  x_cur @ lw.w_v, [0, 2])
    assert np.max(np.abs(state.prev_o_pre[0][0] - fresh[0])) < 1e-12
    assert np.max(np.abs(state.prev_o_pre[0][2] - fresh[2])) < 1e-12


# ---------------------------------------------------------------------------
# in-place caches at benchmark size
# ---------------------------------------------------------------------------

MID = ModelConfig(L=4, H=2, d=64, d_int=128, n_vocab=32, B=32,
                  activation="relu", seed=1)


def changing_inputs(w, n_changed, n_steps, seed):
    """Embedded blocks where each step changes the tokens at n_changed
    random positions and keeps the rest."""
    cfg = w.config
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, cfg.n_vocab, cfg.B)
    xs = [embed_tokens(w, tokens)]
    for _ in range(1, n_steps):
        tokens = tokens.copy()
        idx = rng.choice(cfg.B, n_changed, replace=False)
        tokens[idx] = (tokens[idx]
                       + rng.integers(1, cfg.n_vocab, n_changed)) % cfg.n_vocab
        xs.append(embed_tokens(w, tokens))
    return xs


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def check_kv_cache_sources(w, xs, n_changed):
    """Drive kv layer steps at tau 0 over the inputs xs and check that
    every cached K/V row is bitwise the full product's row at the step the
    row was last refreshed."""
    cfg = w.config
    state = ReuseState(config=cfg, mode="kv", tau_blocks=((0.0,) * cfg.L,),
                       refresh_interval=len(xs) + 1)
    rows = np.arange(cfg.B)
    for t, x in enumerate(xs):
        for ell, lw in enumerate(w.layers):
            _, decision = layer_step(lw, x, state, ell, t)
            if t:
                assert decision.refreshed_count == n_changed
            source = t - state.delta[ell]
            want_k = np.stack([xs[s] @ lw.w_k for s in range(t + 1)])
            want_v = np.stack([xs[s] @ lw.w_v for s in range(t + 1)])
            assert np.array_equal(bits(state.prev_k[ell]),
                                  bits(want_k[source, rows]))
            assert np.array_equal(bits(state.prev_v[ell]),
                                  bits(want_v[source, rows]))


# tau 0 reuses exactly the unchanged rows, so every step after the first
# refreshes n_changed rows; one row is the gemv case, two or more gemm.
@pytest.mark.parametrize("n_changed", [1, 2, MID.B - 1, MID.B])
def test_kv_cache_rows_are_bitwise_source_projections(n_changed):
    w = init_weights(MID)
    check_kv_cache_sources(w, changing_inputs(w, n_changed, 4, seed=n_changed),
                           n_changed)


# A single refreshed row i is projected together with row i + 1 (mod B):
# step t changes only row t - 1, so the steps cover every i, B - 1 (where
# the pair wraps to row 0) included.
@pytest.mark.parametrize("cfg", [
    MID, ModelConfig(L=2, H=2, d=16, d_int=32, n_vocab=32, B=5, seed=2)],
    ids=["L4-d64-B32", "L2-d16-B5"])
def test_kv_single_refreshed_row_at_every_position(cfg):
    w = init_weights(cfg)
    tokens = np.random.default_rng(cfg.B).integers(0, cfg.n_vocab, cfg.B)
    xs = [embed_tokens(w, tokens)]
    for i in range(cfg.B):
        tokens = tokens.copy()
        tokens[i] = (tokens[i] + 1) % cfg.n_vocab
        xs.append(embed_tokens(w, tokens))
    check_kv_cache_sources(w, xs, 1)


@pytest.mark.parametrize("n_changed", [1, 2, MID.B - 1, MID.B])
def test_o_reused_rows_are_bitwise_cached_rows(n_changed):
    w = init_weights(MID)
    state = ReuseState(config=MID, mode="o", tau_blocks=((0.0,) * MID.L,),
                       refresh_interval=100)
    for t, x in enumerate(changing_inputs(w, n_changed, 4, seed=n_changed)):
        for ell, lw in enumerate(w.layers):
            cached = None if t == 0 else state.prev_o_pre[ell].copy()
            o, decision = layer_step(lw, x, state, ell, t)
            o_pre = state.prev_o_pre[ell]
            assert np.array_equal(
                bits(o), bits(mlp(lw, o_pre @ lw.w_o, MID.activation)))
            if t:
                assert decision.refreshed_count == n_changed
                r = decision.reused
                assert np.array_equal(bits(o_pre[r]), bits(cached[r]))


@pytest.mark.parametrize("mode", ["full", "kv", "o"])
def test_trace_steps_are_not_changed_by_later_steps(mode, monkeypatch):
    # The caches are updated in place; nothing a step hands to the trace
    # may alias them.
    w = init_weights(MID)
    fed_tokens, step_queries = [], []

    def recording_embed(weights, tokens):
        fed_tokens.append(np.array(tokens))
        return embed_ids(weights, tokens)

    def recording_step(weights, state, x, t):
        out = model_step(weights, state, x, t)
        step_queries.append([q.copy() for q in out[2]])
        return out

    monkeypatch.setattr(sampler, "embed_ids", recording_embed)
    monkeypatch.setattr(sampler, "model_step", recording_step)
    profile = None if mode == "full" else DriftProfile(
        s_layer=(0.0,) * MID.L, phi_layer=(1.0,) * MID.L,
        tau_layer=(0.002,) * MID.L, phi_bar=1.0, epsilon=1.0)
    sc = sampler.SamplerConfig(gen_length=2 * MID.B, block_size=MID.B,
                               steps_per_block=MID.B // 2,
                               tokens_unmasked_per_step=2, temperature=1.0,
                               seed=3)
    _, trace = sampler.diffusion_generate(w, sc, profile, mode)
    assert len(trace.records) == len(fed_tokens) == len(step_queries)
    if mode != "full":
        assert sum(d.reused_count for d in trace.decisions_flat()) > 0
    for rec, tokens, queries in zip(trace.records, fed_tokens, step_queries):
        assert np.array_equal(rec.input_tokens, tokens)
        for got, want in zip(rec.q_head0, queries):
            assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("mode", ["kv", "o"])
def test_reuse_steps_leave_earlier_queries_unchanged(mode):
    # The trace holds each step's head-0 queries, a view into that step's
    # Q product; later steps' gates and splices must not write to it.
    w = init_weights(MID)
    state = ReuseState(config=MID, mode=mode, tau_blocks=((0.0,) * MID.L,),
                       refresh_interval=4)
    held = []
    for t, x in enumerate(changing_inputs(w, 4, 4, seed=5)):
        for ell, lw in enumerate(w.layers):
            _, decision = layer_step(lw, x, state, ell, t)
            if t:
                assert decision.reused_count == MID.B - 4
        held.extend((q, q.copy()) for q in state.prev_q_head0)
    for q, copy in held:
        assert np.array_equal(bits(q), bits(copy))


# ---------------------------------------------------------------------------
# o mode's skips: cached layer outputs and unchanged inputs
# ---------------------------------------------------------------------------

SKIP_CFG = ModelConfig(L=4, H=2, d=16, d_int=32, n_vocab=32, B=6, seed=9)
# Per step, the positions whose token changes; an empty step feeds the
# same tokens again (as a new array), so layer 0 reuses every row.
SKIP_CHANGES = [(), (), (1,), (), (), (0, 4), (), (), (2,), ()]


def skip_inputs(w, changes=SKIP_CHANGES):
    tokens = np.arange(w.config.B) % w.config.n_vocab
    xs = []
    for changed in changes:
        tokens = tokens.copy()
        tokens[list(changed)] = (tokens[list(changed)] + 7) % w.config.n_vocab
        xs.append(embed_tokens(w, tokens))
    return xs


def reference_o_steps(w, xs, taus, skip, refresh):
    """o mode computed the direct way, with no skip: Q, K and V in full on
    every slot, the gate's reuse set, the refreshed attention rows spliced
    into the cached pre-W_O output, then W_O, the MLP and the unembedding.
    Returns per step (probs, reused count per layer, head-0 queries)."""
    cfg = w.config
    dh = cfg.d // cfg.H
    prev_q0 = [None] * cfg.L
    o_pre = [None] * cfg.L
    steps = []
    for t, x in enumerate(xs):
        cur = x
        counts = []
        for ell, lw in enumerate(w.layers):
            q, k, v = cur @ lw.w_q, cur @ lw.w_k, cur @ lw.w_v
            reused = (reuse_set(q[:, :dh], prev_q0[ell], taus[ell])
                      if gate(ell, t, skip, refresh) else np.empty(0, int))
            prev_q0[ell] = q[:, :dh]
            if not reused.size:
                o_pre[ell] = attention_rows(q, k, v, cfg.H)
            else:
                r = np.setdiff1d(np.arange(cfg.B), reused)
                if r.size:
                    o_pre[ell][r] = attention_rows(q[r], k, v, cfg.H)
            cur = mlp(lw, o_pre[ell] @ lw.w_o, cfg.activation)
            counts.append(int(reused.size))
        steps.append((unembed(w, cur), counts, list(prev_q0)))
    return steps


def count_calls(monkeypatch, names=("reuse_set", "attention_rows", "mlp",
                                    "unembed")):
    """Patch the functions the reuse module calls so each call is counted."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(reuse, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(reuse, name, counted)
    return counts


def zero_head0_queries(w, layers):
    """The weights with the head-0 block of W_q zeroed at the given layers,
    so those layers' head-0 queries are zero rows (drift undefined)."""
    dh = w.config.d // w.config.H
    new = []
    for ell, lw in enumerate(w.layers):
        if ell in layers:
            w_q = lw.w_q.copy()
            w_q[:, :dh] = 0.0
            lw = dataclasses.replace(lw, w_q=w_q)
        new.append(lw)
    return dataclasses.replace(w, layers=tuple(new))


def skip_weights(cfg, variant):
    """The model, or a variant whose layer-2 head-0 queries are zero rows
    (drift inf) or NaN rows (layer 0's W_D scaled until layer 2 overflows;
    the drift kernel scores a NaN row 2, whatever the other row is)."""
    w = init_weights(cfg)
    if variant == "zero-q0-l2":
        return zero_head0_queries(w, (2,))
    if variant == "nan-q0-l2":
        lw = w.layers[0]
        return dataclasses.replace(w, layers=(
            dataclasses.replace(lw, w_d=lw.w_d * 1e300), *w.layers[1:]))
    return w


TAU_PATTERNS = {
    "0": (0.0,) * 4,
    "0.01": (0.01,) * 4,
    "inf": (math.inf,) * 4,
    "gap": (0.01, None, 0.01, 0.01),   # a disabled layer between reusers
    # Layer 1 reuses nothing between layers that reuse every unmoved row.
    # (It used to hold -1.0, a threshold no drift meets; a negative
    # threshold is now refused, so "disabled" is the only such layer.)
    "neg": (0.0, None, 0.0, 0.0),
}


@pytest.mark.parametrize("variant", ["plain", "zero-q0-l2", "nan-q0-l2"])
@pytest.mark.parametrize("activation", ["relu", "gelu"])
@pytest.mark.parametrize("skip, refresh", [(0, 100), (0, 3), (2, 100)])
@pytest.mark.parametrize("taus", sorted(TAU_PATTERNS))
def test_o_model_step_matches_direct_computation(taus, skip, refresh,
                                                 activation, variant,
                                                 monkeypatch):
    # Bitwise against the computation that skips nothing, and each skip
    # fires exactly where it should: a slot reusing every row runs neither
    # attention nor the MLP, a layer above one that did scores nothing
    # (unless a head-0 query row is zero or not finite, or the layer is
    # disabled), and a step whose top layer reused every row does not
    # unembed.
    if activation == "gelu":
        pytest.importorskip("scipy")
    cfg = dataclasses.replace(SKIP_CFG, activation=activation)
    tau_layer = TAU_PATTERNS[taus]
    w = skip_weights(cfg, variant)
    xs = skip_inputs(w)
    counts = count_calls(monkeypatch)
    state = ReuseState(config=cfg, mode="o", tau_blocks=(tau_layer,),
                       skip_first_layers=skip, refresh_interval=refresh)
    expected = dict.fromkeys(counts, 0)
    with np.errstate(all="ignore"):
        want = reference_o_steps(w, xs, tau_layer, skip, refresh)
        for t, (x, (probs_ref, reused_ref, q0_ref)) in enumerate(zip(xs,
                                                                     want)):
            probs, decisions, q_head0 = model_step(w, state, x, t)
            assert np.array_equal(bits(probs), bits(probs_ref))
            assert [d.reused_count for d in decisions] == reused_ref
            for got, ref in zip(q_head0, q0_ref):
                assert np.array_equal(bits(got), bits(ref))
            whole = [n == cfg.B for n in reused_ref]
            expected["reuse_set"] += sum(
                d.eligible and not (
                    d.layer and whole[d.layer - 1]
                    and tau_layer[d.layer] is not None
                    and q0_ref[d.layer].any(axis=1).all()
                    and np.isfinite(q0_ref[d.layer]).all())
                for d in decisions)
            expected["attention_rows"] += whole.count(False)
            expected["mlp"] += whole.count(False)
            expected["unembed"] += not whole[-1]
    assert counts == expected
    if variant == "plain":
        assert expected["mlp"] < cfg.L * len(xs)


@pytest.mark.parametrize("tau", [0.0, math.inf])
def test_o_layers_above_an_unchanged_layer_compute_nothing(tau, monkeypatch):
    # Layer 0 scores the caller's new array and reuses every row, so it
    # returns its cached output; layers 1-3 then take that same array and
    # neither score, attend, project nor unembed.
    w = init_weights(SKIP_CFG)
    xs = skip_inputs(w, [(), ()])
    state = ReuseState(config=SKIP_CFG, mode="o",
                       tau_blocks=((tau,) * SKIP_CFG.L,), refresh_interval=10)
    probs0, _, q0_first = model_step(w, state, xs[0], 0)
    outs = list(state.prev_out)
    counts = count_calls(monkeypatch)
    probs1, decisions, q0_second = model_step(w, state, xs[1], 1)
    assert counts == {"reuse_set": 1, "attention_rows": 0, "mlp": 0,
                      "unembed": 0}
    assert all(d.eligible and d.reused_count == SKIP_CFG.B
               and d.refreshed_count == 0 for d in decisions)
    assert [d.staleness_l2 for d in decisions] \
        == [math.sqrt(SKIP_CFG.B)] * SKIP_CFG.L
    assert probs1 is probs0
    assert all(a is b for a, b in zip(state.prev_out, outs))
    assert all(a is b for a, b in zip(q0_second[1:], q0_first[1:]))
    # What is handed out and returned again cannot be written to.
    for a in (probs1, *state.prev_out):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_o_zero_head0_queries_give_full_output():
    # Zero head-0 query rows have no drift, so no row is ever reused, even
    # above a layer whose input is unchanged: bitwise full decoding.
    w = zero_head0_queries(init_weights(SKIP_CFG), range(SKIP_CFG.L))
    o_state = ReuseState(config=SKIP_CFG, mode="o",
                         tau_blocks=((math.inf,) * SKIP_CFG.L,))
    full_state = ReuseState(config=SKIP_CFG, mode="full",
                            tau_blocks=((None,) * SKIP_CFG.L,))
    for t, x in enumerate(skip_inputs(w)):
        probs, decisions, _ = model_step(w, o_state, x, t)
        want, _, _ = model_step(w, full_state, x, t)
        assert np.array_equal(bits(probs), bits(want))
        assert all(d.reused_count == 0 for d in decisions)


def test_o_input_changed_in_place_is_never_skipped():
    # An array the caller owns may change between calls under the same
    # identity: at layer 0 through model_step, and at any layer called
    # directly. Each call must see the new values.
    w = init_weights(SKIP_CFG)
    a, b = skip_inputs(w, [(), (1,)])
    taus = (0.0,) * SKIP_CFG.L
    moved = ReuseState(config=SKIP_CFG, mode="o", tau_blocks=(taus,),
                       refresh_interval=10)
    fresh = ReuseState(config=SKIP_CFG, mode="o", tau_blocks=(taus,),
                       refresh_interval=10)
    x = a.copy()
    model_step(w, moved, x, 0)
    model_step(w, fresh, a, 0)
    x[:] = b
    got, got_dec, _ = model_step(w, moved, x, 1)
    want, want_dec, _ = model_step(w, fresh, b, 1)
    assert np.array_equal(bits(got), bits(want))
    assert [d.reused_count for d in got_dec] \
        == [d.reused_count for d in want_dec]
    assert got_dec[0].refreshed.tolist() == [1]

    lw = w.layers[1]
    direct = ReuseState(config=SKIP_CFG, mode="o", tau_blocks=(taus,),
                        refresh_interval=10)
    x = a.copy()
    layer_step(lw, x, direct, 1, 0)
    x[:] = b
    h, decision = layer_step(lw, x, direct, 1, 1)
    assert decision.refreshed.tolist() == [1]
    o_pre = attention_rows(b @ lw.w_q, b @ lw.w_k, b @ lw.w_v, SKIP_CFG.H)
    want = mlp(lw, o_pre @ lw.w_o, SKIP_CFG.activation)
    assert np.max(np.abs(h[1] - want[1])) < 1e-12


def test_o_direct_layer_step_always_scores(monkeypatch):
    # Only model_step tells a layer that the layer below refreshed no row.
    # A direct call at layer 1 whose input is the state's own cached
    # output of layer 0 computes its queries and scores them, and gets the
    # decision and the output bits of the step that skipped both.
    w = init_weights(SKIP_CFG)
    xs = skip_inputs(w, [(), ()])
    taus = (0.0,) * SKIP_CFG.L
    skipped, direct = (ReuseState(config=SKIP_CFG, mode="o",
                                  tau_blocks=(taus,), refresh_interval=10)
                       for _ in range(2))
    for state in (skipped, direct):
        model_step(w, state, xs[0], 0)
    counts = count_calls(monkeypatch)
    _, want, _ = model_step(w, skipped, xs[1], 1)
    assert counts["reuse_set"] == 1
    h0, _ = layer_step(w.layers[0], xs[1], direct, 0, 1)
    assert h0 is direct.prev_out[0]
    h1, got = layer_step(w.layers[1], h0, direct, 1, 1)
    assert counts == {"reuse_set": 3, "attention_rows": 0, "mlp": 0,
                      "unembed": 0}
    assert got.reused.tolist() == want[1].reused.tolist() \
        == list(range(SKIP_CFG.B))
    assert np.array_equal(bits(h1), bits(skipped.prev_out[1]))
    assert np.array_equal(bits(direct.prev_q_head0[1]),
                          bits(skipped.prev_q_head0[1]))


def test_o_stack_skips_nothing_above_a_block_that_refreshes(monkeypatch):
    # Layer 0 reuses every row of block 0 but refreshes a row of block 1.
    # Block 0 alone would skip every layer; in the stack, every layer
    # scores, attends and projects, and the step unembeds.
    w = init_weights(SKIP_CFG)
    same = skip_inputs(w, [(), ()])
    moved = skip_inputs(w, [(), (1,)])
    state = ReuseState(config=SKIP_CFG, mode="o",
                       tau_blocks=((0.0,) * SKIP_CFG.L,) * 2,
                       refresh_interval=10)
    model_step(w, state, np.concatenate((same[0], moved[0])), 0)
    counts = count_calls(monkeypatch)
    _, decisions, _ = model_step(
        w, state, np.concatenate((same[1], moved[1])), 1)
    B, L = SKIP_CFG.B, SKIP_CFG.L
    assert decisions[0].refreshed.tolist() == [B + 1]
    assert all(d.refreshed.size and d.refreshed.min() >= B
               for d in decisions)
    assert counts == {"reuse_set": L, "attention_rows": L, "mlp": L,
                      "unembed": 1}


# ---------------------------------------------------------------------------
# decisions and accounting
# ---------------------------------------------------------------------------

def test_decision_partition_and_record_keys():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=0.5)
    x = embed_tokens(w, [1, 5, 9])
    for t in range(3):
        _, decision = layer_step(w.layers[0], x, state, 0, t)
        both = sorted(list(decision.reused) + list(decision.refreshed))
        assert both == [0, 1, 2]
        assert set(decision.to_record()) == {
            "step", "layer", "reused_count", "refreshed_count",
            "staleness_l2"}


def test_model_step_full_matches_forward_full():
    # A step that reuses no row is the full pass on its input, bit for bit,
    # whatever the caches hold. At refresh interval 2, steps 0 and 2 are
    # gated and steps 1 and 3 open; every token changes at every step, so
    # tau 0 reuses nothing in kv and o, and full mode decides nothing.
    for mode, L, H, activation in itertools.product(
            MODES, (1, 2), (1, 2), ("relu", "gelu")):
        cfg = ModelConfig(L=L, H=H, d=8, d_int=6, n_vocab=16, B=3,
                          activation=activation, seed=5)
        w = init_weights(cfg)
        state = ReuseState(config=cfg, mode=mode, tau_blocks=((0.0,) * L,),
                           refresh_interval=2)
        for t, tokens in enumerate([[2, 7, 13], [3, 8, 14], [4, 9, 15],
                                    [5, 10, 1]]):
            x = embed_tokens(w, tokens)
            probs_ref, ref = forward_full(w, x)
            probs, decisions, q_head0 = model_step(w, state, x, t)
            assert np.array_equal(bits(probs), bits(probs_ref))
            assert len(decisions) == L
            for d in decisions:
                assert d.eligible == (mode != "full" and t % 2 == 1)
                assert d.reused_count == 0
                assert list(d.refreshed) == [0, 1, 2]
                assert d.staleness_l2 == 0.0
            assert np.array_equal(q_head0[0],
                                  (x @ w.layers[0].w_q)[:, :8 // H])
            for ell in range(cfg.L):
                assert np.array_equal(bits(q_head0[ell]),
                                      bits(ref.prev_q_head0[ell]))
            assert staleness_norm(state.delta) == 0.0


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_caches_fresh_rows(mode):
    """After each step the refreshed rows of every cache are this step's:
    K and V bitwise the full projection's rows, and the pre-W_O attention
    output the attention of this step's queries over the step's K/V."""
    cfg = ModelConfig(L=2, H=2, d=16, d_int=32, n_vocab=32, B=5, seed=2)
    w = init_weights(cfg)
    state = ReuseState(config=cfg, mode=mode, tau_blocks=((0.0,) * cfg.L,),
                       refresh_interval=10)
    xs = changing_inputs(w, 2, 4, seed=4)
    reused_any = False
    for t, x in enumerate(xs):
        cur = x
        for ell, lw in enumerate(w.layers):
            o, decision = layer_step(lw, cur, state, ell, t)
            r = decision.refreshed
            reused_any |= decision.reused_count > 0
            q = cur @ lw.w_q
            k, v = state.prev_k[ell], state.prev_v[ell]
            assert np.array_equal(bits(k[r]), bits((cur @ lw.w_k)[r]))
            assert np.array_equal(bits(v[r]), bits((cur @ lw.w_v)[r]))
            fresh = attention_rows(q, k, v, cfg.H)
            assert np.max(np.abs(state.prev_o_pre[ell][r] - fresh[r])) < 1e-12
            assert np.array_equal(bits(state.prev_q_head0[ell]),
                                  bits(q[:, :cfg.d // cfg.H]))
            cur = o
    assert reused_any == (mode != "full")


def test_model_step_kv_disabled_matches_full_over_steps():
    cfg, w = make_model()
    full_state = ReuseState(config=cfg, mode="full", tau_blocks=((None,),))
    kv_state = make_state(cfg, "kv", tau=None)
    for t, tokens in enumerate([[1, 5, 9], [2, 5, 9], [2, 6, 10]]):
        x = embed_tokens(w, tokens)
        p_full, _, _ = model_step(w, full_state, x, t)
        p_kv, _, _ = model_step(w, kv_state, x, t)
        assert np.array_equal(p_full, p_kv)


def test_reuse_accounting_exact():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=2.0, refresh=2)
    decisions = []
    x = embed_tokens(w, [1, 5, 9])
    for t in range(6):
        _, decision = layer_step(w.layers[0], x, state, 0, t)
        decisions.append(decision)
    acct = reuse_accounting(decisions, B=cfg.B)
    # Steps 1, 3, 5 are eligible (refresh every even step) and reuse all 3
    # tokens since the input never changes.
    assert acct["eligible_slots"] == 3
    assert acct["gated_slots"] == 3
    assert acct["total_reused"] == 9
    assert acct["reuse_fraction"] == 1.0


def test_reuse_accounting_full_mode_is_zero():
    cfg, w = make_model()
    state = ReuseState(config=cfg, mode="full", tau_blocks=((None,),))
    x = embed_tokens(w, [1, 5, 9])
    decisions = []
    for t in range(4):
        _, ds, _ = model_step(w, state, x, t)
        decisions.extend(ds)
    acct = reuse_accounting(decisions, B=cfg.B)
    assert acct["eligible_slots"] == 0
    assert acct["reuse_fraction"] == 0.0
    assert acct["gated_slots"] == 4


# ---------------------------------------------------------------------------
# state validation
# ---------------------------------------------------------------------------

def test_state_validation():
    cfg, _ = make_model()
    with pytest.raises(ConfigError):
        ReuseState(config=cfg, mode="banana", tau_blocks=((None,),))
    with pytest.raises(ConfigError):
        ReuseState(config=cfg, mode="kv", tau_blocks=((None,),),
                   refresh_interval=0)
    with pytest.raises(DimensionError):
        ReuseState(config=cfg, mode="kv", tau_blocks=((0.1, 0.2),))
    with pytest.raises(TypeError):  # caches are not constructor arguments
        ReuseState(config=cfg, mode="kv", tau_blocks=((None,),),
                   delta=np.zeros((1, cfg.B), dtype=np.int64))
    with pytest.raises(TypeError):  # the table sets the block count
        ReuseState(config=cfg, mode="kv", tau_blocks=((None,),), n_blocks=1)


@pytest.mark.parametrize("tau", [-1.0, -math.inf, math.nan, "abc", True])
def test_state_refuses_bad_thresholds(tau):
    # A negative or NaN threshold used to reuse nothing without a word.
    cfg, _ = make_model()
    with pytest.raises(ConfigError):
        ReuseState(config=cfg, mode="kv", tau_blocks=((tau,),))
    with pytest.raises(ConfigError):
        ReuseState(config=cfg, mode="kv", tau_blocks=((0.5,), (tau,)))


@pytest.mark.parametrize("tau_blocks, n_blocks", [
    (((0.5,),), 2),             # one row for two blocks
    (((0.5,),) * 2, 1),         # two rows for one block
    (((0.5, 0.5),), 1),         # two thresholds for one layer
    (((0.5,), (0.5, 0.1)), 2),  # a second row of another length
    ((0.5,), 1),                # a row, not a table
    ((), 1),
])
def test_state_checks_its_threshold_table_shape(tau_blocks, n_blocks):
    # The table holds one row of L thresholds per block, and so sets the
    # number of blocks: a step on a stack of n_blocks blocks needs n_blocks
    # rows. A malformed table fails on construction.
    cfg, w = make_model()
    x = embed_tokens(w, np.arange(n_blocks * cfg.B) % cfg.n_vocab)
    with pytest.raises(DimensionError):
        state = ReuseState(config=cfg, mode="kv", tau_blocks=tau_blocks)
        model_step(w, state, x, 0)


def test_state_keeps_one_gate_threshold_per_layer(monkeypatch):
    # Where every block has the same threshold the gate gets it as one
    # value; elsewhere one per row, -inf where a block disables the layer.
    # A layer disabled in every block still scores nothing.
    cfg = dataclasses.replace(SKIP_CFG, L=3)
    w = init_weights(cfg)
    state = ReuseState(config=cfg, mode="kv",
                       tau_blocks=((0.5, None, None), (0.5, 0.1, None)),
                       refresh_interval=10)
    assert state.tau_layer[0] == 0.5 and state.tau_layer[2] is None
    assert state.tau_layer[1].tolist() == [-math.inf] * cfg.B \
        + [0.1] * cfg.B
    assert not state.tau_layer[1].flags.writeable
    scored = []
    monkeypatch.setattr(drift, "row_drift",
                        lambda *a: scored.append(1) or row_drift(*a))
    xs = skip_inputs(w, [(), ()])
    for t, x in enumerate(xs):
        _, decisions, _ = model_step(w, state, np.concatenate((x, x)), t)
    assert len(scored) == 2     # layers 0 and 1 at step 1
    assert decisions[0].reused_count == 2 * cfg.B
    assert decisions[1].reused.tolist() == list(range(cfg.B, 2 * cfg.B))
    assert decisions[2].reused_count == 0


def test_state_reset_block():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=2.0)
    x = embed_tokens(w, [1, 5, 9])
    for t in range(2):
        layer_step(w.layers[0], x, state, 0, t)
    assert state.delta.max() == 1
    state.reset_block()
    assert state.delta.max() == 0
    assert state.prev_k[0] is None


def test_staleness_norm_is_bitwise_the_float_norm():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 40)))
        high = int(rng.choice([2, 9, 1000, 2 ** 20]))
        delta = rng.integers(0, high, shape).astype(np.int64)
        for d in (delta, delta[0]):
            got = np.float64(staleness_norm(d))
            want = np.linalg.norm(d.astype(np.float64))
            assert bits(got) == bits(want)


# ---------------------------------------------------------------------------
# counterfactual replay
# ---------------------------------------------------------------------------

def frozen_scores(rng, n_steps, n_layers, B):
    scores = [None]
    for _ in range(1, n_steps):
        scores.append([rng.uniform(0.0, 0.4, size=B)
                       for _ in range(n_layers)])
    return scores


def replayed_per_step(scores, tau_layer, skip, refresh):
    """Rows the replay reuses at each step: the differences of its counts
    over the growing prefixes of the score trajectory."""
    totals = [replay_reuse(scores[:t], tau_layer, skip, refresh)[0]
              for t in range(len(scores) + 1)]
    return np.diff(totals).tolist()


def test_counterfactual_monotone_in_tau():
    rng = np.random.default_rng(61)
    scores = frozen_scores(rng, n_steps=8, n_layers=3, B=4)
    taus = [0.0, 0.05, 0.1, 0.2, 0.4]
    runs = [replay_reuse(scores, (t,) * 3, 0, 2) for t in taus]
    reused = [r for r, _ in runs]
    assert reused == sorted(reused)
    # Every slot at odd steps is eligible, and every score is <= 0.4.
    assert {e for _, e in runs} == {4 * 3}
    assert reused[0] == 0 and reused[-1] == 4 * 3 * 4


def test_counterfactual_matches_live_run_on_frozen_inputs():
    # With inputs that never change, live reuse decisions coincide with the
    # counterfactual replay of the recorded scores.
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=0.5, refresh=2)
    x = embed_tokens(w, [1, 5, 9])
    live = []
    scores = [None]
    for t in range(5):
        _, decision = layer_step(w.layers[0], x, state, 0, t)
        live.append(decision)
        if t > 0:
            scores.append([np.zeros(3)])  # identical queries: drift 0
    assert replayed_per_step(scores, (0.5,), 0, 2) \
        == [d.reused_count for d in live]
    assert replay_reuse(scores, (0.5,), 0, 2) \
        == (sum(d.reused_count for d in live), sum(d.eligible for d in live))


@pytest.mark.parametrize("mode", ["kv", "o"])
def test_live_decode_matches_counterfactual_replay(mode):
    # Replaying the drift scores recorded in a live decode gives, slot by
    # slot, the live reused counts (per layer, by a replay with every other
    # layer disabled), and the live eligible slots. Layer 1's head-0
    # queries are zero rows, which neither the live gate nor the replay
    # reuses, whatever tau is, tau = inf included.
    cfg = ModelConfig(L=3, H=2, d=16, d_int=32, n_vocab=32, B=8, seed=6)
    skip, refresh = 1, 3
    sc = sampler.SamplerConfig(gen_length=2 * cfg.B, block_size=cfg.B,
                               steps_per_block=cfg.B,
                               tokens_unmasked_per_step=1, temperature=1.0,
                               seed=4)
    w = zero_head0_queries(init_weights(cfg), (1,))
    for tau in (0.02, math.inf):
        profile = DriftProfile(
            s_layer=(0.0,) * cfg.L, phi_layer=(1.0,) * cfg.L,
            tau_layer=(tau,) * cfg.L, phi_bar=1.0, epsilon=1.0)
        _, trace = sampler.diffusion_generate(
            w, sc, profile, mode, skip_first_layers=skip,
            refresh_interval=refresh)
        reused = 0
        for block in range(2):
            records = [r for r in trace.records if r.block == block]
            scores = [None] + [
                [row_drift(cur.q_head0[ell], prev.q_head0[ell])
                 for ell in range(cfg.L)]
                for prev, cur in zip(records, records[1:])]
            eligible = sum(d.eligible for r in records for d in r.decisions)
            for ell in range(cfg.L):
                only = tuple(tau if j == ell else None
                             for j in range(cfg.L))
                live = [r.decisions[ell].reused_count for r in records]
                assert live == replayed_per_step(scores, only, skip, refresh)
                assert replay_reuse(scores, only, skip, refresh) \
                    == (sum(live), eligible)
                reused += sum(live)
                if ell == 1:
                    assert not any(live)
        assert reused > 0


def test_counterfactual_respects_sentinel_and_inf():
    scores = [None, [np.array([0.0, math.inf])], [np.array([0.0, 0.0])]]
    assert replay_reuse(scores, (None,), 0, 3) == (0, 2)
    assert replayed_per_step(scores, (1.0,), 0, 3) == [0, 1, 2]
    # A refresh interval of 2 forces a full recompute at step 2.
    assert replayed_per_step(scores, (1.0,), 0, 2) == [0, 1, 0]
    assert replay_reuse(scores, (1.0,), 0, 2) == (1, 1)


@pytest.mark.parametrize("tau_layer, error", [
    ((0.5, 0.5), DimensionError),   # two thresholds for one layer
    ((), DimensionError),
    (0.5, DimensionError),          # a threshold, not a row of them
    (("abc",), ConfigError),
    ((-1.0,), ConfigError),
    ((math.nan,), ConfigError),
    ((True,), ConfigError),
])
def test_replay_checks_its_thresholds(tau_layer, error):
    # As ReuseState checks them: at the parent these raised IndexError or
    # numpy's UFuncTypeError, or counted 0 reused rows.
    scores = [None, [np.array([0.0, 0.1])], [np.array([0.2, 0.0])]]
    with pytest.raises(error):
        replay_reuse(scores, tau_layer, 0, 2)


def test_replay_needs_one_layer_count():
    scores = [None, [np.array([0.0])], [np.array([0.0]), np.array([0.0])]]
    with pytest.raises(DimensionError):
        replay_reuse(scores, (0.5,), 0, 2)
    # With no scored step there is no layer count to match.
    assert replay_reuse([None], (0.5, 0.5), 0, 2) == (0, 0)


@pytest.mark.parametrize("skip, refresh", [(0, 0), (0, -1), (-1, 2)])
def test_gate_settings_are_checked_alike(skip, refresh):
    # A refresh interval of 0 used to reach gate's step % 0 in the replay.
    cfg, _ = make_model()
    scores = [None, [np.array([0.0, 0.0, 0.0])]]
    with pytest.raises(ConfigError):
        replay_reuse(scores, (0.5,), skip, refresh)
    with pytest.raises(ConfigError):
        ReuseState(config=cfg, mode="kv", tau_blocks=((0.5,),),
                   skip_first_layers=skip, refresh_interval=refresh)
    with pytest.raises(ConfigError):
        ReuseSettings(mode="kv", skip_first_layers=skip,
                      refresh_interval=refresh)


def test_counterfactual_at_infinite_tau_matches_live_gate():
    # A zero query row has drift inf: the live gate never reuses it, even
    # at tau = inf, and the replay of its score must not either.
    prev = np.array([[1.0, 2.0], [0.0, 0.0]])
    cur = prev.copy()
    scores = [None, [row_drift(cur, prev)]]
    assert scores[1][0].tolist() == [0.0, math.inf]
    live = reuse_set(cur, prev, math.inf)
    assert live.tolist() == [0]
    assert replay_reuse(scores, (math.inf,), 0, 2) == (live.size, 1)
