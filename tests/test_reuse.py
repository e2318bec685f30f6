"""Tests for the reuse mechanisms, gating, and staleness bookkeeping."""

import math

import numpy as np
import pytest

from reuselab import sampler
from reuselab.drift import DriftProfile
from reuselab.errors import ConfigError, DimensionError, StateError
from reuselab.model import (
    ModelConfig,
    embed_tokens,
    forward_full,
    init_weights,
)
from reuselab.reuse import (
    CounterfactualReuse,
    ReuseState,
    dare_kv_layer_step,
    dare_o_layer_step,
    gate,
    model_step,
    reuse_accounting,
    simulate_reuse_counterfactual,
    update_staleness,
)


def make_model(seed=3, B=3):
    cfg = ModelConfig(L=1, H=1, d=4, d_int=8, n_vocab=12, B=B,
                      activation="relu", seed=seed)
    return cfg, init_weights(cfg)


def make_state(cfg, mode, tau, refresh=2, skip=0):
    return ReuseState(config=cfg, mode=mode, tau_layer=(tau,) * cfg.L,
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


# ---------------------------------------------------------------------------
# DARE-KV layer step
# ---------------------------------------------------------------------------

def test_kv_disabled_sentinel_is_bitwise_full():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=None)
    for t, tokens in enumerate([[1, 5, 9], [2, 5, 9], [2, 6, 9]]):
        x = embed_tokens(w, tokens)
        _, acts = forward_full(w, x)
        o, decision = dare_kv_layer_step(w.layers[0], x, state, 0, t)
        assert np.array_equal(o, acts[0].o)
        assert decision.reused_count == 0
        assert state.delta.max() == 0


def test_kv_unchanged_input_reuses_everything():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=0.0)
    x = embed_tokens(w, [1, 5, 9])
    dare_kv_layer_step(w.layers[0], x, state, 0, 0)
    o, decision = dare_kv_layer_step(w.layers[0], x, state, 0, 1)
    _, acts = forward_full(w, x)
    assert decision.reused_count == 3
    assert list(state.delta[0]) == [1, 1, 1]
    assert np.max(np.abs(o - acts[0].o)) < 1e-10


def test_kv_forced_single_token_matches_splice_oracle():
    cfg, w = make_model()
    lw = w.layers[0]
    state = make_state(cfg, "kv", tau=1e-9)
    x_prev = embed_tokens(w, [4, 1, 7])
    x_cur = embed_tokens(w, [4, 2, 8])  # only token 0 unchanged
    dare_kv_layer_step(lw, x_prev, state, 0, 0)
    o, decision = dare_kv_layer_step(lw, x_cur, state, 0, 1)
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
    want = o_pre @ lw.w_o
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
        dare_kv_layer_step(lw, x, state, 0, t)
        delta = state.delta[0]
        for i in range(3):
            source = xs[t - delta[i]]
            assert np.array_equal(state.prev_k[0][i], (source @ lw.w_k)[i])
            assert np.array_equal(state.prev_v[0][i], (source @ lw.w_v)[i])
    # Token 0 never changed, so it aged through every eligible step.
    assert list(state.delta[0])[0] == 3


def test_kv_requires_prior_state():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=0.1)
    with pytest.raises(StateError):
        dare_kv_layer_step(w.layers[0], embed_tokens(w, [1, 2, 3]), state,
                           0, 1)
    with pytest.raises(StateError):
        dare_o_layer_step(w.layers[0], embed_tokens(w, [1, 2, 3]), state,
                          0, 0)  # wrong mode


# ---------------------------------------------------------------------------
# DARE-O layer step
# ---------------------------------------------------------------------------

def test_o_disabled_sentinel_is_bitwise_full():
    cfg, w = make_model()
    state = make_state(cfg, "o", tau=None)
    for t, tokens in enumerate([[1, 5, 9], [2, 6, 9]]):
        x = embed_tokens(w, tokens)
        _, acts = forward_full(w, x)
        o, _ = dare_o_layer_step(w.layers[0], x, state, 0, t)
        assert np.array_equal(o, acts[0].o)


def test_o_total_reuse_replays_previous_output():
    cfg, w = make_model()
    state = make_state(cfg, "o", tau=2.0)
    x = embed_tokens(w, [1, 5, 9])
    o_first, _ = dare_o_layer_step(w.layers[0], x, state, 0, 0)
    o_second, decision = dare_o_layer_step(w.layers[0], x, state, 0, 1)
    assert decision.reused_count == 3
    assert np.max(np.abs(o_second - o_first)) < 1e-12


def test_o_forced_single_token_matches_row_oracle():
    cfg, w = make_model()
    lw = w.layers[0]
    state = make_state(cfg, "o", tau=1e-9)
    x_prev = embed_tokens(w, [3, 6, 10])
    x_cur = embed_tokens(w, [5, 6, 11])  # only token 1 unchanged
    dare_o_layer_step(lw, x_prev, state, 0, 0)
    cached_o_pre = state.prev_o_pre[0].copy()
    o, decision = dare_o_layer_step(lw, x_cur, state, 0, 1)
    assert list(decision.reused) == [1]

    q = x_cur @ lw.w_q
    k = x_cur @ lw.w_k
    v = x_cur @ lw.w_v
    rows = scalar_attention_rows(q, k, v, [0, 2])
    o_pre = np.array([rows[0], cached_o_pre[1], rows[2]])
    want = o_pre @ lw.w_o
    assert np.max(np.abs(o - want)) < 1e-12


def test_o_fresh_rows_see_fresh_keys():
    # Refreshed rows must attend over the *current* K/V even while other
    # rows are reused.
    cfg, w = make_model()
    lw = w.layers[0]
    state = make_state(cfg, "o", tau=1e-9)
    x_prev = embed_tokens(w, [3, 6, 10])
    x_cur = embed_tokens(w, [5, 6, 11])
    dare_o_layer_step(lw, x_prev, state, 0, 0)
    dare_o_layer_step(lw, x_cur, state, 0, 1)
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
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, MID.n_vocab, MID.B)
    xs = [embed_tokens(w, tokens)]
    for _ in range(1, n_steps):
        tokens = tokens.copy()
        idx = rng.choice(MID.B, n_changed, replace=False)
        tokens[idx] = (tokens[idx]
                       + rng.integers(1, MID.n_vocab, n_changed)) % MID.n_vocab
        xs.append(embed_tokens(w, tokens))
    return xs


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# tau 0 reuses exactly the unchanged rows, so every step after the first
# refreshes n_changed rows; one row is the gemv case, two or more gemm.
@pytest.mark.parametrize("n_changed", [1, 2, MID.B - 1, MID.B])
def test_kv_cache_rows_are_bitwise_source_projections(n_changed):
    w = init_weights(MID)
    state = ReuseState(config=MID, mode="kv", tau_layer=(0.0,) * MID.L,
                       refresh_interval=100)
    xs = changing_inputs(w, n_changed, 4, seed=n_changed)
    rows = np.arange(MID.B)
    for t, x in enumerate(xs):
        for ell, lw in enumerate(w.layers):
            _, decision = dare_kv_layer_step(lw, x, state, ell, t)
            if t:
                assert decision.refreshed_count == n_changed
            source = t - state.delta[ell]
            want_k = np.stack([xs[s] @ lw.w_k for s in range(t + 1)])
            want_v = np.stack([xs[s] @ lw.w_v for s in range(t + 1)])
            assert np.array_equal(bits(state.prev_k[ell]),
                                  bits(want_k[source, rows]))
            assert np.array_equal(bits(state.prev_v[ell]),
                                  bits(want_v[source, rows]))


@pytest.mark.parametrize("n_changed", [1, 2, MID.B - 1, MID.B])
def test_o_reused_rows_are_bitwise_cached_rows(n_changed):
    w = init_weights(MID)
    state = ReuseState(config=MID, mode="o", tau_layer=(0.0,) * MID.L,
                       refresh_interval=100)
    for t, x in enumerate(changing_inputs(w, n_changed, 4, seed=n_changed)):
        for ell, lw in enumerate(w.layers):
            cached = None if t == 0 else state.prev_o_pre[ell].copy()
            o, decision = dare_o_layer_step(lw, x, state, ell, t)
            o_pre = state.prev_o_pre[ell]
            assert np.array_equal(bits(o), bits(o_pre @ lw.w_o))
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
        return embed_tokens(weights, tokens)

    def recording_step(weights, state, x, t):
        out = model_step(weights, state, x, t)
        step_queries.append([q.copy() for q in out[2]])
        return out

    monkeypatch.setattr(sampler, "embed_tokens", recording_embed)
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


# ---------------------------------------------------------------------------
# decisions and accounting
# ---------------------------------------------------------------------------

def test_decision_partition_and_record_keys():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=0.5)
    x = embed_tokens(w, [1, 5, 9])
    for t in range(3):
        _, decision = dare_kv_layer_step(w.layers[0], x, state, 0, t)
        both = sorted(list(decision.reused) + list(decision.refreshed))
        assert both == [0, 1, 2]
        assert set(decision.to_record()) == {
            "step", "layer", "reused_count", "refreshed_count",
            "staleness_l2"}


def test_model_step_full_matches_forward_full():
    cfg = ModelConfig(L=2, H=2, d=8, d_int=6, n_vocab=16, B=3, seed=5)
    w = init_weights(cfg)
    state = ReuseState(config=cfg, mode="full", tau_layer=(None, None))
    x = embed_tokens(w, [2, 7, 13])
    probs_ref, acts = forward_full(w, x)
    probs, decisions, q_head0 = model_step(w, state, x, 0)
    assert np.array_equal(probs, probs_ref)
    assert len(decisions) == 2
    assert all(d.reused_count == 0 and not d.eligible for d in decisions)
    assert np.array_equal(q_head0[0], acts[0].q[:, :4])


def test_model_step_kv_disabled_matches_full_over_steps():
    cfg, w = make_model()
    full_state = ReuseState(config=cfg, mode="full", tau_layer=(None,))
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
        _, decision = dare_kv_layer_step(w.layers[0], x, state, 0, t)
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
    state = ReuseState(config=cfg, mode="full", tau_layer=(None,))
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
        ReuseState(config=cfg, mode="banana", tau_layer=(None,))
    with pytest.raises(ConfigError):
        ReuseState(config=cfg, mode="kv", tau_layer=(None,),
                   refresh_interval=0)
    with pytest.raises(DimensionError):
        ReuseState(config=cfg, mode="kv", tau_layer=(0.1, 0.2))
    with pytest.raises(TypeError):  # caches are not constructor arguments
        ReuseState(config=cfg, mode="kv", tau_layer=(None,),
                   delta=np.zeros((1, cfg.B), dtype=np.int64))


def test_state_reset_block():
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=2.0)
    x = embed_tokens(w, [1, 5, 9])
    for t in range(2):
        dare_kv_layer_step(w.layers[0], x, state, 0, t)
    assert state.delta.max() == 1
    state.reset_block()
    assert state.delta.max() == 0
    assert state.prev_k[0] is None


# ---------------------------------------------------------------------------
# counterfactual replay
# ---------------------------------------------------------------------------

def frozen_scores(rng, n_steps, n_layers, B):
    scores = [None]
    for _ in range(1, n_steps):
        scores.append([rng.uniform(0.0, 0.4, size=B)
                       for _ in range(n_layers)])
    return scores


def test_counterfactual_staleness_monotone_in_tau():
    rng = np.random.default_rng(61)
    scores = frozen_scores(rng, n_steps=8, n_layers=3, B=4)
    taus = [0.0, 0.05, 0.1, 0.2, 0.4]
    runs = [simulate_reuse_counterfactual(scores, (t,) * 3, 0, 2)
            for t in taus]
    for lo, hi in zip(runs, runs[1:]):
        assert np.all(lo.delta_l2_per_step <= hi.delta_l2_per_step + 1e-12)
        assert lo.total_reused <= hi.total_reused


def test_counterfactual_matches_live_run_on_frozen_inputs():
    # With inputs that never change, live reuse decisions coincide with the
    # counterfactual replay of the recorded scores.
    cfg, w = make_model()
    state = make_state(cfg, "kv", tau=0.5, refresh=2)
    x = embed_tokens(w, [1, 5, 9])
    live = []
    scores = [None]
    for t in range(5):
        _, decision = dare_kv_layer_step(w.layers[0], x, state, 0, t)
        live.append(decision.reused_count)
        if t > 0:
            scores.append([np.zeros(3)])  # identical queries: drift 0
    sim = simulate_reuse_counterfactual(scores, (0.5,), 0, 2)
    assert list(sim.reused_per_slot[:, 0]) == live
    assert isinstance(sim, CounterfactualReuse)


def test_counterfactual_respects_sentinel_and_inf():
    scores = [None, [np.array([0.0, math.inf])], [np.array([0.0, 0.0])]]
    sim = simulate_reuse_counterfactual(scores, (None,), 0, 3)
    assert sim.total_reused == 0
    sim2 = simulate_reuse_counterfactual(scores, (1.0,), 0, 3)
    assert list(sim2.reused_per_slot[:, 0]) == [0, 1, 2]
    # A refresh interval of 2 forces a full recompute at step 2.
    sim3 = simulate_reuse_counterfactual(scores, (1.0,), 0, 2)
    assert list(sim3.reused_per_slot[:, 0]) == [0, 1, 0]
