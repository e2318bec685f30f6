"""Tests for drift scoring, layerwise statistics, and budget allocation."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reuselab.analysis import drift_scores_for_layer
from reuselab.cli import RunConfig, _calibration_trace
from reuselab.drift import (
    DriftProfile,
    allocate_quantiles,
    below_threshold,
    drift_score,
    layerwise_drift,
    quantile_threshold,
    reuse_set,
    row_drift,
    trajectory_drifts,
)
from reuselab.errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
)
from reuselab.model import ModelConfig, embed_tokens, init_weights


# ---------------------------------------------------------------------------
# drift_score
# ---------------------------------------------------------------------------

def test_drift_score_extremes():
    assert drift_score([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert drift_score([2.0, 0.0], [-3.0, 0.0]) == 2.0


def test_drift_score_oblique_pair():
    want = 1.0 - 1.0 / math.sqrt(2.0)
    assert abs(drift_score([1.0, 0.0], [1.0, 1.0]) - want) < 1e-9


def test_drift_score_rejects_zero_vector():
    with pytest.raises(DegenerateInputError):
        drift_score([0.0, 0.0], [1.0, 0.0])


@settings(max_examples=200)
@given(
    hnp.arrays(np.float64, (3,), elements=st.floats(-10.0, 10.0)),
    hnp.arrays(np.float64, (3,), elements=st.floats(-10.0, 10.0)),
    st.floats(1e-3, 1e3),
)
def test_drift_score_scale_invariant_and_bounded(u, v, scale):
    if not u.any() or not v.any():
        return
    # Scaling a subnormal entry changes the vector's direction; keep the
    # scaled vectors in the normal range where the property holds.
    tiny = np.finfo(np.float64).tiny
    assume(all((np.abs(x[x != 0.0]) >= tiny).all()
               for x in (u, v, scale * u, scale * v)))
    s = drift_score(u, v)
    assert 0.0 <= s <= 2.0
    assert abs(s - drift_score(scale * u, v)) < 1e-12
    assert abs(s - drift_score(u, scale * v)) < 1e-12


# ---------------------------------------------------------------------------
# row_drift
# ---------------------------------------------------------------------------

def query_pair(rng, B, d, heads):
    """Head-0 column views (cur, prev) of two (B, heads * d) matrices.

    Each row pair is one of: a random pair at a random scale between
    1e-300 and 1e300, subnormal rows, a zero row on one side, equal rows,
    an antipodal pair, or a nearly equal pair.
    """
    cur = np.empty((B, heads * d))
    prev = np.empty((B, heads * d))
    for i in range(B):
        kind = rng.integers(6)
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        a = rng.standard_normal(heads * d) * scale
        a[rng.random(heads * d) < 0.3] = 0.0
        b = rng.standard_normal(heads * d) * 10.0 ** rng.uniform(-300.0, 300.0)
        if kind == 1:
            a = rng.integers(-4, 5, heads * d) * 5e-324
            b = rng.integers(-4, 5, heads * d) * 5e-324
        elif kind == 2:
            (a if rng.random() < 0.5 else b)[:] = 0.0
        elif kind == 3:
            b = a.copy()
        elif kind == 4:
            b = -a * 2.0 ** rng.integers(-60, 5)
        elif kind == 5:
            b = a * (1.0 + 1e-15 * rng.standard_normal(heads * d))
        cur[i], prev[i] = a, b
    return cur[:, :d], prev[:, :d]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.integers(1, 128), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_row_drift_is_bitwise_drift_score(B, d, heads, seed):
    cur, prev = query_pair(np.random.default_rng(seed), B, d, heads)
    want = np.array([drift_score(c, p) if c.any() and p.any() else np.inf
                     for c, p in zip(cur, prev)])
    got = row_drift(cur, prev)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_row_drift_rejects_mismatched_shapes():
    with pytest.raises(DimensionError):
        row_drift(np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(DimensionError):
        row_drift(np.ones(3), np.ones(3))


def query_chain(rng, T, B, d, heads):
    """Head-0 column views of T steps of (B, heads * d) query matrices.

    Step 0 is random at a random scale per row; each later row is, against
    the same row one step before: a random row at a random scale between
    1e-300 and 1e300, a subnormal row, a zero row, an equal row, an
    antipodal one, or a nearly equal one.
    """
    steps = [rng.standard_normal((B, heads * d))
             * 10.0 ** rng.uniform(-300.0, 300.0, (B, 1))]
    for _ in range(T - 1):
        step = np.empty((B, heads * d))
        for i, last in enumerate(steps[-1]):
            kind = rng.integers(6)
            step[i] = (rng.standard_normal(heads * d)
                       * 10.0 ** rng.uniform(-300.0, 300.0))
            if kind == 1:
                step[i] = rng.integers(-4, 5, heads * d) * 5e-324
            elif kind == 2:
                step[i] = 0.0
            elif kind == 3:
                step[i] = last
            elif kind == 4:
                step[i] = -last * 2.0 ** rng.integers(-60, 5)
            elif kind == 5:
                step[i] = last * (1.0 + 1e-15 * rng.standard_normal(heads * d))
        steps.append(step)
    return [step[:, :d] for step in steps]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 16),
       st.integers(1, 32), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_trajectory_drifts_match_per_pair_row_drift(T, L, B, d, heads, seed):
    # One row_drift call per layer over all step pairs gives every score
    # the bits of its pair's own call: zero rows (inf), subnormal rows and
    # norms that under- or overflow included.
    rng = np.random.default_rng(seed)
    layers = [query_chain(rng, T, B, d, heads) for _ in range(L)]
    trajectory = [[layer[t] for layer in layers] for t in range(T)]
    got = trajectory_drifts(trajectory)
    assert len(got) == T - 1
    for t, step in enumerate(got):
        assert len(step) == L
        for ell, scores in enumerate(step):
            want = row_drift(layers[ell][t + 1], layers[ell][t])
            assert scores.dtype == np.float64 and scores.shape == (B,)
            assert np.array_equal(scores.view(np.int64), want.view(np.int64))


def test_trajectory_drifts_rejects_shape_changes():
    with pytest.raises(DimensionError):
        trajectory_drifts([[np.ones((2, 3))], [np.ones((3, 3))]])
    with pytest.raises(DimensionError):
        trajectory_drifts([[np.ones((2, 3))], [np.ones((2, 4))]])


# ---------------------------------------------------------------------------
# layerwise_drift
# ---------------------------------------------------------------------------

def one_layer_trace(*steps):
    """Build a single-trace input: one layer, given per-step query rows."""
    return [[np.asarray(rows, dtype=float)] for rows in steps]


def test_layerwise_drift_constant_queries():
    trace = one_layer_trace([[1.0, 0.0], [0.0, 2.0]],
                            [[1.0, 0.0], [0.0, 2.0]],
                            [[1.0, 0.0], [0.0, 2.0]])
    s, skipped, _ = layerwise_drift([trace])
    assert s.shape == (1,)
    assert s[0] == 0.0
    assert skipped == 0


def test_layerwise_drift_mean_of_two_tokens():
    # Token 0 does not move (drift 0); token 1 rotates 90 degrees (drift 1).
    trace = one_layer_trace([[1.0, 0.0], [1.0, 0.0]],
                            [[1.0, 0.0], [0.0, 1.0]])
    s, skipped, _ = layerwise_drift([trace])
    assert abs(s[0] - 0.5) < 1e-12
    assert skipped == 0


def test_layerwise_drift_matches_flat_loop_oracle():
    rng = np.random.default_rng(23)
    n_layers, n_steps, n_tokens, dim = 3, 5, 4, 6
    trace = [[rng.standard_normal((n_tokens, dim)) for _ in range(n_layers)]
             for _ in range(n_steps)]
    s, skipped, _ = layerwise_drift([trace])
    assert skipped == 0
    for ell in range(n_layers):
        vals = []
        for t in range(1, n_steps):
            for i in range(n_tokens):
                a = trace[t][ell][i]
                b = trace[t - 1][ell][i]
                vals.append(1.0 - float(a @ b)
                            / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert abs(s[ell] - np.mean(vals)) < 1e-12


def test_layerwise_drift_sums_left_to_right():
    # profile.json stores s_layer, so the mean must be the left-to-right
    # fold of drift_score over traces, steps and tokens, bit for bit.
    rng = np.random.default_rng(29)
    traces = [[[rng.standard_normal((16, 5))] for _ in range(4)]
              for _ in range(3)]
    total, count = 0.0, 0
    for trace in traces:
        for prev, cur in zip(trace, trace[1:]):
            for i in range(16):
                total += drift_score(cur[0][i], prev[0][i])
                count += 1
    s, _, _ = layerwise_drift(traces)
    assert s[0] == total / count


def test_layerwise_drift_pools_traces():
    t1 = one_layer_trace([[1.0, 0.0]], [[0.0, 1.0]])   # drift 1
    t2 = one_layer_trace([[1.0, 0.0]], [[1.0, 0.0]])   # drift 0
    s, _, _ = layerwise_drift([t1, t2])
    assert abs(s[0] - 0.5) < 1e-12


def test_layerwise_drift_skips_zero_rows():
    trace = one_layer_trace([[0.0, 0.0], [1.0, 0.0]],
                            [[1.0, 0.0], [0.0, 1.0]])
    s, skipped, layer_scores = layerwise_drift([trace])
    assert skipped == 1
    assert abs(s[0] - 1.0) < 1e-12  # only the moving token counted
    assert [list(scores) for scores in layer_scores] == [[1.0]]


def test_layerwise_drift_counts_tiny_rows():
    # 1e-170 squares to zero, but the row is not zero: its drift is defined.
    trace = one_layer_trace([[1e-170, 0.0], [1.0, 0.0]],
                            [[0.0, 1e-170], [1.0, 0.0]])
    s, skipped, _ = layerwise_drift([trace])
    assert skipped == 0
    assert abs(s[0] - 0.5) < 1e-12


@pytest.mark.parametrize("model", [
    RunConfig.default().model,
    ModelConfig(L=2, H=2, d=8, d_int=16, n_vocab=32, B=4, seed=3)],
    ids=["default", "L2-H2"])
def test_layerwise_drift_scores_match_per_layer_pooling(model):
    # Calibration scores every (step, token) pair once, in layerwise_drift;
    # its per-layer scores must be bitwise the concatenation, over the
    # calibration prompts, of each prompt's drift_scores_for_layer.
    w = init_weights(model)
    trace = _calibration_trace(w, RunConfig.default().sampler)
    _, _, layer_scores = layerwise_drift(trace.q_trajectories())
    assert len(layer_scores) == model.L
    for ell, got in enumerate(layer_scores):
        want = drift_scores_for_layer(trace, ell)[0]
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_layerwise_drift_input_validation():
    with pytest.raises(DegenerateInputError):
        layerwise_drift([])
    with pytest.raises(DegenerateInputError):
        layerwise_drift([one_layer_trace([[1.0, 0.0]])])  # single step
    two_layers = [[np.ones((1, 2)), np.ones((1, 2))]] * 2
    with pytest.raises(DimensionError):
        layerwise_drift([one_layer_trace([[1.0, 0.0]], [[0.0, 1.0]]),
                         two_layers])
    with pytest.raises(DimensionError):
        trajectory_drifts([two_layers[0], [np.ones((1, 2))]])


def test_layerwise_drift_skips_one_step_traces():
    # A trace of one step has no pair: it adds nothing, and only a layer
    # with no usable pair in any trace raises.
    one_step = one_layer_trace([[1.0, 0.0]])
    two_step = one_layer_trace([[1.0, 0.0]], [[0.0, 1.0]])
    assert trajectory_drifts(one_step) == []
    want = layerwise_drift([two_step])
    for traces in ([one_step, two_step], [two_step, one_step]):
        s, skipped, layer_scores = layerwise_drift(traces)
        assert s.tolist() == want[0].tolist() == [1.0]
        assert skipped == want[1] == 0
        assert [x.tolist() for x in layer_scores] == [[1.0]]


# ---------------------------------------------------------------------------
# allocate_quantiles
# ---------------------------------------------------------------------------

def test_allocate_uniform_scores():
    phi = allocate_quantiles([0.7, 0.7, 0.7], phi_bar=0.3, epsilon=1.0)
    assert np.max(np.abs(phi - 0.3)) < 1e-12


def test_allocate_high_temperature_limit():
    phi = allocate_quantiles([0.0, 1.0, 2.0], phi_bar=0.25, epsilon=1e9)
    assert np.max(np.abs(phi - 0.25)) < 1e-6


def test_allocate_two_layer_reference():
    phi = allocate_quantiles([0.0, math.log(3.0)], phi_bar=0.3, epsilon=1.0)
    assert abs(phi[0] - 0.45) < 1e-9
    assert abs(phi[1] - 0.15) < 1e-9


def test_allocate_budget_conservation_before_clamp():
    rng = np.random.default_rng(31)
    s = rng.uniform(0.0, 2.0, size=6)
    phi = allocate_quantiles(s, phi_bar=0.4, epsilon=0.5, clamp=False)
    assert abs(phi.sum() - 6 * 0.4) < 1e-9


def test_allocate_monotone_in_drift():
    s = np.array([0.1, 0.3, 0.3, 0.9])
    phi = allocate_quantiles(s, phi_bar=0.2, epsilon=0.7)
    assert phi[0] >= phi[1]
    assert abs(phi[1] - phi[2]) < 1e-15
    assert phi[2] >= phi[3]
    assert phi[0] > phi[3]


def test_allocate_clamps_into_unit_interval():
    phi = allocate_quantiles([0.0, 50.0], phi_bar=0.9, epsilon=0.1)
    assert phi[0] == 1.0
    assert 0.0 <= phi[1] <= 1.0
    raw = allocate_quantiles([0.0, 50.0], phi_bar=0.9, epsilon=0.1,
                             clamp=False)
    assert raw[0] > 1.0


def test_allocate_logs_clamp_events(caplog):
    # logging is imported only when a clamp happens; the record still
    # reaches a caller that configured logging.
    with caplog.at_level("INFO", logger="reuselab.drift"):
        allocate_quantiles([0.0, 50.0], phi_bar=0.9, epsilon=0.1)
        allocate_quantiles([0.7, 0.7], phi_bar=0.3, epsilon=1.0)
    assert [r.getMessage() for r in caplog.records] == [
        "allocate_quantiles: clamped 1 layer(s) to 1.0"]


def test_allocate_validates_arguments():
    with pytest.raises(DegenerateInputError):
        allocate_quantiles([0.1], phi_bar=0.3, epsilon=0.0)
    with pytest.raises(DegenerateInputError):
        allocate_quantiles([0.1], phi_bar=1.5, epsilon=1.0)


# ---------------------------------------------------------------------------
# quantile_threshold
# ---------------------------------------------------------------------------

def test_quantile_threshold_half_budget():
    tau = quantile_threshold([0.4, 0.1, 0.3, 0.2], phi=0.5)
    assert tau == 0.2
    assert sum(v <= tau for v in [0.4, 0.1, 0.3, 0.2]) == 2


def test_quantile_threshold_empty_and_full_budget():
    scores = [0.4, 0.1, 0.3, 0.2]
    assert quantile_threshold(scores, phi=0.0) is None
    assert quantile_threshold(scores, phi=0.2) is None  # floor(0.8) = 0
    assert quantile_threshold(scores, phi=1.0) == 0.4


def test_quantile_threshold_ties_cover_at_least_k():
    scores = [0.1, 0.1, 0.3]
    tau = quantile_threshold(scores, phi=1.0 / 3.0)
    assert tau == 0.1
    assert sum(v <= tau for v in scores) >= 1


# ---------------------------------------------------------------------------
# reuse_set
# ---------------------------------------------------------------------------

def rotated_rows(angles):
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


def test_reuse_set_zero_drift_zero_tau():
    q = rotated_rows([0.0, 0.5, 1.0])
    assert list(reuse_set(q, q.copy(), tau=0.0)) == [0, 1, 2]


def test_reuse_set_gates_tiny_rows_and_skips_zero_rows():
    prev = np.array([[1e-170, 0.0], [0.0, 0.0], [1e200, 1e200]])
    cur = np.array([[2e-170, 0.0], [1.0, 0.0], [1e200, 1e200]])
    assert list(reuse_set(cur, prev, tau=0.0)) == [0, 2]


def test_reuse_set_disabled_and_first_step():
    q = rotated_rows([0.0, 0.5])
    assert reuse_set(q, q, tau=None).size == 0
    assert reuse_set(q, None, tau=0.5).size == 0


def test_reuse_set_mixed_drifts():
    prev = rotated_rows([0.0, 0.0, 0.0])
    # drifts: 0, 1 - cos(a) for the chosen angles
    cur = rotated_rows([0.0, math.acos(0.95), math.acos(0.5)])
    assert list(reuse_set(cur, prev, tau=0.1)) == [0, 1]


def test_reuse_set_skips_zero_rows():
    prev = np.array([[1.0, 0.0], [0.0, 0.0]])
    cur = np.array([[1.0, 0.0], [0.0, 0.0]])
    for tau in (1.0, math.inf):
        assert list(reuse_set(cur, prev, tau=tau)) == [0]


def test_below_threshold_selects_only_finite_scores_within_tau():
    scores = np.array([0.0, 0.5, 2.0, math.inf, math.nan])
    want = {None: [], -1.0: [], 0.0: [0], 0.5: [0, 1], 2.0: [0, 1, 2],
            math.inf: [0, 1, 2], math.nan: []}
    for tau, rows in want.items():
        assert below_threshold(scores, tau).tolist() == rows


def test_reuse_set_monotone_in_tau():
    rng = np.random.default_rng(47)
    prev = rng.standard_normal((8, 4))
    cur = prev + 0.3 * rng.standard_normal((8, 4))
    sizes = [reuse_set(cur, prev, tau=t).size
             for t in [0.0, 0.01, 0.05, 0.1, 0.5, 2.0]]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 8


def gate_matrices(data, B, d, heads):
    """Head-0 column views (cur, prev) of two (B, heads * d) matrices drawn
    by hypothesis; each row pair is random, zero on one or both sides,
    bitwise equal, or a positive multiple."""
    entries = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
    cur = data.draw(hnp.arrays(np.float64, (B, heads * d), elements=entries))
    prev = data.draw(hnp.arrays(np.float64, (B, heads * d), elements=entries))
    kinds = data.draw(st.lists(st.sampled_from(
        ["random", "zero cur", "zero prev", "zero both", "equal", "scaled"]),
        min_size=B, max_size=B))
    for i, kind in enumerate(kinds):
        if kind in ("zero cur", "zero both"):
            cur[i] = 0.0
        if kind in ("zero prev", "zero both"):
            prev[i] = 0.0
        if kind == "equal":
            prev[i] = cur[i]
        elif kind == "scaled":
            prev[i] = 4.0 * cur[i]
    return cur[:, :d], prev[:, :d]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.integers(1, 8), st.integers(1, 2),
       st.sampled_from([0.0, 1e-15, 0.05, 2.0, math.inf]), st.data())
def test_reuse_set_matches_finite_threshold_oracle(B, d, heads, tau, data):
    # The gate keeps exactly the rows with a finite drift within tau, and
    # neither it nor the drift kernel writes to the query matrices.
    cur, prev = gate_matrices(data, B, d, heads)
    cur_bits, prev_bits = cur.copy(), prev.copy()
    s = row_drift(cur, prev)
    want = np.flatnonzero(np.isfinite(s) & (s <= tau))
    got = reuse_set(cur, prev, tau)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    for arg, before in ((cur, cur_bits), (prev, prev_bits)):
        assert np.array_equal(arg.view(np.int64), before.view(np.int64))


def test_masked_tokens_have_zero_drift_at_layer_zero():
    # Unchanged token ids give identical layer-0 queries, hence zero drift.
    cfg = ModelConfig(L=1, H=1, d=8, d_int=16, n_vocab=16, B=4, seed=2)
    w = init_weights(cfg)
    tokens = [w.mask_token] * 4
    q_prev = embed_tokens(w, tokens) @ w.layers[0].w_q
    q_cur = embed_tokens(w, tokens) @ w.layers[0].w_q
    for i in range(4):
        assert drift_score(q_cur[i], q_prev[i]) <= 1e-9


# ---------------------------------------------------------------------------
# DriftProfile serialization
# ---------------------------------------------------------------------------

def test_drift_profile_json_round_trip():
    profile = DriftProfile(
        s_layer=(0.1, 0.8),
        phi_layer=(0.45, 0.15),
        tau_layer=(0.02, None),
        phi_bar=0.3,
        epsilon=1.0,
        skipped_pairs=5,
    )
    back = DriftProfile.from_json(profile.to_json())
    assert back == profile
    assert '"disabled"' in profile.to_json()


def profile_dict(**over):
    data = json.loads(DriftProfile(
        s_layer=(0.1, 0.8), phi_layer=(0.45, 0.15), tau_layer=(0.02, None),
        phi_bar=0.3, epsilon=1.0, skipped_pairs=5).to_json())
    data.update(over)
    return data


@pytest.mark.parametrize("key", ["s_layer", "phi_layer", "tau_layer",
                                 "phi_bar", "epsilon", "skipped_pairs"])
def test_drift_profile_missing_key_is_a_format_error(key):
    data = profile_dict()
    del data[key]
    with pytest.raises(FormatError):
        DriftProfile.from_json(json.dumps(data))


@pytest.mark.parametrize("tau", [-0.5, float("nan"), "0.5", "off", None,
                                 True])
def test_drift_profile_bad_threshold_is_a_format_error(tau):
    data = profile_dict(tau_layer=[0.02, tau])
    with pytest.raises(FormatError):
        DriftProfile.from_json(json.dumps(data))


@pytest.mark.parametrize("over", [
    {"s_layer": [0.1, 0.8], "phi_layer": [0.5], "tau_layer": [0.1]},
    {"s_layer": [0.1], "phi_layer": [0.5, 0.5], "tau_layer": [0.1]},
    {"s_layer": [0.1], "phi_layer": [0.5], "tau_layer": [0.1, 0.2]},
    {"s_layer": 0.1},
])
def test_drift_profile_per_layer_lists_must_match(over):
    with pytest.raises(FormatError):
        DriftProfile.from_json(json.dumps(profile_dict(**over)))


@pytest.mark.parametrize("over", [
    {"s_layer": ["a", 0.8]},
    {"s_layer": [0.1, True]},
    {"phi_layer": [None, 0.15]},
    {"phi_bar": "x"},
    {"phi_bar": False},
    {"epsilon": []},
    {"skipped_pairs": -3},
    {"skipped_pairs": 5.0},
    {"skipped_pairs": True},
], ids=["s-str", "s-bool", "phi-null", "phi_bar-str", "phi_bar-bool",
        "epsilon-list", "skipped-negative", "skipped-float", "skipped-bool"])
def test_drift_profile_bad_field_is_a_format_error(over):
    # The fields no threshold is taken from are checked too: real numbers
    # (not bools), and a count of skipped pairs.
    with pytest.raises(FormatError):
        DriftProfile.from_json(json.dumps(profile_dict(**over)))


def test_drift_profile_keeps_the_numbers_it_reads():
    data = profile_dict(s_layer=[0, 0.8], phi_bar=1, skipped_pairs=0)
    profile = DriftProfile.from_json(json.dumps(data))
    assert (profile.s_layer, profile.phi_bar, profile.skipped_pairs) \
        == ((0, 0.8), 1, 0)


@pytest.mark.parametrize("text", ["", "[1, 2]", "{"])
def test_drift_profile_that_is_not_an_object_is_a_format_error(text):
    with pytest.raises(FormatError):
        DriftProfile.from_json(text)


@pytest.mark.parametrize("tau", [-1.0, -0.5, float("nan"), "0.5", True])
def test_drift_profile_built_in_code_applies_the_threshold_rule(tau):
    # The rule from_json applies to stored thresholds holds for a profile
    # built in code too; there it is a ConfigError.
    with pytest.raises(ConfigError):
        DriftProfile(s_layer=(0.1, 0.8), phi_layer=(0.45, 0.15),
                     tau_layer=(0.02, tau), phi_bar=0.3, epsilon=1.0)


def test_drift_profile_built_in_code_needs_one_threshold_per_layer():
    for taus in ((0.02,), (0.02, None, 0.5), 0.02):
        with pytest.raises(DimensionError):
            DriftProfile(s_layer=(0.1, 0.8), phi_layer=(0.45, 0.15),
                         tau_layer=taus, phi_bar=0.3, epsilon=1.0)


def test_drift_profile_built_in_code_accepts_valid_thresholds():
    taus = (None, 0, 0.0, 0.5, float("inf"), np.float64(0.25))
    profile = DriftProfile(s_layer=(0.0,) * 6, phi_layer=(0.0,) * 6,
                           tau_layer=taus, phi_bar=0.5, epsilon=1.0)
    assert profile.tau_layer == taus


def test_drift_profile_accepts_disabled_zero_and_integer_thresholds():
    data = profile_dict(tau_layer=["disabled", 0])
    profile = DriftProfile.from_json(json.dumps(data))
    assert profile.tau_layer == (None, 0.0)
    assert isinstance(profile.tau_layer[1], float)
