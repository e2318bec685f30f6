"""Tests for similarity diagnostics, drift histograms, and FLOP accounting."""

import json
import math

import numpy as np
import pytest

from reuselab.analysis import (
    HISTOGRAM_BINS,
    ZERO_MODE_EDGE,
    CostModel,
    DriftHistogram,
    SimilarityMatrix,
    cross_layer_similarity,
    drift_scores_for_layer,
    flops_for_trace,
    histogram_csv,
    histogram_from_scores,
    similarity_csv,
    temporal_similarity,
    write_csv_with_metadata,
)
from reuselab.drift import DriftProfile, drift_score
from reuselab.errors import ConfigError, DegenerateInputError, DimensionError
from reuselab.model import ModelConfig, init_weights
from reuselab.reuse import ReuseDecision
from reuselab.sampler import (
    GenerationTrace,
    SamplerConfig,
    StepRecord,
    diffusion_generate,
)

from csv_metadata import read_csv_with_metadata


def make_model(seed=3, L=1, B=4):
    cfg = ModelConfig(L=L, H=1, d=4, d_int=8, n_vocab=12, B=B,
                      activation="relu", seed=seed)
    return cfg, init_weights(cfg)


def flat_profile(tau, L=1):
    return DriftProfile(s_layer=(0.0,) * L, phi_layer=(1.0,) * L,
                        tau_layer=(tau,) * L, phi_bar=1.0, epsilon=1.0)


def generate_trace(mode="full", tau=2.0, L=1, seed=5, steps=6):
    cfg, w = make_model(seed=seed, L=L)
    sampler = SamplerConfig(gen_length=8, block_size=4, steps_per_block=steps,
                            tokens_unmasked_per_step=1, temperature=0.7,
                            seed=seed)
    profile = flat_profile(tau, L=L) if mode != "full" else None
    _, trace = diffusion_generate(w, sampler, profile, mode)
    return cfg, trace


def pairwise_mean_cosine(matrices):
    """Independent similarity oracle: explicit loops, scalar math."""
    n = len(matrices)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            vals = []
            for b in range(matrices[0].shape[0]):
                u, v = matrices[i][b], matrices[j][b]
                nu, nv = math.sqrt(float(u @ u)), math.sqrt(float(v @ v))
                if nu == 0.0 or nv == 0.0:
                    continue
                vals.append(float(u @ v) / (nu * nv))
            out[i, j] = sum(vals) / len(vals)
    return out


def synthetic_trace(decisions_per_step, mode="kv", B=4, q_step_arrays=None):
    """Hand-built trace: one StepRecord per entry of decisions_per_step."""
    trace = GenerationTrace(mode=mode)
    for s, decisions in enumerate(decisions_per_step):
        q = q_step_arrays[s] if q_step_arrays is not None else [np.ones((B, 2))]
        trace.records.append(StepRecord(
            block=0, step=s, input_tokens=np.zeros(B, dtype=np.int64),
            decisions=decisions, q_head0=q,
            unmasked=np.array([], dtype=np.int64),
            confidences=np.zeros(B),
        ))
    return trace


def decision(step, reused, refreshed, layer=0):
    return ReuseDecision(layer=layer, step=step,
                         reused=np.asarray(reused, dtype=np.int64),
                         refreshed=np.asarray(refreshed, dtype=np.int64),
                         eligible=True, staleness_l2=0.0)


# ---------------------------------------------------------------------------
# SimilarityMatrix
# ---------------------------------------------------------------------------

def test_similarity_matrix_validation():
    with pytest.raises(DimensionError):
        SimilarityMatrix(entries=np.ones((2, 3)), axis="timestep")
    with pytest.raises(ConfigError):
        SimilarityMatrix(entries=np.eye(2), axis="tokens")
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(DegenerateInputError):
        SimilarityMatrix(entries=bad, axis="layer")
    with pytest.raises(DegenerateInputError):
        SimilarityMatrix(entries=0.5 * np.eye(2), axis="layer")
    with pytest.raises(DegenerateInputError):
        SimilarityMatrix(entries=2.0 * np.eye(2) - 1.0 + 1.0, axis="layer")


def test_temporal_similarity_constant_series_is_all_ones():
    m = np.random.default_rng(0).normal(size=(3, 5))
    sim = temporal_similarity([m, m.copy(), m.copy()])
    assert sim.axis == "timestep"
    assert sim.n == 3
    assert np.abs(sim.entries - 1.0).max() < 1e-12


def test_temporal_similarity_orthogonal_steps():
    a = np.zeros((2, 4))
    b = np.zeros((2, 4))
    a[:, 0] = 1.0
    b[:, 1] = 1.0
    sim = temporal_similarity([a, b])
    assert sim.entries[0, 1] == 0.0
    assert sim.entries[1, 0] == 0.0


def test_temporal_similarity_matches_pairwise_loop_oracle():
    rng = np.random.default_rng(42)
    series = [rng.normal(size=(3, 5)) for _ in range(4)]
    sim = temporal_similarity(series)
    oracle = pairwise_mean_cosine(series)
    assert np.abs(sim.entries - oracle).max() < 1e-12


def test_temporal_similarity_skips_zero_rows_pairwise():
    rng = np.random.default_rng(9)
    series = [rng.normal(size=(3, 5)) for _ in range(3)]
    series[1][2] = 0.0
    sim = temporal_similarity(series)
    oracle = pairwise_mean_cosine(series)
    assert np.abs(sim.entries - oracle).max() < 1e-12


def test_temporal_similarity_input_validation():
    with pytest.raises(DegenerateInputError):
        temporal_similarity([np.ones((2, 3))])
    with pytest.raises(DimensionError):
        temporal_similarity([np.ones((2, 3)), np.ones((2, 4))])
    with pytest.raises(DimensionError):
        temporal_similarity([np.ones(3), np.ones(3)])
    with pytest.raises(DegenerateInputError):
        temporal_similarity([np.zeros((2, 3)), np.zeros((2, 3))])


def test_cross_layer_similarity_matches_oracle():
    rng = np.random.default_rng(3)
    caches = [rng.normal(size=(4, 6)) for _ in range(3)]
    sim = cross_layer_similarity(caches)
    assert sim.axis == "layer"
    oracle = pairwise_mean_cosine(caches)
    assert np.abs(sim.entries - oracle).max() < 1e-12
    constant = cross_layer_similarity([caches[0], caches[0].copy()])
    assert np.abs(constant.entries - 1.0).max() < 1e-12


def test_similarity_invariants_on_model_value_caches():
    cfg, w = make_model(L=2)
    from reuselab.model import embed_tokens
    from reuselab.reuse import forward_full
    x = embed_tokens(w, np.array([1, 4, 7, 2]))
    _, state = forward_full(w, x)
    sim = cross_layer_similarity(state.prev_v)
    assert np.abs(sim.entries - sim.entries.T).max() <= 1e-9
    assert np.abs(np.diag(sim.entries) - 1.0).max() <= 1e-9


# ---------------------------------------------------------------------------
# drift histograms
# ---------------------------------------------------------------------------

def test_histogram_unchanged_queries_are_pure_zero_mode():
    q = [np.random.default_rng(1).normal(size=(4, 2))]
    trace = synthetic_trace([[], [], []], q_step_arrays=[q, q, q])
    scores, skipped = drift_scores_for_layer(trace, 0)
    hist = histogram_from_scores(scores, 0, skipped_rows=skipped)
    assert hist.zero_mode_count == hist.total == 8
    assert all(c == 0 for c in hist.counts)


def test_histogram_conservation_on_generated_trace():
    _, trace = generate_trace(mode="full", steps=4)
    scores, skipped = drift_scores_for_layer(trace, 0)
    hist = histogram_from_scores(scores, 0, tau=None, skipped_rows=skipped)
    assert hist.zero_mode_count + sum(hist.counts) == hist.total
    pair_count = sum(
        (len(traj) - 1) * traj[0][0].shape[0]
        for traj in trace.q_trajectories()
    )
    assert hist.total + hist.skipped_rows == pair_count
    assert hist.skipped_rows == 0


def test_histogram_bimodal_counting_oracle():
    scores = np.array([0.0] * 5 + [0.31] * 7 + [1.55] * 4 + [2.0] * 2)
    hist = histogram_from_scores(scores, layer=0, tau=0.25)
    assert hist.zero_mode_count == 5
    assert hist.total == 18
    assert hist.tau == 0.25
    width = 2.0 / HISTOGRAM_BINS
    assert hist.counts[int(0.31 // width)] == 7
    assert hist.counts[int(1.55 // width)] == 4
    assert hist.counts[HISTOGRAM_BINS - 1] == 2
    assert sum(hist.counts) == 13
    assert len(hist.bin_edges) == HISTOGRAM_BINS + 1


def test_histogram_score_extraction_matches_manual_recompute():
    _, trace = generate_trace(mode="kv", tau=2.0, steps=4)
    scores, skipped = drift_scores_for_layer(trace, 0)
    manual = []
    for traj in trace.q_trajectories():
        for prev, cur in zip(traj, traj[1:]):
            for i in range(cur[0].shape[0]):
                manual.append(drift_score(cur[0][i], prev[0][i]))
    assert skipped == 0
    assert np.allclose(np.sort(scores), np.sort(manual), atol=0.0)


def test_histogram_input_validation():
    with pytest.raises(DegenerateInputError):
        histogram_from_scores(np.array([]), layer=0)
    with pytest.raises(DegenerateInputError):
        histogram_from_scores(np.array([2.5]), layer=0)
    with pytest.raises(DegenerateInputError):
        histogram_from_scores(np.array([-0.1]), layer=0)
    trace = synthetic_trace([[], []], q_step_arrays=None)
    with pytest.raises(DimensionError):
        drift_scores_for_layer(trace, 3)
    # A one-step block has no pair, and zero rows have no finite score.
    zero_rows = [[np.zeros((4, 2))]] * 2
    for trace in (synthetic_trace([[]]),
                  synthetic_trace([[], []], q_step_arrays=zero_rows)):
        with pytest.raises(DegenerateInputError):
            drift_scores_for_layer(trace, 0)


# ---------------------------------------------------------------------------
# FLOP accounting
# ---------------------------------------------------------------------------

def test_cost_model_hand_values():
    cost = CostModel(d=4, d_int=8, B=3)
    assert cost.kv_projection_flops() == 32
    assert cost.attention_row_flops() == 4 * 3 * 4 + 5 * 3 == 63
    assert cost.output_projection_flops() == 32
    assert cost.mlp_flops() == 128
    assert cost.layer_step_flops() == 3 * (3 * 32 + 32 + 128) + 3 * 63 == 957
    assert cost.kv_saving_per_token() == 64
    assert cost.o_saving_per_token() == 63


def test_flops_zero_reuse_saves_nothing():
    cfg, trace = generate_trace(mode="full")
    full, actual, fraction = flops_for_trace(trace, cfg)
    assert full == actual
    assert fraction == 0.0
    assert full == len(trace.decisions_flat()) * CostModel.from_config(cfg).layer_step_flops()


def test_flops_full_block_reuse_closed_form():
    cfg, _ = make_model(B=4)
    trace = synthetic_trace([
        [decision(0, reused=[], refreshed=[0, 1, 2, 3])],
        [decision(1, reused=[0, 1, 2, 3], refreshed=[])],
    ])
    cost = CostModel.from_config(cfg)
    full, actual, fraction = flops_for_trace(trace, cfg, "kv")
    assert full == 2 * cost.layer_step_flops()
    assert full - actual == 4 * (4 * cfg.d * cfg.d)
    assert fraction == (full - actual) / full


def test_flops_match_event_sum_oracle():
    cfg, trace = generate_trace(mode="kv", tau=2.0)
    cost = CostModel.from_config(cfg)
    full, actual, fraction = flops_for_trace(trace, cfg)
    decisions = trace.decisions_flat()
    full_oracle = len(decisions) * cost.layer_step_flops()
    saved_oracle = sum(cost.kv_saving_per_token() * d.reused_count
                       for d in decisions)
    assert saved_oracle > 0
    assert full == full_oracle
    assert actual == full_oracle - saved_oracle
    assert fraction == saved_oracle / full_oracle


def test_flops_o_mode_uses_attention_row_saving():
    cfg, trace = generate_trace(mode="o", tau=2.0)
    cost = CostModel.from_config(cfg)
    full, actual, _ = flops_for_trace(trace, cfg)
    saved_oracle = sum(cost.o_saving_per_token() * d.reused_count
                       for d in trace.decisions_flat())
    assert saved_oracle > 0
    assert full - actual == saved_oracle


def test_flops_fraction_monotone_in_reuse():
    cfg, _ = make_model(B=4)
    fractions = []
    for reused_tokens in ([], [0], [0, 1], [0, 1, 2, 3]):
        refreshed = [i for i in range(4) if i not in reused_tokens]
        trace = synthetic_trace([
            [decision(0, reused=[], refreshed=[0, 1, 2, 3])],
            [decision(1, reused=reused_tokens, refreshed=refreshed)],
        ])
        fractions.append(flops_for_trace(trace, cfg, "kv")[2])
    assert all(b > a for a, b in zip(fractions, fractions[1:]))


def test_flops_validation():
    cfg, trace = generate_trace(mode="full")
    with pytest.raises(ConfigError):
        flops_for_trace(trace, cfg, "turbo")
    with pytest.raises(DegenerateInputError):
        flops_for_trace(GenerationTrace(mode="full"), cfg)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_similarity_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    series = [rng.normal(size=(3, 5)) for _ in range(3)]
    sim = temporal_similarity(series)
    path = tmp_path / "sim.csv"
    similarity_csv(sim, path, run="demo")
    metadata, header, rows = read_csv_with_metadata(path)
    assert metadata["kind"] == "similarity"
    assert metadata["axis"] == "timestep"
    assert metadata["n"] == 3
    assert metadata["run"] == "demo"
    assert header == ["i", "j", "similarity"]
    assert len(rows) == 9
    for i, j, value in rows:
        assert float(value) == sim.entries[int(i), int(j)]


def test_histogram_csv_round_trip(tmp_path):
    hist = histogram_from_scores(np.array([0.0, 0.3, 0.31, 1.9]), layer=2,
                                 tau=0.5)
    path = tmp_path / "hist.csv"
    histogram_csv(hist, path)
    metadata, header, rows = read_csv_with_metadata(path)
    assert metadata["layer"] == 2
    assert metadata["tau"] == 0.5
    assert metadata["total"] == 4
    assert header == ["bin", "low", "high", "count"]
    assert rows[0][0] == "zero_mode"
    assert int(rows[0][3]) == 1
    assert len(rows) == 1 + HISTOGRAM_BINS
    assert sum(int(r[3]) for r in rows) == 4


def test_csv_round_trip_and_missing_metadata_line(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv_with_metadata(path, {"a": 1}, ("x",), [(1,), (2,)])
    assert path.read_text().splitlines()[0] == '# {"a": 1}'
    metadata, header, rows = read_csv_with_metadata(path)
    assert metadata == {"a": 1}
    assert header == ["x"]
    assert rows == [["1"], ["2"]]
    path.write_text("x\n1\n")
    with pytest.raises(DegenerateInputError):
        read_csv_with_metadata(path)
