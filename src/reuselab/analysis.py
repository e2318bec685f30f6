"""Redundancy diagnostics and FLOP accounting over generation traces.

Similarity matrices quantify how little activations move across steps or
layers; the drift histogram (``histogram_from_scores`` over
``drift_scores_for_layer``, pooled by ``drift.layerwise_drift`` as
calibration is) shows the score mass a threshold splits; and
``CostModel.ledger``, the one FLOP ledger of generate and bench, turns
reused rows into exact integer FLOP counts. Everything here is pure
post-processing over immutable
traces, emitted as CSV with a one-line JSON metadata header for external
plotting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .drift import layerwise_drift
from .errors import ConfigError, DegenerateInputError, DimensionError
from .model import ModelConfig

# Scores below this edge count as the zero mode (parked tokens whose
# queries did not move at all).
ZERO_MODE_EDGE = 1e-6
HISTOGRAM_BINS = 50
HISTOGRAM_RANGE = (0.0, 2.0)
# Counting conventions: a multiply-add is 2 FLOPs, softmax is 5 FLOPs per
# element. Totals are comparable across runs of this package, not across
# differently-counted reports.
SOFTMAX_FLOPS_PER_ELEMENT = 5

SIMILARITY_AXES = ("timestep", "layer")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square cosine-similarity matrix over one axis (timesteps or layers).

    Entries live in [-1, 1]; the matrix is symmetric with a unit diagonal
    up to float tolerance (1e-9), which __post_init__ enforces.
    """

    entries: np.ndarray
    axis: str

    def __post_init__(self) -> None:
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] == 0:
            raise DimensionError(f"similarity matrix must be square, got {e.shape}")
        if self.axis not in SIMILARITY_AXES:
            raise ConfigError(f"axis must be one of {SIMILARITY_AXES}, got {self.axis!r}")
        if np.abs(e).max() > 1.0 + 1e-9:
            raise DegenerateInputError("similarity entries must lie in [-1, 1]")
        if np.abs(e - e.T).max() > 1e-9:
            raise DegenerateInputError("similarity matrix must be symmetric")
        if np.abs(np.diag(e) - 1.0).max() > 1e-9:
            raise DegenerateInputError("similarity diagonal must be 1")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _similarity(matrices, axis: str) -> SimilarityMatrix:
    """Mean over token positions of the cosine between two slices' rows;
    a position whose row is zero in either slice is left out of that
    pair's mean."""
    if len(matrices) < 2:
        raise DegenerateInputError(
            f"need at least two {axis} slices, got {len(matrices)}"
        )
    arrays = [np.asarray(m, dtype=np.float64) for m in matrices]
    if any(a.ndim != 2 for a in arrays):
        raise DimensionError("every slice must be a 2-D token-by-feature matrix")
    if any(a.shape != arrays[0].shape for a in arrays):
        shapes = sorted({a.shape for a in arrays})
        raise DimensionError(f"inconsistent slice shapes: {shapes}")
    stack = np.stack(arrays)
    # Every row scaled to unit norm; zero rows stay zero and are invalid.
    norms = np.linalg.norm(stack, axis=2)
    valid = norms > 0.0
    units = np.zeros_like(stack)
    units[valid] = stack[valid] / norms[valid, None]
    dots = np.einsum("ibd,jbd->ij", units, units)
    counts = valid.astype(np.float64) @ valid.astype(np.float64).T
    if np.any(counts == 0.0):
        raise DegenerateInputError(
            "some slice pair has no token with nonzero rows in both"
        )
    entries = dots / counts
    return SimilarityMatrix(entries=np.clip(entries, -1.0, 1.0), axis=axis)


def temporal_similarity(activation_series) -> SimilarityMatrix:
    """Cosine similarity between activation snapshots at pairs of steps,
    averaged over positions (zero rows are skipped pairwise)."""
    return _similarity(activation_series, "timestep")


def cross_layer_similarity(value_caches) -> SimilarityMatrix:
    """Cosine similarity between per-layer caches of the same step."""
    return _similarity(value_caches, "layer")


@dataclass(frozen=True)
class DriftHistogram:
    """Binned drift scores for one layer, with the threshold that run used.

    ``counts`` covers 50 uniform bins on [0, 2]; scores below the zero-mode
    edge land in ``zero_mode_count`` instead of the first bin. ``tau`` is
    None when reuse was disabled at the layer.
    """

    layer: int
    counts: tuple
    bin_edges: tuple
    zero_mode_count: int
    total: int
    skipped_rows: int
    tau: float | None


def drift_scores_for_layer(trace, layer: int) -> tuple[np.ndarray, int]:
    """All consecutive-step query drift scores of one layer in a trace.

    Returns the scores plus the count of row pairs skipped because one side
    was exactly zero. Pairs never cross block boundaries, and a block of
    one step adds none. Each block's trajectory is cut down to the one
    layer, and ``layerwise_drift`` pools them as it pools calibration's.
    """
    one_layer = []
    for trajectory in trace.q_trajectories():
        if layer < 0 or (trajectory and layer >= len(trajectory[0])):
            raise DimensionError(f"layer {layer} out of range")
        one_layer.append([(step[layer],) for step in trajectory])
    _, skipped, (scores,) = layerwise_drift(one_layer)
    return scores, skipped


def histogram_from_scores(scores, layer: int, tau=None,
                          skipped_rows: int = 0) -> DriftHistogram:
    """Bin drift scores: a zero-mode bin below 1e-6, then 50 uniform bins."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise DegenerateInputError("need a non-empty 1-D score array")
    if scores.min() < 0.0 or scores.max() > HISTOGRAM_RANGE[1]:
        raise DegenerateInputError("drift scores must lie in [0, 2]")
    zero_mode = int((scores < ZERO_MODE_EDGE).sum())
    rest = scores[scores >= ZERO_MODE_EDGE]
    counts, edges = np.histogram(rest, bins=HISTOGRAM_BINS, range=HISTOGRAM_RANGE)
    return DriftHistogram(
        layer=layer,
        counts=tuple(int(c) for c in counts),
        bin_edges=tuple(float(e) for e in edges),
        zero_mode_count=zero_mode,
        total=int(scores.size),
        skipped_rows=skipped_rows,
        tau=tau,
    )


@dataclass(frozen=True)
class CostModel:
    """Exact integer FLOP formulas for one block of B tokens.

    Dense counting: every matrix multiply costs 2 FLOPs per multiply-add,
    softmax 5 FLOPs per element. The unembedding is shared by all modes and
    excluded.
    """

    d: int
    d_int: int
    B: int

    @classmethod
    def from_config(cls, config: ModelConfig) -> "CostModel":
        return cls(d=config.d, d_int=config.d_int, B=config.B)

    def kv_projection_flops(self) -> int:
        """One token through one of the Q/K/V projection matrices."""
        return 2 * self.d * self.d

    def attention_row_flops(self) -> int:
        """One query row: scores, softmax, and the value mix."""
        return 4 * self.B * self.d + SOFTMAX_FLOPS_PER_ELEMENT * self.B

    def output_projection_flops(self) -> int:
        """One token through the attention output projection."""
        return 2 * self.d * self.d

    def mlp_flops(self) -> int:
        """One token through the two MLP matrices."""
        return 4 * self.d * self.d_int

    def layer_step_flops(self) -> int:
        """Full cost of one layer at one step for the whole block."""
        per_token = (3 * self.kv_projection_flops()
                     + self.output_projection_flops() + self.mlp_flops())
        return self.B * per_token + self.B * self.attention_row_flops()

    def kv_saving_per_token(self) -> int:
        """Key and value projections skipped for one reused token."""
        return 2 * self.kv_projection_flops()

    def o_saving_per_token(self) -> int:
        """Attention row skipped for one reused token (projections still
        paid, since the fresh rows attend over fully recomputed K and V)."""
        return self.attention_row_flops()

    def saving_per_token(self, mode: str) -> int:
        """What one reused token saves in a mode; 0 in full mode."""
        savings = {"full": 0, "kv": self.kv_saving_per_token(),
                   "o": self.o_saving_per_token()}
        if mode not in savings:
            raise ConfigError(f"unknown mode {mode!r}")
        return savings[mode]

    def ledger(self, mode: str, layer_steps: int, reused: int):
        """Exact FLOP totals (full, actual, saved_fraction) of a run of
        ``layer_steps`` layer-steps that reused ``reused`` rows: exact
        integers, and their float ratio."""
        if not layer_steps:
            raise DegenerateInputError("trace records no layer-steps")
        full = layer_steps * self.layer_step_flops()
        saved = self.saving_per_token(mode) * reused
        return full, full - saved, saved / full


def flops_for_trace(trace, config: ModelConfig, mode=None):
    """``CostModel.ledger`` over a trace's decisions, in ``mode`` (the
    trace's own by default)."""
    decisions = trace.decisions_flat()
    return CostModel.from_config(config).ledger(
        trace.mode if mode is None else mode, len(decisions),
        sum(dec.reused_count for dec in decisions))


def write_csv_with_metadata(path, metadata: dict, header, rows) -> None:
    """Write rows as CSV preceded by one ``#``-prefixed JSON metadata line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def similarity_csv(sim: SimilarityMatrix, path, **extra_metadata) -> None:
    """Emit a similarity matrix in long form (i, j, similarity)."""
    metadata = {"kind": "similarity", "axis": sim.axis, "n": sim.n}
    metadata.update(extra_metadata)
    rows = [(i, j, repr(float(sim.entries[i, j])))
            for i in range(sim.n) for j in range(sim.n)]
    write_csv_with_metadata(path, metadata, ("i", "j", "similarity"), rows)


def histogram_csv(hist: DriftHistogram, path, **extra_metadata) -> None:
    """Emit a drift histogram, zero-mode bin first."""
    metadata = {
        "kind": "drift_histogram",
        "layer": hist.layer,
        "tau": hist.tau,
        "total": hist.total,
        "zero_mode_count": hist.zero_mode_count,
        "skipped_rows": hist.skipped_rows,
    }
    metadata.update(extra_metadata)
    rows = [("zero_mode", repr(0.0), repr(ZERO_MODE_EDGE), hist.zero_mode_count)]
    for b in range(HISTOGRAM_BINS):
        rows.append((str(b), repr(hist.bin_edges[b]), repr(hist.bin_edges[b + 1]),
                     hist.counts[b]))
    write_csv_with_metadata(path, metadata,
                            ("bin", "low", "high", "count"), rows)
