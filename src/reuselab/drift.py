"""Drift scoring, the reuse threshold, layerwise statistics, and
reuse-budget allocation.

A token's drift between consecutive denoising steps is one minus the cosine
of its head-0 query vectors. ``row_drift`` is the one kernel that scores it,
on whole query matrices, and rows that are exactly zero get an infinite
score. ``trajectory_drifts`` is the one pass that scores a trajectory's
consecutive steps with it (calibration, histograms and the bench replay all
read their scores from it), and ``below_threshold`` is the one reuse rule:
a finite score at most the layer threshold. The live gate (``reuse_set``)
and the bench replay both decide through it. Layers with low average drift
get a larger share of the global reuse budget phi_bar via a temperature
softmax, and each layer's threshold tau is an order statistic of its
calibration scores.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
)
from .linalg import (
    _SAFE_NORM_MAX,
    _SAFE_NORM_MIN,
    _norm_is_safe,
    cosine,
    softmax_rows,
)

# JSON spelling of the "no reuse at this layer" threshold (None in memory).
DISABLED = "disabled"
# Every key DriftProfile.to_json writes.
_PROFILE_KEYS = frozenset(("s_layer", "phi_layer", "tau_layer", "phi_bar",
                           "epsilon", "skipped_pairs"))


@dataclass(frozen=True)
class DriftProfile:
    """Calibration result: per-layer drift scores, quantiles, thresholds.

    ``tau_layer`` holds one entry per layer of ``s_layer`` (else
    DimensionError): a number >= 0, or None where the layer's budget
    rounded down to zero tokens (reuse disabled there); any other entry,
    NaN included, raises ConfigError.
    """

    s_layer: tuple[float, ...]
    phi_layer: tuple[float, ...]
    tau_layer: tuple  # float | None per layer
    phi_bar: float
    epsilon: float
    skipped_pairs: int = 0

    def __post_init__(self) -> None:
        check_thresholds(self.tau_layer, self.L)

    @property
    def L(self) -> int:
        return len(self.s_layer)

    def to_json(self) -> str:
        return json.dumps({
            "s_layer": list(self.s_layer),
            "phi_layer": list(self.phi_layer),
            "tau_layer": [DISABLED if t is None else t
                          for t in self.tau_layer],
            "phi_bar": self.phi_bar,
            "epsilon": self.epsilon,
            "skipped_pairs": self.skipped_pairs,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DriftProfile":
        """Parse what ``to_json`` writes.

        Raises:
            FormatError: if the text is not a JSON object with every key
                ``to_json`` writes, the three per-layer lists differ in
                length, a threshold is neither ``"disabled"`` nor a
                number >= 0 (NaN is not), an entry of s_layer or
                phi_layer, phi_bar or epsilon is not a real number (a
                bool is not), or skipped_pairs is not an int >= 0.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"profile is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FormatError("profile is not a JSON object")
        missing = sorted(_PROFILE_KEYS - data.keys())
        if missing:
            raise FormatError(f"profile lacks {missing}")
        per_layer = [data[k] for k in ("s_layer", "phi_layer", "tau_layer")]
        if not all(isinstance(v, list) for v in per_layer) \
                or len({len(v) for v in per_layer}) != 1:
            raise FormatError(
                "s_layer, phi_layer and tau_layer must be lists of one length")
        if not all(map(_is_real, [*data["s_layer"], *data["phi_layer"],
                                  data["phi_bar"], data["epsilon"]])):
            raise FormatError("s_layer, phi_layer, phi_bar and epsilon must "
                              "hold real numbers")
        skipped = data["skipped_pairs"]
        if type(skipped) is not int or skipped < 0:
            raise FormatError(f"skipped_pairs {skipped!r} is not an int >= 0")
        return cls(
            s_layer=tuple(data["s_layer"]),
            phi_layer=tuple(data["phi_layer"]),
            tau_layer=tuple(_parse_threshold(t) for t in data["tau_layer"]),
            phi_bar=data["phi_bar"],
            epsilon=data["epsilon"],
            skipped_pairs=skipped,
        )


def _is_real(v) -> bool:
    """A real number; a bool is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_threshold(t) -> bool:
    """The threshold rule: a real number (not a bool) >= 0. NaN fails the
    comparison, as it fails every one."""
    return _is_real(t) and t >= 0.0


def check_thresholds(taus, L) -> None:
    """Check one row of per-layer thresholds: L of them, or any number
    when L is None.

    Raises:
        DimensionError: ``taus`` is not a tuple or list of L entries.
        ConfigError: an entry is neither None (reuse disabled) nor a
            threshold (``is_threshold``).
    """
    if not isinstance(taus, (tuple, list)) \
            or L is not None and len(taus) != L:
        raise DimensionError(f"need {L} per-layer thresholds, got {taus!r}")
    for t in taus:
        if t is not None and not is_threshold(t):
            raise ConfigError(
                f"threshold {t!r} is neither None nor a number >= 0")


def _parse_threshold(t):
    """A stored threshold: None for the disabled sentinel, else a float."""
    if t == DISABLED:
        return None
    if not is_threshold(t):
        raise FormatError(
            f"threshold {t!r} is neither {DISABLED!r} nor a number >= 0")
    return float(t)


def drift_score(x_t, x_prev) -> float:
    """1 - cosine(x_t, x_prev); 0 means no rotation, 2 means antipodal."""
    return 1.0 - cosine(x_t, x_prev)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products, each taken by numpy's 1-D dot as in cosine."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_drift(cur, prev) -> np.ndarray:
    """Drift of every row pair: 1 - cosine(cur[i], prev[i]) as a vector.

    Each finite entry is bitwise equal to ``drift_score(cur[i], prev[i])``
    for rows whose entries are adjacent in memory, as in the head-0 column
    views the program passes (a strided row's dot, in ``drift_score``, can
    round differently); the entry is inf where either row is exactly zero
    (drift undefined). Rows whose plain norm would under- or overflow take
    the scalar path. Each entry depends on its own row pair only, so
    stacking row pairs into one call keeps every entry's bits.

    The two matrices are stacked into one array of the kernel's own, which
    is normalized in place, and the clamp and the subtraction from 1 run in
    place on the cosine vector, so neither argument is written to. The
    steps are those of ``cosine``, in its order, so they keep its bits:
    each row's norm and dot are numpy's 1-D dot (``_row_dots``), each row
    is divided by its norm, and the unit rows' dot is clamped into [-1, 1]
    (``minimum`` then ``maximum``, the two operations ``clip`` performs)
    before it is subtracted from 1.
    """
    cur = np.asarray(cur, dtype=np.float64)
    prev = np.asarray(prev, dtype=np.float64)
    if cur.ndim != 2 or cur.shape != prev.shape:
        raise DimensionError(
            f"query shape mismatch: {cur.shape} vs {prev.shape}")
    both = np.concatenate((cur, prev))
    n_rows = len(cur)
    with np.errstate(over="ignore", under="ignore", invalid="ignore",
                     divide="ignore"):
        norms = np.sqrt(_row_dots(both, both))
        both /= norms[:, None]
        c = _row_dots(both[:n_rows], both[n_rows:])
    np.minimum(c, 1.0, out=c)
    np.maximum(c, -1.0, out=c)
    # As in cosine: bitwise-equal rows have cosine exactly 1.
    c[(cur == prev).all(axis=1)] = 1.0
    s = np.subtract(1.0, c, out=c)
    # A zero row has norm 0, so one range test on all norms finds every
    # zero row as well as every row whose norm under- or overflowed.
    if norms.size and not (_SAFE_NORM_MIN < norms.min()
                           and norms.max() < _SAFE_NORM_MAX):
        zero = ~(cur.any(axis=1) & prev.any(axis=1))
        safe = _norm_is_safe(norms[:n_rows]) & _norm_is_safe(norms[n_rows:])
        s[zero] = np.inf
        for i in np.flatnonzero(~(safe | zero)):
            s[i] = drift_score(cur[i], prev[i])
    return s


def trajectory_drifts(trajectory) -> list:
    """Drift of every consecutive step pair of one trajectory.

    Each layer is scored in one ``row_drift`` call over all of its step
    pairs: the layer's steps are stacked into one matrix, which is scored
    against itself shifted by one step, and the result is split back per
    step. ``row_drift`` is row-local, so every score has the bits of
    scoring its pair alone.

    Args:
        trajectory: a list over timesteps of lists over layers of head-0
            query matrices (token rows).

    Returns:
        Per step pair (t - 1, t), per layer, the ``row_drift`` vector of
        step t against step t - 1 (inf on exactly zero rows). A trajectory
        of fewer than two steps has no pairs.

    Raises:
        DimensionError: two steps hold different numbers of layers, or a
            layer's query matrices differ in shape between steps.
    """
    if len(trajectory) < 2:
        return []
    if len({len(step) for step in trajectory}) != 1:
        raise DimensionError("inconsistent layer count in trace")
    per_layer = []
    for steps in zip(*trajectory):
        shapes = {np.shape(q) for q in steps}
        if len(shapes) != 1:
            raise DimensionError(f"query shape mismatch: {sorted(shapes)}")
        rows = len(steps[0])
        stacked = np.concatenate(steps)
        s = row_drift(stacked[rows:], stacked[:len(stacked) - rows])
        per_layer.append(s.reshape(len(steps) - 1, rows))
    return [list(step) for step in zip(*per_layer)]


def layerwise_drift(calibration_traces):
    """Drift scores per layer over all (step, token) pairs of all traces.

    Args:
        calibration_traces: iterable of traces; a trace is a trajectory as
            ``trajectory_drifts`` takes it. A trace of fewer than two
            timesteps adds no pairs.

    Returns:
        (s_layer, skipped_pairs, layer_scores): per-layer mean drift as a
        float array, the number of (t, i) pairs skipped because either
        query row was exactly zero, and per layer the finite scores in
        trace, step and token order.

    Raises:
        DegenerateInputError: some layer has no usable (step, token) pair
            (which includes no traces, or no trace of two timesteps).
        DimensionError: the traces hold different numbers of layers.
    """
    steps = [step for trace in calibration_traces
             for step in trajectory_drifts(trace)]
    if not steps:
        raise DegenerateInputError(
            "calibration found no pair of consecutive timesteps")
    if len({len(step) for step in steps}) != 1:
        raise DimensionError("inconsistent layer count in trace")
    per_layer = list(zip(*steps))
    s_layer = np.empty(len(per_layer))
    skipped = 0
    layer_scores = []
    for ell, parts in enumerate(per_layer):
        s = np.concatenate(parts)
        scores = s[np.isfinite(s)]
        skipped += s.size - scores.size
        if not scores.size:
            raise DegenerateInputError(
                "a layer had no usable (step, token) pairs")
        # Summed left to right (cumsum, not sum): the mean is part of
        # profile.json and must not depend on pairwise rounding.
        s_layer[ell] = np.cumsum(scores)[-1] / scores.size
        layer_scores.append(scores)
    return s_layer, skipped, layer_scores


def allocate_quantiles(s_layer, phi_bar: float, epsilon: float,
                       clamp: bool = True) -> np.ndarray:
    """Per-layer reuse quantiles phi = L * phi_bar * softmax(-s / epsilon).

    Low-drift layers receive more budget. With clamp=True (the default)
    each phi is clipped into [0, 1] and clip events are logged; the
    unclamped values always sum to L * phi_bar.
    """
    s = np.asarray(s_layer, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise DimensionError("s_layer must be a non-empty vector")
    if epsilon <= 0.0:
        raise DegenerateInputError("epsilon must be > 0")
    if not 0.0 <= phi_bar <= 1.0:
        raise DegenerateInputError("phi_bar must lie in [0, 1]")
    weights = softmax_rows((-s / epsilon)[None, :])[0]
    phi = s.size * phi_bar * weights
    if clamp:
        over = int((phi > 1.0).sum())
        if over:
            # Imported here: nothing else needs logging, and start-up
            # should not pay for it.
            import logging
            logging.getLogger(__name__).info(
                "allocate_quantiles: clamped %d layer(s) to 1.0", over)
        phi = np.clip(phi, 0.0, 1.0)
    return phi


def quantile_threshold(scores, phi: float):
    """The floor(phi * n)-th smallest score, or None when that is zero.

    A stable sort resolves ties, so at least floor(phi * n) scores are
    <= the returned threshold.
    """
    a = np.asarray(scores, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise DimensionError("scores must be a non-empty vector")
    if not 0.0 <= phi <= 1.0:
        raise DegenerateInputError("phi must lie in [0, 1]")
    k = math.floor(phi * a.size)
    if k == 0:
        return None
    ordered = np.sort(a, kind="stable")
    return float(ordered[k - 1])


def below_threshold(scores, tau) -> np.ndarray:
    """Indices of the drift scores that are finite and <= tau: the reuse
    rule of the live gate and of the bench replay.

    ``tau`` is one threshold for every score, None (reuse disabled: no
    row), or a vector of one threshold per score, as a stack of blocks
    with their own thresholds gives the live gate; no score is <= a -inf
    entry. inf (a zero row) and NaN fail ``s <= tau`` for every finite
    tau; only an infinite tau needs them masked out, which a vector's
    mask does for every entry.
    """
    if tau is None:
        return np.empty(0, dtype=np.int64)
    keep = scores <= tau
    if type(tau) is np.ndarray or tau == math.inf:
        keep &= np.isfinite(scores)
    return keep.nonzero()[0]


def reuse_set(q_t, q_prev, tau) -> np.ndarray:
    """Token indices whose head-0 query drift is <= tau, one threshold
    or one per row as ``below_threshold`` takes it.

    Returns an empty set when tau is the disabled sentinel (None) or when
    there is no previous step yet. Rows that are exactly zero on either
    side are never reused (their drift is undefined), whatever tau is.
    """
    if tau is None or q_prev is None:
        return np.empty(0, dtype=np.int64)
    return below_threshold(row_drift(q_t, q_prev), tau)
