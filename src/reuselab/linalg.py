"""Minimal dense real linear algebra used by the rest of the package.

All computation is float64. The heavy lifting (products, reductions) is
delegated to numpy; the spectral-norm routine is a hand-rolled power
iteration so its tolerance and determinism are under our control.

The array kernels (``softmax_rows``, ``normalize_rows_sqrt_d``, ``cosine``)
operate on plain ``np.ndarray``; the model, drift and reuse code call them
directly. Every routine that takes a Euclidean norm (the kernels above and
the matrix norms below) rescales by an exact power of two where the plain
norm would under- or overflow, and keeps the plain result bit for bit
where it would not.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, DimensionError, SingularMatrixError

# Fixed stream for the power-iteration start vector: results must not change
# from run to run.
_POWER_ITER_SEED = 0x5EED
_POWER_ITER_RTOL = 1e-12
_POWER_ITER_MAX_STEPS = 100_000

# Plain Euclidean norms inside this open range neither under- nor
# overflow in their squares; outside it the data is rescaled first.
_SAFE_NORM_MIN = 1e-140
_SAFE_NORM_MAX = 1e140

# Below sigma_min < _RANK_RTOL * sigma_max the matrix is treated as rank
# deficient.
_RANK_RTOL = 1e-12


def _as_array(m) -> np.ndarray:
    """Accept anything array-like; return a float64 2-D array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={a.ndim}")
    return a


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _power_of_two_scale(a: np.ndarray, axis=None):
    """(a * 2**-e, e) for the power of two e that brings max |a| into
    [0.5, 1), over the whole array or along ``axis`` (e keeps that axis).

    Exact, so directions are unchanged. Meant for nonzero finite input;
    zero and non-finite input come back as they were, with e = 0.
    """
    _, exp = np.frexp(np.abs(a).max(axis=axis, keepdims=axis is not None))
    return np.ldexp(a, -exp), exp


def _norm_is_safe(norm):
    """Whether a plain Euclidean norm is free of under- and overflow."""
    return (norm > _SAFE_NORM_MIN) & (norm < _SAFE_NORM_MAX)


def normalize_rows_sqrt_d(a: np.ndarray) -> np.ndarray:
    """Rescale every row to Euclidean norm sqrt(cols).

    Rows too small or too large for a plain norm are scaled exactly by a
    power of two first, so every nonzero finite row comes out at sqrt(cols).

    Raises:
        DegenerateInputError: if any row is exactly zero.
    """
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(a, axis=1)
    unsafe = ~_norm_is_safe(norms)
    if unsafe.any():
        rows = a[unsafe]
        if not rows.any(axis=1).all():
            raise DegenerateInputError("cannot normalize a zero row")
        a = a.copy()
        a[unsafe] = rows = _power_of_two_scale(rows, axis=1)[0]
        norms[unsafe] = np.linalg.norm(rows, axis=1)
    return a * (math.sqrt(a.shape[1]) / norms)[:, None]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row; a row whose plain norm would under- or
    overflow is scaled exactly by a power of two first, and the power is
    put back on its norm. Zero rows have norm 0."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(a, axis=1)
    unsafe = ~_norm_is_safe(norms)
    if unsafe.any():
        rows, exp = _power_of_two_scale(a[unsafe], axis=1)
        norms[unsafe] = np.ldexp(np.linalg.norm(rows, axis=1), exp[:, 0])
    return norms


def _scaled_with_norm(a: np.ndarray):
    """(a, ||a||), with a scaled by a power of two if its norm is unsafe."""
    norm = math.sqrt(a.dot(a))  # what np.linalg.norm computes, cheaper
    if _norm_is_safe(norm):
        return a, norm
    if not a.any():
        raise DegenerateInputError("cosine of a zero vector is undefined")
    a = _power_of_two_scale(a)[0]
    return a, math.sqrt(a.dot(a))


def cosine(u, v) -> float:
    """Cosine of the angle between two vectors, clamped into [-1, 1].

    Computed on pre-normalized copies so that very small or very large
    inputs do not overflow the intermediate dot product; vectors whose
    plain norm would under- or overflow are first scaled exactly by a
    power of two.

    Raises:
        DegenerateInputError: if either vector is exactly zero.
    """
    ua = np.asarray(u, dtype=np.float64).reshape(-1)
    va = np.asarray(v, dtype=np.float64).reshape(-1)
    if ua.shape != va.shape:
        raise DimensionError(f"vector length mismatch: {ua.size} vs {va.size}")
    with np.errstate(over="ignore", under="ignore"):
        ua, nu = _scaled_with_norm(ua)
        va, nv = _scaled_with_norm(va)
    # Bitwise-equal inputs have cosine exactly 1; the normalized dot
    # product can round a hair below it, which matters to zero thresholds.
    if (ua == va).all():
        return 1.0
    c = float(np.dot(ua / nu, va / nv))
    return min(1.0, max(-1.0, c))


def spectral_norm(m) -> float:
    """Largest singular value via power iteration on M^T M.

    Deterministic (fixed-seed start vector); iterates until the Rayleigh
    quotient is stable to better than the documented 1e-10 relative
    tolerance.
    """
    a = _as_array(m)
    if a.size == 0:
        return 0.0
    # The Gram matrix squares the entries: where that would under- or
    # overflow, work on a * 2**-exp and scale sigma back at the end.
    exp = 0
    with np.errstate(over="ignore", under="ignore"):
        unsafe = not _norm_is_safe(np.linalg.norm(a))
    if unsafe and a.any():
        a, e = _power_of_two_scale(a)
        exp = int(e)
    # Work on the smaller Gram matrix of the two.
    g = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    n = g.shape[0]
    rng = np.random.default_rng(_POWER_ITER_SEED)
    v = rng.standard_normal(n)
    v /= math.sqrt(v.dot(v))  # what np.linalg.norm computes, cheaper
    lam = 0.0
    for _ in range(_POWER_ITER_MAX_STEPS):
        w = g @ v
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            return 0.0  # v in the null space of a PSD Gram matrix => M == 0
        v_new = w / nw
        lam_new = float(v_new @ (g @ v_new))
        if abs(lam_new - lam) <= _POWER_ITER_RTOL * max(lam_new, 1e-300):
            return math.ldexp(math.sqrt(max(lam_new, 0.0)), exp)
        v, lam = v_new, lam_new
    return math.ldexp(math.sqrt(max(lam, 0.0)), exp)


def min_singular(m) -> float:
    """Smallest singular value (full column rank required).

    Uses a full small-matrix SVD; desk-scale dimensions (<= 64) make this
    cheap, and the hand-rolled power iteration above stays in charge of
    sigma_max.

    Raises:
        SingularMatrixError: if sigma_min < 1e-12 * sigma_max.
    """
    a = _as_array(m)
    if a.shape[0] < a.shape[1]:
        raise SingularMatrixError(
            f"{a.shape[0]}x{a.shape[1]} matrix cannot have full column rank"
        )
    s = np.linalg.svd(a, compute_uv=False)
    smin = float(s[-1])
    smax = float(s[0])
    if smin < _RANK_RTOL * smax or smax == 0.0:
        raise SingularMatrixError(
            f"rank-deficient matrix: sigma_min={smin:.3e}, sigma_max={smax:.3e}"
        )
    return smin


def condition_kappa(m) -> float:
    """Condition number sigma_max / sigma_min (>= 1).

    sigma_max comes from the power iteration, sigma_min from the SVD; the
    ratio is floored at 1.0 to absorb the <=1e-10 cross-method slack.
    """
    kappa = spectral_norm(m) / min_singular(m)
    return max(kappa, 1.0)


def norm_2_to_inf(m) -> float:
    """The 2->inf operator norm: the maximum Euclidean row norm (exact)."""
    a = _as_array(m)
    if a.size == 0:
        return 0.0
    return float(_row_norms(a).max())


def norm_2_to_1_upper(m) -> float:
    """Upper bound on the 2->1 operator norm: the sum of row norms.

    The exact 2->1 norm is intractable in general; the sum of row norms
    dominates it, which is the direction the error bounds need.
    """
    a = _as_array(m)
    if a.size == 0:
        return 0.0
    return float(_row_norms(a).sum())


def frobenius_norm(m) -> float:
    """Frobenius norm (plumbing helper for the bound constants)."""
    a = _as_array(m)
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(a)
    if _norm_is_safe(norm) or not a.any():
        return float(norm)
    scaled, exp = _power_of_two_scale(a)
    return float(np.ldexp(np.linalg.norm(scaled), exp))
