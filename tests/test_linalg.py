"""Tests for the dense linear-algebra layer.

The spectral quantities are checked against an independent one-sided
Jacobi SVD written here in the test, so library and oracle share no code
path.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reuselab.errors import (
    DegenerateInputError,
    DimensionError,
    SingularMatrixError,
)
from reuselab.linalg import (
    condition_kappa,
    cosine,
    frobenius_norm,
    min_singular,
    norm_2_to_1_upper,
    norm_2_to_inf,
    normalize_rows_sqrt_d,
    softmax_rows,
    spectral_norm,
)


def all_nonzero_entries_normal(*vectors):
    """True when no vector holds a subnormal entry."""
    tiny = np.finfo(np.float64).tiny
    return all((np.abs(x[x != 0.0]) >= tiny).all() for x in vectors)


def jacobi_singular_values(a, tol=1e-14, max_sweeps=100):
    """One-sided (Hestenes) Jacobi SVD; returns singular values descending.

    Rotates column pairs until all pairs are numerically orthogonal; the
    singular values are then the column norms.
    """
    u = np.array(a, dtype=float)
    if u.shape[0] < u.shape[1]:
        u = u.T.copy()
    n = u.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci = u[:, i].copy()
                cj = u[:, j].copy()
                alpha = ci @ ci
                beta = cj @ cj
                gamma = ci @ cj
                if alpha == 0.0 or beta == 0.0:
                    continue
                off = max(off, abs(gamma) / math.sqrt(alpha * beta))
                if abs(gamma) <= tol * math.sqrt(alpha * beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (
                    abs(zeta) + math.hypot(1.0, zeta))
                cs = 1.0 / math.hypot(1.0, t)
                sn = cs * t
                u[:, i] = cs * ci - sn * cj
                u[:, j] = sn * ci + cs * cj
        if off <= tol:
            break
    return np.sort(np.linalg.norm(u, axis=0))[::-1]


# ---------------------------------------------------------------------------
# row_softmax
# ---------------------------------------------------------------------------

def test_row_softmax_symmetric_row():
    out = softmax_rows(np.array([[0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_row_softmax_extreme_logits_no_overflow():
    out = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(out).all()
    assert out[0, 0] > 1.0 - 1e-12
    assert out[0, 1] < 1e-12


def test_row_softmax_matches_scalar_oracle():
    # Direct exp/sum on small logits, no max shift needed at this scale.
    logits = [1.0, 2.0, 3.0]
    den = sum(math.exp(v) for v in logits)
    want = [math.exp(v) / den for v in logits]
    got = softmax_rows(np.array([logits]))[0]
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=200)
@given(hnp.arrays(np.float64, (3, 4),
                  elements=st.floats(-50.0, 50.0)))
def test_row_softmax_rows_are_distributions(a):
    before = a.copy()
    out = softmax_rows(a)
    assert (out >= 0.0).all()
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
    # The in-place steps run on the function's own copy.
    assert np.array_equal(a.view(np.int64), before.view(np.int64))


@pytest.mark.parametrize("shape", [(6, 5), (3, 4, 5), (2, 3, 2, 5)])
def test_row_softmax_out_writes_its_own_bits_into_the_buffer(shape):
    # One row in three holds -inf entries (never all of them), as masked
    # or padded logits do.
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(scale=10.0, size=shape)
    rows = a.reshape(-1, shape[-1])
    rows[::3, rng.integers(0, shape[-1], size=2)] = -np.inf
    before = a.copy()
    want = softmax_rows(a)
    assert np.array_equal(a.view(np.int64), before.view(np.int64))
    # The last axis holds the rows, with the bits of the 2-D form.
    flat = softmax_rows(before.reshape(-1, shape[-1])).reshape(shape)
    assert np.array_equal(want.view(np.int64), flat.view(np.int64))
    assert softmax_rows(a, out=a) is a
    assert np.array_equal(a.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# row_normalize_sqrt_d
# ---------------------------------------------------------------------------

def test_row_normalize_three_four():
    out = normalize_rows_sqrt_d(np.array([[3.0, 4.0]]))[0]
    want = np.array([3.0 / 5.0, 4.0 / 5.0]) * math.sqrt(2.0)
    assert np.max(np.abs(out - want)) < 1e-15


def test_row_normalize_idempotent_on_normalized_row():
    row = np.array([[1.0, 1.0, 1.0, 1.0]])  # norm 2 = sqrt(4)
    out = normalize_rows_sqrt_d(row)
    assert np.max(np.abs(out - row)) < 1e-15


def test_row_normalize_rejects_zero_row():
    with pytest.raises(DegenerateInputError):
        normalize_rows_sqrt_d(np.array([[1.0, 0.0], [0.0, 0.0]]))


@settings(max_examples=200)
@given(hnp.arrays(np.float64, (2, 5),
                  elements=st.floats(-100.0, 100.0)))
def test_row_normalize_norms_and_direction(a):
    if not a.any(axis=1).all():
        with pytest.raises(DegenerateInputError):
            normalize_rows_sqrt_d(a)
        return
    out = normalize_rows_sqrt_d(a)
    assert np.max(np.abs(np.linalg.norm(out, axis=1)
                         - math.sqrt(5.0))) < 1e-12
    for row_in, row_out in zip(a, out):
        assert cosine(row_in, row_out) > 1.0 - 1e-12


# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------

def test_cosine_reference_values():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert abs(cosine([1.0, 0.0], [0.0, 1.0])) < 1e-15
    assert abs(cosine([1.0, 0.0], [1.0, 1.0]) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert cosine([1.0, 0.0], [-2.0, 0.0]) == -1.0


def test_cosine_rejects_zero_vector():
    with pytest.raises(DegenerateInputError):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_cosine_length_mismatch():
    with pytest.raises(DimensionError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


@settings(max_examples=200)
@given(
    hnp.arrays(np.float64, (4,), elements=st.floats(-10.0, 10.0)),
    hnp.arrays(np.float64, (4,), elements=st.floats(-10.0, 10.0)),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
)
def test_cosine_positive_scale_invariance(u, v, a, b):
    if not u.any() or not v.any():
        return
    # Scaling a subnormal entry rounds it off its ratio to the others (or
    # to zero), so the direction itself changes; the property needs the
    # scaled vectors to stay in the normal range.
    assume(all_nonzero_entries_normal(u, v, a * u, b * v))
    base = cosine(u, v)
    scaled = cosine(a * u, b * v)
    assert abs(base - scaled) < 1e-12
    assert -1.0 <= scaled <= 1.0


# ---------------------------------------------------------------------------
# float64 extremes: norms of unscaled data would under- or overflow here
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200, 1e300])
def test_cosine_at_float64_extremes(scale):
    u = scale * np.array([1.0, 0.0, 1.0])
    v = scale * np.array([1.0, 1.0, 0.0])
    assert abs(cosine(u, v) - 0.5) < 1e-15
    assert abs(cosine(u, -u) + 1.0) < 1e-15
    assert cosine(u, u.copy()) == 1.0
    # Mixed magnitudes: only the direction matters.
    assert abs(cosine(u, [1.0, 1.0, 0.0]) - 0.5) < 1e-15


@pytest.mark.filterwarnings("error")
def test_cosine_of_subnormal_vectors():
    tiny = 5e-324  # smallest subnormal
    assert cosine([tiny, 0.0], [tiny, tiny]) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-15)
    assert cosine([tiny, 0.0], [0.0, tiny]) == 0.0


def test_cosine_extremes_still_reject_exact_zero():
    for zero in ([0.0, 0.0], [0.0, -0.0]):
        with pytest.raises(DegenerateInputError):
            cosine(zero, [1e-200, 0.0])
        with pytest.raises(DegenerateInputError):
            cosine([1e200, 0.0], zero)


@pytest.mark.filterwarnings("error")
def test_normalize_rows_at_float64_extremes():
    a = np.array([
        [1e200, -2e200, 3e200, 0.0],
        [5e-324, 0.0, 1e-323, 0.0],      # subnormal entries only
        [1e-160, 2e-160, 0.0, 0.0],
        [1e308, 1e308, 1e308, 1e308],
        [1.0, 2.0, 3.0, 4.0],
    ])
    out = normalize_rows_sqrt_d(a)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 2.0)) < 1e-12
    for row_in, row_out in zip(a, out):
        assert cosine(row_in, row_out) > 1.0 - 1e-12
    assert np.array_equal(out[1], [2.0 / math.sqrt(5.0), 0.0,
                                   4.0 / math.sqrt(5.0), 0.0])


def test_normalize_rows_extremes_still_reject_exact_zero():
    with pytest.raises(DegenerateInputError):
        normalize_rows_sqrt_d(np.array([[1e200, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateInputError):
        normalize_rows_sqrt_d(np.array([[5e-324, 0.0], [-0.0, 0.0]]))


# ---------------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------------

def test_spectral_identity_and_diagonal():
    assert abs(spectral_norm(np.eye(4)) - 1.0) < 1e-10
    diag = np.array([[3.0, 0.0], [0.0, 1.0]])
    assert abs(spectral_norm(diag) - 3.0) < 1e-10
    assert abs(min_singular(diag) - 1.0) < 1e-10
    assert abs(condition_kappa(diag) - 3.0) < 1e-9
    assert abs(condition_kappa(np.eye(4)) - 1.0) < 1e-9


def test_spectral_zero_matrix():
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_known_closed_form():
    # Singular values of [[1,1],[0,1]] are the golden ratio and its inverse.
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert abs(spectral_norm(m) - phi) < 1e-10
    assert abs(min_singular(m) - 1.0 / phi) < 1e-10


@pytest.mark.parametrize("seed,shape", [
    (0, (8, 8)), (1, (8, 8)), (2, (8, 8)), (3, (5, 3)), (4, (3, 5)),
])
def test_spectral_matches_jacobi_oracle(seed, shape):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    svals = jacobi_singular_values(a)
    assert abs(spectral_norm(a) - svals[0]) < 1e-8
    if shape[0] >= shape[1]:
        assert abs(min_singular(a) - svals[-1]) < 1e-8


def test_min_singular_rejects_wide_and_rank_deficient():
    with pytest.raises(SingularMatrixError):
        min_singular(np.zeros((2, 3)))
    rank1 = np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    with pytest.raises(SingularMatrixError):
        min_singular(rank1)
    with pytest.raises(SingularMatrixError):
        condition_kappa(rank1)


def test_spectral_dominates_random_unit_vectors():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((8, 8))
    sigma = spectral_norm(a)
    vs = rng.standard_normal((1000, 8))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    stretch = np.linalg.norm(vs @ a.T, axis=1)
    assert stretch.max() <= sigma * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# row-norm based operator norms
# ---------------------------------------------------------------------------

def test_row_norm_operators_identity():
    assert norm_2_to_inf(np.eye(3)) == 1.0
    assert norm_2_to_1_upper(np.eye(3)) == 3.0


def test_row_norm_operators_single_row():
    m = np.array([[3.0, 4.0]])
    assert norm_2_to_inf(m) == 5.0
    assert norm_2_to_1_upper(m) == 5.0


def test_row_norm_operators_two_rows():
    m = np.array([[3.0, 4.0], [0.0, 5.0]])
    assert norm_2_to_inf(m) == 5.0
    assert norm_2_to_1_upper(m) == 10.0


def test_norm_2_to_inf_attained_by_worst_row():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 4))
    norms = np.linalg.norm(a, axis=1)
    worst = a[int(np.argmax(norms))]
    v = worst / np.linalg.norm(worst)
    assert abs(np.max(np.abs(a @ v)) - norm_2_to_inf(a)) < 1e-12


def test_norm_2_to_1_upper_dominates_random_unit_vectors():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((6, 4))
    bound = norm_2_to_1_upper(a)
    vs = rng.standard_normal((1000, 4))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    l1 = np.abs(vs @ a.T).sum(axis=1)
    assert l1.max() <= bound + 1e-12


def test_frobenius_norm_simple():
    assert abs(frobenius_norm(np.array([[3.0, 4.0]])) - 5.0) < 1e-15


# ---------------------------------------------------------------------------
# matrix norms at float64 extremes
# ---------------------------------------------------------------------------

MATRIX_NORMS = (norm_2_to_inf, norm_2_to_1_upper, frobenius_norm,
                spectral_norm)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", MATRIX_NORMS)
@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1e160, 1e200,
                                   1e300])
def test_matrix_norms_at_float64_extremes(norm, scale):
    # One row [s, s]: every one of these norms is sqrt(2) * s.
    got = norm(np.array([[scale, scale]]))
    assert got == pytest.approx(math.sqrt(2.0) * scale, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_matrix_norms_of_mixed_magnitudes():
    # Rows far apart in scale: each row norm comes out whole.
    approx = functools.partial(pytest.approx, rel=1e-15)
    a = np.array([[3e200, 4e200], [3e-170, 4e-170], [5e-324, 0.0]])
    assert norm_2_to_inf(a) == approx(5e200)
    assert norm_2_to_1_upper(a) == approx(5e200)
    assert frobenius_norm(a) == approx(5e200)
    assert spectral_norm(a) == pytest.approx(5e200, rel=1e-10)
    tiny = np.array([[3e-170, 0.0], [0.0, 4e-170], [5e-324, 0.0]])
    assert norm_2_to_inf(tiny) == approx(4e-170)
    assert norm_2_to_1_upper(tiny) == approx(7e-170)
    assert frobenius_norm(tiny) == approx(5e-170)
    assert spectral_norm(tiny) == pytest.approx(4e-170, rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", MATRIX_NORMS)
def test_matrix_norms_of_zero_matrix(norm):
    assert norm(np.zeros((3, 2))) == 0.0


def test_matrix_norms_keep_plain_bits_in_safe_range():
    rng = np.random.default_rng(8)
    for scale in (1e-100, 1e-3, 1.0, 1e3, 1e100):
        a = rng.standard_normal((7, 5)) * scale
        rows = np.linalg.norm(a, axis=1)
        assert norm_2_to_inf(a) == float(rows.max())
        assert norm_2_to_1_upper(a) == float(rows.sum())
        assert frobenius_norm(a) == float(np.linalg.norm(a))
