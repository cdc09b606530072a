"""QR factorization, rank detection, and the least-squares solve behind ``ols_fit``."""

import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from parseal import DesignMatrix, ModelFit, ols_fit, qr_factorize, stats, vif
from parseal.errors import (
    EmptyMatrix,
    LengthMismatch,
    NonFinite,
    PerfectCollinearity,
    RankDeficient,
    ZeroVariance,
)
from parseal.linalg import RANK_TOL, QRFactorization, _solve_from_factorization


def philox(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def test_qr_identity_is_full_rank():
    fact = qr_factorize(DesignMatrix(np.eye(3)))
    assert fact.rank == 3
    np.testing.assert_allclose(np.abs(np.diag(fact.r)), np.ones(3), atol=1e-15)


def test_qr_zero_column_drops_rank():
    x = np.zeros((4, 2))
    x[:, 0] = [1.0, 2.0, 3.0, 4.0]
    assert qr_factorize(DesignMatrix(x)).rank == 1


def test_qr_reconstructs_the_permuted_matrix():
    # Oracle: multiply the factors back together.
    x = philox(101).normal(size=(50, 5))
    design = DesignMatrix(x)
    fact = qr_factorize(design)
    reconstructed = fact.q @ fact.r
    err = np.linalg.norm(reconstructed - x[:, fact.pivot])
    assert err <= 1e-10 * np.linalg.norm(x)
    assert fact.rank == 5


def test_qr_q_has_orthonormal_columns():
    x = philox(102).normal(size=(40, 4))
    fact = qr_factorize(DesignMatrix(x))
    gram = fact.q.T @ fact.q
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def solve(x, y):
    """Coefficients and residual of the full-rank QR solve ``ols_fit`` and the search use."""
    design = DesignMatrix(x)
    return _solve_from_factorization(qr_factorize(design), design, np.asarray(y, dtype=float))


def test_solve_single_column_exact():
    coefficients, residual = solve([[1.0], [2.0]], [2.0, 4.0])
    np.testing.assert_allclose(coefficients, [2.0], atol=1e-14)
    assert float(residual @ residual) <= 1e-28


def test_solve_identity_returns_y():
    coefficients, _ = solve(np.eye(2), [3.0, 5.0])
    np.testing.assert_allclose(coefficients, [3.0, 5.0], atol=1e-14)


def test_solve_matches_normal_equations_oracle():
    rng = philox(103)
    x = rng.normal(size=(100, 4))
    beta_true = np.array([1.0, -2.0, 0.5, 3.0])
    y = x @ beta_true + 0.1 * rng.normal(size=100)
    oracle = np.linalg.solve(x.T @ x, x.T @ y)
    resid = y - x @ oracle
    coefficients, residual = solve(x, y)
    np.testing.assert_allclose(coefficients, oracle, rtol=1e-10)
    assert abs(float(residual @ residual) - float(resid @ resid)) <= 1e-9
    # ols_fit solves the same way, with the intercept as one more column.
    design = np.column_stack([np.ones(100), x])
    oracle = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ oracle
    fit = ols_fit(DesignMatrix(design, has_intercept=True), y)
    np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-10)
    assert abs(float(fit.residuals @ fit.residuals) - float(resid @ resid)) <= 1e-9


def test_solve_duplicate_column_raises_rank_deficient():
    rng = philox(104)
    col = rng.normal(size=30)
    x = np.column_stack([col, col, rng.normal(size=30)])
    with pytest.raises(RankDeficient) as excinfo:
        ols_fit(DesignMatrix.with_intercept(x), rng.normal(size=30))
    assert excinfo.value.rank == 3


def test_residual_is_orthogonal_to_every_column():
    rng = philox(105)
    x = rng.normal(size=(80, 5)) * np.array([1.0, 10.0, 0.1, 100.0, 1.0])
    y = rng.normal(size=80) * 5.0
    design = DesignMatrix.with_intercept(x)
    fit = ols_fit(design, y)
    coefficients, residual = solve(x, y)
    np.testing.assert_array_equal(residual, y - x @ coefficients)
    norm_y = np.linalg.norm(y)
    for values, resid in ((design.values, fit.residuals), (x, residual)):
        for j in range(values.shape[1]):
            bound = 1e-8 * norm_y * np.linalg.norm(values[:, j])
            assert abs(float(values[:, j] @ resid)) <= bound


def test_solution_is_equivariant_under_column_permutation():
    rng = philox(106)
    x = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    base = ols_fit(DesignMatrix.with_intercept(x), y)
    perm = [2, 0, 3, 1]
    permuted = ols_fit(DesignMatrix.with_intercept(x[:, perm]), y)
    np.testing.assert_allclose(permuted.coefficients[1:], base.coefficients[1:][perm], rtol=1e-9)
    assert permuted.coefficients[0] == pytest.approx(base.coefficients[0], rel=1e-9)
    rss = float(base.residuals @ base.residuals)
    assert float(permuted.residuals @ permuted.residuals) == pytest.approx(rss, rel=1e-12)


def test_design_matrix_rejects_nan_and_empty():
    with pytest.raises(NonFinite):
        DesignMatrix([[1.0, np.nan], [2.0, 3.0]])
    with pytest.raises(EmptyMatrix):
        DesignMatrix(np.empty((0, 2)))
    with pytest.raises(EmptyMatrix):
        DesignMatrix(np.empty((3, 0)))


def test_solve_rejects_bad_response():
    design = DesignMatrix.with_intercept(np.arange(4.0))
    with pytest.raises(NonFinite):
        ols_fit(design, [1.0, np.inf, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        ols_fit(design, [1.0, 2.0, 3.0])


def test_rank_detection_sweep_against_constructed_deficiency():
    # Build matrices with known rank r by multiplying (n, r) and (r, k) factors.
    rng = philox(107)
    for trial in range(10):
        n, k = 40, 6
        r = 1 + trial % 5
        left = rng.normal(size=(n, r))
        right = rng.normal(size=(r, k))
        fact = qr_factorize(DesignMatrix(left @ right))
        assert fact.rank == r


# ---------------------------------------------------------------------------
# The LAPACK calls against scipy.linalg's wrappers
# ---------------------------------------------------------------------------


def _scipy_qr_factorize(x):
    """``qr_factorize`` through ``scipy.linalg.qr``, with the same rank rule."""
    q, r, pivot = scipy.linalg.qr(x.values, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = 0 if diag[0] == 0.0 else int(np.count_nonzero(diag > RANK_TOL * diag[0]))
    return QRFactorization(q=q, r=r, pivot=pivot, rank=rank)


def _scipy_vif(columns):
    """``vif``'s arithmetic with scipy.linalg's ``cho_factor`` and ``cho_solve``."""
    x = np.asarray(columns, dtype=np.float64)
    k = x.shape[1]
    if k == 1:
        return np.array([1.0])
    _, exponents = np.frexp(np.max(np.abs(x), axis=0))
    x = np.ldexp(x, -exponents)
    centered = x - x.mean(axis=0)
    norms = np.sqrt(np.sum(centered * centered, axis=0))
    if np.any(norms == 0.0):
        raise ZeroVariance("vif is undefined for a constant column")
    scaled = centered / norms
    try:
        cho = scipy.linalg.cho_factor(scaled.T @ scaled, lower=False, check_finite=False)
    except np.linalg.LinAlgError:
        raise PerfectCollinearity(
            "predictor correlation matrix is singular (exactly collinear columns)"
        ) from None
    factors = np.diag(scipy.linalg.cho_solve(cho, np.eye(k), check_finite=False)).copy()
    worst = int(np.argmax(factors))
    if factors[worst] * (1.0 - stats._COLLINEARITY_R2) >= 1.0:
        raise PerfectCollinearity(
            f"auxiliary regression for column {worst} has R^2 >= 1 - 1e-12 "
            f"(vif {factors[worst]:.3g})"
        )
    return factors


def _outcome(call, *args):
    """Every array a call returns, as bytes, or the class and text of its error."""
    try:
        value = call(*args)
    except Exception as error:  # the oracle must fail the same way
        return type(error), str(error)
    if isinstance(value, ModelFit):
        value = (value.coefficients, value.std_errors, value.vifs, value.residuals)
    elif isinstance(value, QRFactorization):
        value = (value.q, value.r, value.pivot, np.array(value.rank))
    values = value if isinstance(value, tuple) else (value,)
    return [(v.dtype.str, v.shape, v.tobytes()) for v in values]


@st.composite
def _designs(draw):
    """A predictor matrix with k in 1..10 and n in k + 2..2000, and a response.

    Columns may sit at 1e+-200; up to two of them are defects: an exact copy,
    multiple or sum of other columns, a constant or a zero.
    """
    k = draw(st.integers(1, 10))
    n = draw(st.integers(k + 2, 2000))
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.sampled_from([1.0] * 8 + [1e200, 1e-200]), min_size=k, max_size=k))
    x = rng.normal(size=(n, k)) * scales
    defects = ["copy", "multiple", "sum", "constant", "zero"]
    for defect in draw(st.lists(st.sampled_from(defects), max_size=2)):
        j, i, h = (draw(st.integers(0, k - 1)) for _ in range(3))
        x[:, j] = {
            "copy": x[:, i],
            "multiple": -2.0 * x[:, i],
            "sum": x[:, i] + x[:, h],
            "constant": 3.0,
            "zero": 0.0,
        }[defect]
    return x, rng.normal(size=n)


@settings(max_examples=300, deadline=None, database=None)
@given(_designs())
@np.errstate(all="ignore")  # at 1e+-200 a standard error may overflow, alike on both routes
def test_the_lapack_calls_keep_the_bits_and_errors_of_scipy_linalg(case):
    x, y = case
    for design in (DesignMatrix(x), DesignMatrix.with_intercept(x)):
        fact = qr_factorize(design)
        assert _outcome(qr_factorize, design) == _outcome(_scipy_qr_factorize, design)
        # The callers check the rank first; the gate also takes the
        # rank-deficient factors, whose exact zeros reach dtrtrs's error.
        ours = _outcome(_solve_from_factorization, fact, design, y)
        with mock.patch("parseal.linalg._solve_upper", scipy.linalg.solve_triangular):
            assert ours == _outcome(_solve_from_factorization, fact, design, y)
    assert _outcome(vif, x) == _outcome(_scipy_vif, x)
    design = DesignMatrix.with_intercept(x)
    ours = _outcome(ols_fit, design, y)
    solve = scipy.linalg.solve_triangular
    with mock.patch.multiple(
        stats, qr_factorize=_scipy_qr_factorize, _solve_upper=solve, vif=_scipy_vif
    ), mock.patch("parseal.linalg._solve_upper", solve):
        assert ours == _outcome(ols_fit, design, y)


def test_the_gate_reaches_each_error_path():
    rng = philox(108)
    a, b, y = rng.normal(size=(3, 30))
    zero = DesignMatrix(np.column_stack([a, np.zeros(30)]))
    error, message = _outcome(_solve_from_factorization, qr_factorize(zero), zero, y)
    assert error is np.linalg.LinAlgError
    assert message == "singular matrix: resolution failed at diagonal 1"
    assert _outcome(ols_fit, DesignMatrix.with_intercept(np.column_stack([a, a])), y)[0] is RankDeficient
    for columns in ([a, a], [a, -2.0 * a, b]):
        assert _outcome(vif, np.column_stack(columns))[0] is PerfectCollinearity


# Prints whether the routines _lapack gives are scipy.linalg.lapack's, for
# either import order, and whether scipy.linalg ends up filed as usual.
_ROUTINES = """
import sys
from parseal.linalg import _lapack
if sys.argv[1] == "scipy-first":
    import scipy.linalg
lapack = _lapack()
import scipy.linalg
names = ("dgeqp3", "dorgqr", "dtrtrs", "dpotrf", "dpotrs")
print(all(getattr(lapack, n) is getattr(scipy.linalg.lapack, n) for n in names),
      scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"])
"""


@pytest.mark.parametrize("order", ["scipy-first", "loader-first"])
def test_the_loader_gives_scipy_linalgs_own_routines(order):
    run = subprocess.run([sys.executable, "-c", _ROUTINES, order], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "True"]
