"""QR factorization, rank detection, and the least-squares solve behind ``ols_fit``."""

import numpy as np
import pytest

from parseal import DesignMatrix, ols_fit, qr_factorize
from parseal.errors import EmptyMatrix, LengthMismatch, NonFinite, RankDeficient
from parseal.linalg import _solve_from_factorization


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
