"""Correlation, OLS inference, VIF and t-tail p-values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parseal import (
    DesignMatrix,
    ols_fit,
    p_value_two_sided,
    pearson_correlation,
    synth_example1,
    vif,
)
from parseal import dictionary
from parseal.stats import center, format_p_value
from parseal.errors import (
    InsufficientData,
    InvalidDf,
    LengthMismatch,
    NonFinite,
    PerfectCollinearity,
    RankDeficient,
    ZeroVariance,
)


def philox(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# pearson_correlation
# ---------------------------------------------------------------------------


def test_correlation_of_exact_multiples():
    assert pearson_correlation([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0, abs=1e-15)
    a = np.array([0.5, -1.0, 2.0, 4.0])
    assert pearson_correlation(a, -3.0 * a) == pytest.approx(-1.0, abs=1e-15)


def test_correlation_matches_direct_formula_oracle():
    rng = philox(201)
    a = rng.normal(size=200)
    b = 0.3 * a + rng.normal(size=200)
    oracle = np.corrcoef(a, b)[0, 1]
    assert pearson_correlation(a, b) == pytest.approx(oracle, abs=1e-12)


def test_correlation_errors():
    with pytest.raises(ZeroVariance):
        pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientData):
        pearson_correlation([1.0], [2.0])


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_correlation_symmetry_and_range(values, seed):
    a = np.asarray(values)
    b = philox(seed).normal(size=len(values))
    # near-constant vectors can round to exactly constant under the affine map
    if a.std() <= 1e-9 * (1.0 + np.abs(a).max()) or b.std() == 0.0:
        return
    r_ab = pearson_correlation(a, b)
    r_ba = pearson_correlation(b, a)
    assert -1.0 <= r_ab <= 1.0
    assert r_ab == pytest.approx(r_ba, abs=1e-12)
    # invariant under positive affine maps of either argument
    assert pearson_correlation(2.5 * a + 1.0, b) == pytest.approx(r_ab, abs=1e-6)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_centered_columns_give_the_same_correlation_bits(values, seed):
    a = np.asarray(values)
    b = philox(seed).normal(size=len(values))
    # The reference arithmetic: center, norm with ddot, one divide, clip.
    ac = a - a.mean()
    bc = b - b.mean()
    sa = math.sqrt(float(ac @ ac))
    sb = math.sqrt(float(bc @ bc))
    ca, cb = center(a), center(b)
    assert ca.values.tobytes() == ac.tobytes()
    assert ca.norm == sa and cb.norm == sb
    if sa == 0.0:
        for args in ((a, b), (ca, cb), (ca, b), (a, cb)):
            with pytest.raises(ZeroVariance):
                pearson_correlation(*args)
        return
    expected = min(1.0, max(-1.0, float(ac @ bc) / (sa * sb)))
    for args in ((a, b), (ca, cb), (ca, b), (a, cb)):
        assert pearson_correlation(*args) == expected


def test_center_validates_its_input():
    with pytest.raises(NonFinite):
        center([1.0, float("nan"), 2.0])
    with pytest.raises(LengthMismatch):
        center(np.ones((2, 2)))
    with pytest.raises(InsufficientData):
        center([1.0])
    with pytest.raises(LengthMismatch):
        pearson_correlation(center([1.0, 2.0]), center([1.0, 2.0, 3.0]))


@given(
    st.integers(2, 40),
    st.integers(1, 12),
    st.sampled_from((1.0, 1e-200, 1e150, 1e300)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_center_rows_gives_each_row_the_bits_of_a_lone_vector(n, k, scale, seed):
    rng = philox(seed)
    block = rng.normal(size=(k, n)) * scale + rng.choice([0.0, 3.0 * scale], size=(k, 1))
    block[0] = 2.5  # a constant row
    rows = block.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        # The pass centers the block's rows in place.
        _, squares, _ = dictionary._centered_dots([(0, rows)], k, np.zeros(n))
        for got, square, row in zip(rows, squares.tolist(), block):
            # The reference arithmetic, on a fresh 1-d copy of the row.
            ac = row.copy() - row.copy().mean()
            want = float(ac @ ac)
            assert got.tobytes() == ac.tobytes()
            assert square == want or (math.isnan(square) and math.isnan(want))


def test_center_validates_and_keeps_an_overflowing_norm_nan():
    with pytest.raises(NonFinite):
        center(np.array([1.0, float("inf"), 2.0]))
    with pytest.raises(NonFinite):
        center(np.array([float("nan"), 2.0, 3.0]))
    with pytest.raises(InsufficientData):
        center(np.ones(1))
    # Finite entries whose sum overflows both ways give a NaN norm, not an
    # error.
    row = np.zeros(32)
    row[0::8] = 1.7e308  # numpy's pairwise sum puts these in one partial sum
    row[1::8] = -1.7e308  # and these in another
    with np.errstate(over="ignore", invalid="ignore"):
        got = center(row)
    assert math.isnan(got.norm)


def test_overflowing_correlation_is_nan_not_made_up():
    n = 200
    rng = philox(211)
    a = (1.0 + rng.random(n)) * 1e100
    u = rng.standard_normal(n)
    v = -0.02 * u + rng.standard_normal(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # |corr(a^2, a)| is about 0.99, but ||a^2 - mean(a^2)|| overflows, so
        # there is no finite scale to divide by (0.0 would be made up).
        assert math.isnan(pearson_correlation(a**2, a))
        assert math.isnan(pearson_correlation(center(a**2), center(a)))
        # A true correlation near -0.02 whose norm product overflows: NaN, not
        # a value clipped to -1.
        assert math.isnan(pearson_correlation(u * 1e160, v * 1e160))
    # The same columns at a representable scale are unaffected.
    assert pearson_correlation(u, v) == pytest.approx(np.corrcoef(u, v)[0, 1], abs=1e-12)
    assert pearson_correlation(a / 1e100, a) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ols_fit
# ---------------------------------------------------------------------------


def test_ols_exact_line():
    x = np.linspace(0.0, 9.0, 10)
    y = 3.0 + 2.0 * x
    fit = ols_fit(DesignMatrix.with_intercept(x), y)
    np.testing.assert_allclose(fit.coefficients, [3.0, 2.0], atol=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_ols_recovers_product_model():
    ds = synth_example1(500, seed=3)
    term = ds.columns[:, 0] * ds.columns[:, 2]
    fit = ols_fit(DesignMatrix.with_intercept(term), ds.response)
    np.testing.assert_allclose(fit.coefficients, [120.0, 80.0], atol=1e-6)
    assert np.max(np.abs(fit.residuals)) <= 1e-7 * np.max(np.abs(ds.response))


def test_ols_coefficients_within_five_standard_errors():
    # 100 seeded trials; the joint 5-sigma band should essentially never miss.
    beta = np.array([1.0, 2.0, -1.0, 0.5])
    hits = 0
    for trial in range(100):
        rng = philox(202, trial)
        x = rng.normal(size=(200, 3))
        y = beta[0] + x @ beta[1:] + rng.normal(size=200)
        fit = ols_fit(DesignMatrix.with_intercept(x), y)
        if np.all(np.abs(fit.coefficients - beta) <= 5.0 * fit.std_errors):
            hits += 1
    assert hits >= 99


def test_ols_statistics_match_textbook_formulas():
    rng = philox(203)
    x = rng.normal(size=(60, 2))
    y = 1.0 + x @ np.array([0.5, -2.0]) + rng.normal(size=60)
    fit = ols_fit(DesignMatrix.with_intercept(x), y)
    design = np.column_stack([np.ones(60), x])
    beta = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ beta
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    sigma2 = rss / (60 - 3)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    np.testing.assert_allclose(fit.coefficients, beta, rtol=1e-10)
    np.testing.assert_allclose(fit.std_errors, np.sqrt(np.diag(cov)), rtol=1e-9)
    np.testing.assert_allclose(fit.t_stats, beta / np.sqrt(np.diag(cov)), rtol=1e-9)
    assert fit.r_squared == pytest.approx(1.0 - rss / tss, abs=1e-12)
    assert fit.r_squared_adj == pytest.approx(1.0 - (rss / 57) / (tss / 59), abs=1e-12)
    assert fit.rmse == pytest.approx(math.sqrt(sigma2), rel=1e-12)
    assert fit.n_obs == 60


def test_ols_adjusted_r2_strictly_below_r2_for_noisy_fits():
    rng = philox(204)
    x = rng.normal(size=(50, 3))
    y = x[:, 0] + rng.normal(size=50)
    fit = ols_fit(DesignMatrix.with_intercept(x), y)
    assert fit.r_squared_adj < fit.r_squared < 1.0


def test_ols_residual_mean_is_zero_with_intercept():
    rng = philox(205)
    x = rng.normal(size=(70, 2))
    y = 5.0 + x[:, 0] - 2.0 * x[:, 1] + rng.normal(size=70)
    fit = ols_fit(DesignMatrix.with_intercept(x), y)
    assert abs(float(fit.residuals.mean())) <= 1e-10 * float(y.std())


def test_ols_coefficient_equivariance_under_column_scaling():
    rng = philox(206)
    x = rng.normal(size=(50, 2))
    y = x @ np.array([1.0, 2.0]) + rng.normal(size=50)
    base = ols_fit(DesignMatrix.with_intercept(x), y)
    scaled = x.copy()
    scaled[:, 1] *= 40.0
    fit = ols_fit(DesignMatrix.with_intercept(scaled), y)
    assert fit.coefficients[2] == pytest.approx(base.coefficients[2] / 40.0, rel=1e-9)
    assert fit.coefficients[1] == pytest.approx(base.coefficients[1], rel=1e-9)


def test_ols_insufficient_data_and_rank_errors():
    x = np.arange(12.0).reshape(4, 3)
    with pytest.raises(InsufficientData):
        ols_fit(DesignMatrix.with_intercept(x), np.ones(4))
    rng = philox(207)
    col = rng.normal(size=20)
    dup = np.column_stack([col, col])
    with pytest.raises(RankDeficient):
        ols_fit(DesignMatrix.with_intercept(dup), rng.normal(size=20))


def test_ols_exact_fit_has_infinite_or_undefined_t_statistics():
    # Zero residuals make every standard error 0: a nonzero coefficient's t
    # is infinite (p = 0) and a zero coefficient's is 0/0 (t and p NaN).
    # No numpy warning may escape.  x is pivoted first and its Householder
    # reflection is the identity, so every step of this fit is exact.
    x = np.array([4.0, 0.0, 0.0, 0.0, 0.0])
    fit = ols_fit(DesignMatrix.with_intercept(x), 2.0 * x)
    assert fit.coefficients.tolist() == [0.0, 2.0]
    assert fit.residuals.tolist() == [0.0] * 5
    assert fit.std_errors.tolist() == [0.0, 0.0]
    assert math.isnan(fit.t_stats[0]) and fit.t_stats[1] == math.inf
    assert math.isnan(fit.p_values[0]) and fit.p_values[1] == 0.0
    assert [format_p_value(p) for p in fit.p_values] == ["undefined", "<1e-300"]
    assert p_value_two_sided(-math.inf, 3) == 0.0


# ---------------------------------------------------------------------------
# vif
# ---------------------------------------------------------------------------


def _orthogonal_pair(n=32):
    z1 = np.tile([1.0, -1.0], n // 2)
    z2 = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
    return np.column_stack([z1, z2])


def test_vif_orthogonal_columns_are_unity():
    np.testing.assert_allclose(vif(_orthogonal_pair()), [1.0, 1.0], atol=1e-12)


def test_vif_single_column_is_unity():
    assert vif(philox(208).normal(size=(25, 1))).tolist() == [1.0]


def _engineered_pair(r_squared, n=400, seed=209):
    rng = philox(seed)
    z1 = rng.normal(size=n)
    e = rng.normal(size=n)
    z1c = z1 - z1.mean()
    z1c /= np.linalg.norm(z1c)
    ec = e - e.mean()
    ec -= (ec @ z1c) * z1c
    ec /= np.linalg.norm(ec)
    z2 = math.sqrt(r_squared) * z1c + math.sqrt(1.0 - r_squared) * ec
    return np.column_stack([z1c, z2])


def test_vif_engineered_r2_of_09_gives_10():
    factors = vif(_engineered_pair(0.9))
    np.testing.assert_allclose(factors, [10.0, 10.0], atol=1e-6)


def test_vif_matches_auxiliary_regression_oracle():
    rng = philox(210)
    base = rng.normal(size=(200, 6))
    mix = np.eye(6) + 0.35
    x = base @ mix  # moderately correlated columns
    factors = vif(x)
    ones = np.ones((200, 1))
    for j in range(6):
        others = np.hstack([ones, np.delete(x, j, axis=1)])
        target = x[:, j]
        beta, *_ = np.linalg.lstsq(others, target, rcond=None)
        resid = target - others @ beta
        r2 = 1.0 - float(resid @ resid) / float(((target - target.mean()) ** 2).sum())
        oracle = 1.0 / (1.0 - r2)
        assert factors[j] == pytest.approx(oracle, rel=1e-8)


def test_vif_duplicate_column_is_perfect_collinearity():
    col = philox(211).normal(size=50)
    extra = philox(211, 1).normal(size=50)
    with pytest.raises(PerfectCollinearity):
        vif(np.column_stack([col, col, extra]))


def test_vif_invariant_under_column_rescaling():
    rng = philox(212)
    x = rng.normal(size=(120, 4)) @ (np.eye(4) + 0.2)
    base = vif(x)
    scaled = vif(x * np.array([3.0, 0.01, 250.0, 1.0]))
    np.testing.assert_allclose(scaled, base, rtol=1e-9)


def test_vif_constant_column_rejected():
    x = np.column_stack([np.ones(30), philox(213).normal(size=30)])
    with pytest.raises(ZeroVariance):
        vif(x)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(3, 40),
    st.lists(st.integers(-900, 900), min_size=5, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_vif_is_bit_identical_under_power_of_two_column_scales(seed, k, extra_rows, powers):
    # Every entry stays a normal double at these scales, so scaling a column
    # by 2^p is exact and the factors must not move by a single bit.
    x = philox(seed).uniform(-1.0, 1.0, size=(k + extra_rows, k))
    scaled = np.ldexp(x, np.array(powers[:k]))
    assert vif(scaled).tobytes() == vif(x).tobytes()


@pytest.mark.parametrize(
    "scales",
    [(1e200, 1e200), (1e-200, 1.0)],
    ids=["norms-would-overflow", "squares-would-underflow"],
)
def test_vif_depends_on_shape_not_units_at_extreme_scales(scales):
    a = philox(214).uniform(size=50)
    b = philox(214, 1).uniform(size=50)
    base = vif(np.column_stack([a, b]))
    np.testing.assert_allclose(base, [1.0007431324827267, 1.0007431324827265], rtol=1e-15)
    extreme = vif(np.column_stack([a * scales[0], b * scales[1]]))
    np.testing.assert_allclose(extreme, base, rtol=1e-14)


def test_numpy_and_scipy_raise_one_linalg_error_class():
    # linalg._solve_upper raises np.linalg.LinAlgError where
    # scipy.linalg.solve_triangular raises its own LinAlgError: one class, so
    # a caller, and the bit gate in test_linalg.py, sees the same error.
    import scipy.linalg

    assert scipy.linalg.LinAlgError is np.linalg.LinAlgError
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cho_factor(np.zeros((2, 2)), lower=False, check_finite=False)


# ---------------------------------------------------------------------------
# p_value_two_sided
# ---------------------------------------------------------------------------


def _t_density(s, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + s * s / df) ** (-(df + 1) / 2)


def test_p_value_zero_t_is_exactly_one():
    assert p_value_two_sided(0.0, 7) == 1.0


def test_p_value_of_a_tiny_t_is_exactly_one():
    # x = df / (df + t^2) rounds to exactly 1, so the tail is the whole mass.
    assert p_value_two_sided(1e-200, 5) == 1.0


def test_p_value_cauchy_quartile():
    assert p_value_two_sided(1.0, 1) == pytest.approx(0.5, abs=1e-12)


def test_p_value_matches_quadrature_oracle():
    from scipy import integrate

    for t in (0.5, 1.0, 2.0, 5.0):
        for df in (1, 5, 10, 100):
            tail, _ = integrate.quad(_t_density, t, np.inf, args=(df,))
            assert p_value_two_sided(t, df) == pytest.approx(2.0 * tail, abs=1e-8)


def test_p_value_gaussian_limit_at_huge_df():
    for t in (0.5, 1.0, 2.0, 5.0):
        gauss = math.erfc(t / math.sqrt(2.0))
        assert p_value_two_sided(t, 10**6) == pytest.approx(gauss, abs=1e-6)


def test_p_value_underflow_clamps_to_zero():
    assert p_value_two_sided(1e8, 100) == 0.0


def test_p_value_invalid_df():
    with pytest.raises(InvalidDf):
        p_value_two_sided(1.0, 0)
    with pytest.raises(InvalidDf):
        p_value_two_sided(1.0, 2.5)


@given(st.floats(0.01, 50.0), st.floats(0.01, 50.0), st.integers(1, 500))
@settings(max_examples=80, deadline=None)
def test_p_value_monotone_decreasing_in_abs_t(t1, t2, df):
    lo, hi = sorted([t1, t2])
    p_lo = p_value_two_sided(lo, df)
    p_hi = p_value_two_sided(hi, df)
    assert 0.0 <= p_hi <= p_lo <= 1.0
    assert p_value_two_sided(-lo, df) == p_lo  # symmetric in the sign of t
