"""Importance and redundancy filters over an evaluated dictionary."""

import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_dictionary import (
    _build_inputs,
    _dataset,
    _dict_heavy_shaped,
    _per_term_build,
    matrix_of,
)

from parseal import (
    Dictionary,
    Factor,
    ImportanceRule,
    SelectionConfig,
    TermExpr,
    best_subset_search,
    build_dictionary,
    greedy_forward_search,
    importance_filter,
    redundancy_filter,
    screen,
    synth_example1,
    synth_example2,
)
from parseal import dictionary, screening
from parseal.dictionary import IDENTITY, canonical_key
from parseal.errors import (
    AllColumnsDropped,
    DomainViolation,
    LengthMismatch,
    NonFinite,
    ZeroVariance,
)
from parseal.gram import GramScorer


def philox(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def raw_dictionary(columns):
    """Wrap raw columns as pure first-power terms (one per column)."""
    columns = np.asarray(columns, dtype=np.float64)
    p = columns.shape[1]
    terms = tuple(TermExpr((Factor(i, IDENTITY, Fraction(1)),)) for i in range(p))
    names = tuple(f"c{i}" for i in range(p))
    return Dictionary(terms=terms, columns=columns, source_labels=names)


def abs_corr(a, b):
    return abs(float(np.corrcoef(a, b)[0, 1]))


# ---------------------------------------------------------------------------
# importance filter
# ---------------------------------------------------------------------------


def test_absolute_zero_threshold_keeps_everything():
    rng = philox(301)
    z = raw_dictionary(rng.normal(size=(40, 5)))
    y = rng.normal(size=40)
    result = importance_filter(z, y, ImportanceRule("absolute", 0.0))
    assert result.dictionary.keys() == z.keys()
    assert len(result.dropped) == 0
    assert result.delta_effective == 0.0


def test_importance_matches_independent_order_statistics():
    rng = philox(302)
    x = rng.normal(size=(120, 6))
    y = x[:, 0] + 0.5 * x[:, 3] + rng.normal(size=120)
    z = raw_dictionary(x)
    delta = 0.25
    result = importance_filter(z, y, ImportanceRule("absolute", delta))
    expected = [i for i in range(6) if abs_corr(x[:, i], y) >= delta]
    kept_keys = result.dictionary.keys()
    assert kept_keys == [z.keys()[i] for i in expected]
    for drop in result.dropped:
        assert abs_corr(x[:, z.keys().index(drop["term"])], y) < delta


def abs_corr_of_term(z, term, y):
    return abs_corr(z.rows([z.terms.index(term)])[0], y)


def test_records_index_and_slice_as_the_list_of_dicts():
    records = screening.Records(("term", "abs_corr"), ["a", "b", "c"], [0.5, None, 0.25])
    rows = list(records)
    assert rows == [
        {"term": "a", "abs_corr": 0.5},
        {"term": "b", "abs_corr": None},
        {"term": "c", "abs_corr": 0.25},
    ]
    for i in (0, 2, -1, slice(0, 2), slice(None, None, -1), slice(1, 1), slice(-2, None)):
        assert records[i] == rows[i]
    with pytest.raises(IndexError):
        records[3]


def test_a_non_finite_row_is_rejected_and_a_view_without_it_screens():
    rng = philox(316)
    x = rng.normal(size=(40, 3))
    x[7, 1] = math.inf
    y = x[:, 0] + rng.normal(size=40)
    z = raw_dictionary(x)
    with pytest.raises(NonFinite):
        importance_filter(z, y, ImportanceRule("absolute", 0.0))
    result = importance_filter(z.subset([0, 2]), y, ImportanceRule("absolute", 0.0))
    assert result.dictionary.keys() == ["v0^1/1", "v2^1/1"]


@pytest.mark.parametrize(
    "run",
    [
        lambda z, y: importance_filter(z, y, ImportanceRule("absolute", 0.0)),
        lambda z, y: redundancy_filter(z, y, 0.8),
    ],
    ids=["importance", "redundancy"],
)
def test_the_filters_reject_a_short_response_and_an_empty_dictionary(run):
    z = raw_dictionary(philox(317).normal(size=(30, 3)))
    y = philox(317, 1).normal(size=30)
    with pytest.raises(LengthMismatch):
        run(z, y[:-1])
    with pytest.raises(AllColumnsDropped):
        run(z.subset([]), y)


def test_relative_threshold_scales_with_best_column():
    rng = philox(303)
    x = rng.normal(size=(200, 4))
    y = 2.0 * x[:, 1] + rng.normal(size=200) * 0.1
    z = raw_dictionary(x)
    result = importance_filter(z, y, ImportanceRule("relative", 0.5))
    best = max(abs_corr(x[:, i], y) for i in range(4))
    assert result.max_abs_corr == pytest.approx(best, abs=1e-12)
    assert result.delta_effective == pytest.approx(0.5 * best, abs=1e-12)
    # the best column always clears its own relative threshold
    assert any(abs_corr_of_term(z, t, y) == pytest.approx(best) for t in result.dictionary.terms)


def test_all_columns_dropped_carries_best_correlation():
    rng = philox(304)
    x = rng.normal(size=(100, 3))
    y = rng.normal(size=100)  # independent of every column
    z = raw_dictionary(x)
    best = max(abs_corr(x[:, i], y) for i in range(3))
    with pytest.raises(AllColumnsDropped) as exc:
        importance_filter(z, y, ImportanceRule("absolute", 0.99))
    assert exc.value.max_abs_corr == pytest.approx(best, abs=1e-12)


def test_constant_response_is_rejected():
    z = raw_dictionary(philox(305).normal(size=(30, 2)))
    with pytest.raises(ZeroVariance):
        importance_filter(z, np.full(30, 7.0), ImportanceRule("absolute", 0.1))


def test_every_stage_rejects_a_constant_response():
    z = raw_dictionary(philox(305, 2).uniform(size=(50, 4)))
    y = np.full(50, 3.0)
    formed = AssertionError("a row was formed for a constant response")
    with mock.patch.object(Dictionary, "row_statistics", side_effect=formed):
        with pytest.raises(ZeroVariance, match="response is constant"):
            redundancy_filter(z, y, 0.8)
    with pytest.raises(ZeroVariance):
        importance_filter(z, y, ImportanceRule("absolute", 0.1))
    for search in (best_subset_search, greedy_forward_search):
        with pytest.raises(ZeroVariance):
            search(z, y, SelectionConfig(max_subset_size=2))


def test_constant_dictionary_column_dropped_with_reason():
    cols = np.column_stack([philox(306).normal(size=30), np.full(30, 2.0)])
    z = raw_dictionary(cols)
    y = cols[:, 0] + philox(306, 1).normal(size=30)
    result = importance_filter(z, y, ImportanceRule("absolute", 0.0))
    assert len(result.dictionary) == 1
    (drop,) = result.dropped
    assert drop["reason"] == "non_finite_correlation"


def test_importance_rule_validation():
    with pytest.raises(ValueError):
        ImportanceRule("median", 0.5)
    with pytest.raises(ValueError):
        ImportanceRule("absolute", 1.5)


# ---------------------------------------------------------------------------
# redundancy filter
# ---------------------------------------------------------------------------


def test_redundancy_matches_independent_greedy_sweep():
    rng = philox(307)
    base = rng.normal(size=(150, 6))
    x = base @ (np.eye(6) + 0.45)  # correlated columns
    y = x[:, 0] - x[:, 4] + rng.normal(size=150)
    z = raw_dictionary(x)
    varsigma = 0.6
    result = redundancy_filter(z, y, varsigma)

    keys = z.keys()
    corrs = [abs_corr(x[:, i], y) for i in range(6)]
    order = sorted(range(6), key=lambda i: (-corrs[i], keys[i]))
    kept = []
    for i in order:
        if all(abs_corr(x[:, i], x[:, j]) <= varsigma for j in kept):
            kept.append(i)
    assert result.dictionary.keys() == [keys[i] for i in sorted(kept)]


def test_redundancy_keeps_pairwise_correlations_at_or_below_limit():
    rng = philox(308)
    base = rng.normal(size=(100, 8))
    x = base @ (np.eye(8) + 0.5)
    y = x.sum(axis=1) + rng.normal(size=100)
    result = redundancy_filter(raw_dictionary(x), y, 0.55)
    cols = matrix_of(result.dictionary)
    k = cols.shape[1]
    for i in range(k):
        for j in range(i + 1, k):
            assert abs_corr(cols[:, i], cols[:, j]) <= 0.55


def test_redundancy_drop_records_the_winning_column():
    rng = philox(309)
    a = rng.normal(size=80)
    near_dup = a + 0.01 * rng.normal(size=80)
    other = rng.normal(size=80)
    x = np.column_stack([a, near_dup, other])
    y = 3.0 * a + 0.1 * rng.normal(size=80)
    z = raw_dictionary(x)
    result = redundancy_filter(z, y, 0.8)
    assert len(result.dropped) == 1
    (drop,) = result.dropped
    # the duplicate with the weaker response correlation loses
    loser = 0 if abs_corr(a, y) < abs_corr(near_dup, y) else 1
    assert drop["term"] == z.keys()[loser]
    assert drop["winner"] == z.keys()[1 - loser]
    assert drop["abs_corr"] > 0.8


def test_near_unity_limit_keeps_correlated_pairs():
    rng = philox(310)
    a = rng.normal(size=60)
    b = a + 0.05 * rng.normal(size=60)
    x = np.column_stack([a, b])
    y = a + rng.normal(size=60)
    assert abs_corr(a, b) > 0.99
    result = redundancy_filter(raw_dictionary(x), y, 1.0 - 1e-15)
    assert len(result.dictionary) == 2
    assert len(result.dropped) == 0


def test_identical_twin_columns_collapse_to_one():
    ds = synth_example2(300, seed=0)
    z = build_dictionary(ds, alpha=2, mixture=2)
    z1, report = screen(z, ds.response, ImportanceRule("relative", 0.5), 0.8)
    kept_keys = [canonical_key(t) for t in report.kept]
    # x1 (v0) and x3 (v2) are the same column; at most one of each twin
    # term pair survives
    for key in kept_keys:
        assert key.replace("v0", "v2") not in kept_keys or "v0" not in key
    # every recorded winner actually survived
    for drop in report.dropped_redundant:
        assert drop["winner"] in kept_keys
        assert drop["abs_corr"] > 0.8


def test_varsigma_validation():
    z = raw_dictionary(philox(311).normal(size=(30, 2)))
    y = philox(311, 1).normal(size=30)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            redundancy_filter(z, y, bad)


# ---------------------------------------------------------------------------
# combined sweep
# ---------------------------------------------------------------------------


def test_screen_partitions_the_dictionary():
    ds = synth_example1(250, seed=7)
    z = build_dictionary(ds, alpha=2, mixture=2)
    z1, report = screen(z, ds.response, ImportanceRule("relative", 0.5), 0.8)
    kept = [canonical_key(t) for t in report.kept]
    unimportant = [d["term"] for d in report.dropped_unimportant]
    redundant = [d["term"] for d in report.dropped_redundant]
    assert sorted(kept + unimportant + redundant) == z.keys()
    assert z1.keys() == kept  # survivors stay in dictionary order
    assert kept == sorted(kept)


def test_screen_is_idempotent():
    ds = synth_example1(250, seed=8)
    z = build_dictionary(ds, alpha=2, mixture=2)
    rule = ImportanceRule("relative", 0.5)
    z1, _ = screen(z, ds.response, rule, 0.8)
    z2, report2 = screen(z1, ds.response, rule, 0.8)
    assert z2.keys() == z1.keys()
    assert len(report2.dropped_unimportant) == 0
    assert len(report2.dropped_redundant) == 0


def test_looser_varsigma_keeps_more_on_seeded_data():
    rng = philox(312)
    base = rng.normal(size=(120, 7))
    x = base @ (np.eye(7) + 0.4)
    y = x[:, 0] + x[:, 3] + rng.normal(size=120)
    z = raw_dictionary(x)
    sizes = []
    for varsigma in (0.3, 0.5, 0.7, 0.9):
        sizes.append(len(redundancy_filter(z, y, varsigma).dictionary))
    assert sizes == sorted(sizes)


def test_screening_is_deterministic():
    ds = synth_example1(200, seed=11)
    z = build_dictionary(ds, alpha=2, mixture=2)
    rule = ImportanceRule("relative", 0.5)
    first = screen(z, ds.response, rule, 0.8)
    second = screen(z, ds.response, rule, 0.8)
    assert first[0].keys() == second[0].keys()
    assert first[1] == second[1]


# ---------------------------------------------------------------------------
# centered-once screening against the per-pair loops
# ---------------------------------------------------------------------------


def _reference_corr(a, b):
    """Correlation from two raw vectors, recomputed from scratch; None marks
    a constant vector, NaN a norm product outside (0, inf)."""
    ac = a - a.mean()
    bc = b - b.mean()
    sa = math.sqrt(float(ac @ ac))
    sb = math.sqrt(float(bc @ bc))
    if sa == 0.0 or sb == 0.0:
        return None
    if not 0.0 < sa * sb < math.inf:
        return math.nan
    return min(1.0, max(-1.0, float(ac @ bc) / (sa * sb)))


def _per_pair_screen(z, y, rule, varsigma):
    """Both screening stages as per-pair loops over raw columns, one
    correlation call per pair, with the same keep and tie rules."""
    calls = 0

    def abs_corrs(columns):
        nonlocal calls
        out = []
        for i in range(columns.shape[1]):
            calls += 1
            r = _reference_corr(columns[:, i], y)
            out.append(abs(r) if r is not None and math.isfinite(r) else None)
        return out

    keys = z.keys()
    corrs = abs_corrs(matrix_of(z))
    finite = [c for c in corrs if c is not None]
    max_abs = max(finite) if finite else 0.0
    threshold = rule.value if rule.mode == "absolute" else rule.value * max_abs
    kept_idx = [i for i, c in enumerate(corrs) if c is not None and c >= threshold]
    unimportant = [
        (keys[i], "nan", "non_finite_correlation")
        if c is None
        else (keys[i], c.hex(), "below_threshold")
        for i, c in enumerate(corrs)
        if c is None or c < threshold
    ]
    if not kept_idx:
        return {"all_dropped": max_abs.hex(), "calls": calls}
    columns = z.rows(kept_idx).T
    keys1 = [keys[i] for i in kept_idx]
    corrs1 = abs_corrs(columns)
    order = sorted(
        range(len(kept_idx)),
        key=lambda i: (-(corrs1[i] if corrs1[i] is not None else -1.0), keys1[i]),
    )
    kept, redundant = [], []
    for i in order:
        for j in kept:
            calls += 1
            r = abs(_reference_corr(columns[:, i], columns[:, j]))
            if r > varsigma:
                redundant.append((keys1[i], keys1[j], r.hex()))
                break
        else:
            kept.append(i)
    return {
        "kept": [keys1[i] for i in sorted(kept)],
        "unimportant": unimportant,
        "redundant": redundant,
        "delta_effective": threshold.hex(),
        "max_abs_corr": max_abs.hex(),
        "calls": calls,
    }


_SCREEN_KINDS = (
    "normal", "normal", "twin", "negated", "scaled", "shifted", "near_twin", "constant",
)


@st.composite
def _screen_inputs(draw):
    n = draw(st.integers(5, 30))
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(_SCREEN_KINDS))
        if kind == "constant":
            col = np.full(n, 2.5)
        elif kind == "normal" or not columns:
            col = rng.normal(size=n)
        else:
            src = columns[draw(st.integers(0, len(columns) - 1))]
            col = {
                "twin": src.copy(),  # exact ties with y and a pairwise |corr| of 1
                "negated": -src,
                "scaled": 3.0 * src,
                "shifted": src + 5.0,
                "near_twin": src + 1e-9 * rng.normal(size=n),
            }[kind]
        columns.append(col)
    x = np.column_stack(columns)
    if draw(st.booleans()):
        y = x[:, draw(st.integers(0, x.shape[1] - 1))].copy()
    else:
        y = x @ rng.normal(size=x.shape[1]) + rng.normal(size=n)
    if float(np.std(y)) == 0.0:
        y = rng.normal(size=n)

    # Limits drawn either freely or exactly at a realized |correlation|.
    with_y = [r for r in (_reference_corr(x[:, i], y) for i in range(x.shape[1])) if r is not None]
    pairs = [
        abs(r)
        for i in range(x.shape[1])
        for j in range(i)
        if (r := _reference_corr(x[:, i], x[:, j])) is not None and 0.0 < abs(r) < 1.0
    ]
    mode = draw(st.sampled_from(("absolute", "relative")))
    value = draw(st.floats(0.0, 1.0))
    if mode == "absolute" and with_y and draw(st.booleans()):
        value = abs(draw(st.sampled_from(with_y)))
    elif mode == "relative" and draw(st.booleans()):
        value = 1.0
    varsigma = draw(st.floats(0.01, 0.99))
    if pairs and draw(st.booleans()):
        varsigma = draw(st.sampled_from(pairs))
    # The block builder hands screening the transpose of a row-major array.
    if draw(st.booleans()):
        x = np.ascontiguousarray(x.T).T
    return x, y, ImportanceRule(mode, value), varsigma


@given(_screen_inputs())
@settings(max_examples=200, deadline=None)
def test_centered_screening_matches_the_per_pair_loops(inputs):
    x, y, rule, varsigma = inputs
    z = raw_dictionary(x)
    expected = _per_pair_screen(z, y, rule, varsigma)
    with mock.patch.object(
        screening, "pearson_correlation", wraps=screening.pearson_correlation
    ) as counted:
        try:
            _, report = screen(z, y, rule, varsigma)
        except AllColumnsDropped as err:
            assert err.max_abs_corr.hex() == expected["all_dropped"]
            # Importance decides one correlation per term and calls no referee.
            assert expected["calls"] == len(z)
            assert counted.call_count == 0
            return
    key = canonical_key
    assert [key(t) for t in report.kept] == expected["kept"]
    assert [
        (d["term"], "nan" if d["abs_corr"] is None else d["abs_corr"].hex(), d["reason"])
        for d in report.dropped_unimportant
    ] == expected["unimportant"]
    assert [
        (d["term"], d["winner"], d["abs_corr"].hex()) for d in report.dropped_redundant
    ] == expected["redundant"]
    assert report.delta_effective.hex() == expected["delta_effective"]
    assert report.max_abs_corr.hex() == expected["max_abs_corr"]
    assert report.correlations == expected["calls"]
    assert counted.call_count == report.referee_calls


def test_overflowing_importance_correlation_is_recorded_as_non_finite():
    n = 200
    rng = philox(313)
    a = (1.0 + rng.random(n)) * 1e100
    b = rng.random(n)
    y = 3.0 * a / 1e100 + b
    z = raw_dictionary(np.column_stack([a, b, a**2]))
    with np.errstate(over="ignore"):
        result = importance_filter(z, y, ImportanceRule("relative", 0.5))
    (drop,) = [d for d in result.dropped if d["reason"] == "non_finite_correlation"]
    assert drop["term"] == "v2^1/1"  # a^2: true |corr| with y about 0.99
    assert drop["abs_corr"] is None


def test_screens_with_an_undefined_importance_correlation_compare_equal():
    n = 200
    rng = philox(313)
    a = (1.0 + rng.random(n)) * 1e100
    b = rng.random(n)
    y = 3.0 * a / 1e100 + b
    z = raw_dictionary(np.column_stack([a, b, a**2]))
    rule = ImportanceRule("relative", 0.5)
    with np.errstate(over="ignore"):
        _, first = screen(z, y, rule, 0.8)
        _, second = screen(z, y, rule, 0.8)
    assert None in [d["abs_corr"] for d in first.dropped_unimportant]
    assert first == second


def test_undefined_pairwise_correlation_eliminates_nothing():
    n = 200
    rng = philox(314)
    u = rng.standard_normal(n)
    v = -0.02 * u + rng.standard_normal(n)
    y = u + v
    # corr(u, v) is about -0.02, but the 1e160-scaled norm product overflows.
    z = raw_dictionary(np.column_stack([u * 1e160, v * 1e160]))
    with np.errstate(over="ignore", invalid="ignore"):
        result = redundancy_filter(z, y, 0.5)
    assert len(result.dropped) == 0
    assert len(result.dictionary) == 2


def test_a_zero_variance_row_eliminates_nothing_in_the_sweep():
    # importance drops such a row first, so only a direct sweep meets it: the
    # referee's ZeroVariance is an undefined correlation, not an error.
    rng = philox(88)
    x = np.column_stack([rng.normal(size=50), np.ones(50)])
    result = redundancy_filter(raw_dictionary(x), rng.normal(size=50), 0.9)
    assert len(result.dropped) == 0
    assert result.dictionary.keys() == raw_dictionary(x).keys()
    assert result.referee_calls == 1


def _screens_like_the_per_pair_loops(x, y, rule, varsigma):
    """Screen raw columns and assert the per-pair loops' outcome, bits and
    correlation count; returns the report, or None if every column dropped."""
    z = raw_dictionary(x)
    expected = _per_pair_screen(z, y, rule, varsigma)
    with mock.patch.object(
        screening, "pearson_correlation", wraps=screening.pearson_correlation
    ) as counted:
        try:
            _, report = screen(z, y, rule, varsigma)
        except AllColumnsDropped as err:
            assert err.max_abs_corr.hex() == expected["all_dropped"]
            return None
    key = canonical_key
    assert [key(t) for t in report.kept] == expected["kept"]
    assert [
        (d["term"], "nan" if d["abs_corr"] is None else d["abs_corr"].hex(), d["reason"])
        for d in report.dropped_unimportant
    ] == expected["unimportant"]
    assert [
        (d["term"], d["winner"], d["abs_corr"].hex()) for d in report.dropped_redundant
    ] == expected["redundant"]
    assert report.correlations == expected["calls"]
    assert counted.call_count == report.referee_calls
    return report


def _one_ulp_around(r):
    """r and its two float neighbours that are valid limits."""
    return [float(v) for v in (np.nextafter(r, 0.0), r, np.nextafter(r, 1.0)) if 0.0 < v < 1.0]


@given(_screen_inputs(), st.data())
@settings(max_examples=100, deadline=None)
def test_redundancy_at_a_realized_pairwise_correlation_and_one_ulp_off(inputs, data):
    x, y, _, _ = inputs
    pairs = [
        abs(r)
        for i in range(x.shape[1])
        for j in range(i)
        if (r := _reference_corr(x[:, i], x[:, j])) is not None and 0.0 < abs(r) < 1.0
    ]
    assume(pairs)
    r = data.draw(st.sampled_from(pairs))
    for varsigma in _one_ulp_around(r):
        _screens_like_the_per_pair_loops(x, y, ImportanceRule("absolute", 0.0), varsigma)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(5, 200),
    st.sampled_from((1e-8, 1e-4, 1e-2, 0.3, 3.0)),
    st.sampled_from((1.0, 1.0, 1e-125, 1e152)),
)
@settings(max_examples=100, deadline=None)
def test_a_near_twin_inside_the_band_goes_to_the_referee(seed, n, noise, scale):
    rng = philox(seed)
    a = rng.normal(size=n)
    twin = a + noise * rng.normal(size=n)
    y = a + rng.normal(size=n)
    r = _reference_corr(a, twin)
    assume(0.0 < abs(r) < 1.0)
    # Scales of 1e-125 and 1e152 put the norms outside the band's range.
    x = scale * np.column_stack([a, twin])
    for varsigma in _one_ulp_around(abs(r)):
        report = _screens_like_the_per_pair_loops(x, y, ImportanceRule("absolute", 0.0), varsigma)
        # The twin swept second lies within the band of the kept one.
        assert report.referee_calls == 1


# ---------------------------------------------------------------------------
# streamed dictionary screening against the matrix path
# ---------------------------------------------------------------------------


def _parent_layout(matrix):
    """The (n, T) matrix as the transpose of (T, n) rows, as a dictionary
    holding every term's row would store it."""
    return np.ascontiguousarray(matrix.T).T


@given(_build_inputs(), st.data())
@settings(max_examples=120, deadline=None)
def test_streamed_screening_matches_the_matrix_path(inputs, data):
    columns, alpha, mixture = inputs
    n, p = columns.shape
    ds = _dataset(columns, tuple(f"x{i}" for i in range(p)))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        try:
            kept_keys, matrix, *_ = _per_term_build(columns, alpha, mixture)
        except DomainViolation:
            return  # both builders raise it; the builder tests compare the errors
        assume(0 < len(kept_keys) <= 600)
        d = build_dictionary(ds, alpha, mixture)
    assert d.keys() == kept_keys
    # The matrix path: every term's column held in one matrix.
    reference = Dictionary(terms=d.terms, columns=_parent_layout(matrix), source_labels=ds.variable_names)

    rng = philox(data.draw(st.integers(0, 2**32 - 1)))
    y_kind = data.draw(st.sampled_from(("term", "noisy_term", "normal")))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        y = rng.normal(size=n)
        if y_kind != "normal":
            y = matrix[:, data.draw(st.integers(0, len(kept_keys) - 1))].copy()
            if y_kind == "noisy_term":
                y = y + 0.1 * float(np.std(y)) * rng.normal(size=n)
        if not np.all(np.isfinite(y)) or not 0.0 < float(np.std(y)) < math.inf:
            y = rng.normal(size=n)

        with_y = [
            abs(r) for r in (_reference_corr(matrix[:, i], y) for i in range(len(kept_keys)))
            if r is not None and math.isfinite(r)
        ]
        pairs = [
            abs(r)
            for i in range(len(kept_keys))
            for j in range(i)
            if (r := _reference_corr(matrix[:, i], matrix[:, j])) is not None
            and 0.0 < abs(r) < 1.0
        ][:500]
    mode = data.draw(st.sampled_from(("absolute", "relative")))
    value = data.draw(st.floats(0.0, 1.0))
    if with_y and data.draw(st.booleans()):
        value = data.draw(st.sampled_from(with_y))
        if mode == "relative":
            value = 1.0 if data.draw(st.booleans()) else value / max(with_y)
    rule = ImportanceRule(mode, value)
    varsigma = data.draw(st.floats(0.01, 0.99))
    if pairs and data.draw(st.booleans()):
        varsigma = data.draw(st.sampled_from(pairs))

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        expected = _per_pair_screen(reference, y, rule, varsigma)
        with mock.patch.object(
            screening, "pearson_correlation", wraps=screening.pearson_correlation
        ) as counted:
            try:
                importance = importance_filter(d, y, rule)
            except AllColumnsDropped as err:
                assert err.max_abs_corr.hex() == expected["all_dropped"]
                # Importance decides one correlation per term and calls no referee.
                assert expected["calls"] == len(d)
                assert counted.call_count == 0
                return
            redundancy = redundancy_filter(importance.dictionary, y, varsigma)
    assert redundancy.dictionary.keys() == expected["kept"]
    assert [
        (d["term"], "nan" if d["abs_corr"] is None else d["abs_corr"].hex(), d["reason"])
        for d in importance.dropped
    ] == expected["unimportant"]
    assert [
        (d["term"], d["winner"], d["abs_corr"].hex()) for d in redundancy.dropped
    ] == expected["redundant"]
    assert importance.delta_effective.hex() == expected["delta_effective"]
    assert importance.max_abs_corr.hex() == expected["max_abs_corr"]
    assert importance.correlations + redundancy.correlations == expected["calls"]
    assert counted.call_count == importance.referee_calls + redundancy.referee_calls

    # Survivors carry the matrix path's bits, in its layout.
    place = {k: i for i, k in enumerate(kept_keys)}
    for survivors in (importance.dictionary, redundancy.dictionary):
        want = matrix_of(reference)[:, [place[k] for k in survivors.keys()]]
        assert matrix_of(survivors).tobytes(order="A") == want.tobytes(order="A")


def test_importance_holds_no_matrix_of_every_row():
    ds = _dict_heavy_shaped()
    z = build_dictionary(ds, alpha=2, mixture=3)
    tracemalloc.start()
    try:
        result = importance_filter(z, ds.response, ImportanceRule("relative", 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.correlations == len(z) == 21_560
    assert result.referee_calls == 0
    # A (T, n) matrix of every centered row would take T * n * 8 = 172 MB.
    assert peak < 0.1 * len(z) * ds.n * 8


def test_a_candidate_is_eliminated_by_a_row_kept_earlier_in_its_block():
    rng = philox(315)
    n = 120
    a, b, c = rng.normal(size=(3, n))
    twin = a + 0.05 * rng.normal(size=n)
    y = 2.0 * a + b + 0.5 * rng.normal(size=n)
    x = np.column_stack([b, twin, c, a])
    # Four candidates make one block, so a, kept first, meets its twin there.
    assert len(x.T) <= dictionary._BLOCK_ROWS
    report = _screens_like_the_per_pair_loops(x, y, ImportanceRule("absolute", 0.0), 0.9)
    keys = raw_dictionary(x).keys()
    assert [(d["term"], d["winner"]) for d in report.dropped_redundant] == [(keys[1], keys[3])]
    with mock.patch.object(dictionary, "_BLOCK_ROWS", 1):
        assert _screens_like_the_per_pair_loops(x, y, ImportanceRule("absolute", 0.0), 0.9) == report


def _sweep_outcome(z, y, varsigma):
    result = redundancy_filter(z, y, varsigma)
    drops = [(d["term"], d["winner"], d["abs_corr"].hex()) for d in result.dropped]
    return result.dictionary.keys(), drops, result.correlations


@pytest.mark.parametrize("make,varsigma", [(synth_example1, 0.5), (synth_example1, 0.9), (synth_example2, 0.8)])
def test_the_sweep_decides_alike_at_every_block_size(make, varsigma):
    ds = make(120, seed=13)
    everything = ImportanceRule("absolute", 0.0)
    z = importance_filter(build_dictionary(ds, 2, 3), ds.response, everything).dictionary
    expected = _sweep_outcome(z, ds.response, varsigma)
    assert len(expected[0]) > 7 and len(expected[1]) > 7
    for block_rows in (1, 7):
        with mock.patch.object(dictionary, "_BLOCK_ROWS", block_rows):
            assert _sweep_outcome(z, ds.response, varsigma) == expected


def _whole_sweep(z, y, varsigma):
    """Every field of a ``RedundancyResult``, with the kept view's keys and
    carried statistics and each drop's |corr| as bits."""
    result = redundancy_filter(z, y, varsigma)
    kept = result.dictionary
    drops = [(d["term"], d["winner"], d["abs_corr"].hex()) for d in result.dropped]
    dots = [a.tobytes() for a in kept._dots]
    return kept.keys(), dots, drops, result.correlations, result.referee_calls


@pytest.mark.parametrize("make,n,varsigma", [(synth_example1, 120, 0.5), (synth_example2, 1000, 0.8)])
def test_the_sweep_decides_alike_without_the_row_pass_scope(make, n, varsigma):
    ds = make(n, seed=13)
    everything = ImportanceRule("absolute", 0.0)
    z = importance_filter(build_dictionary(ds, 2, 3), ds.response, everything).dictionary
    plain = lambda: np.errstate(over="ignore", invalid="ignore")  # the default buffer
    for block_rows in (1, 7, 32):
        with mock.patch.object(dictionary, "_BLOCK_ROWS", block_rows):
            scoped = _whole_sweep(z, ds.response, varsigma)
            with mock.patch.object(screening, "_row_pass", plain):
                assert _whole_sweep(z, ds.response, varsigma) == scoped
        assert len(scoped[0]) > 7 and len(scoped[2]) > 7


def _numpy_state():
    return np.getbufsize(), np.geterr()


@pytest.fixture
def outer_state():
    """A buffer size and error settings of the caller's own, which no row pass
    may leave changed."""
    with np.errstate(divide="ignore"):
        size = np.setbufsize(4096)
        try:
            yield _numpy_state()
        finally:
            np.setbufsize(size)


def test_the_row_passes_restore_numpy_state(outer_state):
    ds = synth_example1(200, seed=5)
    z = build_dictionary(ds, alpha=2, mixture=2)
    assert _numpy_state() == outer_state
    zr, _ = screen(z, ds.response, ImportanceRule(), 0.5)
    assert _numpy_state() == outer_state
    for search in (best_subset_search, greedy_forward_search):
        search(zr, ds.response, SelectionConfig(max_subset_size=3))
        assert _numpy_state() == outer_state


def test_the_row_passes_restore_numpy_state_when_they_raise(outer_state):
    # A non-finite term: a^2 overflows.
    columns = np.column_stack([[1.5, 2.0, 4.0], [1e160, 2e160, 3e160]])
    with pytest.raises(DomainViolation):
        build_dictionary(_dataset(columns, ("b", "a")), alpha=2, mixture=2)
    assert _numpy_state() == outer_state
    # A near-twin pair reaches the sweep's referee, which raises inside the pass.
    rng = philox(88)
    a = rng.normal(size=50)
    x = np.column_stack([a, a + 1e-3 * rng.normal(size=50)])
    with mock.patch.object(screening, "pearson_correlation", side_effect=ArithmeticError):
        with pytest.raises(ArithmeticError):
            redundancy_filter(raw_dictionary(x), rng.normal(size=50), 0.9)
    assert _numpy_state() == outer_state
    with pytest.raises(KeyError):
        with screening._row_pass():
            assert np.getbufsize() == 16
            raise KeyError
    assert _numpy_state() == outer_state


def test_the_row_pass_sums_its_rows_at_the_callers_buffer_size(outer_state):
    # numpy before 2.3 stops a reduction's pairwise sum at the buffer size, so
    # the row means of the build pass and of the row_statistics fallback must
    # not be summed at the row pass's 16 elements.
    sizes = []

    class Numpy:  # dictionary's numpy, with an add.reduce that notes the buffer size
        def __getattr__(self, name):
            return getattr(np, name)

        add = SimpleNamespace(reduce=lambda *a: sizes.append(np.getbufsize()) or np.add.reduce(*a))

    ds = synth_example1(200, seed=5)
    with mock.patch.object(dictionary, "np", Numpy()):
        z = build_dictionary(ds, alpha=2, mixture=2)
        built = len(sizes)
        z.row_statistics(ds.response[::-1].copy())
    assert 0 < built < len(sizes)
    assert set(sizes) == {outer_state[0]}


def test_the_sweep_holds_only_the_kept_rows_and_two_blocks():
    ds = _dict_heavy_shaped()
    z = build_dictionary(ds, alpha=2, mixture=3)
    survivors = importance_filter(z, ds.response, ImportanceRule()).dictionary
    tracemalloc.start()
    try:
        result = redundancy_filter(survivors, ds.response, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = len(result.dictionary)
    assert 0 < kept < len(survivors) // 4
    rows = (kept + 2 * dictionary._BLOCK_ROWS) * ds.n * 8
    # The rows, plus a few hundred bytes of scalars per survivor; the
    # survivors' rows would take len(survivors) * n * 8 = 25 MB.
    assert peak <= rows + 512 * len(survivors)


# ---------------------------------------------------------------------------
# the norms and products a built dictionary carries
# ---------------------------------------------------------------------------


def _screen_outcome(z, y):
    """Everything importance, redundancy and screen decide on ``z``, as bits."""
    key = canonical_key
    means, norms, corrs = screening._abs_corrs(z, y)
    importance = importance_filter(z, y, ImportanceRule("relative", 0.3))
    redundancy = redundancy_filter(z, y, 0.9)
    _, report = screen(z, y, ImportanceRule("relative", 0.3), 0.9)
    return (
        means.tobytes(),
        norms.tobytes(),
        corrs.tobytes(),
        [(d["term"], d["abs_corr"].hex(), d["reason"]) for d in importance.dropped],
        importance.dictionary.keys(),
        (importance.max_abs_corr.hex(), importance.correlations, importance.referee_calls),
        [(d["term"], d["winner"], d["abs_corr"].hex()) for d in redundancy.dropped],
        redundancy.dictionary.keys(),
        (redundancy.correlations, redundancy.referee_calls),
        [key(t) for t in report.kept],
        [(d["term"], d["winner"], d["abs_corr"].hex()) for d in report.dropped_redundant],
        (report.correlations, report.referee_calls),
    )


@pytest.mark.parametrize("make", [synth_example1, synth_example2])
def test_carried_statistics_screen_as_the_matrix_path(make):
    ds = make(80, seed=12)
    d = build_dictionary(ds, alpha=2, mixture=3)
    matrix = Dictionary(d.terms, matrix_of(d), d.source_labels)  # carries no statistics
    y = ds.response
    off = y.copy()
    off[7] = np.nextafter(off[7], math.inf)  # one last bit away from the built-for response
    outer = list(range(len(d) - 1, -1, -2))
    inner = list(range(0, len(outer), 3)) + [1, 0]
    cases = [
        (d, matrix, y, 0),
        (d, matrix, off, 5),  # the built dictionary takes its dots again, in every pass
        (d.subset(outer).subset(inner), matrix.subset(outer).subset(inner), y, 0),
    ]
    for built, reference, response, passes in cases:
        with mock.patch.object(
            dictionary, "_centered_dots", wraps=dictionary._centered_dots
        ) as counted:
            outcome = _screen_outcome(built, response)
        assert counted.call_count == passes
        assert outcome == _screen_outcome(reference, response)


def _standardization_cases(make):
    """(dictionary, response) pairs: built, a view of a view, from a matrix,
    and built for a response one last bit away."""
    ds = make(80, seed=12)
    d = build_dictionary(ds, alpha=2, mixture=3)
    y = ds.response
    off = y.copy()
    off[7] = np.nextafter(off[7], math.inf)
    outer = list(range(len(d) - 1, -1, -2))
    inner = list(range(0, len(outer), 3)) + [1, 0]
    matrix = Dictionary(d.terms, matrix_of(d), d.source_labels)
    return [(d, y), (d.subset(outer).subset(inner), y), (matrix, y), (d, off)]


@pytest.mark.parametrize("make", [synth_example1, synth_example2])
def test_the_search_standardizes_with_the_statistics_screening_reads(make):
    for z, y in _standardization_cases(make):
        means, norms, corrs = screening._abs_corrs(z, y)
        centered = y - y.mean()
        scorer = GramScorer(z, y, 10.0, float(centered @ centered))
        assert scorer.usable.all()
        # The sweep centers with these means, and importance's |corr| is |c|.
        assert scorer.mean.tobytes() == means.tobytes()
        assert scorer.s.tobytes() == norms.tobytes()
        assert np.abs(np.clip(scorer.c, -1.0, 1.0)).tobytes() == corrs.tobytes()


def test_the_sweep_centers_each_block_with_the_carried_means():
    ds = synth_example1(60, seed=14)
    d = build_dictionary(ds, alpha=1, mixture=2)
    z = d.subset(range(len(d)))
    response, means, norms, products = z._dots
    # Means no row gives: the sweep can only have read them.
    shifted = means + norms
    z._dots = (response, shifted, norms, products)
    rows = np.concatenate([block for _, block in z.blocks()])
    centered = {}  # norm -> the rows centered with the shifted means
    for row, mean, norm in zip(rows, shifted.tolist(), norms.tolist()):
        centered.setdefault(norm, []).append((row - mean).tobytes())
    seen = []

    def referee(a, b):
        seen.extend((column.values.tobytes(), column.norm) for column in (a, b))
        return 0.0

    with mock.patch.object(screening, "pearson_correlation", referee):
        redundancy_filter(z, ds.response, 0.05)
    assert len(seen) > 10
    for values, norm in seen:
        assert values in centered[norm]
