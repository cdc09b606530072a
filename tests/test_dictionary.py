"""Term grammar, admissibility, enumeration counts, and evaluation."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parseal import (
    Dataset,
    Dictionary,
    Factor,
    ImportanceRule,
    TermExpr,
    admissible_factors,
    build_dictionary,
    canonical_key,
    evaluate_term,
    format_term,
    importance_filter,
    redundancy_filter,
    synth_example1,
    synth_example2,
    write_csv,
)
from parseal import dictionary
from parseal.cli import main
from parseal.dictionary import IDENTITY, LOG
from parseal.errors import DictionaryTooLarge, DomainViolation, LengthMismatch, NonFinite
from parseal.stats import center


def _dataset(columns, names):
    columns = np.asarray(columns, dtype=np.float64)
    return Dataset(
        variable_names=names,
        columns=columns,
        response_name="y",
        response=np.arange(columns.shape[0], dtype=np.float64) + 1.0,
    )


def matrix_of(d):
    """The (n, T) matrix of every term of ``d``, formed through ``rows``."""
    return d.rows(range(len(d))).T


POSITIVE = np.array([0.5, 2.0, 3.0])  # strictly positive, log bounded from zero
SIGNED = np.array([-1.0, 2.0, 3.0])  # bounded from zero, not positive
WITH_ZERO = np.array([0.0, 1.0, 2.0])  # neither


# ---------------------------------------------------------------------------
# factor / term construction
# ---------------------------------------------------------------------------


def test_factor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Factor(0, IDENTITY, Fraction(0))
    with pytest.raises(ValueError):
        Factor(0, LOG, Fraction(1, 2))
    with pytest.raises(ValueError):
        Factor(0, IDENTITY, Fraction(1, 3))
    with pytest.raises(ValueError):
        Factor(0, "exp", Fraction(1))


def test_factor_rejects_a_negative_variable_index():
    with pytest.raises(ValueError, match="variable_index must be >= 0"):
        Factor(-1, IDENTITY, 1)


def test_even_sqrt_powers_fold_to_integer_exponents():
    folded = Factor(0, IDENTITY, Fraction(2, 2))
    assert folded.exponent == Fraction(1)
    assert folded == Factor(0, IDENTITY, Fraction(1))
    term = TermExpr((folded,))
    assert canonical_key(term) == "v0^1/1"
    out = evaluate_term(term, POSITIVE.reshape(-1, 1))
    np.testing.assert_array_equal(out, POSITIVE)


def test_term_factor_order_is_canonical():
    f0 = Factor(0, IDENTITY, Fraction(1))
    f1 = Factor(1, LOG, Fraction(2))
    assert TermExpr((f1, f0)) == TermExpr((f0, f1))
    assert canonical_key(TermExpr((f1, f0))) == "v0^1/1*log(v1)^2"


def test_term_rejects_duplicate_variables_and_empty():
    with pytest.raises(ValueError):
        TermExpr((Factor(0, IDENTITY, Fraction(1)), Factor(0, LOG, Fraction(1))))
    with pytest.raises(ValueError):
        TermExpr(())


_FACTOR_MENU = [(IDENTITY, Fraction(n)) for n in (-2, -1, 1, 2)]
_FACTOR_MENU += [(IDENTITY, Fraction(n, 2)) for n in (-3, -1, 1, 3)]
_FACTOR_MENU += [(LOG, Fraction(n)) for n in (-2, -1, 1, 2)]


@st.composite
def _terms(draw):
    variables = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    choices = draw(
        st.lists(st.sampled_from(_FACTOR_MENU), min_size=len(variables), max_size=len(variables))
    )
    return TermExpr(tuple(Factor(v, t, e) for v, (t, e) in zip(variables, choices)))


@given(_terms(), _terms())
@settings(max_examples=200, deadline=None)
def test_canonical_key_is_injective(t1, t2):
    if t1 == t2:
        assert canonical_key(t1) == canonical_key(t2)
    else:
        assert canonical_key(t1) != canonical_key(t2)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissible_factors_positive_column_alpha1():
    assert admissible_factors(POSITIVE, 1) == frozenset(
        {
            (IDENTITY, Fraction(1)),
            (IDENTITY, Fraction(-1)),
            (IDENTITY, Fraction(1, 2)),
            (IDENTITY, Fraction(-1, 2)),
            (LOG, Fraction(1)),
            (LOG, Fraction(-1)),
        }
    )


def test_admissible_factors_counts_by_column_type():
    # positive & bounded: alpha=2 gives 4 integer + 2 half + 4 log powers
    assert len(admissible_factors(POSITIVE, 2)) == 10
    # signs present: integer powers only
    assert admissible_factors(SIGNED, 2) == frozenset(
        {(IDENTITY, Fraction(k)) for k in (-2, -1, 1, 2)}
    )
    # zero present: positive integer powers only
    assert admissible_factors(WITH_ZERO, 2) == frozenset(
        {(IDENTITY, Fraction(1)), (IDENTITY, Fraction(2))}
    )


def test_admissible_factors_alpha3_adds_odd_half_powers():
    pairs = admissible_factors(POSITIVE, 3)
    halves = {e for t, e in pairs if t == IDENTITY and e.denominator == 2}
    assert halves == {Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)}
    assert len(pairs) == 16  # 6 integer + 4 half + 6 log


def test_entry_at_one_blocks_negative_log_powers():
    col = np.array([1.0, 2.0, 3.0])
    pairs = admissible_factors(col, 2)
    assert (LOG, Fraction(1)) in pairs
    assert (LOG, Fraction(-1)) not in pairs


def test_admissible_factors_validation():
    with pytest.raises(ValueError):
        admissible_factors(POSITIVE, 0)
    with pytest.raises(NonFinite):
        admissible_factors([1.0, np.nan, 2.0], 1)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_format_term_rendering():
    names = ("A", "B")

    def fmt(*specs):
        return format_term(
            TermExpr(tuple(Factor(i, t, Fraction(e)) for i, t, e in specs)), names
        )

    assert fmt((0, IDENTITY, 1), (1, IDENTITY, 1)) == "A*B"
    assert fmt((0, IDENTITY, 2), (1, IDENTITY, Fraction(-1, 2))) == "A^2/sqrt(B)"
    assert fmt((0, LOG, 2), (1, LOG, -2)) == "(log(A))^2/(log(B))^2"
    assert fmt((0, IDENTITY, -1), (1, IDENTITY, -1)) == "1/(A*B)"
    assert fmt((0, IDENTITY, Fraction(3, 2)),) == "sqrt(A)^3"
    assert fmt((0, IDENTITY, -1),) == "1/A"
    assert fmt((0, LOG, 1),) == "log(A)"
    assert fmt((1, IDENTITY, 1), (0, IDENTITY, -2)) == "B/A^2"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_term_per_row_oracle():
    cols = np.array([[2.0, 3.0, 5.0], [0.25, 7.0, 11.0], [9.0, 0.5, 13.0]])
    term = TermExpr(
        (
            Factor(0, IDENTITY, Fraction(1, 2)),
            Factor(1, LOG, Fraction(2)),
            Factor(2, IDENTITY, Fraction(-1)),
        )
    )
    out = evaluate_term(term, cols)
    for i in range(3):
        a, b, c = cols[i]
        expected = math.sqrt(a) * math.log(b) ** 2 / c
        assert out[i] == pytest.approx(expected, rel=1e-14)


def test_evaluate_term_accepts_dataset_or_matrix():
    ds = _dataset(np.column_stack([POSITIVE, SIGNED]), ("a", "b"))
    term = TermExpr((Factor(0, IDENTITY, Fraction(2)), Factor(1, IDENTITY, Fraction(1))))
    np.testing.assert_array_equal(evaluate_term(term, ds), evaluate_term(term, ds.columns))
    np.testing.assert_array_equal(evaluate_term(term, ds), POSITIVE**2 * SIGNED)


def test_evaluate_domain_violations_name_the_first_bad_row():
    cols = np.column_stack([np.array([2.0, -1.0, 3.0])])
    with pytest.raises(DomainViolation) as exc:
        evaluate_term(TermExpr((Factor(0, LOG, Fraction(1)),)), cols)
    assert exc.value.row == 1

    cols = np.column_stack([np.array([2.0, 1.0, 0.0])])
    with pytest.raises(DomainViolation) as exc:
        evaluate_term(TermExpr((Factor(0, IDENTITY, Fraction(-1)),)), cols)
    assert exc.value.row == 2

    # log(1) == 0, so a negative log power divides by zero at row 0
    cols = np.column_stack([np.array([1.0, 2.0, 3.0])])
    with pytest.raises(DomainViolation) as exc:
        evaluate_term(TermExpr((Factor(0, LOG, Fraction(-1)),)), cols)
    assert exc.value.row == 0


# ---------------------------------------------------------------------------
# dictionary build
# ---------------------------------------------------------------------------


def test_dictionary_counts_for_three_positive_inputs():
    ds = synth_example1(200, seed=5)
    d = build_dictionary(ds, alpha=2, mixture=2)
    assert d.census.candidate_terms == 330  # 3*10 single + 3*10^2 pairs
    assert d.census.candidates_by_mixture == {1: 30, 2: 300}
    assert d.census.kept_terms == len(d) == 330
    assert d.census.excluded_terms == ()
    assert d.census.factor_restrictions == {}


def _brute_pairs(col, alpha):
    """Independent scalar re-derivation of the admissible factor menu."""
    positive = min(col) > 0.0
    bounded = min(abs(v) for v in col) > 1e-12
    pairs = []
    for k in range(1, alpha + 1):
        pairs.append((IDENTITY, Fraction(k)))
        if bounded:
            pairs.append((IDENTITY, Fraction(-k)))
    if positive:
        for j in range(1, alpha + 1):
            if j % 2 == 1:
                pairs.append((IDENTITY, Fraction(j, 2)))
                if bounded:
                    pairs.append((IDENTITY, Fraction(-j, 2)))
        log_bounded = min(abs(math.log(v)) for v in col) > 1e-12
        for k in range(1, alpha + 1):
            pairs.append((LOG, Fraction(k)))
            if log_bounded:
                pairs.append((LOG, Fraction(-k)))
    return pairs


def _brute_keys(columns, alpha, mixture):
    """Enumerate every candidate key straight from the documented grammar."""
    p = columns.shape[1]
    menus = [_brute_pairs(columns[:, i].tolist(), alpha) for i in range(p)]
    keys = set()
    for m in range(1, mixture + 1):
        for combo in itertools.combinations(range(p), m):
            for choice in itertools.product(*(menus[i] for i in combo)):
                parts = []
                for idx, (transform, e) in zip(combo, choice):
                    if transform == LOG:
                        parts.append(f"log(v{idx})^{e.numerator}")
                    else:
                        parts.append(f"v{idx}^{e.numerator}/{e.denominator}")
                keys.add("*".join(parts))
    return keys


@pytest.mark.parametrize("alpha,mixture", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)])
def test_dictionary_matches_brute_force_enumeration(alpha, mixture):
    columns = np.column_stack([POSITIVE, SIGNED, WITH_ZERO])
    ds = _dataset(columns, ("a", "b", "c"))
    d = build_dictionary(ds, alpha=alpha, mixture=mixture)
    expected = _brute_keys(columns, alpha, mixture)
    built = set(d.keys()) | {key for key, _ in d.census.excluded_terms}
    assert built == expected
    assert d.census.candidate_terms == len(expected)


def test_dictionary_mixture_shapes_present():
    ds = _dataset(np.column_stack([POSITIVE, np.array([5.0, 7.0, 11.0])]), ("a", "b"))
    keys = set(build_dictionary(ds, alpha=2, mixture=2).keys())
    assert "v0^-1/1" in keys  # 1/a
    assert "v0^2/1*v1^-1/1" in keys  # a^2/b
    assert "v0^1/2*v1^-1/1" in keys  # sqrt(a)/b
    assert "v0^2/1*v1^2/1" in keys  # a^2*b^2
    assert "v0^2/1*log(v1)^2" in keys  # a^2*(log b)^2
    assert "log(v0)^-2*log(v1)^1" in keys


def test_dictionary_orders_terms_by_key():
    d = build_dictionary(synth_example1(100, seed=9), alpha=2, mixture=2)
    keys = d.keys()
    assert keys == sorted(keys)


def test_dictionary_build_is_deterministic():
    ds = synth_example1(150, seed=4)
    d1 = build_dictionary(ds, alpha=2, mixture=2)
    d2 = build_dictionary(ds, alpha=2, mixture=2)
    assert d1.keys() == d2.keys()
    assert matrix_of(d1).tobytes() == matrix_of(d2).tobytes()


def test_dictionary_budget_enforced_before_evaluation():
    with pytest.raises(DictionaryTooLarge) as exc:
        build_dictionary(synth_example1(50, seed=0), alpha=2, mixture=2, budget=100)
    assert exc.value.count == 330
    assert exc.value.budget == 100


def test_proportional_columns_prune_exactly_the_ratio_terms():
    x1 = np.array([0.6, 2.0, 3.0])
    ds = _dataset(np.column_stack([x1, 2.0 * x1]), ("a", "b"))
    d = build_dictionary(ds, alpha=2, mixture=2)
    excluded = {key for key, reason in d.census.excluded_terms}
    assert all(reason == "constant column" for _, reason in d.census.excluded_terms)
    # a^e * (2a)^f is constant exactly when e + f == 0
    assert excluded == {
        "v0^1/1*v1^-1/1",
        "v0^-1/1*v1^1/1",
        "v0^2/1*v1^-2/1",
        "v0^-2/1*v1^2/1",
        "v0^1/2*v1^-1/2",
        "v0^-1/2*v1^1/2",
    }
    assert d.census.candidate_terms == 120
    assert d.census.kept_terms == 114
    assert d.census.kept_by_mixture == {1: 20, 2: 94}


def test_constant_column_keeps_only_cross_terms():
    ds = _dataset(np.column_stack([POSITIVE, np.full(3, 3.0)]), ("a", "c"))
    d = build_dictionary(ds, alpha=1, mixture=1)
    assert d.census.candidate_terms == 12
    assert d.census.kept_terms == 6
    assert all("v1" in key for key, _ in d.census.excluded_terms)
    assert all("v0" in key for key in d.keys())


def test_factor_restrictions_report_reasons():
    columns = np.column_stack([POSITIVE, SIGNED, WITH_ZERO])
    d = build_dictionary(_dataset(columns, ("a", "b", "c")), alpha=2, mixture=1)
    restrictions = d.census.factor_restrictions
    assert "a" not in restrictions
    assert restrictions["b"] == ("log and square-root powers excluded: column not strictly positive",)
    assert len(restrictions["c"]) == 2


def test_dictionary_subset_and_labels():
    ds = _dataset(np.column_stack([POSITIVE, np.array([5.0, 7.0, 11.0])]), ("a", "b"))
    d = build_dictionary(ds, alpha=1, mixture=1)
    sub = d.subset([2, 0])
    assert sub.keys() == [d.keys()[2], d.keys()[0]]
    np.testing.assert_array_equal(sub.rows([0])[0], d.rows([2])[0])
    labels = [format_term(t, d.source_labels) for t in d.terms]
    assert "1/a" in labels


def test_build_dictionary_validation():
    ds = synth_example1(20, seed=0)
    with pytest.raises(ValueError):
        build_dictionary(ds, alpha=0, mixture=1)
    with pytest.raises(ValueError):
        build_dictionary(ds, alpha=1, mixture=0)


@pytest.mark.parametrize("length", [49, 51])
def test_a_response_of_another_length_raises_before_any_row_is_formed(monkeypatch, length):
    # Anything with columns, names and a response may be built: the lengths are checked.
    columns = synth_example1(50, seed=1).columns
    ds = SimpleNamespace(columns=columns, variable_names=("a", "b", "c"), response=np.ones(length))
    monkeypatch.setattr(dictionary, "_evaluate_factor", mock.Mock(side_effect=AssertionError))
    with pytest.raises(LengthMismatch) as err:
        build_dictionary(ds, alpha=2, mixture=2)
    assert str(err.value) == f"response shape ({length},) does not match 50 rows"


def _with_an_inf_cell(columns):
    columns = columns.copy()
    columns[3, 1] = np.inf
    return columns


@pytest.mark.parametrize(
    "columns, names, error, message",
    [
        (lambda c: c[:, 0], ("a",), ValueError, "need a 2-d"),
        (_with_an_inf_cell, ("a", "b", "c"), NonFinite, "NaN or infinite"),
        (lambda c: c[:, :2], ("a",), ValueError, "got 1 names for 2 columns"),
    ],
    ids=["one-d", "inf", "one-name-two-columns"],
)
def test_a_duck_typed_dataset_is_validated_before_any_row_is_formed(
    monkeypatch, columns, names, error, message
):
    columns = columns(synth_example1(50, seed=1).columns)
    ds = SimpleNamespace(columns=columns, variable_names=names, response=np.ones(50))
    monkeypatch.setattr(dictionary, "_evaluate_factor", mock.Mock(side_effect=AssertionError))
    with pytest.raises(error, match=message):
        build_dictionary(ds, alpha=2, mixture=2)


def test_census_to_dict_is_json_friendly():
    import json

    d = build_dictionary(synth_example1(50, seed=2), alpha=1, mixture=1)
    payload = d.census.to_dict()
    parsed = json.loads(json.dumps(payload))
    assert parsed["candidate_terms"] == d.census.candidate_terms
    assert parsed["candidates_by_mixture"] == {"1": 18}


# ---------------------------------------------------------------------------
# block builder against the per-term builder
# ---------------------------------------------------------------------------


def _per_term_build(columns, alpha, mixture):
    """The per-term reference: every candidate built, keyed and evaluated
    alone with ``evaluate_term``, then scanned in key order.

    Returns (kept keys, (n, T) matrix, excluded keys, kept count by mixture,
    candidate count), or raises what the first failing term raises.
    """
    n, p = columns.shape
    mixture = min(mixture, p)
    menus = [sorted(admissible_factors(columns[:, i], alpha)) for i in range(p)]
    keyed = []
    for m in range(1, mixture + 1):
        for combo in itertools.combinations(range(p), m):
            for choice in itertools.product(*(menus[i] for i in combo)):
                term = TermExpr(tuple(Factor(i, t, e) for i, (t, e) in zip(combo, choice)))
                keyed.append((canonical_key(term), term))
    keyed.sort(key=lambda pair: pair[0])
    kept_keys, kept_columns, excluded = [], [], []
    kept_by_mixture = {m: 0 for m in range(1, mixture + 1)}
    for key, term in keyed:
        values = evaluate_term(term, columns)
        if float(values.std()) <= 1e-12 * abs(float(values.mean())) + 1e-300:
            excluded.append(key)
            continue
        kept_keys.append(key)
        kept_columns.append(values)
        kept_by_mixture[len(term.factors)] += 1
    matrix = np.column_stack(kept_columns) if kept_columns else np.empty((n, 0))
    return kept_keys, matrix, excluded, kept_by_mixture, len(keyed)


_COLUMN_KINDS = (
    "positive", "signed", "with_zero", "with_one", "duplicate", "constant", "huge", "tiny",
    "near_constant",
)
_KIND_RANGES = {"signed": (-10.0, 10.0), "huge": (1e120, 1e170), "tiny": (1e-170, 1e-150)}


@st.composite
def _build_inputs(draw, wide=False):
    """(columns, alpha, mixture); ``wide`` draws up to four columns and
    mixtures up to 4, with alpha 1 at four columns to bound the term count."""
    n = draw(st.integers(3, 9))
    p = draw(st.integers(1, 4 if wide else 3))
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(_COLUMN_KINDS))
        if kind == "duplicate" and columns:
            # Ratio terms of twin columns are exactly constant (example 2).
            col = columns[draw(st.integers(0, len(columns) - 1))].copy()
        elif kind == "constant":
            col = np.full(n, draw(st.floats(0.25, 8.0)))
        elif kind == "near_constant":
            # Entries c (1 + k 2^-40), with c tuned to the drawn k so that
            # the column's sd lies within a few ulps of 1e-12 |mean|, the
            # edge of the constant-term check, then scaled by a power of two.
            k = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=float)
            s = 2.0**-40
            c = s * float(np.std(k)) / 1e-12 - s * float(np.mean(k))
            c += draw(st.integers(-4, 4)) * math.ulp(c)
            col = (c + s * k) * 2.0 ** draw(st.integers(-8, 8))
        else:
            # Products of tiny entries underflow to subnormals and zeros.
            lo, hi = _KIND_RANGES.get(kind, (0.05, 20.0))
            col = np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
            row = draw(st.integers(0, n - 1))
            if kind == "with_zero":
                col[row] = 0.0
            elif kind == "with_one":
                col[row] = 1.0  # log(1) == 0 blocks negative log powers
        columns.append(col)
    alpha = draw(st.integers(1, 1 if p == 4 else 3))
    return np.column_stack(columns), alpha, draw(st.integers(1, 4 if wide else 3))


@given(_build_inputs())
@settings(max_examples=150, deadline=None)
def test_block_builder_matches_the_per_term_builder(inputs):
    columns, alpha, mixture = inputs
    ds = _dataset(columns, tuple(f"x{i}" for i in range(columns.shape[1])))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        try:
            expected = _per_term_build(columns, alpha, mixture)
        except DomainViolation as err:
            with pytest.raises(DomainViolation) as built:
                build_dictionary(ds, alpha, mixture)
            assert str(built.value) == str(err)
            assert built.value.row == err.row
            return
        d = build_dictionary(ds, alpha, mixture)
    kept_keys, matrix, excluded, kept_by_mixture, candidates = expected
    assert d.keys() == kept_keys
    assert matrix_of(d).shape == matrix.shape
    assert matrix_of(d).tobytes() == matrix.tobytes()
    assert d.census.candidate_terms == candidates
    assert d.census.kept_terms == len(kept_keys)
    assert d.census.kept_by_mixture == kept_by_mixture
    assert d.census.excluded_terms == tuple((key, "constant column") for key in excluded)
    # Terms built without the constructor's checks still equal checked ones.
    assert all(TermExpr(t.factors) == t for t in d.terms)


@given(_build_inputs(wide=True), st.sampled_from((1, 2, 5, 32)))
@settings(max_examples=120, deadline=None)
def test_prefix_formed_pass_matches_evaluate_term_center_and_dot(inputs, block_rows):
    columns, alpha, mixture = inputs
    n, p = columns.shape
    ds = _dataset(columns, tuple(f"x{i}" for i in range(p)))
    yc = ds.response - ds.response.mean()
    # Every term, in the builder's enumeration order: each combination's
    # Cartesian product of its variables' sorted factors.
    menus = [sorted(admissible_factors(columns[:, i], alpha)) for i in range(p)]
    terms = [
        TermExpr(tuple(Factor(i, t, e) for i, (t, e) in zip(combo, choice)))
        for m in range(1, min(mixture, p) + 1)
        for combo in itertools.combinations(range(p), m)
        for choice in itertools.product(*(menus[i] for i in combo))
    ]
    formed, stats = [], []
    real_blocks, real_dots = dictionary._prefix_blocks, dictionary._centered_dots

    def copied_blocks(factor_rows, runs):
        for start, block in real_blocks(factor_rows, runs):
            formed.append(block.copy())
            yield start, block

    def kept_dots(*args):
        stats.append(real_dots(*args))
        return stats[-1]

    # Block sizes below the last variable's factor count (up to 16 at
    # alpha 3) give blocks of one prefix each.
    with np.errstate(over="ignore", invalid="ignore", under="ignore"), \
            mock.patch.object(dictionary, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(dictionary, "_prefix_blocks", copied_blocks), \
            mock.patch.object(dictionary, "_centered_dots", kept_dots):
        try:
            expected = _per_term_build(columns, alpha, mixture)
        except DomainViolation as err:
            # An overflowing product raises the lowest-keyed term's error.
            with pytest.raises(DomainViolation) as built:
                build_dictionary(ds, alpha, mixture)
            assert str(built.value) == str(err) and built.value.row == err.row
            return
        d = build_dictionary(ds, alpha, mixture)
        rows = np.concatenate(formed)
        means, squares, products = stats[0]
        assert len(rows) == len(terms) == d.census.candidate_terms
        for j, term in enumerate(terms):
            values = evaluate_term(term, columns)
            assert rows[j].tobytes() == values.tobytes()
            c = center(values)
            assert means[j] == values.mean()
            assert squares[j].tobytes() == c.values.dot(c.values).tobytes()
            assert products[j].tobytes() == c.values.dot(yc).tobytes()
    kept_keys, matrix, excluded, kept_by_mixture, candidates = expected
    assert d.keys() == kept_keys
    assert d.census.excluded_terms == tuple((key, "constant column") for key in excluded)
    assert d.census.kept_by_mixture == kept_by_mixture
    assert d.census.candidate_terms == candidates
    order = {term.key: j for j, term in enumerate(terms)}
    picks = [order[key] for key in kept_keys]
    assert d._dots[1].tobytes() == means[picks].tobytes()
    assert d._dots[2].tobytes() == np.sqrt(squares[picks]).tobytes()
    assert d._dots[3].tobytes() == products[picks].tobytes()


def test_overflowing_product_raises_for_the_lowest_keyed_term():
    a = np.array([1e160, 2e160, 3e160])
    b = np.array([1.5, 2.0, 4.0])
    ds = _dataset(np.column_stack([b, a]), ("b", "a"))
    with np.errstate(over="ignore"):
        with pytest.raises(DomainViolation) as err:
            build_dictionary(ds, alpha=2, mixture=2)
    # a^2 overflows; the lowest key among the terms holding it is raised.
    assert str(err.value) == "row 0: term log(v0)^-1*v1^2/1 evaluated to a non-finite value"
    with np.errstate(over="ignore"), pytest.raises(DomainViolation) as reference:
        _per_term_build(ds.columns, 2, 2)
    assert str(reference.value) == str(err.value)


def test_subset_layout_does_not_depend_on_the_dictionary_layout():
    # The QR referee fits a subset's columns.  They are laid out as the same
    # pick from a row-major (n, T) matrix would be, although the builder
    # stores the terms as factor rows, so what a caller reads does not
    # depend on how the dictionary is stored.
    d = build_dictionary(synth_example1(40, seed=3), alpha=2, mixture=2)
    picks = [5, 0, len(d) - 1, 17]
    sub = d.subset(picks)
    row_major = np.ascontiguousarray(matrix_of(d))[:, picks]
    assert matrix_of(sub).tobytes(order="A") == row_major.tobytes(order="A")


# ---------------------------------------------------------------------------
# term rows formed on demand, and carried keys
# ---------------------------------------------------------------------------


def _rendered_key(term):
    """The canonical key, rendered from the factors independently."""
    parts = []
    for f in term.factors:
        e = f.exponent
        if f.transform == LOG:
            parts.append(f"log(v{f.variable_index})^{e.numerator}")
        else:
            parts.append(f"v{f.variable_index}^{e.numerator}/{e.denominator}")
    return "*".join(parts)


@given(_terms())
@settings(max_examples=100, deadline=None)
def test_terms_carry_their_key_outside_equality_and_hash(term):
    assert canonical_key(term) == term.key == _rendered_key(term)
    twin = TermExpr(tuple(reversed(term.factors)))
    assert twin == term and hash(twin) == hash(term)
    object.__setattr__(twin, "key", "not a key")
    assert twin == term and hash(twin) == hash(term)
    assert "not a key" not in repr(twin)


def test_built_terms_carry_their_rendered_keys():
    d = build_dictionary(synth_example1(30, seed=4), alpha=2, mixture=3)
    assert d.keys() == [_rendered_key(t) for t in d.terms]
    assert d.keys() == sorted(d.keys())


def test_term_rows_are_formed_on_demand_with_the_matrix_bits():
    d = build_dictionary(synth_example1(40, seed=5), alpha=2, mixture=3)
    matrix = np.column_stack([evaluate_term(t, synth_example1(40, seed=5)) for t in d.terms])
    seen = np.zeros(len(d), dtype=int)
    start = 0
    for index, block in d.blocks():
        # Blocks come in key order: consecutive, ascending index ranges.
        assert index.tolist() == list(range(start, start + len(index))) and len(index) > 0
        start += len(index)
        assert block.flags.c_contiguous and block.shape == (len(index), d.n)
        assert block.tobytes() == np.ascontiguousarray(matrix[:, index].T).tobytes()
        seen[index] += 1
    assert (seen == 1).all()
    picks = [7, 3, len(d) - 1, 3]
    assert d.rows(picks).T.tobytes() == matrix[:, picks].tobytes()
    assert matrix_of(d).tobytes() == matrix.tobytes()


def test_a_matrix_dictionary_is_one_factor_row_per_term():
    rng = np.random.default_rng(6)
    columns = rng.normal(size=(9, 4))
    terms = tuple(TermExpr((Factor(i, IDENTITY, Fraction(1)),)) for i in range(4))
    d = Dictionary(terms=terms, columns=columns, source_labels=tuple("abcd"))
    blocks = list(d.blocks())
    assert [index.tolist() for index, _ in blocks] == [[0, 1, 2, 3]]
    assert blocks[0][1].tobytes() == columns.T.tobytes()
    assert d.rows([2, 0]).T.tobytes() == columns[:, [2, 0]].tobytes()
    with pytest.raises(ValueError):
        Dictionary(terms=terms, columns=columns[:, :3], source_labels=tuple("abcd"))


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_matrix_dictionary_copies_the_callers_matrix(order):
    columns = np.array(np.random.default_rng(7).normal(size=(9, 4)), order=order)
    terms = tuple(TermExpr((Factor(i, IDENTITY, Fraction(1)),)) for i in range(4))
    d = Dictionary(terms=terms, columns=columns, source_labels=tuple("abcd"))
    before = d.rows(range(4)).copy()
    assert columns.flags.writeable
    columns[:] = 0.0
    assert d.rows(range(4)).tobytes() == before.tobytes() != np.zeros_like(before).tobytes()


def test_subsets_and_importance_form_no_rows(monkeypatch):
    ds = synth_example1(40, seed=8)
    built = []  # the row count of every block of the build pass
    formed = []  # the row count of every _form call
    real_blocks, real_form = dictionary._prefix_blocks, dictionary._form

    def counted_blocks(factor_rows, runs):
        for start, block in real_blocks(factor_rows, runs):
            built.append(len(block))
            yield start, block

    monkeypatch.setattr(dictionary, "_prefix_blocks", counted_blocks)
    monkeypatch.setattr(dictionary, "_form", lambda f, r: formed.append(len(r)) or real_form(f, r))
    d = build_dictionary(ds, alpha=2, mixture=3)
    # The build forms each candidate's row once, in its one pass, from one
    # row per prefix: a term's factors but its last.
    assert sum(built) == d.census.candidate_terms
    sizes = [len(admissible_factors(ds.columns[:, i], 2)) for i in range(ds.p)]
    prefixes = sum(
        math.prod(sizes[i] for i in combo[:-1])
        for m in range(1, 4)
        for combo in itertools.combinations(range(ds.p), m)
    )
    assert sum(formed) == prefixes < d.census.candidate_terms
    formed.clear()
    sub = d.subset(range(0, len(d), 3)).subset([4, 0, 9])
    assert formed == [] and len(sub) == 3
    result = importance_filter(d, ds.response, ImportanceRule("relative", 0.5))
    # Importance reads the norms and products the build carried.
    assert formed == [] and 0 < len(result.dictionary) < len(d)
    redundancy_filter(result.dictionary, ds.response, 0.9)
    # Redundancy forms its survivors' rows once, to center them.
    assert sum(formed) == len(result.dictionary)


def test_a_view_of_a_view_reads_the_parents_bits():
    d = build_dictionary(synth_example1(50, seed=9), alpha=2, mixture=3)
    outer = [len(d) - 1, 40, 3, 77, 3, 12, 0] + list(range(100, 180))
    inner = [5, 0, 1, 60, 4, 2, 4]
    picks = [outer[i] for i in inner]
    view = d.subset(outer).subset(inner)
    assert view.terms == tuple(d.terms[i] for i in picks)
    assert matrix_of(view).tobytes(order="A") == matrix_of(d)[:, picks].tobytes(order="A")
    rows = np.concatenate([block for _, block in view.blocks()])
    assert rows.tobytes() == np.ascontiguousarray(matrix_of(d)[:, picks].T).tobytes()


def test_rows_are_a_views_columns_formed_with_no_view():
    d = build_dictionary(synth_example1(50, seed=9), alpha=2, mixture=3)
    for combo in [(0,), (3, 77), (len(d) - 1, 12, 40), (5, 5, 0)]:
        rows = d.rows(combo)
        assert rows.shape == (len(combo), d.n) and rows.flags.c_contiguous
        view = d.subset(combo)
        assert rows.T.tobytes(order="A") == matrix_of(view).tobytes(order="A")
        assert rows.T.tobytes(order="A") == matrix_of(d)[:, list(combo)].tobytes(order="A")


def _dict_heavy_shaped():
    """Six U[0.5, 10] inputs at n = 1000, the benchmark's dictionary-heavy shape."""
    rng = np.random.Generator(np.random.Philox(key=np.array([41, 0], dtype=np.uint64)))
    columns = 0.5 + 9.5 * rng.random((1000, 6))
    return Dataset(
        variable_names=tuple(f"x{i + 1}" for i in range(6)),
        columns=columns,
        response_name="y",
        response=columns.sum(axis=1),
    )


def test_dictionary_build_holds_no_matrix_of_every_term(tmp_path):
    ds = _dict_heavy_shaped()
    tracemalloc.start()
    try:
        d = build_dictionary(ds, alpha=2, mixture=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = d.census.candidate_terms
    assert terms == 21_560
    # A (T, n) matrix of every term would take T * n * 8 = 172 MB.
    assert peak < 0.1 * terms * ds.n * 8

    path = tmp_path / "in.csv"
    write_csv(ds, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["dict", "--input", str(path), "--response", "y", "--alpha", "2", "--mixture", "3"]
        assert main(argv) == 0
    census = {
        "candidate_terms": 21560,
        "kept_terms": 21560,
        "candidates_by_mixture": {"1": 60, "2": 1500, "3": 20000},
        "kept_by_mixture": {"1": 60, "2": 1500, "3": 20000},
        "excluded_terms": [],
        "factor_restrictions": {},
    }
    assert out.getvalue() == json.dumps(census, indent=2) + "\n"


def test_only_rows_inside_the_band_go_to_is_constant(monkeypatch):
    calls = []  # the row count of every _is_constant call
    real = dictionary._is_constant
    monkeypatch.setattr(dictionary, "_is_constant", lambda v: calls.append(len(v)) or real(v))
    # x = m + k s with k = -1, 1, ...: sd is s and the mean m, so at
    # m = s / 1e-12 the sd meets the check's limit 1e-12 |mean|.
    s = 2.0**-40
    k = np.array([-1.0, 1.0] * 4)
    m = s / 1e-12
    verdicts = set()
    for j in range(-4, 5):
        columns = (m + j * math.ulp(m) + s * k)[:, None]
        calls.clear()
        d = build_dictionary(_dataset(columns, ("x",)), alpha=1, mixture=1)
        kept, _, excluded, _, _ = _per_term_build(columns, 1, 1)
        assert d.keys() == kept
        assert d.census.excluded_terms == tuple((key, "constant column") for key in excluded)
        assert calls == [1]  # v0^1/1 alone lies inside the band
        verdicts.add("v0^1/1" in excluded)
    assert verdicts == {True, False}

    calls.clear()
    d = build_dictionary(_dict_heavy_shaped(), alpha=2, mixture=3)
    assert len(d) == 21_560 and calls == []


# sha256 of `parseal dict --alpha 2 --mixture 3` on each dataset, taken
# before the constant check was decided from the screening pass's norms.
_CENSUS_SHA256 = {
    "synth_example1": "a0c899c4c478baae50f0285aaa694403a03702cbb3d7fc5a78e1107f1f61df67",
    "synth_example2": "da9e6b6a650b66494a674ef87cc8bfd1708db748263b7d6441616bb7c9d9b40f",
    "dict_heavy_shaped": "7685a2ec2359401d728d0dfb247c7186229d3afd662894a2614c60ef40884bc2",
}


@pytest.mark.parametrize("name", sorted(_CENSUS_SHA256))
def test_dict_census_bytes_are_pinned(name, tmp_path):
    ds = {
        "synth_example1": lambda: synth_example1(1000, seed=0),
        "synth_example2": lambda: synth_example2(1000, seed=0),
        "dict_heavy_shaped": _dict_heavy_shaped,
    }[name]()
    path = tmp_path / "in.csv"
    write_csv(ds, path)
    argv = ["dict", "--input", str(path), "--response", "y", "--alpha", "2", "--mixture", "3"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
        assert main(argv + ["--out", str(tmp_path / "census.json")]) == 0
    text = out.getvalue().split("census written to")[0].encode("ascii")
    assert hashlib.sha256(text).hexdigest() == _CENSUS_SHA256[name]
    assert (tmp_path / "census.json").read_bytes() == text


def _per_row_centered_dots(factor_rows, recipe, yc):
    """The block pass as it was with a ddot call per row: the oracle of
    ``_centered_dots``'s means, squares and products."""
    means = np.empty(len(recipe))
    squares = np.empty(len(recipe))
    products = np.empty(len(recipe))
    with np.errstate(over="ignore", invalid="ignore"):
        for start, block in dictionary._blocks(factor_rows, recipe):
            stop = start + len(block)
            means[start:stop] = block.mean(axis=1)
            centered = block - means[start:stop, None]
            i = start
            for row in centered:
                squares[i] = row.dot(row)
                products[i] = row.dot(yc)
                i += 1
    return means, squares, products


def _same_bits(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


_ROW_KINDS = ("normal", "tiny", "huge", "offset", "zero", "constant", "non_finite")


def _row(rng, kind, n):
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, rng.normal() * 10.0 ** rng.uniform(-300, 300))
    values = rng.standard_normal(n)
    if kind == "normal":
        return values * 10.0 ** rng.uniform(-5, 5)
    if kind == "tiny":  # near _TINY, and squares that underflow
        return np.ldexp(values, int(math.log2(dictionary._TINY)) + int(rng.integers(-150, 80)))
    if kind == "huge":  # near _HUGE, and sums of squares that overflow
        return np.ldexp(values, int(math.log2(dictionary._HUGE)) + int(rng.integers(-40, 20)))
    if kind == "offset":  # centering cancels all but a few bits
        return np.copysign(10.0 ** rng.uniform(4, 12), rng.normal()) + values * 1e-3
    values[rng.integers(n)] = rng.choice([math.inf, -math.inf, math.nan])
    return values


@given(
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=64),
    n=st.integers(2, 4096),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_batched_ddots_match_the_per_row_ddots(kinds, n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = [_row(rng, kind, n) for kind in kinds]
    factor_rows = np.stack(rows + [np.ones(n)])
    # Each term is one row times the all-ones padding row.
    recipe = np.stack([np.arange(len(rows)), np.full(len(rows), len(rows))], axis=1)
    yc = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    yc -= yc.mean()
    blocks = list(dictionary._blocks(factor_rows, recipe))
    means, squares, products = dictionary._centered_dots(iter(blocks), len(recipe), yc)
    want = _per_row_centered_dots(factor_rows, recipe, yc)
    for a, b in zip((means, squares, products), want):
        assert _same_bits(a, b)
    # A row holding a NaN or inf gets a NaN square, which sends it to the
    # checks that find it.
    assert np.isnan(squares[~np.isfinite(factor_rows[:-1]).all(axis=1)]).all()
    # The pass leaves each block centered in place.
    centered = np.concatenate([block for _, block in blocks])
    with np.errstate(invalid="ignore", over="ignore"):
        expected = factor_rows[:-1] - factor_rows[:-1].mean(axis=1)[:, None]
    assert _same_bits(centered.ravel(), expected.ravel())


def _one_d_centered_dots(rows, yc):
    """Each row's mean, square and response product the 1-d way, one row at a
    time and outside any row-pass scope: ``row.mean()``, ``row - mean``, then
    the two ``ndarray.dot``s."""
    out = np.empty((3, len(rows)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(rows):
            mean = row.mean()
            centered = row - mean
            out[:, i] = mean, centered.dot(centered), centered.dot(yc)
    return out


def _hazard_rows(rng, n):
    """Rows of ordinary, tiny and huge magnitude, and rows that mix them with
    both signs."""
    values = rng.standard_normal((6, n))
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    mixed = np.where(rng.random(n) < 0.5, 1e-300, 1e300) * values[5]
    return np.stack([
        values[0],
        values[1] * 1e-300,  # squares underflow
        np.ldexp(values[2], int(math.log2(dictionary._TINY))),
        values[3] * 1e300,  # squares overflow
        signs * 1.7e308,  # the row sum cancels term by term, or overflows
        signs * 1e300 + values[4] * 1e290,
        1e12 + values[4] * 1e-3,  # centering cancels all but a few bits
        mixed,  # tiny and huge entries of both signs in one row
        -mixed[::-1],
    ])


@pytest.mark.parametrize("n", [3, 15, 16, 17, 1000, 8191, 8192, 8193, 20000])
def test_the_row_pass_keeps_the_bits_of_one_d_rows(n):
    # The pass runs under numpy's smallest ufunc buffer; every mean, square
    # and product must keep the bits of the plain 1-d ops on each row, whether
    # the rows come in blocks or from the build's prefix multiply.
    rng = np.random.Generator(np.random.Philox(key=n))
    rows = _hazard_rows(rng, n)
    yc = rng.standard_normal(n) * 1e3
    yc -= yc.mean()
    want = _one_d_centered_dots(rows, yc)
    for size in (1, 4, len(rows)):
        blocks = [(a, rows[a:a + size].copy()) for a in range(0, len(rows), size)]
        got = dictionary._centered_dots(iter(blocks), len(rows), yc)
        for a, b in zip(got, want):
            assert _same_bits(a, b)
    # Each row times each of three last factor rows, prefix-major, as the
    # build forms its terms, against the same products taken one 1-d row at
    # a time.
    factor_rows = np.concatenate([rows, rng.standard_normal((3, n)) * [[1e-200], [1.0], [1e200]]])
    last = np.arange(len(rows), len(factor_rows))
    runs = [(np.arange(len(rows))[:, None], last)]
    with np.errstate(over="ignore", invalid="ignore"):
        products = [factor_rows[p] * factor_rows[q] for p in range(len(rows)) for q in last]
    want = _one_d_centered_dots(products, yc)
    for block_rows in (1, 7, 32):
        with mock.patch.object(dictionary, "_BLOCK_ROWS", block_rows):
            blocks = dictionary._prefix_blocks(factor_rows, runs)
            got = dictionary._centered_dots(blocks, len(products), yc)
        for a, b in zip(got, want):
            assert _same_bits(a, b)


def test_a_fit_makes_no_object_per_dropped_term(tmp_path, monkeypatch):
    from parseal import SelectionConfig, pipeline, run_pipeline

    made = {"terms": 0, "records_read": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            made[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TermExpr, "__post_init__", counting("terms", TermExpr.__post_init__))
    for method in ("__iter__", "__getitem__"):
        read = counting("records_read", getattr(pipeline.Records, method))
        monkeypatch.setattr(pipeline.Records, method, read)

    cfg = SelectionConfig(alpha=2, mixture_m=3, varsigma=0.9, search_mode="greedy_forward")
    report = run_pipeline(_dict_heavy_shaped(), cfg, out_dir=tmp_path, stable=True)
    counts = dict(made)
    screened = report.screening
    survivors = len(screened["kept"]) + len(screened["dropped_redundant"])
    assert report.dictionary["kept_terms"] == 21_560 and survivors < 5_000
    # A TermExpr is made for each kept term, and for no dropped one.
    assert counts["terms"] <= len(screened["kept"])
    # No drop record became a dict, to write the report or to keep it.
    assert counts["records_read"] == 0
    assert _dicts_with(report.screening, "abs_corr") == 0
    assert (tmp_path / "report.json").read_bytes() == report.to_json().encode("ascii")


def _dicts_with(obj, key):
    """Dicts holding ``key`` inside the dicts and lists of ``obj``."""
    if isinstance(obj, dict):
        return (key in obj) + sum(_dicts_with(v, key) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_dicts_with(v, key) for v in obj)
    return 0
