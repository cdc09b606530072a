"""Term grammar, admissibility, enumeration counts, and evaluation."""

import contextlib
import io
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parseal import (
    Dataset,
    Dictionary,
    Factor,
    TermExpr,
    admissible_factors,
    build_dictionary,
    canonical_key,
    evaluate_term,
    format_term,
    synth_example1,
    write_csv,
)
from parseal.cli import main
from parseal.dictionary import IDENTITY, LOG
from parseal.errors import DictionaryTooLarge, DomainViolation, NonFinite


def _dataset(columns, names):
    columns = np.asarray(columns, dtype=np.float64)
    return Dataset(
        variable_names=names,
        columns=columns,
        response_name="y",
        response=np.arange(columns.shape[0], dtype=np.float64) + 1.0,
    )


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
    assert d1.columns.tobytes() == d2.columns.tobytes()


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
    np.testing.assert_array_equal(sub.columns[:, 0], d.columns[:, 2])
    assert len(d.labels()) == len(d)
    assert "1/a" in d.labels()


def test_build_dictionary_validation():
    ds = synth_example1(20, seed=0)
    with pytest.raises(ValueError):
        build_dictionary(ds, alpha=0, mixture=1)
    with pytest.raises(ValueError):
        build_dictionary(ds, alpha=1, mixture=0)


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
    "positive", "signed", "with_zero", "with_one", "duplicate", "constant", "huge", "tiny"
)
_KIND_RANGES = {"signed": (-10.0, 10.0), "huge": (1e120, 1e170), "tiny": (1e-170, 1e-150)}


@st.composite
def _build_inputs(draw):
    n = draw(st.integers(3, 9))
    p = draw(st.integers(1, 3))
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(_COLUMN_KINDS))
        if kind == "duplicate" and columns:
            # Ratio terms of twin columns are exactly constant (example 2).
            col = columns[draw(st.integers(0, len(columns) - 1))].copy()
        elif kind == "constant":
            col = np.full(n, draw(st.floats(0.25, 8.0)))
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
    return np.column_stack(columns), draw(st.integers(1, 3)), draw(st.integers(1, 3))


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
    assert d.columns.shape == matrix.shape
    assert d.columns.tobytes() == matrix.tobytes()
    assert d.census.candidate_terms == candidates
    assert d.census.kept_terms == len(kept_keys)
    assert d.census.kept_by_mixture == kept_by_mixture
    assert d.census.excluded_terms == tuple((key, "constant column") for key in excluded)
    # Terms built without the constructor's checks still equal checked ones.
    assert all(TermExpr(t.factors) == t for t in d.terms)


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
    # The search sums the screened columns along axis 0, so the subset it
    # gets must be laid out as if the dictionary were a row-major (n, T)
    # matrix, although the builder stores it as the transpose of (T, n) rows.
    d = build_dictionary(synth_example1(40, seed=3), alpha=2, mixture=2)
    picks = [5, 0, len(d) - 1, 17]
    sub = d.subset(picks)
    row_major = np.ascontiguousarray(d.columns)[:, picks]
    assert sub.columns.strides == row_major.strides
    assert sub.columns.tobytes(order="A") == row_major.tobytes(order="A")
    assert not sub.columns.flags.writeable


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
    assert d.subset(picks).columns.tobytes() == matrix[:, picks].tobytes()
    assert d.column(11).tobytes() == matrix[:, 11].tobytes()
    assert d.columns.tobytes() == matrix.tobytes()
    assert not d.columns.flags.writeable


def test_a_matrix_dictionary_is_one_factor_row_per_term():
    rng = np.random.default_rng(6)
    columns = rng.normal(size=(9, 4))
    terms = tuple(TermExpr((Factor(i, IDENTITY, Fraction(1)),)) for i in range(4))
    d = Dictionary(terms=terms, columns=columns, source_labels=tuple("abcd"))
    assert d.columns is columns and not columns.flags.writeable
    blocks = list(d.blocks())
    assert [index.tolist() for index, _ in blocks] == [[0, 1, 2, 3]]
    assert blocks[0][1].tobytes() == columns.T.tobytes()
    assert d.subset([2, 0]).columns.tobytes() == columns[:, [2, 0]].tobytes()
    with pytest.raises(ValueError):
        Dictionary(terms=terms, columns=columns[:, :3], source_labels=tuple("abcd"))


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
