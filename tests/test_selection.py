"""Feasibility gate and best-subset search, exhaustive and greedy."""

import itertools
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parseal import (
    Dataset,
    Dictionary,
    Factor,
    SelectionConfig,
    TermExpr,
    baseline_best_subset,
    best_subset_search,
    greedy_forward_search,
    synth_example1,
    synth_example2,
    vif,
)
from parseal import dictionary, gram, pipeline, selection
from parseal.dictionary import IDENTITY, build_dictionary
from parseal.errors import (
    BudgetExceeded,
    ParsealError,
    InsufficientData,
    LengthMismatch,
    NoFeasibleSubset,
    NonFinite,
    ZeroVariance,
)
from parseal.linalg import DesignMatrix
from parseal.screening import screen
from test_dictionary import _dict_heavy_shaped


def philox(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def raw_dictionary(columns):
    columns = np.asarray(columns, dtype=np.float64)
    p = columns.shape[1]
    terms = tuple(TermExpr((Factor(i, IDENTITY, Fraction(1)),)) for i in range(p))
    return Dictionary(
        terms=terms, columns=columns, source_labels=tuple(f"c{i}" for i in range(p))
    )


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def _score(columns, vif_cap, y=None):
    """The search's QR scorer on ``columns``, for a response ``y`` (noise by default)."""
    columns = np.asarray(columns, dtype=np.float64)
    y = philox(400).normal(size=columns.shape[0]) if y is None else y
    tss = float((y - y.mean()) @ (y - y.mean()))
    scorer = selection._make_scorer(raw_dictionary(columns), y, vif_cap, tss)
    return scorer(tuple(range(columns.shape[1])))


def _adjusted_r2(columns, y):
    design = np.column_stack([np.ones(len(y)), columns])
    residual = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    r2 = 1.0 - (residual @ residual) / ((y - y.mean()) @ (y - y.mean()))
    return 1.0 - (1.0 - r2) * (len(y) - 1) / (len(y) - columns.shape[1] - 1)


def test_orthogonal_design_is_feasible_with_unit_vifs():
    z1 = np.tile([1.0, -1.0], 16)
    z2 = np.tile([1.0, 1.0, -1.0, -1.0], 8)
    columns = np.column_stack([z1, z2])
    y = 2.0 * z1 - z2 + philox(404).normal(size=32)
    # Every VIF is 1, so a cap just above 1 still admits the pair.
    assert _score(columns, 1.0 + 1e-9, y) == pytest.approx(_adjusted_r2(columns, y), rel=1e-12)
    np.testing.assert_allclose(vif(columns), [1.0, 1.0], atol=1e-12)


def test_single_predictor_is_always_vif_feasible():
    column = philox(401).normal(size=(20, 1))
    y = column[:, 0] + philox(405).normal(size=20)
    assert _score(column, 1.5, y) == pytest.approx(_adjusted_r2(column, y), rel=1e-12)


def test_vif_cap_is_a_strict_upper_bound():
    rng = philox(402)
    z1 = rng.normal(size=400)
    e = rng.normal(size=400)
    z1c = (z1 - z1.mean()) / np.linalg.norm(z1 - z1.mean())
    ec = e - e.mean()
    ec -= (ec @ z1c) * z1c
    ec /= np.linalg.norm(ec)
    # R^2 = 0.95 between the pair puts both VIFs at 20
    z2 = math.sqrt(0.95) * z1c + math.sqrt(0.05) * ec
    columns = np.column_stack([z1c, z2])
    vifs = vif(columns)
    np.testing.assert_allclose(vifs, [20.0, 20.0], atol=1e-6)
    assert _score(columns, 10.0) is None
    assert _score(columns, 21.0) is not None
    # A largest VIF equal to the cap is infeasible; one ulp above admits it.
    assert _score(columns, float(np.max(vifs))) is None
    assert _score(columns, float(np.nextafter(np.max(vifs), np.inf))) is not None


def test_duplicate_columns_are_infeasible_without_vifs():
    col = philox(403).normal(size=30)
    assert _score(np.column_stack([col, col]), 10.0) is None
    assert _score(np.column_stack([col, col]), math.inf) is None


# ---------------------------------------------------------------------------
# exhaustive search vs. brute force
# ---------------------------------------------------------------------------


def _brute_search(columns, y, keys, vif_cap, max_size):
    """Straight-line reimplementation: rank via SVD, VIFs via auxiliary
    regressions, same enumeration order and strict-improvement tie-break."""
    n = columns.shape[0]
    tss = float(((y - y.mean()) ** 2).sum())
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    best_obj = -math.inf
    best_combo = None
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(order, k):
            sub = columns[:, list(combo)]
            design = np.column_stack([np.ones(n), sub])
            if np.linalg.matrix_rank(design) < design.shape[1]:
                continue
            if k > 1:
                vifs = []
                collinear = False
                for j in range(k):
                    others = np.column_stack([np.ones(n), np.delete(sub, j, axis=1)])
                    target = sub[:, j]
                    beta, *_ = np.linalg.lstsq(others, target, rcond=None)
                    resid = target - others @ beta
                    tss_j = float(((target - target.mean()) ** 2).sum())
                    r2_j = 1.0 - float(resid @ resid) / tss_j
                    if r2_j >= 1.0 - 1e-12:
                        collinear = True
                        break
                    vifs.append(1.0 / (1.0 - r2_j))
                if collinear or max(vifs) >= vif_cap:
                    continue
            beta, *_ = np.linalg.lstsq(design, y, rcond=None)
            rss = float(((y - design @ beta) ** 2).sum())
            r2 = 1.0 - rss / tss
            adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
            if adj > best_obj:
                best_obj = adj
                best_combo = combo
    return best_combo, best_obj


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exhaustive_search_matches_brute_force(seed):
    rng = philox(404, seed)
    columns = rng.normal(size=(50, 6)) @ (np.eye(6) + 0.3)
    beta = np.array([1.0, -2.0, 0.0, 0.5, 0.0, 0.0])
    y = columns @ beta + rng.normal(size=50)
    z = raw_dictionary(columns)
    cfg = SelectionConfig(max_subset_size=3)
    model = best_subset_search(z, y, cfg)
    combo, obj = _brute_search(columns, y, z.keys(), cfg.vif_cap, 3)
    expected_keys = sorted(z.keys()[i] for i in combo)
    got_keys = [label for label in model.fit.term_labels[1:]]
    assert got_keys == expected_keys
    assert model.objective == pytest.approx(obj, abs=1e-12)
    assert model.candidates_evaluated == 6 + 15 + 20


def test_equal_objectives_break_toward_smaller_subset():
    rng = philox(405)
    x0 = rng.normal(size=40)
    x1 = rng.normal(size=40)
    y = 2.0 * x0  # exact fit; the two-term model cannot beat r2_adj == 1.0
    model = best_subset_search(raw_dictionary(np.column_stack([x0, x1])), y, SelectionConfig())
    assert model.objective == 1.0
    assert [t.variables for t in model.terms] == [(0,)]


def test_equal_objectives_break_toward_smaller_key_tuple():
    col = philox(406).normal(size=30)
    y = col + philox(406, 1).normal(size=30) * 0.1
    # identical columns under two keys: the pair is collinear, the singles tie
    model = best_subset_search(raw_dictionary(np.column_stack([col, col])), y, SelectionConfig())
    assert [t.variables for t in model.terms] == [(0,)]
    assert model.feasible_candidates == 2


def test_search_is_invariant_to_dictionary_column_order():
    rng = philox(407)
    columns = rng.normal(size=(60, 5))
    y = columns[:, 2] - columns[:, 4] + rng.normal(size=60)
    z = raw_dictionary(columns)
    cfg = SelectionConfig(max_subset_size=3)
    base = best_subset_search(z, y, cfg)
    shuffled = z.subset([3, 0, 4, 1, 2])
    other = best_subset_search(shuffled, y, cfg)
    assert [t.variables for t in base.terms] == [t.variables for t in other.terms]
    assert base.objective == other.objective
    np.testing.assert_array_equal(base.fit.coefficients, other.fit.coefficients)


def test_selected_model_bookkeeping_invariants():
    rng = philox(409)
    columns = rng.normal(size=(50, 5))
    y = columns[:, 0] + rng.normal(size=50)
    cfg = SelectionConfig(max_subset_size=3, vif_cap=10.0)
    model = best_subset_search(raw_dictionary(columns), y, cfg)
    assert model.candidates_evaluated == 5 + 10 + 10
    assert 1 <= model.feasible_candidates <= model.candidates_evaluated
    assert model.best_by_size[len(model.terms)] == model.objective
    assert max(model.best_by_size.values()) == model.objective
    assert model.fit.term_labels[0] == "intercept"
    assert np.max(model.fit.vifs) < cfg.vif_cap
    assert model.objective == model.fit.r_squared_adj


def test_subset_size_capped_by_observation_count():
    rng = philox(410)
    columns = rng.normal(size=(4, 3))
    y = rng.normal(size=4)
    model = best_subset_search(raw_dictionary(columns), y, SelectionConfig())
    # n == 4 leaves room for at most n - 2 == 2 predictors
    assert model.candidates_evaluated == 3 + 3
    assert len(model.terms) <= 2


def test_budget_exceeded_reports_required_count():
    rng = philox(411)
    z = raw_dictionary(rng.normal(size=(40, 12)))
    y = rng.normal(size=40)
    cfg = SelectionConfig(max_subset_size=4, search_budget=100)
    required = sum(math.comb(12, k) for k in range(1, 5))
    with pytest.raises(BudgetExceeded) as exc:
        best_subset_search(z, y, cfg)
    assert exc.value.required == required
    assert exc.value.budget == 100


def test_no_feasible_subset_when_all_designs_are_degenerate():
    z = raw_dictionary(np.ones((10, 1)))  # collinear with the intercept
    y = philox(412).normal(size=10)
    with pytest.raises(NoFeasibleSubset):
        best_subset_search(z, y, SelectionConfig())


def test_no_feasible_subset_in_an_empty_dictionary():
    z = raw_dictionary(philox(412, 1).normal(size=(10, 2)))
    y = philox(412, 2).normal(size=10)
    with pytest.raises(NoFeasibleSubset):
        best_subset_search(z.subset([]), y, SelectionConfig())


def test_search_rejects_degenerate_inputs():
    z2 = raw_dictionary(philox(413).normal(size=(2, 1)))
    with pytest.raises(InsufficientData):
        best_subset_search(z2, np.array([1.0, 2.0]), SelectionConfig())
    z = raw_dictionary(philox(413, 1).normal(size=(10, 2)))
    with pytest.raises(ZeroVariance):
        best_subset_search(z, np.full(10, 3.0), SelectionConfig())
    y = philox(413, 2).normal(size=10)
    y[4] = np.nan
    with pytest.raises(NonFinite):
        best_subset_search(z, y, SelectionConfig())


def test_search_rejects_a_response_of_the_wrong_length():
    z = raw_dictionary(philox(414).normal(size=(10, 2)))
    short = philox(414, 1).normal(size=9)
    with pytest.raises(LengthMismatch):
        best_subset_search(z, short, SelectionConfig())
    with pytest.raises(LengthMismatch):
        greedy_forward_search(z, short, SelectionConfig())


# ---------------------------------------------------------------------------
# greedy forward search
# ---------------------------------------------------------------------------


def test_greedy_matches_exhaustive_on_well_separated_signal():
    rng = philox(414)
    columns = rng.normal(size=(100, 6))
    y = 2.0 * columns[:, 1] - columns[:, 4] + 0.1 * rng.normal(size=100)
    z = raw_dictionary(columns)
    cfg = SelectionConfig(max_subset_size=3)
    exhaustive = best_subset_search(z, y, cfg)
    greedy = greedy_forward_search(z, y, cfg)
    assert greedy.terms == exhaustive.terms
    assert greedy.objective == pytest.approx(exhaustive.objective, abs=1e-12)


def _greedy_trap(n=64):
    """y = z1 + z2 exactly, plus a decoy mixing both with noise.

    The decoy has the single best response correlation, so a forward pass
    grabs it first and can never reach the exact two-term model.
    """
    rng = philox(415)
    basis, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, 3))]))
    z1, z2, e = basis[:, 1], basis[:, 2], basis[:, 3]
    decoy = 0.95 * (z1 + z2) / math.sqrt(2.0) + 0.3 * e
    y = z1 + z2
    return np.column_stack([z1, z2, decoy]), y


def test_greedy_forward_can_miss_the_exhaustive_optimum():
    columns, y = _greedy_trap()
    z = raw_dictionary(columns)
    cfg = SelectionConfig(max_subset_size=2)
    exhaustive = best_subset_search(z, y, cfg)
    greedy = greedy_forward_search(z, y, cfg)
    assert exhaustive.objective == 1.0
    assert [t.variables for t in exhaustive.terms] == [(0,), (1,)]
    # the decoy wins the first greedy step and blocks the optimum
    assert any(t.variables == (2,) for t in greedy.terms)
    assert greedy.objective < exhaustive.objective - 0.05


def test_greedy_stops_when_no_addition_improves():
    rng = philox(416)
    x = rng.normal(size=(50, 4))
    y = 3.0 * x[:, 0] + 0.05 * rng.normal(size=50)
    model = greedy_forward_search(raw_dictionary(x), y, SelectionConfig(max_subset_size=4))
    assert len(model.terms) < 4
    assert model.best_by_size[len(model.terms)] == model.objective


# ---------------------------------------------------------------------------
# correlation-matrix scoring vs. the QR scorer on every candidate
# ---------------------------------------------------------------------------


def _qr_search(zr, y, cfg, greedy=False):
    """The search loops with the QR scorer deciding every candidate."""
    y, k_cap, tss = selection._search_bounds(zr, y, cfg)
    order, keys = selection._key_order(zr)
    score = selection._make_scorer(zr, y, cfg.vif_cap, tss)
    evaluated = feasible = 0
    best_by_size = {}
    if greedy:
        current, current_obj = (), -math.inf
        while len(current) < k_cap:
            step_best, step_obj = None, -math.inf
            for i in order:
                if i in current:
                    continue
                combo = tuple(sorted(current + (i,), key=lambda j: keys[j]))
                evaluated += 1
                objective = score(combo)
                if objective is None:
                    continue
                feasible += 1
                if objective > step_obj:
                    step_best, step_obj = combo, objective
            if step_best is None or step_obj <= current_obj:
                break
            current, current_obj = step_best, step_obj
            best_by_size[len(current)] = step_obj
        if not current:
            raise NoFeasibleSubset("no single term produced a feasible design")
        best_combo = current
    else:
        best_obj, best_combo = -math.inf, None
        for k in range(1, k_cap + 1):
            for combo in itertools.combinations(order, k):
                evaluated += 1
                objective = score(combo)
                if objective is None:
                    continue
                feasible += 1
                if k not in best_by_size or objective > best_by_size[k]:
                    best_by_size[k] = objective
                if objective > best_obj:
                    best_obj, best_combo = objective, combo
        if best_combo is None:
            raise NoFeasibleSubset("no candidate passed the rank and VIF checks")
    return selection._finish(zr, y, best_combo, cfg.vif_cap, (evaluated, feasible), best_by_size)


def _qr_best_subset(zr, y, cfg):
    return _qr_search(zr, y, cfg)


def _qr_greedy(zr, y, cfg):
    return _qr_search(zr, y, cfg, greedy=True)


def _outcome(search, z, y, cfg):
    try:
        model = search(z, y, cfg)
    except ParsealError as err:
        return type(err).__name__
    return (
        model.terms,
        model.objective,
        model.best_by_size,
        model.candidates_evaluated,
        model.feasible_candidates,
        model.fit.coefficients.tobytes(),
        model.fit.vifs.tobytes(),
    )


def _hazard_columns(draw, rng, n, p):
    """(n, p) normal columns with the hazards of the correlation route drawn in."""
    columns = rng.normal(size=(n, p))

    def pick():
        return draw(st.integers(0, p - 1))

    if draw(st.booleans()):  # near-duplicate columns
        i, j = pick(), pick()
        columns[:, j] = columns[:, i] + 10.0 ** draw(st.integers(-15, -3)) * rng.normal(size=n)
    if draw(st.booleans()):  # the same column under two keys: exact ties
        columns[:, pick()] = columns[:, pick()]
    if draw(st.booleans()):  # an affine copy: tied objectives, different rounding
        columns[:, pick()] = rng.normal() * columns[:, pick()] + rng.normal()
    if draw(st.booleans()):  # scales differing by 1e6 or more
        columns[:, pick()] *= 10.0 ** draw(st.integers(6, 12))
    if draw(st.booleans()):  # a mean far above the spread
        columns[:, pick()] += 10.0 ** draw(st.integers(3, 9))
    if draw(st.integers(0, 3)) == 0:  # a constant column
        columns[:, pick()] = rng.normal()
    return columns


@st.composite
def _hard_searches(draw):
    """Small dictionaries with the hazards of the correlation route."""
    rng = philox(430, draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 40))
    p = draw(st.integers(2, 6))
    columns = _hazard_columns(draw, rng, n, p)
    beta = rng.normal(size=p) * (rng.random(p) < 0.5)
    noise = draw(st.sampled_from([0.0, 1e-9, 0.1, 1.0]))
    y = columns @ beta + noise * rng.normal(size=n) + rng.normal()
    if np.ptp(y) == 0.0:
        y = y + rng.normal(size=n)
    at_cap = draw(st.integers(0, 2)) > 0
    max_size = draw(st.integers(2 if at_cap else 1, min(p, 4)))
    vif_cap = 10.0
    if at_cap:  # a candidate's VIF right at the cap
        size = draw(st.integers(2, max_size))
        combo = sorted(draw(st.permutations(range(p)))[:size])
        design = DesignMatrix.with_intercept(columns[:, combo])
        try:
            worst = float(np.max(vif(design.predictors())))
        except ParsealError:
            worst = 10.0
        if math.isfinite(worst) and worst > 1.0:
            vif_cap = draw(st.sampled_from([worst, np.nextafter(worst, np.inf)]))
    return columns, y, SelectionConfig(max_subset_size=max_size, vif_cap=vif_cap)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_hard_searches())
def test_correlation_route_matches_the_qr_scorer(case):
    columns, y, cfg = case
    z = raw_dictionary(columns)
    assert _outcome(best_subset_search, z, y, cfg) == _outcome(_qr_best_subset, z, y, cfg)
    assert _outcome(greedy_forward_search, z, y, cfg) == _outcome(_qr_greedy, z, y, cfg)


def _run_files(dataset, cfg):
    with tempfile.TemporaryDirectory() as out:
        report = pipeline.run_pipeline(dataset, cfg, with_baseline=True, out_dir=out, stable=True)
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return report.to_json(), files


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    varsigma=st.sampled_from([0.95, 0.99, 0.999, 0.999999]),
    search_mode=st.sampled_from(["exhaustive", "greedy_forward"]),
)
def test_stable_report_bytes_match_the_qr_scorer(seed, varsigma, search_mode):
    """A loose varsigma lets nearly collinear terms through screening."""
    rng = philox(431, seed)
    n = 40
    x = 0.5 + 9.5 * rng.random((n, 2))
    y = 3.0 * x[:, 0] * x[:, 1] + 20.0 / x[:, 1] + rng.normal(size=n) * 10.0 ** rng.integers(-8, 1)
    dataset = Dataset(("x1", "x2"), x, "y", y)
    cfg = SelectionConfig(alpha=1, varsigma=varsigma, max_subset_size=2, search_mode=search_mode)
    fast = _run_files(dataset, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "best_subset_search", _qr_best_subset)
        mp.setattr(pipeline, "greedy_forward_search", _qr_greedy)
        mp.setattr(selection, "best_subset_search", _qr_best_subset)
        exact = _run_files(dataset, cfg)
    assert fast == exact


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    rng = philox(432)
    columns = rng.normal(size=(80, 14)) @ (np.eye(14) + 0.2 * rng.normal(size=(14, 14)))
    y = columns[:, :5] @ rng.normal(size=5) + rng.normal(size=80)
    z = raw_dictionary(columns)
    cfg = SelectionConfig(max_subset_size=4)
    qr_calls = []
    real_qr = selection.qr_factorize

    def counted(design):
        qr_calls[-1] += 1
        return real_qr(design)

    monkeypatch.setattr(selection, "qr_factorize", counted)
    results = []
    for chunk in (gram._BATCH, 7):
        monkeypatch.setattr(gram, "_BATCH", chunk)
        qr_calls.append(0)
        results.append(
            (_outcome(best_subset_search, z, y, cfg), _outcome(greedy_forward_search, z, y, cfg))
        )
    assert results[0] == results[1]
    assert results[0][0][3] == 14 + 91 + 364 + 1001
    # the correlation route decides nearly every candidate without a QR
    assert qr_calls[0] == qr_calls[1] < 0.05 * results[0][0][3]


@pytest.mark.parametrize("max_size", [8, 12])
def test_rank_certificate_decides_the_dict_heavy_shaped_greedy_search(monkeypatch, max_size):
    """Mixture-3 terms whose scales differ by 1e4 and more are certified full rank."""
    ds = _dict_heavy_shaped()
    cfg = SelectionConfig(
        alpha=2,
        mixture_m=3,
        varsigma=0.9,
        search_mode="greedy_forward",
        max_subset_size=max_size,
    )
    z = build_dictionary(ds, cfg.alpha, cfg.mixture_m)
    zr, _ = screen(z, ds.response, cfg.importance, cfg.varsigma)
    qr_calls = [0]
    real_qr = selection.qr_factorize

    def counted(design):
        qr_calls[0] += 1
        return real_qr(design)

    monkeypatch.setattr(selection, "qr_factorize", counted)
    fast = _outcome(greedy_forward_search, zr, ds.response, cfg)
    assert qr_calls[0] <= 30
    assert fast == _outcome(_qr_greedy, zr, ds.response, cfg)


@pytest.mark.parametrize("case", ["synth_example2", "dict_heavy_shaped"])
def test_a_fit_forms_only_the_columns_of_the_subsets_it_fits(monkeypatch, case):
    if case == "synth_example2":
        dataset, cfg = synth_example2(200, seed=5), SelectionConfig(max_subset_size=2)
    else:
        dataset = _dict_heavy_shaped()
        cfg = SelectionConfig(mixture_m=3, varsigma=0.9, search_mode="greedy_forward")
    real = Dictionary.rows

    def rows(self, indices):
        if len(indices) > cfg.max_subset_size:  # more than any subset the searches fit
            raise AssertionError(f"the rows of {len(indices)} terms were formed")
        return real(self, indices)

    monkeypatch.setattr(Dictionary, "rows", rows)
    report = pipeline.run_pipeline(dataset, cfg, with_baseline=True)
    assert report.selected_model["terms"] and report.baseline_model["terms"]


# ---------------------------------------------------------------------------
# baseline over raw columns
# ---------------------------------------------------------------------------


def test_baseline_matches_brute_force_on_raw_columns():
    ds = synth_example1(300, seed=6)
    cfg = SelectionConfig()
    z = build_dictionary(ds, cfg.alpha, cfg.mixture_m)
    model = baseline_best_subset(z, ds.response, cfg)
    keys = [f"v{i}^1/1" for i in range(3)]
    combo, obj = _brute_search(ds.columns, ds.response, keys, cfg.vif_cap, 3)
    assert sorted(t.variables[0] for t in model.terms) == sorted(combo)
    assert model.objective == pytest.approx(obj, abs=1e-12)


def test_baseline_recovers_exact_linear_model_at_minimal_size():
    rng = philox(417)
    columns = rng.normal(size=(60, 3))
    ds_like = raw_dictionary(columns)

    class Plain:
        pass

    plain = Plain()
    plain.columns = columns
    plain.variable_names = ("x1", "x2", "x3")
    y = plain.response = 3.0 + 2.0 * columns[:, 0] - columns[:, 1]
    cfg = SelectionConfig()
    model = baseline_best_subset(build_dictionary(plain, cfg.alpha, cfg.mixture_m), y, cfg)
    assert model.objective == 1.0
    assert sorted(t.variables[0] for t in model.terms) == [0, 1]


def test_baseline_skips_constant_columns():
    columns = np.column_stack([np.full(30, 5.0), philox(418).normal(size=30)])

    class Plain:
        pass

    plain = Plain()
    plain.columns = columns
    plain.variable_names = ("const", "x")
    y = plain.response = columns[:, 1] * 2.0 + philox(418, 1).normal(size=30)
    cfg = SelectionConfig()
    z = build_dictionary(plain, cfg.alpha, cfg.mixture_m)
    assert ("v0^1/1", "constant column") in z.census.excluded_terms
    model = baseline_best_subset(z, y, cfg)
    assert [t.variables for t in model.terms] == [(1,)]


def test_baseline_of_only_constant_columns_raises_zero_variance():
    plain = Dataset(("a", "b"), np.full((30, 2), 5.0), "y", philox(419).normal(size=30))
    cfg = SelectionConfig()
    z = build_dictionary(plain, cfg.alpha, cfg.mixture_m)
    with pytest.raises(ZeroVariance, match="every raw input column is constant"):
        baseline_best_subset(z, plain.response, cfg)


def test_baseline_needs_the_built_dictionary_and_its_census():
    ds = synth_example1(80, seed=2)
    cfg = SelectionConfig()
    z = build_dictionary(ds, cfg.alpha, cfg.mixture_m)
    raw = [i for i, key in enumerate(z.keys()) if "*" not in key]
    for partial in (z.subset(raw), raw_dictionary(ds.columns)):
        # A view or a matrix dictionary carries no census: its raw terms may be missing.
        with pytest.raises(ValueError, match="build_dictionary"):
            baseline_best_subset(partial, ds.response, cfg)


def test_a_fit_with_a_baseline_takes_the_row_statistics_once(monkeypatch):
    # The baseline reads the raw terms' statistics carried by the fit's dictionary.
    passes = []
    real = dictionary._centered_dots
    monkeypatch.setattr(dictionary, "_centered_dots", lambda *a: passes.append(1) or real(*a))
    report = pipeline.run_pipeline(synth_example1(300, seed=3), with_baseline=True)
    assert len(passes) == 1
    baseline = report.baseline_model
    assert baseline["term_keys"] == ["v0^1/1", "v1^1/1", "v2^1/1"]
    assert (baseline["candidates_evaluated"], baseline["feasible_candidates"]) == (7, 7)
    assert float(baseline["objective"]).hex() == "0x1.c0e1df118f389p-1"
    assert [float(c).hex() for c in baseline["coefficients"]] == [
        "-0x1.c285366e64738p+17", "0x1.082fc1111c824p+12",
        "0x1.d35c3a6a3e742p+7", "0x1.02cbae0a8c722p+12",
    ]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(alpha=0)
    with pytest.raises(ValueError, match="mixture_m must be >= 1"):
        SelectionConfig(mixture_m=0)
    with pytest.raises(ValueError):
        SelectionConfig(varsigma=1.0)
    with pytest.raises(ValueError):
        SelectionConfig(vif_cap=1.0)
    for cap in (math.inf, math.nan):
        with pytest.raises(ValueError, match="vif_cap must be a finite number"):
            SelectionConfig(vif_cap=cap)
    with pytest.raises(ValueError):
        SelectionConfig(max_subset_size=0)
    with pytest.raises(ValueError):
        SelectionConfig(search_budget=0)
    with pytest.raises(ValueError):
        SelectionConfig(search_mode="simulated_annealing")
