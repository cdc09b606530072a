"""Feasibility gate and best-subset search, exhaustive and greedy."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from parseal import (
    Dictionary,
    Factor,
    SelectionConfig,
    TermExpr,
    baseline_best_subset,
    best_subset_search,
    greedy_forward_search,
    subset_feasible,
    synth_example1,
)
from parseal.dictionary import IDENTITY
from parseal.errors import (
    BudgetExceeded,
    InsufficientData,
    LengthMismatch,
    NoFeasibleSubset,
    ZeroVariance,
)
from parseal.linalg import DesignMatrix


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


def test_orthogonal_design_is_feasible_with_unit_vifs():
    z1 = np.tile([1.0, -1.0], 16)
    z2 = np.tile([1.0, 1.0, -1.0, -1.0], 8)
    ok, vifs = subset_feasible(DesignMatrix.with_intercept(np.column_stack([z1, z2])), 10.0)
    assert ok
    np.testing.assert_allclose(vifs, [1.0, 1.0], atol=1e-12)


def test_single_predictor_is_always_vif_feasible():
    ok, vifs = subset_feasible(DesignMatrix.with_intercept(philox(401).normal(size=(20, 1))), 1.5)
    assert ok
    assert vifs.tolist() == [1.0]


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
    design = DesignMatrix.with_intercept(np.column_stack([z1c, z2]))
    ok, vifs = subset_feasible(design, 10.0)
    assert not ok
    np.testing.assert_allclose(vifs, [20.0, 20.0], atol=1e-6)
    ok_loose, _ = subset_feasible(design, 21.0)
    assert ok_loose


def test_duplicate_columns_are_infeasible_without_vifs():
    col = philox(403).normal(size=30)
    ok, vifs = subset_feasible(DesignMatrix.with_intercept(np.column_stack([col, col])), 10.0)
    assert not ok
    assert vifs is None


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


def test_search_rejects_degenerate_inputs():
    z2 = raw_dictionary(philox(413).normal(size=(2, 1)))
    with pytest.raises(InsufficientData):
        best_subset_search(z2, np.array([1.0, 2.0]), SelectionConfig())
    z = raw_dictionary(philox(413, 1).normal(size=(10, 2)))
    with pytest.raises(ZeroVariance):
        best_subset_search(z, np.full(10, 3.0), SelectionConfig())


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
# baseline over raw columns
# ---------------------------------------------------------------------------


def test_baseline_matches_brute_force_on_raw_columns():
    ds = synth_example1(300, seed=6)
    cfg = SelectionConfig()
    model = baseline_best_subset(ds, ds.response, cfg)
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
    y = 3.0 + 2.0 * columns[:, 0] - columns[:, 1]
    model = baseline_best_subset(plain, y, SelectionConfig())
    assert model.objective == 1.0
    assert sorted(t.variables[0] for t in model.terms) == [0, 1]


def test_baseline_skips_constant_columns():
    columns = np.column_stack([np.full(30, 5.0), philox(418).normal(size=30)])

    class Plain:
        pass

    plain = Plain()
    plain.columns = columns
    plain.variable_names = ("const", "x")
    y = columns[:, 1] * 2.0 + philox(418, 1).normal(size=30)
    model = baseline_best_subset(plain, y, SelectionConfig())
    assert [t.variables for t in model.terms] == [(1,)]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(alpha=0)
    with pytest.raises(ValueError):
        SelectionConfig(varsigma=1.0)
    with pytest.raises(ValueError):
        SelectionConfig(vif_cap=1.0)
    with pytest.raises(ValueError):
        SelectionConfig(max_subset_size=0)
    with pytest.raises(ValueError):
        SelectionConfig(search_budget=0)
    with pytest.raises(ValueError):
        SelectionConfig(search_mode="simulated_annealing")
