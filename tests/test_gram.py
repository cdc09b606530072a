"""Prefix-shared subset scoring against a per-block factorization.

The oracle factors each k x k block from scratch and sums every axis in
index order by its own means (``_in_order``), the order ``gram`` uses for
every sum over a subset's terms.  The standardization the scores start
from is checked against exact arithmetic and the rounding model in gram.py.
"""

import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parseal import gram
from parseal.gram import FEASIBLE, REFEREE, GramScorer
from test_selection import _hazard_columns, philox, raw_dictionary


def _blocks(scorer, idx):
    """C_SS for every row of ``idx``: entry (r, c), r < c, from the cached row of
    the subset's r-th column, mirrored below the diagonal."""
    m, k = idx.shape
    if k == 1:
        return np.ones((m, 1, 1))
    ia, ib = idx[:, :, None], idx[:, None, :]
    blocks = scorer.rows[np.maximum(scorer.pos[ia], 0), ib]
    upper = np.arange(k)[:, None] < np.arange(k)
    blocks = np.where(upper, blocks, blocks.transpose(0, 2, 1))
    blocks[:, np.arange(k), np.arange(k)] = 1.0
    return blocks


def _in_order(a, axis):
    """Sum over ``axis`` in index order, ((a0 + a1) + a2) + ..., as a running sum adds."""
    if a.shape[axis] == 0:
        return a.sum(axis=axis)
    return np.take(np.add.accumulate(a, axis=axis), -1, axis=axis)


def _inverse_cholesky_factor(blocks):
    """W = L^-1 for the lower Cholesky factor L of each (k, k) block, and pivot flags."""
    m, k, _ = blocks.shape
    factor = np.zeros_like(blocks)
    ok = np.ones(m, dtype=bool)
    for j in range(k):
        row = factor[:, j, :j]
        pivot = blocks[:, j, j] - _in_order(row * row, 1)
        ok &= pivot > 0.0
        factor[:, j, j] = np.sqrt(np.where(ok, pivot, 1.0))
        below = blocks[:, j + 1 :, j] - _in_order(factor[:, j + 1 :, :j] * row[:, None, :], 2)
        factor[:, j + 1 :, j] = below / factor[:, j, j][:, None]
    inverse = np.zeros_like(blocks)
    for i in range(k):
        rhs = -_in_order(factor[:, i, :i, None] * inverse[:, :i, :], 1)
        rhs[:, i] += 1.0
        inverse[:, i, :] = rhs / factor[:, i, i][:, None]
    return inverse, ok


def _block_evaluate(scorer, idx):
    """``(status, objective, bound)`` with each k x k block factored from scratch."""
    g = gram
    m, k = idx.shape
    n = scorer.n
    with np.errstate(all="ignore"):
        inv_factor, ok = _inverse_cholesky_factor(_blocks(scorer, idx))
        ok &= scorer.usable[idx].all(axis=1)
        vifs = _in_order(inv_factor * inv_factor, 1)
        whitened = _in_order(inv_factor * scorer.c[idx][:, None, :], 2)
        r2 = _in_order(whitened * whitened, 1)
        beta_std = _in_order(inv_factor * whitened[:, :, None], 1)
        trace = _in_order(vifs, 1)
        rho = np.maximum(scorer.rho[idx].max(axis=1), scorer.rho_y)
        eps = g._gamma(n + 3) * (3.0 + 2.0 * rho) + 3.0 * g._gamma(k + 1)
        x = k * trace * eps
        ok &= np.isfinite(x) & (x <= g._MAX_X) & np.isfinite(r2)
        if k == 1:
            vif_ok = np.ones(m, dtype=bool)
            vif_bad = ~vif_ok
        else:
            band = 4.0 * x
            worst = vifs.max(axis=1)
            vif_ok = worst < scorer.vif_limit * (1.0 - band)
            vif_bad = worst >= scorer.vif_limit * (1.0 + band)
        mu, sd = scorer.mean[idx], scorer.s[idx]
        shift = mu / sd
        lifted = _in_order(inv_factor * shift[:, None, :], 2)
        gram_trace = (1.0 + 2.0 * x) * (
            1.0 / n + _in_order(lifted * lifted, 1) + _in_order(vifs / (sd * sd), 1)
        ) + 2.0 * x * trace * _in_order(shift * shift, 1)
        top = np.maximum(scorer.sq_norm[idx].max(axis=1), n)
        rank_ok = gram_trace * top * g._rank_floor(n, k) <= 1.0
        beta = beta_std * scorer.y_scale / sd
        intercept = scorer.y_mean - _in_order(beta * mu, 1)
        scale = scorer.y_norm + np.sqrt(n + _in_order(scorer.sq_norm[idx], 1)) * np.sqrt(
            intercept * intercept + _in_order(beta * beta, 1)
        )
        delta = 3.0 * g._gamma(g._QR_BACKWARD * n * (k + 1)) * scale
        unexplained = np.maximum(1.0 - r2, 0.0)
        rss = unexplained * scorer.tss
        qr_err = (2.0 * np.sqrt(rss) + delta) * delta / scorer.tss + g._gamma(n) * unexplained
        gram_err = 2.0 * np.sqrt(k * trace) * eps + x
        dof = (n - 1) / (n - k - 1)
        bound = g._SLACK * dof * (gram_err + qr_err)
        objective = 1.0 - (1.0 - r2) * dof
        ok &= np.isfinite(bound) & np.isfinite(objective)
    status = np.full(m, REFEREE)
    status[ok & vif_bad] = g.INFEASIBLE
    status[ok & vif_ok & rank_ok] = FEASIBLE
    return status, objective, bound


def _scorer(columns, y, vif_cap=10.0):
    tss = float((y - y.mean()) @ (y - y.mean()))
    return GramScorer(raw_dictionary(columns), y, vif_cap, tss)


def _walk_by_size(scorer, order, k_cap):
    """The exhaustive walk's scores, concatenated per size in arrival order."""
    sizes = {}
    for batch in scorer.exhaustive(order, k_cap):
        sizes.setdefault(len(batch.cols), []).append(batch)
    fields = ("status", "objective", "bound")
    return {
        k: (np.concatenate([b.cols.T for b in batches]),)
        + tuple(np.concatenate([getattr(b, f) for b in batches]) for f in fields)
        for k, batches in sizes.items()
    }


def _same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@st.composite
def _deep_searches(draw):
    """Dictionaries of up to twelve columns with the hazards of the correlation route."""
    rng = philox(433, draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 40))
    p = draw(st.integers(2, 12))
    columns = _hazard_columns(draw, rng, n, p)
    beta = rng.normal(size=p) * (rng.random(p) < 0.5)
    y = columns @ beta + draw(st.sampled_from([0.0, 1e-9, 0.1, 1.0])) * rng.normal(size=n)
    y = y + rng.normal()
    if np.ptp(y) == 0.0:
        y = y + rng.normal(size=n)
    k_cap = draw(st.integers(1, min(p, 10, n - 2)))
    order = list(draw(st.permutations(range(p))))
    scorer = _scorer(columns, y)
    # a VIF cap right at the largest VIF of one candidate
    if draw(st.booleans()) and p > 1:
        size = draw(st.integers(2, k_cap)) if k_cap > 1 else 2
        combo = np.array([sorted(order[:size])], dtype=np.intp)
        scorer.cache(combo[0].tolist())
        inv, ok = _inverse_cholesky_factor(_blocks(scorer, combo))
        worst = float(_in_order(inv * inv, 1).max())
        if ok[0] and math.isfinite(worst) and worst > 1.0:
            cap = draw(st.sampled_from([worst, np.nextafter(worst, np.inf)]))
            scorer = _scorer(columns, y, cap)
    return scorer, order, k_cap


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_deep_searches(), st.sampled_from([gram._BATCH, 7, 1]))
def test_prefix_route_matches_the_per_block_factorization(case, batch):
    scorer, order, k_cap = case
    saved = gram._BATCH
    gram._BATCH = batch
    try:
        walked = _walk_by_size(scorer, order, k_cap)
    finally:
        gram._BATCH = saved
    assert sorted(walked) == list(range(1, k_cap + 1))
    for k, (idx, status, objective, bound) in walked.items():
        combos = np.array(list(itertools.combinations(order, k)), dtype=np.intp).reshape(-1, k)
        assert idx.tobytes() == combos.tobytes()
        expected = _block_evaluate(scorer, combos)
        assert status.tobytes() == expected[0].tobytes()
        assert _same_bits(objective, expected[1])
        assert _same_bits(bound, expected[2])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_deep_searches(), st.data())
def test_appended_columns_score_as_that_column_order(case, data):
    """Greedy's batches: a grown prefix extended by each remaining column, appended last."""
    scorer, order, k_cap = case
    # the searches score at most n - 2 terms, which leaves a residual degree of freedom
    size = data.draw(st.integers(0, min(len(order) - 1, 11, scorer.n - 3)))
    prefix, rest = order[:size], order[size:]
    base = scorer.root()
    for col in prefix:
        base = scorer.grow(base, col)
    batches = list(scorer.appended(base, rest))
    idx = np.concatenate([b.cols.T for b in batches])
    combos = np.array([prefix + [j] for j in rest], dtype=np.intp)
    assert idx.tobytes() == combos.tobytes()
    expected = _block_evaluate(scorer, combos)
    assert np.concatenate([b.status for b in batches]).tobytes() == expected[0].tobytes()
    assert _same_bits(np.concatenate([b.objective for b in batches]), expected[1])
    assert _same_bits(np.concatenate([b.bound for b in batches]), expected[2])


def test_a_grown_prefix_keeps_the_bits_of_the_candidate_that_won_it():
    """A greedy step grows the best candidate of its ``appended`` batch; ``grow``
    reads the same C entries, so it scores the same status, objective and bound."""
    grows = 0
    for design in range(60):
        rng = philox(437, design)
        n, p = int(rng.integers(50, 2001)), int(rng.integers(5, 41))
        columns = rng.normal(size=(n, p)) @ (np.eye(p) + 0.3 * rng.normal(size=(p, p)))
        scorer = _scorer(columns, columns @ rng.normal(size=p) + rng.normal(size=n))
        prefix, rest = scorer.root(), list(range(p))
        for _ in range(min(6, p - 1)):
            batch = next(scorer.appended(prefix, rest))
            won = int(np.argmax(np.where(np.isfinite(batch.objective), batch.objective, -np.inf)))
            prefix = scorer.grow(prefix, rest.pop(won))
            grows += 1
            for field in ("status", "objective", "bound"):
                assert getattr(prefix, field).tobytes() == getattr(batch, field)[won].tobytes()
    assert grows >= 300


def _edge_peak(p, k_cap, n=1000):
    rng = philox(434)
    columns = rng.normal(size=(n, p))
    y = columns @ rng.normal(size=p) + rng.normal(size=n)
    scorer = _scorer(columns, y)
    tracemalloc.start()
    try:
        count = sum(batch.cols.shape[1] for batch in scorer.exhaustive(list(range(p)), k_cap))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == sum(math.comb(p, k) for k in range(1, k_cap + 1))
    return peak


def test_the_walk_holds_one_batch_per_size_at_the_budget_edge():
    # C(20, <=8) = 263,949 and C(24, <=6) = 190,050 subsets; every state
    # the walk keeps is bounded by _BATCH per size, not by C(p, k).
    assert _edge_peak(20, 8) < 8e6
    assert _edge_peak(24, 6) < 8e6


def test_index_sums_add_in_index_order():
    """``_index_sum`` adds as a loop does, on the shapes ``extend`` passes it."""
    rng = philox(435)
    for length in list(range(0, 40)) + [127, 128, 129, 200]:
        for shape in ((1,), (2,), (5,), (3, 1), (3, 4)):
            terms = rng.normal(size=(length,) + shape)
            terms *= 10.0 ** rng.integers(-8, 9, size=terms.shape)
            in_order = np.zeros(shape)
            for term in terms:
                in_order = in_order + term
            assert gram._index_sum(terms).tobytes() == in_order.tobytes()


def _exact_standardized(column):
    """The column minus its exact mean over the exact norm of that, to 60
    digits; None for a constant column."""
    values = [Fraction(v) for v in column.tolist()]
    mean = sum(values) / len(values)
    centered = [v - mean for v in values]
    square = sum(c * c for c in centered)
    if square == 0:
        return None
    norm = (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()
    return [Decimal(c.numerator) / Decimal(c.denominator) / norm for c in centered]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_entry_of_c_lies_within_the_rounding_model(data):
    """Each computed entry of C and c, standardized with the build pass's
    statistics, lies within gamma(n + 3) (3 + 2 rho) of the exact one."""
    rng = philox(436, data.draw(st.integers(0, 2**32 - 1)))
    n, p = data.draw(st.integers(12, 40)), data.draw(st.integers(2, 5))
    columns = _hazard_columns(data.draw, rng, n, p)
    y = columns @ rng.normal(size=p) + rng.normal(size=n) + rng.normal()
    if np.ptp(y) == 0.0:
        y = y + rng.normal(size=n)
    scorer = _scorer(columns, y)
    scorer.cache(range(p))
    with localcontext() as ctx:
        ctx.prec = 60
        exact = [_exact_standardized(column) for column in columns.T]
        response = _exact_standardized(y)
        usable = [a for a in range(p) if scorer.usable[a] and exact[a] is not None]
        for a in usable:
            budget = gram._gamma(n + 3) * (3.0 + 2.0 * max(scorer.rho[a], scorer.rho_y))
            assert abs(scorer.c[a] - float(sum(map(Decimal.__mul__, exact[a], response)))) <= budget
            for b in usable:
                budget = gram._gamma(n + 3) * (3.0 + 2.0 * max(scorer.rho[a], scorer.rho[b]))
                want = float(sum(map(Decimal.__mul__, exact[a], exact[b])))
                assert abs(scorer.rows[scorer.pos[a], b] - want) <= budget
