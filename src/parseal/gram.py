"""Subset scores from the correlation matrix, with rounding bounds.

``GramScorer`` computes the adjusted R^2 and the VIFs of subsets from the
standardized columns' correlation matrix, and says for each subset whether
those numbers certify it infeasible, certify it feasible (with a bound on how
far its objective can lie from the QR scorer's), or cannot decide it.  The
search in ``selection`` hands every undecided subset, and every certified one
near the best, to the QR scorer.

Scoring is prefix-shared.  A subset S + (j,) factors C_SS = L L' with the
rows of L and W = L^-1 that S already has, plus one new last row of each,
and extends S's column sums of W (the VIFs and the standardized
coefficients) by that row.  The new rows come from the left-looking
recurrences of a full factorization.  Every sum over a subset's terms runs
in index order (``_index_sum``), so a subset's status, objective and bound
have the bits of factoring its k x k block from scratch with every sum in
index order.  The rounding bounds below hold in any summation order.  (W's
upper triangle is held as exact zeros where a full factorization leaves
zeros of either sign; a zero's sign reaches no score.)
``exhaustive`` walks the lexicographic subset tree depth first in batches of
at most ``_BATCH`` subsets per size.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .linalg import RANK_TOL
from .stats import _COLLINEARITY_R2

# Rounding bounds of the correlation route against the QR scorer.
#
# Model: u = 2^-53 and gamma(m) = m u / (1 - m u).  A length-n inner product
# errs by at most gamma(n) |x|'|y| in any order (Higham, ASNA 2nd ed., eq.
# 3.5).  For a column x with mean m and centered norm s, let rho = ||x|| / s
# >= 1.  The build pass's row mean moves the centered row by at most
# gamma(n) ||x|| and its ddot norm errs by gamma(n) / 2 + u, so a column (or
# the response) standardized with them errs by gamma(n + 3) (1 + rho) at most,
# norm-wise.  C_SS, and c_S (the pass's response products over both norms),
# hold inner products of such columns: for a subset S of k columns every
# entry of the computed C_SS and c_S errs by at most
#     eps = gamma(n + 3) (3 + 2 rho_S) + 3 gamma(k + 1),
# where rho_S is the largest rho over S and the response, and the last term
# is the backward error of the Cholesky factor and its inverse (the factor's
# rows have norm 1).  Hence ||E||_2 <= k eps and ||f||_2 <= sqrt(k) eps.
#
# With L = trace(C_SS^-1) = sum of the VIFs >= ||C_SS^-1||_2 and
# x = k L eps <= 1/8 (otherwise nothing is certified):
#   * VIF:  |dVIF_j| <= ||E|| ||C^-1 e_j|| ||Chat^-1 e_j|| gives a relative
#     error of at most 1.2 x for each computed VIF.  ``vif`` makes the same
#     kind of error on the same subset, so two computed values differ by at
#     most about 2.5 x relative; the band around the cap is 4 x.
#   * R^2 = c' C^-1 c:  ||C^-1 c||^2 <= L R^2 <= L, so the correlation route
#     errs by at most 2 sqrt(k L) eps + k L eps.  The QR route solves a
#     problem perturbed by gamma(8 n (k + 1)) relative in X and y
#     (Householder QR, ASNA Thm. 19.4 and 20.3), and the residual norm is
#     Lipschitz in the data with constant ||beta||, so with
#     M = ||y|| + ||[1, X_S]||_F ||beta_S|| its sqrt(RSS) errs by at most
#     delta = 3 gamma(8 n (k + 1)) M; RSS then errs by at most
#     2 sqrt(RSS) delta + delta^2 + gamma(n) RSS.
#   * Adjusted R^2 multiplies both R^2 errors by (n - 1) / (n - k - 1).
# _SLACK doubles the sum to cover second-order terms and the use of computed
# rather than exact L, RSS and beta.  A certified candidate is rescored by
# QR when its objective plus its bound reaches the largest objective minus
# bound at its size; exact ties fall inside that band.
#
# Every bound above is invariant under a symmetric permutation of C_SS, so
# it holds for a subset factored in any column order.
_U = 2.0**-53
_SLACK = 2.0
_MAX_X = 0.125
_QR_BACKWARD = 8
# Rank: ``qr_factorize`` counts column i as independent when |R_ii| >
# RANK_TOL |R_00|.  Householder QR returns the exact R of X + dX with
# ||dx_j|| <= g ||x_j||, g = gamma(8 n (k + 1)), for X = [1, X_S] of k + 1
# columns.  Pivoting takes the largest-norm column first, so with top =
# max diag(X'X), |R_00| <= (1 + g) sqrt(top) and ||dX||_2 <= g sqrt(k + 1)
# sqrt(top); every diagonal of a triangular matrix is at least its smallest
# singular value, so
#     min |R_ii| >= sigma_min(X) - g sqrt(k + 1) sqrt(top),
# and the test passes once sigma_min(X) > need sqrt(top) with
#     need = RANK_TOL (1 + b) + b,  b = g sqrt(k + 1).
# Writing x_j = m_j + s_j z_j gives X = [1, Z_S D] T with D = diag(s) and
# T = [[1, m'], [0, I]], so
#     trace((X'X)^-1) = 1/n + (m/s)' C_SS^-1 (m/s) + sum_j VIF_j / s_j^2
# and sigma_min(X)^2 >= 1 / trace((X'X)^-1).  The certificate asks that
# bound to reach _RANK_MARGIN times need, in sigma: trace top (100 need)^2
# <= 1.  The trace is inflated by its rounding bound (2 x relative, plus
# 2 x L ||m/s||^2 for the quadratic term) before the test.
_RANK_MARGIN = 100.0
# Subsets scored per batch.  At 8 terms a batch's (k, k, m) arrays take
# 512 kB each, and the walk holds one batch per size.
_BATCH = 1024

INFEASIBLE, FEASIBLE, REFEREE = 0, 1, 2


def _gamma(m: float) -> float:
    return m * _U / (1.0 - m * _U)


@contextmanager
def _row_pass():
    """numpy's smallest ufunc buffer, and over/invalid ignored, for a pass over row
    blocks: a per-row broadcast then copies nothing through it.  Yields the caller's
    size, for reductions: before numpy 2.3 their pairwise sums stop at the buffer."""
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.setbufsize(16)
        try:
            yield size
        finally:
            np.setbufsize(size)  # numpy 1.x's errstate keeps the buffer size


def _rank_floor(n: int, k: int) -> float:
    """The certificate's floor on sigma_min(X)^2 / top for k predictors."""
    backward = _gamma(_QR_BACKWARD * n * (k + 1)) * math.sqrt(k + 1)
    need = RANK_TOL * (1.0 + backward) + backward
    return (_RANK_MARGIN * need) ** 2


def _index_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in index order, ((t0 + t1) + t2) + ...

    Every sum over a subset's terms runs through here, so a subset scores
    the same bits whatever its batch's shape.  numpy reduces axis 0 of a
    C-ordered array in index order, one whole-array add per term, when
    another axis is longer than 1; when none is, axis 0 is the array's only
    axis, which numpy would sum pairwise, so the terms are added in a loop.
    """
    if len(terms) == 0 or terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _grown(triangle: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The (j, j, m) lower triangles with ``row`` appended as row j, zeros above it."""
    j, m = len(triangle), row.shape[1]
    out = np.zeros((j + 1, j + 1, m))
    out[:j, :j] = triangle
    out[j] = row
    return out


class Subsets:
    """A batch of same-size subsets and their scores.

    ``cols`` is (k, m): row t holds column t of each subset, in
    factorization order.  ``status``, ``objective`` and ``bound`` classify
    the subsets.  A batch kept for extension also carries the lower
    triangles of L and W = L^-1 as (k, k, m) arrays (upper triangles exactly
    zero), the pivot flags, and the partial sums its extensions reuse.
    """

    def __init__(self, cols, **arrays):
        self.cols = cols
        vars(self).update(arrays)

    def combo(self, row: int) -> tuple:
        return tuple(self.cols[:, row].tolist())


class GramScorer:
    """Adjusted R^2 and VIFs of subsets of a dictionary's terms, standardized
    once with its ``row_statistics``, the build pass's means and norms.

    ``extend`` scores a batch of subsets, each one column longer than a
    subset of a scored batch.  ``exhaustive`` drives it for the exhaustive
    search, ``appended`` and ``grow`` for the greedy one.  Rows of C are
    formed on demand: all of them for an exhaustive search, one per added
    term for the greedy search.
    """

    def __init__(self, zr, y: np.ndarray, vif_cap: float, tss: float):
        n = self.n = zr.n
        mean, s, products = zr.row_statistics(y)
        with np.errstate(all="ignore"), _row_pass():
            # ||x||^2 = s^2 + n m^2; it only scales the rounding bounds.
            sq_norm = s * s + n * mean * mean
            usable = np.isfinite(sq_norm) & (s > 0.0)
            s = np.where(usable, s, 1.0)
            # The standardized rows, formed once; rows of C are their products.
            self.z = np.empty((len(zr), n))
            for index, block in zr.blocks():
                self.z[index] = (block - mean[index, None]) / s[index, None]
        self.z[~usable] = 0.0
        self.usable = usable
        self.mean = np.where(usable, mean, 0.0)
        self.s = s
        self.shift = self.mean / s
        self.sq_norm = np.where(usable, sq_norm, 0.0)
        self.rho = np.where(usable, np.sqrt(self.sq_norm) / s, 1.0)
        self.y_mean = float(y.mean())
        self.y_scale = math.sqrt(tss)
        self.y_norm = float(np.sqrt(y @ y))
        self.rho_y = self.y_norm / self.y_scale
        self.c = np.where(usable, products / (s * self.y_scale), 0.0)
        self.tss = tss
        # Feasibility is max VIF < vif_cap, and ``vif`` rejects a VIF at or
        # above 1 / (1 - _COLLINEARITY_R2) as perfectly collinear.
        self.vif_limit = min(vif_cap, 1.0 / (1.0 - _COLLINEARITY_R2))
        self.rows = np.empty((0, len(zr)))
        self.pos = np.full(len(zr), -1, dtype=np.intp)

    def cache(self, indices) -> None:
        """Form the rows of C for ``indices`` that are not yet formed."""
        missing = sorted({i for i in indices if self.pos[i] < 0})
        if not missing:
            return
        block = self.z if len(missing) == len(self.pos) else self.z[missing]
        self.pos[missing] = np.arange(len(self.rows), len(self.rows) + len(missing))
        self.rows = np.vstack([self.rows, block @ self.z.T])
        if len(self.rows) == len(self.pos):
            self.z = None  # every row is formed; free the n x p copy

    def exhaustive(self, order, k_cap: int):
        """Score every subset of 1 to ``k_cap`` columns of ``order``; yield batches.

        Each size's subsets arrive in ``itertools.combinations(order, k)``
        order.  A batch's extensions follow it depth first, so the walk holds
        at most one batch per size whatever C(p, k) is.
        """
        order = np.asarray(order, dtype=np.intp)
        if k_cap > 1:
            self.cache(order.tolist())

        def expand(prefixes: Subsets, last: np.ndarray):
            # ``last``: the position in ``order`` of each prefix's last column.
            k = len(prefixes.cols) + 1
            counts = len(order) - 1 - last
            ends = np.cumsum(counts)
            for start in range(0, int(ends[-1]), _BATCH):
                ids = np.arange(start, min(start + _BATCH, int(ends[-1])))
                parent = np.searchsorted(ends, ids, side="right")
                pos = last[parent] + 1 + ids - (ends[parent] - counts[parent])
                batch = self.extend(prefixes, parent, order[pos], keep=k < k_cap)
                yield batch
                if k < k_cap:
                    yield from expand(batch, pos)

        yield from expand(self.root(), np.array([-1]))

    def appended(self, prefix: Subsets, cols):
        """Score ``prefix`` plus each column j of ``cols`` (j last); yield batches.

        ``prefix`` is one subset made by ``root`` and ``grow``.
        """
        cols = np.asarray(cols, dtype=np.intp)
        for start in range(0, len(cols), _BATCH):
            chunk = cols[start : start + _BATCH]
            yield self.extend(prefix, np.zeros(len(chunk), dtype=np.intp), chunk, keep=False)

    def grow(self, prefix: Subsets, col: int) -> Subsets:
        """``prefix`` with column ``col`` appended, kept for extension; forms its row of C."""
        self.cache([col])
        return self.extend(prefix, np.zeros(1, dtype=np.intp), np.array([col]))

    def root(self) -> Subsets:
        """The empty subset, which every subset extends."""
        empty = np.empty((0, 1))
        return Subsets(
            np.empty((0, 1), dtype=np.intp),
            factor=np.empty((0, 0, 1)),
            inverse=np.empty((0, 0, 1)),
            pivots_ok=np.ones(1, dtype=bool),
            vifs=empty,
            whitened=empty,
            beta_std=empty,
            lifted=empty,
        )

    def _pairs(self, new: np.ndarray, old: np.ndarray) -> np.ndarray:
        """C[new_r, old_tr] from the row of ``new`` when it is formed, else of ``old``."""
        pa, pb = self.pos[new], self.pos[old]
        return np.where(
            pa >= 0, self.rows[np.maximum(pa, 0), old], self.rows[np.maximum(pb, 0), new]
        )

    def extend(self, prefixes: Subsets, parent, new, keep: bool = True) -> Subsets:
        """Score ``prefixes.combo(parent[r]) + (new[r],)`` for every r.

        The new column is last in factorization order.  With ``keep`` the
        batch carries what its own extensions reuse.
        """
        j, m, n = len(prefixes.cols), len(new), self.n
        k = j + 1
        cols = np.empty((k, m), dtype=np.intp)
        cols[:j] = prefixes.cols[:, parent]
        cols[j] = new
        factor = prefixes.factor[:, :, parent]
        inverse = prefixes.inverse[:, :, parent]
        with np.errstate(all="ignore"):
            # The new last row of L, left-looking: L_jt = (C_jt - sum_s<t
            # L_js L_ts) / L_tt, each sum a row of length t as in a full
            # factorization.  A pivot that is not positive fails the subset,
            # and its diagonal (and every later one) is set to 1.
            cross = self._pairs(new, cols[:j])
            row = np.empty((k, m))
            for t in range(j):
                row[t] = (cross[t] - _index_sum(row[:t] * factor[t, :t])) / factor[t, t]
            head = row[:j]
            pivot = 1.0 - _index_sum(head * head)
            pivots_ok = prefixes.pivots_ok[parent] & (pivot > 0.0)
            row[j] = np.sqrt(np.where(pivots_ok, pivot, 1.0))
            # The new last row of W, from row j of L W = I, summed down the rows.
            w = np.empty((k, m))
            w[:j] = -_index_sum(head[:, None] * inverse) / row[j]
            w[j] = 1.0 / row[j]

            # C_SS^-1 = W' W, so VIF_t is the squared norm of column t of W
            # and R^2 = ||W c_S||^2.  A column sum runs down the rows, so the
            # new row extends it.
            vifs = np.empty((k, m))
            vifs[:j] = prefixes.vifs[:, parent] + w[:j] * w[:j]
            vifs[j] = w[j] * w[j]
            c_s, shift = self.c[cols], self.shift[cols]
            # An old row of W gains a zero term, which leaves its index-order
            # sum as it was; only the new row is summed.
            whitened = np.empty((k, m))
            whitened[:j] = prefixes.whitened[:, parent]
            whitened[j] = _index_sum(w * c_s)
            lifted = np.empty((k, m))
            lifted[:j] = prefixes.lifted[:, parent]
            lifted[j] = _index_sum(w * shift)
            beta_std = np.empty((k, m))
            beta_std[:j] = prefixes.beta_std[:, parent] + w[:j] * whitened[j]
            beta_std[j] = w[j] * whitened[j]
            r2 = _index_sum(whitened * whitened)
            trace = _index_sum(vifs)
            rho = np.maximum(self.rho[cols].max(axis=0), self.rho_y)
            eps = _gamma(n + 3) * (3.0 + 2.0 * rho) + 3.0 * _gamma(k + 1)
            x = k * trace * eps
            ok = pivots_ok & self.usable[cols].all(axis=0)
            ok &= np.isfinite(x) & (x <= _MAX_X) & np.isfinite(r2)

            if k == 1:
                vif_ok = np.ones(m, dtype=bool)
                vif_bad = ~vif_ok
            else:
                band = 4.0 * x
                worst = vifs.max(axis=0)
                vif_ok = worst < self.vif_limit * (1.0 - band)
                vif_bad = worst >= self.vif_limit * (1.0 + band)

            mu, sd = self.mean[cols], self.s[cols]
            gram_trace = (1.0 + 2.0 * x) * (
                1.0 / n + _index_sum(lifted * lifted) + _index_sum(vifs / (sd * sd))
            ) + 2.0 * x * trace * _index_sum(shift * shift)
            top = np.maximum(self.sq_norm[cols].max(axis=0), n)
            rank_ok = gram_trace * top * _rank_floor(n, k) <= 1.0

            beta = beta_std * self.y_scale / sd
            intercept = self.y_mean - _index_sum(beta * mu)
            scale = self.y_norm + np.sqrt(n + _index_sum(self.sq_norm[cols])) * np.sqrt(
                intercept * intercept + _index_sum(beta * beta)
            )
            delta = 3.0 * _gamma(_QR_BACKWARD * n * (k + 1)) * scale
            unexplained = np.maximum(1.0 - r2, 0.0)
            rss = unexplained * self.tss
            qr_err = (2.0 * np.sqrt(rss) + delta) * delta / self.tss + _gamma(n) * unexplained
            gram_err = 2.0 * np.sqrt(k * trace) * eps + x
            dof = (n - 1) / (n - k - 1)
            bound = _SLACK * dof * (gram_err + qr_err)
            objective = 1.0 - (1.0 - r2) * dof
            ok &= np.isfinite(bound) & np.isfinite(objective)

        status = np.full(m, REFEREE)
        status[ok & vif_bad] = INFEASIBLE
        status[ok & vif_ok & rank_ok] = FEASIBLE
        scores = dict(status=status, objective=objective, bound=bound)
        if not keep:
            return Subsets(cols, **scores)
        return Subsets(
            cols,
            factor=_grown(factor, row),
            inverse=_grown(inverse, w),
            pivots_ok=pivots_ok,
            vifs=vifs,
            whitened=whitened,
            beta_std=beta_std,
            lifted=lifted,
            **scores,
        )
