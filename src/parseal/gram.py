"""Subset scores from the correlation matrix, with rounding bounds.

``GramScorer`` computes the adjusted R^2 and the VIFs of many same-size
subsets at once from the standardized columns' correlation matrix, and says
for each subset whether those numbers certify it infeasible, certify it
feasible (with a bound on how far its objective can lie from the QR
scorer's), or cannot decide it.  The search in ``selection`` hands every
undecided subset, and every certified one near the best, to the QR scorer.
"""

from __future__ import annotations

import math

import numpy as np

from .stats import _COLLINEARITY_R2

# Rounding bounds of the correlation route against the QR scorer.
#
# Model: u = 2^-53 and gamma(m) = m u / (1 - m u).  A length-n inner product
# errs by at most gamma(n) |x|'|y| (Higham, ASNA 2nd ed., eq. 3.5).  For a
# column x with mean m and centered norm s, let rho = ||x|| / s >= 1.
# Centering and scaling put a relative norm-wise error of at most
# gamma(n + 3) (1 + rho) on a standardized column, so for a subset S of k
# columns every entry of the computed C_SS and c_S errs by at most
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
_U = 2.0**-53
_SLACK = 2.0
_MAX_X = 0.125
_QR_BACKWARD = 8
# Rank: pivoted QR takes the largest-norm column first, so |R_00| is the
# largest uncentered column norm of X = [1, X_S] and every |R_ii| >=
# sigma_min(X) minus the backward error.  Writing x_j = m_j + s_j z_j gives
# X = [1, Z_S D] T with D = diag(s) and T = [[1, m'], [0, I]], so
#     trace((X'X)^-1) = 1/n + (m/s)' C_SS^-1 (m/s) + sum_j VIF_j / s_j^2
# and lambda_min(X'X) >= 1 / trace((X'X)^-1).  Requiring that bound to reach
# 1e-8 max diag(X'X) puts sigma_min at 1e-4 |R_00|, 10^6 times RANK_TOL.
# The trace is inflated by its rounding bound (2 x relative, plus
# 2 x L ||m/s||^2 for the quadratic term) before the test.
_RANK_CERT = 1e-8

INFEASIBLE, FEASIBLE, REFEREE = 0, 1, 2


def _gamma(m: float) -> float:
    return m * _U / (1.0 - m * _U)


class GramScorer:
    """Adjusted R^2 and VIFs of subsets from one standardization per search.

    ``evaluate(idx)`` classifies each row of an (m, k) index array as
    certified infeasible, certified feasible (with its objective and
    rounding bound), or left to the QR referee.  Rows of C are formed on
    demand by ``cache``: all of them for an exhaustive search, one per added
    term for the greedy search.
    """

    def __init__(self, columns: np.ndarray, y: np.ndarray, vif_cap: float, tss: float):
        n, p = columns.shape
        self.n = n
        with np.errstate(all="ignore"):
            mean = columns.mean(axis=0)
            self.z = columns - mean
            s = np.sqrt(np.square(self.z).sum(axis=0))
            # ||x||^2 = s^2 + n m^2; it only scales the rounding bounds.
            sq_norm = s * s + n * mean * mean
            usable = np.isfinite(sq_norm) & (s > 0.0)
            s = np.where(usable, s, 1.0)
            self.z /= s
        self.z[:, ~usable] = 0.0
        self.usable = usable
        self.mean = np.where(usable, mean, 0.0)
        self.s = s
        self.sq_norm = np.where(usable, sq_norm, 0.0)
        self.rho = np.where(usable, np.sqrt(self.sq_norm) / s, 1.0)
        self.y_mean = float(y.mean())
        self.y_scale = math.sqrt(tss)
        self.y_norm = float(np.sqrt(y @ y))
        self.rho_y = self.y_norm / self.y_scale
        self.c = self.z.T @ ((y - self.y_mean) / self.y_scale)
        self.tss = tss
        # Feasibility is max VIF < vif_cap, and ``vif`` rejects a VIF at or
        # above 1 / (1 - _COLLINEARITY_R2) as perfectly collinear.
        self.vif_limit = min(vif_cap, 1.0 / (1.0 - _COLLINEARITY_R2))
        self.rows = np.empty((0, p))
        self.pos = np.full(p, -1, dtype=np.intp)

    def cache(self, indices) -> None:
        """Form the rows of C for ``indices`` that are not yet formed."""
        missing = sorted({i for i in indices if self.pos[i] < 0})
        if not missing:
            return
        block = self.z if len(missing) == len(self.pos) else self.z[:, missing]
        self.pos[missing] = np.arange(len(self.rows), len(self.rows) + len(missing))
        self.rows = np.vstack([self.rows, block.T @ self.z])
        if len(self.rows) == len(self.pos):
            self.z = None  # every row is formed; free the n x p copy

    def _blocks(self, idx: np.ndarray) -> np.ndarray:
        """C_SS for every row of ``idx``; off-diagonal pairs need one cached row.

        The diagonal of a correlation matrix is exactly 1, so it is set, not
        computed.
        """
        m, k = idx.shape
        if k == 1:
            return np.ones((m, 1, 1))
        ia, ib = idx[:, :, None], idx[:, None, :]
        pa, pb = self.pos[ia], self.pos[ib]
        blocks = np.where(
            pa >= 0, self.rows[np.maximum(pa, 0), ib], self.rows[np.maximum(pb, 0), ia]
        )
        blocks[:, np.arange(k), np.arange(k)] = 1.0
        return blocks

    def evaluate(self, idx: np.ndarray):
        """Return ``(status, objective, bound)`` arrays for the rows of ``idx``."""
        m, k = idx.shape
        n = self.n
        with np.errstate(all="ignore"):
            # C_SS^-1 = W' W with W = L^-1, so VIF_j is the squared norm of
            # column j of W and R^2 = ||W c_S||^2.
            inv_factor, ok = _inverse_cholesky_factor(self._blocks(idx))
            ok &= self.usable[idx].all(axis=1)
            vifs = (inv_factor * inv_factor).sum(axis=1)
            whitened = (inv_factor * self.c[idx][:, None, :]).sum(axis=2)
            r2 = (whitened * whitened).sum(axis=1)
            beta_std = (inv_factor * whitened[:, :, None]).sum(axis=1)
            trace = vifs.sum(axis=1)
            rho = np.maximum(self.rho[idx].max(axis=1), self.rho_y)
            eps = _gamma(n + 3) * (3.0 + 2.0 * rho) + 3.0 * _gamma(k + 1)
            x = k * trace * eps
            ok &= np.isfinite(x) & (x <= _MAX_X) & np.isfinite(r2)

            if k == 1:
                vif_ok = np.ones(m, dtype=bool)
                vif_bad = ~vif_ok
            else:
                band = 4.0 * x
                worst = vifs.max(axis=1)
                vif_ok = worst < self.vif_limit * (1.0 - band)
                vif_bad = worst >= self.vif_limit * (1.0 + band)

            mu, sd = self.mean[idx], self.s[idx]
            shift = mu / sd
            lifted = (inv_factor * shift[:, None, :]).sum(axis=2)
            gram_trace = (1.0 + 2.0 * x) * (
                1.0 / n + (lifted * lifted).sum(axis=1) + (vifs / (sd * sd)).sum(axis=1)
            ) + 2.0 * x * trace * (shift * shift).sum(axis=1)
            top = np.maximum(self.sq_norm[idx].max(axis=1), n)
            rank_ok = gram_trace * top * _RANK_CERT <= 1.0

            beta = beta_std * self.y_scale / sd
            intercept = self.y_mean - (beta * mu).sum(axis=1)
            scale = self.y_norm + np.sqrt(n + self.sq_norm[idx].sum(axis=1)) * np.sqrt(
                intercept * intercept + (beta * beta).sum(axis=1)
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
        return status, objective, bound


def _inverse_cholesky_factor(blocks: np.ndarray):
    """W = L^-1 for the lower Cholesky factor L of each (k, k) block.

    Returns ``(W, ok)``; ``ok`` is False where a pivot is not positive, and
    that row of W is meaningless.
    """
    m, k, _ = blocks.shape
    factor = np.zeros_like(blocks)
    ok = np.ones(m, dtype=bool)
    for j in range(k):
        row = factor[:, j, :j]
        pivot = blocks[:, j, j] - (row * row).sum(axis=1)
        ok &= pivot > 0.0
        factor[:, j, j] = np.sqrt(np.where(ok, pivot, 1.0))
        below = blocks[:, j + 1 :, j] - (factor[:, j + 1 :, :j] * row[:, None, :]).sum(axis=2)
        factor[:, j + 1 :, j] = below / factor[:, j, j][:, None]
    inverse = np.zeros_like(blocks)
    for i in range(k):
        # Row i of L W = I, solved for row i of W.
        rhs = -(factor[:, i, :i, None] * inverse[:, :i, :]).sum(axis=1)
        rhs[:, i] += 1.0
        inverse[:, i, :] = rhs / factor[:, i, i][:, None]
    return inverse, ok
