"""Dense phase-I simplex for linear feasibility.

Solves "find x with A x <= b, lo <= x <= hi" by shifting to non-negative
variables, adding slacks plus artificials for rows violated at the origin,
and minimizing the artificial sum with Bland's rule (which excludes
cycling).  Each pivot is vectorised: the entering column is the lowest index
with a negative reduced cost, still Bland's rule, and the elimination is one
rank-1 update of the tableau.  Floating-point tableau only; intended for the
small, well-scaled systems produced by fixed-phase network branches.
"""

from __future__ import annotations

import numpy as np


class SimplexError(RuntimeError):
    """Numerical failure (iteration cap hit or tableau went inconsistent)."""


def feasible_point(
    A: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float = 1e-9,
    feas_tol: float = 1e-8,
) -> np.ndarray | None:
    """Return some x with ``A x <= b`` inside the box, or None if infeasible."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).ravel()
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    if A.size == 0:
        A = A.reshape(0, n)
    if A.shape[1] != n or A.shape[0] != b.shape[0]:
        raise ValueError("inconsistent system dimensions")
    if np.any(lo > hi):
        return None

    # Shift to u = x - lo >= 0 and fold the upper bounds in as rows.
    rows = np.vstack([A, np.eye(n)])
    rhs = np.concatenate([b - A @ lo, hi - lo])

    # Row scaling keeps pivot tolerances meaningful across magnitudes.
    scale = np.maximum(np.abs(rows).max(axis=1), 1.0)
    rows /= scale[:, None]
    rhs = rhs / scale

    m = rows.shape[0]
    neg = rhs < 0
    rows[neg] *= -1.0
    rhs = np.where(neg, -rhs, rhs)
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size

    # Tableau columns: u (n) | slack (m) | artificial (n_art) | rhs.
    slack = np.eye(m)
    slack[neg] *= -1.0
    T = np.zeros((m, n + m + n_art + 1))
    T[:, :n] = rows
    T[:, n : n + m] = slack
    T[art_rows, n + m + np.arange(n_art)] = 1.0
    T[:, -1] = rhs

    basis = np.empty(m, dtype=int)
    basis[~neg] = n + np.flatnonzero(~neg)
    basis[neg] = n + m + np.arange(n_art)

    cost = np.zeros(n + m + n_art)
    cost[n + m :] = 1.0

    for _ in range(200 * (m + n + 10)):
        # Reduced costs: c_j - c_B . B^-1 a_j; rows are already B^-1 a.
        z = cost[: n + m + n_art] - cost[basis] @ T[:, :-1]
        eligible = np.flatnonzero(z < -tol)
        if eligible.size == 0:
            break
        entering = eligible[0]  # Bland: lowest eligible index
        col = T[:, entering]
        ratios = np.full(m, np.inf)
        ok = col > tol
        ratios[ok] = T[ok, -1] / col[ok]
        best = np.min(ratios)
        if not np.isfinite(best):
            raise SimplexError("phase-I unbounded; tableau inconsistent")
        cand = np.flatnonzero(ratios <= best + tol)
        leaving = cand[np.argmin(basis[cand])]  # Bland tie-break
        T[leaving] /= T[leaving, entering]
        # Rank-1 elimination over the rows with a nonzero factor; the others
        # are left untouched, so no zero's sign flips.
        factor = T[:, entering].copy()
        factor[leaving] = 0.0
        rows_nz = np.flatnonzero(factor)
        T[rows_nz] -= np.outer(factor[rows_nz], T[leaving])
        basis[leaving] = entering
    else:
        raise SimplexError("simplex iteration cap exceeded")

    obj = float(cost[basis] @ T[:, -1])
    if obj > feas_tol:
        return None
    u = np.zeros(n)
    in_basis = basis < n
    u[basis[in_basis]] = T[in_basis, -1]
    return lo + np.clip(u, 0.0, hi - lo)
