"""Dense phase-I simplex for linear feasibility.

Solves "find x with A x <= b, lo <= x <= hi" by shifting to non-negative
variables, adding slacks plus artificials for rows violated at the origin,
and minimizing the artificial sum with Bland's rule (which excludes
cycling).  Each pivot is vectorised: the entering column is the lowest index
with a negative reduced cost, still Bland's rule, and the elimination is one
rank-1 update of the tableau.  Floating-point tableau only; intended for the
small, well-scaled systems produced by fixed-phase network branches.

Presolve.  ``feasible_point`` is the tableau alone.  The bound-propagation
presolve, ``_propagation_refutes``, runs in ``solver``'s leaf path only,
over all the leaves of one row build, before any of their tableaus.  It
is one loop of at most ``PRESOLVE_SWEEPS + 1`` passes, and the box check
is its first pass: a pass checks each row's minimum over the box and,
except on the last pass, shrinks each variable's bounds by each row's
slack; a system leaves once its bounds stop moving.  A one-row system gets
only the first check, since a row over a box is met somewhere whenever its
minimum meets it.  Most empty leaves are refuted this way, without a pivot.

Its margin is ``FEAS_TOL``, the tableau's default ``feas_tol``: propagation
runs on the rows relaxed by ``FEAS_TOL`` times their tableau scale
``max(|row|, 1)``, and crossing bounds refute only when they cross by more
than ``FEAS_TOL``.  A box point the tableau would accept at that margin
misses each row violated at ``lo`` by at most ``FEAS_TOL`` scaled (each
such row carries an artificial variable, and their sum is at most
``FEAS_TOL``) and meets every other row, so it meets every relaxed row:
propagation never refutes a system the tableau solves at its defaults, and
a system it keeps gets the tableau unchanged.

The presolve takes K systems over one box at once, ``A`` of shape
``(K, m, n)``, and gives one flag per system.  A system leaves the stack
once it is decided, so each runs exactly the passes it would run in a
stack of one, and ``@`` over a leading axis runs the one-system
product on each slice.  A system with fewer rows is padded with neutral
rows, zero rows with right-hand side 0, which every box point meets and
which bound no variable, so the padding changes no flag.  (A one-row
system padded this way runs more passes, but they leave its one slack as
it was and cannot refute it.)
"""

from __future__ import annotations

import numpy as np


# Cap on the presolve's tightening sweeps (see "Presolve" above).  Set from
# paired benchmark runs: on beyond-radius 6 sweeps beat 3 and 10 on every
# suite time, with no measurable change to oracle-small's set-up time.
PRESOLVE_SWEEPS = 6

# The tableau's default feasibility margin, and the presolve's only one.
FEAS_TOL = 1e-8


class SimplexError(RuntimeError):
    """Numerical failure (iteration cap hit or tableau went inconsistent)."""


def feasible_point(
    A: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float = 1e-9,
    feas_tol: float = FEAS_TOL,
) -> np.ndarray | None:
    """Return some x with ``A x <= b`` inside the box, or None if infeasible."""
    A, b, lo, hi = _system(A, b, lo, hi)
    if np.any(lo > hi):
        return None
    return _tableau(A, b, lo, hi, tol, feas_tol)


def _system(A, b, lo, hi):
    """The system as float64 arrays, ``A`` of shape (rows, len(lo))."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).ravel()
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    if A.size == 0:
        A = A.reshape(0, n)
    if A.shape[1] != n or A.shape[0] != b.shape[0]:
        raise ValueError("inconsistent system dimensions")
    return A, b, lo, hi


def _propagation_refutes(A, b, lo, hi) -> np.ndarray:
    """For each of K systems ``A x <= b`` over one box, ``A`` of shape
    ``(K, m, n)`` and ``b`` of shape ``(K, m)``: True if bound propagation
    proves that no box point meets every row relaxed by ``FEAS_TOL`` times
    the row's tableau scale.

    Each pass checks the rows' minima over the box, the first pass over the
    shared box, against their relaxed right-hand sides, then shrinks each
    system's bounds by its rows' slacks (see "Presolve" above).  Bounds that
    cross refute only when they cross by more than ``FEAS_TOL``.
    """
    b = b + FEAS_TOL * np.maximum(np.abs(A).max(axis=-1), 1.0)
    Ap, An = np.maximum(A, 0.0), np.minimum(A, 0.0)
    pos, neg = A > 0.0, A < 0.0
    inv = np.divide(1.0, A, out=np.zeros_like(A), where=pos | neg)
    refuted = np.zeros(A.shape[0], dtype=bool)
    live = np.arange(A.shape[0])
    for sweep in range(PRESOLVE_SWEEPS + 1):
        slack = b - _times(Ap, lo) - _times(An, hi)
        met = ~(slack < 0.0).any(axis=-1)
        refuted[live[~met]] = True
        # One row is met somewhere in the box if its minimum meets it.
        if sweep == PRESOLVE_SWEEPS or A.shape[1] <= 1 or not met.any():
            return refuted
        if not met.all():
            live, b, Ap, An, pos, neg, inv, slack = (a[met] for a in (live, b, Ap, An, pos, neg, inv, slack))
            lo, hi = (lo[met], hi[met]) if sweep else (lo, hi)
        # Row i bounds x_j by its slack: a_ij > 0 caps x_j at lo_j + slack_i / a_ij,
        # and a_ij < 0 lifts it to hi_j + slack_i / a_ij.
        step = slack[..., None] * inv
        new_hi = np.minimum(hi, np.where(pos, lo[..., None, :] + step, np.inf).min(axis=1))
        new_lo = np.maximum(lo, np.where(neg, hi[..., None, :] + step, -np.inf).max(axis=1))
        crossed = (new_lo > new_hi).any(axis=1)
        go = ~crossed & ((new_lo != lo).any(axis=1) | (new_hi != hi).any(axis=1))
        lo, hi = new_lo, new_hi
        if not go.all():
            refuted[live[crossed]] = (lo[crossed] > hi[crossed] + FEAS_TOL).any(axis=1)
            live, b, Ap, An, pos, neg, inv, lo, hi = (a[go] for a in (live, b, Ap, An, pos, neg, inv, lo, hi))


def _times(M, v):
    """``M @ v`` with ``v`` as a one-column matrix, so that a stacked ``M``
    runs the one-system product on each slice."""
    return (M @ v[..., None])[..., 0]


def _tableau(A, b, lo, hi, tol: float, feas_tol: float) -> np.ndarray | None:
    """Phase-I simplex on a system from ``_system`` with ``lo <= hi``."""
    n = lo.shape[0]

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
