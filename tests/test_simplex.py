import numpy as np
import pytest

from reluverify.simplex import SimplexError, feasible_point
from reluverify.solver import RETRY_TOLERANCES


def _check_point(x, A, b, lo, hi, tol=1e-7):
    lo, hi = np.asarray(lo), np.asarray(hi)
    assert np.all(x >= lo - tol) and np.all(x <= hi + tol)
    if len(b):
        assert np.all(A @ x <= b + tol)


def test_trivially_feasible_box():
    x = feasible_point(np.zeros((0, 2)), np.zeros(0), np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    _check_point(x, np.zeros((0, 2)), np.zeros(0), [0.0, -1.0], [1.0, 1.0])


def test_simple_infeasible():
    # x <= 1 and -x <= -2 cannot both hold.
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, -2.0])
    assert feasible_point(A, b, np.array([0.0]), np.array([3.0])) is None


def test_simple_feasible_band():
    # 1.5 <= x <= 2 inside box [0, 3].
    A = np.array([[1.0], [-1.0]])
    b = np.array([2.0, -1.5])
    x = feasible_point(A, b, np.array([0.0]), np.array([3.0]))
    _check_point(x, A, b, [0.0], [3.0])


def test_equality_as_two_rows():
    # x + y == 1 via two inequalities, plus x - y <= 0.
    A = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    b = np.array([1.0, -1.0, 0.0])
    lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    x = feasible_point(A, b, lo, hi)
    _check_point(x, A, b, lo, hi)
    assert x[0] + x[1] == pytest.approx(1.0, abs=1e-7)


def test_point_box():
    A = np.array([[1.0, 0.0]])
    b = np.array([0.5])
    lo = hi = np.array([0.25, 0.75])
    x = feasible_point(A, b, lo, hi)
    assert x == pytest.approx([0.25, 0.75], abs=1e-9)
    assert feasible_point(A, np.array([0.1]), lo, hi) is None


def test_inverted_box_is_infeasible():
    assert feasible_point(np.zeros((0, 1)), np.zeros(0), np.array([1.0]), np.array([0.0])) is None


def test_agreement_with_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(61)
    disagreements = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 12))
        A = rng.uniform(-2.0, 2.0, size=(m, n))
        b = rng.uniform(-1.0, 2.0, size=m)
        lo = rng.uniform(-1.0, 0.0, size=n)
        hi = lo + rng.uniform(0.0, 2.0, size=n)
        ours = feasible_point(A, b, lo, hi)
        res = linprog(np.zeros(n), A_ub=A, b_ub=b, bounds=list(zip(lo, hi)), method="highs")
        if ours is None:
            assert res.status == 2, "we said infeasible, scipy found a point"
        else:
            _check_point(ours, A, b, lo, hi)
            if res.status != 0:
                disagreements += 1
    assert disagreements == 0


def _loop_feasible_point(A, b, lo, hi, tol=1e-9, feas_tol=1e-8):
    """The pivot as explicit Python loops over columns and rows: the reference
    the vectorised ``feasible_point`` must match bit for bit.  Also returns
    how many pivots had a tie in the ratio test."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).ravel()
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    if A.size == 0:
        A = A.reshape(0, n)
    if np.any(lo > hi):
        return None, 0
    rows = np.vstack([A, np.eye(n)])
    rhs = np.concatenate([b - A @ lo, hi - lo])
    scale = np.maximum(np.abs(rows).max(axis=1), 1.0)
    rows /= scale[:, None]
    rhs = rhs / scale
    m = rows.shape[0]
    neg = rhs < 0
    rows[neg] *= -1.0
    rhs = np.where(neg, -rhs, rhs)
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    slack = np.eye(m)
    slack[neg] *= -1.0
    T = np.zeros((m, n + m + n_art + 1))
    T[:, :n] = rows
    T[:, n : n + m] = slack
    for j, r in enumerate(art_rows):
        T[r, n + m + j] = 1.0
    T[:, -1] = rhs
    basis = np.empty(m, dtype=int)
    basis[~neg] = n + np.flatnonzero(~neg)
    basis[neg] = n + m + np.arange(n_art)
    cost = np.zeros(n + m + n_art)
    cost[n + m :] = 1.0
    ties = 0
    for _ in range(200 * (m + n + 10)):
        z = cost[: n + m + n_art] - cost[basis] @ T[:, :-1]
        entering = -1
        for j in range(z.shape[0]):
            if z[j] < -tol:
                entering = j
                break
        if entering < 0:
            break
        col = T[:, entering]
        ratios = np.full(m, np.inf)
        ok = col > tol
        ratios[ok] = T[ok, -1] / col[ok]
        best = np.min(ratios)
        if not np.isfinite(best):
            raise SimplexError("phase-I unbounded; tableau inconsistent")
        cand = np.flatnonzero(ratios <= best + tol)
        ties += cand.size > 1
        leaving = cand[np.argmin(basis[cand])]
        piv = T[leaving, entering]
        T[leaving] /= piv
        for r in range(m):
            if r != leaving and T[r, entering] != 0.0:
                T[r] -= T[r, entering] * T[leaving]
        basis[leaving] = entering
    else:
        raise SimplexError("simplex iteration cap exceeded")
    obj = float(cost[basis] @ T[:, -1])
    if obj > feas_tol:
        return None, ties
    u = np.zeros(n)
    for r, bv in enumerate(basis):
        if bv < n:
            u[bv] = T[r, -1]
    return lo + np.clip(u, 0.0, hi - lo), ties


def _outcome(fn, *args, **kwargs):
    """The outcome as comparable bytes, and the reference's tie count."""
    try:
        x = fn(*args, **kwargs)
    except SimplexError as exc:
        return ("error", str(exc)), 0
    x, ties = x if isinstance(x, tuple) else (x, 0)
    return (("none",) if x is None else ("point", x.tobytes())), ties


def _seeded_systems(rng, count):
    """Continuous random systems, and integer-valued degenerate ones:
    small integer coefficients, repeated rows and zero right-hand sides, so
    the ratio test and the reduced costs tie."""
    for i in range(count):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 12))
        if i % 2 == 0:
            A = rng.uniform(-2.0, 2.0, size=(m, n))
            b = rng.uniform(-1.0, 2.0, size=m)
            lo = rng.uniform(-1.0, 0.0, size=n)
            hi = lo + rng.uniform(0.0, 2.0, size=n)
        else:
            A = rng.integers(-2, 3, size=(m, n)).astype(np.float64)
            A = np.vstack([A, A[: int(rng.integers(0, m + 1))]])
            b = rng.integers(-2, 3, size=A.shape[0]).astype(np.float64)
            b[rng.random(A.shape[0]) < 0.4] = 0.0
            lo = rng.integers(-2, 1, size=n).astype(np.float64)
            hi = lo + rng.integers(0, 3, size=n)
        yield A, b, lo, hi


@pytest.mark.parametrize("tolerances", [{}, RETRY_TOLERANCES], ids=["default", "retry"])
def test_vectorised_pivot_matches_loop_reference(tolerances):
    rng = np.random.default_rng(71)
    outcomes, ties = set(), 0
    for A, b, lo, hi in _seeded_systems(rng, 400):
        ours, _ = _outcome(feasible_point, A, b, lo, hi, **tolerances)
        ref, ref_ties = _outcome(_loop_feasible_point, A, b, lo, hi, **tolerances)
        assert ours == ref
        outcomes.add(ours[0])
        ties += ref_ties
    assert {"point", "none"} <= outcomes
    assert ties > 0
