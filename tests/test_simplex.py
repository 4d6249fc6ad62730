import inspect

import numpy as np
import pytest

from reluverify import simplex, solver
from reluverify.simplex import SimplexError, feasible_point
from reluverify.solver import RETRY_TOLERANCES, first_feasible_completion, solve

from conftest import oracle_queries_and_split_twins


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


DEFAULT_TOLERANCES = {
    name: p.default for name, p in inspect.signature(feasible_point).parameters.items() if name in ("tol", "feas_tol")
}


def _first_check_refutes(A, b, lo, hi, feas_tol):
    """A row's minimum over the box exceeds its right-hand side by more than
    ``feas_tol`` times the row's tableau scale."""
    scale = np.maximum(np.abs(A).max(axis=1), 1.0)
    return bool(np.any(np.maximum(A, 0.0) @ lo + np.minimum(A, 0.0) @ hi > b + feas_tol * scale))


def _compare_with_tableau(A, b, lo, hi, tolerances, counts):
    """``feasible_point`` returns None exactly when the tableau alone does,
    and otherwise the tableau's bytes.  Where the tableau fails numerically,
    a refutation by propagation is also accepted.  ``counts`` tallies the
    infeasible systems and how the propagation decided them."""
    tol = {**DEFAULT_TOLERANCES, **tolerances}
    ours, _ = _outcome(feasible_point, A, b, lo, hi, **tolerances)
    system = simplex._system(A, b, lo, hi)
    tableau, _ = _outcome(simplex._tableau, *system, **tol)
    refuted = simplex._propagation_refutes(*system, tol["feas_tol"])
    if tableau[0] == "error" and refuted:
        assert ours == ("none",)
    else:
        assert ours == tableau
    if tableau[0] != "point":
        counts["infeasible"] += 1
        counts["refuted"] += refuted
        counts["tightened"] += refuted and not _first_check_refutes(*system, tol["feas_tol"])


def _counts():
    return {"infeasible": 0, "refuted": 0, "tightened": 0}


def test_presolve_agrees_with_tableau_on_solver_leaves_and_completions(tmp_path, monkeypatch):
    # Every leaf LP solve reaches on the oracle-small queries and their split
    # networks, and every completion first_feasible_completion enumerates on
    # the oracle-small queries: propagation never claims a system empty that
    # the tableau solves, and it decides most of the empty ones.
    systems = []
    real = solver.feasible_point

    def recording(A, b, lo, hi, **tolerances):
        systems.append((A, b, lo, hi, tolerances))
        return real(A, b, lo, hi, **tolerances)

    monkeypatch.setattr(solver, "feasible_point", recording)
    queries = oracle_queries_and_split_twins(tmp_path)
    for q in queries:
        solve(q, timeout=60.0)
    n_leaves = len(systems)
    for q in queries[::2]:
        phases = [np.zeros(size, dtype=np.int8) for size in q.network.hidden_sizes]
        first_feasible_completion(q.network, q.input, phases, q.output.threshold)
    for part in (systems[:n_leaves], systems[n_leaves:]):
        counts = _counts()
        for A, b, lo, hi, tolerances in part:
            _compare_with_tableau(A, b, lo, hi, tolerances, counts)
        assert counts["infeasible"] > 300, counts
        assert counts["refuted"] > 0.9 * counts["infeasible"], counts
        assert counts["tightened"] > 0, counts


def _marginal_rhs(rng, A, lo, hi, feas_tol):
    """Right-hand sides that put each row's minimum over the box just inside
    (``A x <= b`` misses by under ``feas_tol`` scaled) or just outside the
    tableau's margin."""
    scale = np.maximum(np.abs(A).max(axis=1), 1.0)
    row_min = np.maximum(A, 0.0) @ lo + np.minimum(A, 0.0) @ hi
    return row_min - rng.choice([0.5, 2.0], size=A.shape[0]) * feas_tol * scale


def _presolve_box(rng, i):
    """A seeded box; every seventh has some point coordinates."""
    n = int(rng.integers(1, 6))
    lo = rng.uniform(-1.0, 0.5, size=n)
    hi = lo + rng.uniform(0.0, 1.5, size=n)
    if i % 7 == 0:
        hi = np.where(rng.random(n) < 0.5, lo, hi)  # point coordinates
    return lo, hi


def _presolve_system(rng, i, lo, hi, feas_tol):
    """A seeded system over the box with 0, 1 or many rows, of the kind
    ``i % 5`` picks: plain, equalities written as two rows, feasible at a
    single point, or within or just past the tableau's margin."""
    n = lo.shape[0]
    m = int(rng.choice([0, 1, 1, int(rng.integers(2, 16))]))
    A = rng.uniform(-2.0, 2.0, size=(m, n))
    A[rng.random((m, n)) < 0.2] = 0.0
    b = rng.uniform(-1.5, 2.0, size=m)
    kind = i % 5
    if kind == 1 and m:  # equalities as two rows, through a box point
        x = rng.uniform(lo, hi)
        A = np.vstack([A, -A])
        b = np.concatenate([A[:m] @ x, -(A[:m] @ x)])
    elif kind == 2:  # feasible at one point only: M x <= M p and -M x <= -M p
        M = rng.uniform(-2.0, 2.0, size=(n, n)) + 3.0 * np.eye(n)
        p = rng.uniform(lo, hi)
        A = np.vstack([M, -M, A])
        b = np.concatenate([M @ p, -(M @ p), b])
    elif kind == 3 and m:  # rows missing by about the tableau's margin
        b = _marginal_rhs(rng, A, lo, hi, feas_tol)
    return A, b


def _presolve_systems(rng, count, feas_tol):
    """Seeded systems (``_presolve_system``), each over its own box."""
    for i in range(count):
        lo, hi = _presolve_box(rng, i)
        yield (*_presolve_system(rng, i, lo, hi, feas_tol), lo, hi)


@pytest.mark.parametrize("tolerances", [{}, RETRY_TOLERANCES], ids=["default", "retry"])
def test_presolve_agrees_with_tableau_on_seeded_systems(tolerances):
    rng = np.random.default_rng(72)
    feas_tol = {**DEFAULT_TOLERANCES, **tolerances}["feas_tol"]
    counts, outcomes = _counts(), set()
    for A, b, lo, hi in _presolve_systems(rng, 1500, feas_tol):
        _compare_with_tableau(A, b, lo, hi, tolerances, counts)
        outcomes.add((A.shape[0] > 1, feasible_point(A, b, lo, hi, **tolerances) is None))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}
    assert counts["refuted"] > 0.5 * counts["infeasible"] and counts["tightened"] > 0, counts


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tolerances", [{}, RETRY_TOLERANCES], ids=["default", "retry"])
def test_batched_presolve_equals_one_system_presolve(tolerances):
    # Stacks of 1 to 8 seeded systems over one box, each padded to the
    # stack's row count with neutral rows (zero rows with right-hand side 0)
    # at random places, as a batch's leaf rows are: every system's flag is
    # the one-system presolve's answer on its own rows, which is a ``bool``.
    rng = np.random.default_rng(79)
    feas_tol = {**DEFAULT_TOLERANCES, **tolerances}["feas_tol"]
    seen = {"refuted": 0, "kept": 0, "tightened": 0, "mixed": 0, "padded_one_row": 0}
    for i in range(400):
        lo, hi = _presolve_box(rng, i)
        K = int(rng.integers(1, 9))
        systems = [_presolve_system(rng, i + k, lo, hi, feas_tol) for k in range(K)]
        m = max(A.shape[0] for A, _ in systems) + int(rng.integers(0, 3))
        stack_A, stack_b = np.zeros((K, m, lo.shape[0])), np.zeros((K, m))
        for k, (A, b) in enumerate(systems):
            rows = np.sort(rng.choice(m, size=A.shape[0], replace=False))
            stack_A[k, rows], stack_b[k, rows] = A, b
        flags = simplex._propagation_refutes(stack_A, stack_b, lo, hi, feas_tol)
        assert flags.dtype == bool and flags.shape == (K,)
        for k, (A, b) in enumerate(systems):
            one = simplex._propagation_refutes(A, b, lo, hi, feas_tol)
            assert type(one) is bool and flags[k] == one, (i, k)
            seen["refuted" if one else "kept"] += 1
            seen["tightened"] += one and not _first_check_refutes(A, b, lo, hi, feas_tol)
            seen["padded_one_row"] += A.shape[0] == 1 and m > 1
        seen["mixed"] += 0 < flags.sum() < K
    assert min(seen.values()) > 20, seen


def test_presolve_keeps_rows_within_the_tableau_margin():
    # x <= 0.5 and x >= 0.5 + delta: the tableau returns a point when delta is
    # under feas_tol, and the presolve must not refute it; well past the
    # margin both refute.
    lo, hi = np.array([0.0]), np.array([1.0])
    A = np.array([[1.0], [-1.0]])
    for delta, feasible in ((0.5e-8, True), (5e-8, False)):
        b = np.array([0.5, -0.5 - delta])
        assert simplex._propagation_refutes(A, b, lo, hi, 1e-8) is not feasible
        assert (feasible_point(A, b, lo, hi) is not None) is feasible
    # Rows whose minima fit the box, but which propagation refutes: the first
    # system needs raised lower bounds, the second lowered upper bounds
    # (y <= 0.1 and x <= 0.5, while x + y >= 1).
    lo, hi = np.zeros(2), np.ones(2)
    for A, b in (
        ([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, -0.6, -0.6]),
        ([[0.0, 1.0], [-1.0, -1.0], [1.0, 0.0]], [0.1, -1.0, 0.5]),
    ):
        A, b = np.array(A), np.array(b)
        assert not _first_check_refutes(A, b, lo, hi, 1e-8)
        assert simplex._propagation_refutes(A, b, lo, hi, 1e-8)
        assert feasible_point(A, b, lo, hi) is None
