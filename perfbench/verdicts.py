"""Independent verdict check.

Nothing here calls into ``reluverify`` to decide correctness: witnesses are
re-evaluated with this module's own forward pass over the loaded weights.
An operation (one query in one mode) fails when it raised, when its SAT
witness is outside the box or does not reach ``c - 1e-9``, when its verdict
contradicts the suite label, when an UNSAT is contradicted by a sampled
point above ``c`` or by another mode's checked witness.
"""

from __future__ import annotations

import numpy as np

WITNESS_SLACK = 1e-9
BOX_SLACK = 1e-12
SAMPLES = 4096
DECIDED = ("SAT", "UNSAT")


def forward(query, X: np.ndarray) -> np.ndarray:
    """Network output for each row of X (shape (k, n) -> (k,))."""
    V = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for layer in query.network.layers:
        V = V @ layer.weights.T + layer.biases
        if layer.relu:
            V = np.maximum(V, 0.0)
    return V[:, 0]


def witness_problem(query, x) -> str | None:
    """Why a SAT witness is invalid, or None when it holds."""
    if x is None:
        return "SAT without a witness"
    x = np.asarray(x, dtype=np.float64)
    lo, hi = query.input.lower, query.input.upper
    if x.shape != lo.shape:
        return f"witness has shape {x.shape}, box has {lo.shape}"
    slack = BOX_SLACK * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    if np.any(x < lo - slack) or np.any(x > hi + slack):
        return "witness outside the input box"
    y, c = float(forward(query, x)[0]), query.output.threshold
    if not y > c - WITNESS_SLACK:
        return f"witness output {y!r} is not above c - 1e-9 (c = {c!r})"
    return None


def sampled_max(query, rng) -> float:
    """Largest output over the box midpoint and seeded uniform samples."""
    lo, hi = query.input.lower, query.input.upper
    X = rng.uniform(lo, hi, size=(SAMPLES, lo.shape[0]))
    return float(forward(query, np.vstack([X, 0.5 * (lo + hi)])).max())


def judge(case, ops: dict, sample_max: float | None) -> tuple[dict, bool]:
    """Check every mode's result on one query.

    ``ops`` maps mode -> dict with ``status``, ``witness`` and ``error``.
    Returns (mode -> list of failure reasons, whether decided modes disagree).
    """
    q, c = case.query, case.query.output.threshold
    reasons = {m: [] for m in ops}
    verified_sat = []
    for m, op in ops.items():
        status = op["status"]
        if status == "ERROR":
            reasons[m].append(f"error: {op['error']}")
            continue
        if status == "SAT":
            problem = witness_problem(q, op["witness"])
            if problem:
                reasons[m].append(problem)
            else:
                verified_sat.append(m)
        if status in DECIDED and case.label is not None and status != case.label:
            reasons[m].append(f"label is {case.label}")
        if status == "UNSAT" and sample_max is not None and sample_max > c:
            reasons[m].append(f"sampling found output {sample_max!r} > c = {c!r}")
    for m, op in ops.items():
        if op["status"] == "UNSAT" and verified_sat:
            reasons[m].append(f"{', '.join(verified_sat)} found a checked witness")
    decided = {op["status"] for op in ops.values() if op["status"] in DECIDED}
    return reasons, len(decided) > 1
