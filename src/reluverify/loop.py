"""Verification loops: direct solving, abstraction refinement with a fixed
property, and abstraction refinement with property tightening.

All three agree on verdicts; they differ in how much work the backend
solver sees.  The refinement loops saturate-abstract the network first,
check solver counterexamples against the original query, and split merged
neurons guided by spurious ones.  The tightening loop additionally raises
the abstract query's threshold by the certified output gap, recomputed from
scratch after every refinement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .abstraction import AbstractionState, abstract_to_saturation, refine_split
from .bounds import tighten_property
from .categorize import preprocess
from .network import Query
from .solver import DEFAULT_EPSILON, Status, Verdict, is_witness, solve

MODES = ("direct", "cegar", "cegarette")


@dataclass
class RunStats:
    """Per-run bookkeeping: one entry per loop iteration where applicable."""

    mode: str
    iterations: int = 0
    refinement_steps: int = 0
    abstract_hidden_sizes: list[list[int]] = field(default_factory=list)
    thresholds: list[float] = field(default_factory=list)
    solver_times: list[float] = field(default_factory=list)
    solver_nodes: int = 0
    total_time: float = 0.0
    initial_excess: int | None = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "iterations": self.iterations,
            "refinement_steps": self.refinement_steps,
            "abstract_hidden_sizes": self.abstract_hidden_sizes,
            "thresholds": self.thresholds,
            "solver_times": self.solver_times,
            "solver_nodes": self.solver_nodes,
            "total_time": self.total_time,
            "initial_excess": self.initial_excess,
        }


def is_genuine(q: Query, x0) -> bool:
    """Counterexample check against the original query, by the solver's witness rule."""
    return is_witness(q.network, x0, q.output.threshold)


def verify_direct(
    q: Query, timeout: float | None = None, epsilon: float = DEFAULT_EPSILON
) -> tuple[Verdict, RunStats]:
    """Hand the original query straight to the backend solver."""
    stats = RunStats(mode="direct", initial_excess=0)
    start = time.monotonic()
    v = solve(q, timeout=timeout, epsilon=epsilon)
    stats.iterations = 1
    stats.abstract_hidden_sizes.append(q.network.hidden_sizes)
    stats.thresholds.append(q.output.threshold)
    stats.solver_times.append(v.time)
    stats.solver_nodes = v.nodes
    stats.total_time = time.monotonic() - start
    return v, stats


def _refinement_loop(
    q: Query,
    mode: str,
    tighten: bool,
    timeout: float | None,
    epsilon: float,
    refine_batch: int,
    state_trace: list | None,
) -> tuple[Verdict, RunStats]:
    stats = RunStats(mode=mode)
    start = time.monotonic()

    def remaining():
        return None if timeout is None else timeout - (time.monotonic() - start)

    def finish(v: Verdict) -> tuple[Verdict, RunStats]:
        stats.total_time = time.monotonic() - start
        return v, stats

    base = preprocess(q.network)
    nonneg = bool(np.all(q.input.lower >= 0.0))
    state: AbstractionState = abstract_to_saturation(base, nonneg_inputs=nonneg)
    stats.initial_excess = state.excess
    max_iterations = 1 + stats.initial_excess
    if state_trace is not None:
        state_trace.append(state)

    while True:
        threshold = q.output.threshold
        if tighten:
            prop = tighten_property(state.network, q.network, q.input, q.output)
            threshold = prop.threshold
        else:
            prop = q.output
        stats.iterations += 1
        stats.abstract_hidden_sizes.append(state.hidden_sizes)
        stats.thresholds.append(threshold)
        if stats.iterations > max_iterations:
            raise RuntimeError(
                f"{mode}: exceeded the convergence bound of {max_iterations} iterations"
            )

        budget = remaining()
        if budget is not None and budget <= 0:
            return finish(Verdict(Status.TIMEOUT, None, stats.solver_nodes, 0.0))
        abstract_query = Query(state.network, q.input, prop)
        v = solve(abstract_query, timeout=budget, epsilon=epsilon)
        stats.solver_times.append(v.time)
        stats.solver_nodes += v.nodes

        if v.status is Status.TIMEOUT:
            return finish(v)
        if v.status is Status.UNSAT:
            return finish(Verdict(Status.UNSAT, None, stats.solver_nodes, v.time))
        x0 = v.witness
        if is_genuine(q, x0):
            return finish(Verdict(Status.SAT, x0, stats.solver_nodes, v.time))
        state = refine_split(state, x0, k=refine_batch)
        stats.refinement_steps += 1
        if state_trace is not None:
            state_trace.append(state)


def verify_cegar(
    q: Query,
    timeout: float | None = None,
    epsilon: float = DEFAULT_EPSILON,
    refine_batch: int = 1,
    state_trace: list | None = None,
) -> tuple[Verdict, RunStats]:
    """Abstraction refinement with the output property left unchanged."""
    return _refinement_loop(q, "cegar", False, timeout, epsilon, refine_batch, state_trace)


def verify_cegarette(
    q: Query,
    timeout: float | None = None,
    epsilon: float = DEFAULT_EPSILON,
    refine_batch: int = 1,
    state_trace: list | None = None,
) -> tuple[Verdict, RunStats]:
    """Abstraction refinement with bound-derived (SBT) property tightening."""
    return _refinement_loop(q, "cegarette", True, timeout, epsilon, refine_batch, state_trace)


def verify(
    q: Query,
    mode: str,
    timeout: float | None = None,
    epsilon: float = DEFAULT_EPSILON,
    refine_batch: int = 1,
) -> tuple[Verdict, RunStats]:
    """Decide ``q`` in one of ``MODES``; ``refine_batch`` only affects the refinement loops."""
    if mode == "direct":
        return verify_direct(q, timeout, epsilon)
    if mode == "cegar":
        return verify_cegar(q, timeout, epsilon, refine_batch)
    if mode == "cegarette":
        return verify_cegarette(q, timeout, epsilon, refine_batch)
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
