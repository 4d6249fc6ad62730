"""Verification loops: direct solving, abstraction refinement with a fixed
property, and abstraction refinement with property tightening.

All three agree on verdicts outside the granularity band
``(c, c + EPSILON)`` (see ``solver``); they differ in how much work the
backend solver sees.  The refinement loops saturate-abstract the network
first, check solver counterexamples against the original query, and split
merged neurons guided by spurious ones.  The tightening loop additionally
raises the abstract query's threshold by the certified output gap,
recomputed from scratch after every refinement.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .abstraction import AbstractionState, abstract_to_saturation, refine_split
from .bounds import tighten_property
from .categorize import preprocess
from .network import Query
from .solver import Status, Verdict, is_witness, solve

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
    sampled_counterexamples: int = 0  # solves whose SAT witness came from the root falsifier
    total_time: float = 0.0
    initial_excess: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def is_genuine(q: Query, x0) -> bool:
    """Counterexample check against the original query, by the solver's witness rule."""
    return is_witness(q.network, x0, q.output.threshold)


def _refinement_loop(q: Query, mode: str, timeout: float | None) -> tuple[Verdict, RunStats]:
    stats = RunStats(mode=mode)
    start = time.monotonic()

    def remaining():
        return None if timeout is None else timeout - (time.monotonic() - start)

    def finish(status: Status, witness=None, sampled: bool = False) -> tuple[Verdict, RunStats]:
        stats.total_time = time.monotonic() - start
        return Verdict(status, witness, stats.solver_nodes, stats.total_time, sampled), stats

    base = preprocess(q.network)
    nonneg = bool(np.all(q.input.lower >= 0.0))
    state: AbstractionState = abstract_to_saturation(base, nonneg_inputs=nonneg)
    stats.initial_excess = state.excess
    iteration_bound = 1 + stats.initial_excess

    while True:
        if mode == "cegarette":
            prop = tighten_property(state.network, q.network, q.input, q.output)
        else:
            prop = q.output
        stats.iterations += 1
        stats.abstract_hidden_sizes.append(state.hidden_sizes)
        stats.thresholds.append(prop.threshold)
        if stats.iterations > iteration_bound:
            raise RuntimeError(
                f"{mode}: exceeded the convergence bound of {iteration_bound} iterations"
            )

        budget = remaining()
        if budget is not None and budget <= 0:
            return finish(Status.TIMEOUT)
        v = solve(Query(state.network, q.input, prop), timeout=budget)
        stats.solver_times.append(v.time)
        stats.solver_nodes += v.nodes
        stats.sampled_counterexamples += v.sampled

        if v.status is not Status.SAT:
            return finish(v.status)
        x0 = v.witness
        if is_genuine(q, x0):
            return finish(Status.SAT, x0, v.sampled)
        state = refine_split(state, x0)
        stats.refinement_steps += 1


def verify(q: Query, mode: str, timeout: float | None = None) -> tuple[Verdict, RunStats]:
    """Decide ``q`` in one of ``MODES``: ``direct`` hands the original query
    straight to the solver, ``cegar`` and ``cegarette`` run the refinement loop."""
    if mode in ("cegar", "cegarette"):
        return _refinement_loop(q, mode, timeout)
    if mode != "direct":
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    stats = RunStats(mode="direct", initial_excess=0)
    start = time.monotonic()
    v = solve(q, timeout=timeout)
    stats.iterations = 1
    stats.abstract_hidden_sizes.append(q.network.hidden_sizes)
    stats.thresholds.append(q.output.threshold)
    stats.solver_times.append(v.time)
    stats.solver_nodes = v.nodes
    stats.sampled_counterexamples = int(v.sampled)
    stats.total_time = time.monotonic() - start
    return v, stats
