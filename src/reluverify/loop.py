"""The verification loop, one for every mode: solve a query, check its
counterexample against the original query, and refine if it is spurious.

The modes differ only in where the loop starts and in the property it
solves.  ``direct`` starts from the original network, which never needs
refining.  ``cegar`` and ``cegarette`` start from the saturated abstraction
of the preprocessed network and split merged neurons guided by spurious
counterexamples; ``cegarette`` also raises the abstract query's threshold
by the certified output gap of each new abstract network.  All
three agree on verdicts outside the granularity band ``(c, c + EPSILON)``
(see ``solver``); they differ in how much work the backend solver sees.

A spurious point ``x0`` is split on until it stops being a witness of the
abstract query.  After a split, while merges remain and ``x0`` reaches
``threshold + EPSILON`` on the new abstract network, which is the
falsifier's rule in ``solver``, the loop splits again at ``x0`` without
calling ``solve`` or ``is_genuine``.  This is sound: the original network
does not change, so ``x0`` is still spurious; UNSAT still comes only from
``solve``, and SAT only from ``is_genuine``.  ``cegarette``'s threshold is
the one tightened for the network in hand, for the check and the solve
alike, never a previous one's: a split can change the certified gap
either way, and an UNSAT answer against a gap the network does not have
need not carry over to the original.  Each
network's hidden values at ``x0`` are computed once, from the split layer
on, when ``refine_split`` builds it, and serve both this check and the next
split's choice.  The time limit is checked before each split.  Such an iteration counts in
``RunStats.iterations`` and ``resplits`` and has no entry in
``solver_times``.

Each layer is bounded once per call: ``bounds.sbt`` keeps every layer's
phase-free result for the box ``verify`` builds, so ``cegarette`` bounds
the original once, ``solve``'s root reuses the abstract network's bound
from the gap, and after a split at layer L, which leaves layers 0..L-1 of
the abstract network as they were, only the layers from L on are bounded.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .abstraction import abstract_to_saturation, refine_split
from .bounds import tighten_property
from .categorize import preprocess
from .network import Query
from .solver import EPSILON, Status, Verdict, is_witness, solve

MODES = ("direct", "cegar", "cegarette")


@dataclass
class RunStats:
    """Per-run bookkeeping: one entry per loop iteration (one abstract
    network examined) where applicable; ``solver_times`` has one per
    iteration that solved, which is ``iterations - resplits`` of them."""

    mode: str
    iterations: int = 0
    refinement_steps: int = 0
    abstract_hidden_sizes: list[list[int]] = field(default_factory=list)
    thresholds: list[float] = field(default_factory=list)
    splits: list[tuple[int, int]] = field(default_factory=list)  # (layer, member) per refinement
    solver_times: list[float] = field(default_factory=list)  # one per iteration that solved
    resplits: int = 0  # iterations that split again at the kept point, without a solve
    solver_nodes: int = 0
    sampled_counterexamples: int = 0  # solves whose SAT witness came from the root falsifier
    total_time: float = 0.0
    initial_excess: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def is_genuine(q: Query, x0) -> bool:
    """Counterexample check against the original query, by the solver's witness rule."""
    return is_witness(q.network, x0, q.output.threshold)


def verify(q: Query, mode: str, timeout: float | None = None) -> tuple[Verdict, RunStats]:
    """Decide ``q`` in one of ``MODES``.  The verdict's ``nodes`` and ``time``
    are the run's ``solver_nodes`` and ``total_time``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if timeout is not None and math.isnan(timeout):
        raise ValueError("timeout is NaN")
    # A box object of this call's own, over the same read-only arrays, keys
    # ``bounds.sbt``'s kept layer results to this call: a repeated call on
    # the same ``Query`` bounds afresh.
    box = copy.copy(q.input)
    stats = RunStats(mode=mode)
    start = time.monotonic()

    def finish(status: Status, witness=None, sampled: bool = False) -> tuple[Verdict, RunStats]:
        stats.total_time = time.monotonic() - start
        return Verdict(status, witness, stats.solver_nodes, stats.total_time, sampled), stats

    if mode == "direct":
        network, stats.initial_excess = q.network, 0
    else:
        nonneg = bool(np.all(q.input.lower >= 0.0))
        state = abstract_to_saturation(preprocess(q.network), nonneg_inputs=nonneg)
        network, stats.initial_excess = state.network, state.excess
    iteration_bound = 1 + stats.initial_excess

    x0 = None  # the spurious point that guided the last split
    while True:
        if mode == "cegarette":
            prop = tighten_property(network, q.network, box, q.output)
        else:
            prop = q.output
        stats.iterations += 1
        stats.abstract_hidden_sizes.append(network.hidden_sizes)
        stats.thresholds.append(prop.threshold)
        if stats.iterations > iteration_bound:
            raise RuntimeError(
                f"{mode}: exceeded the convergence bound of {iteration_bound} iterations"
            )

        if x0 is not None and state.excess > 0 and state.guide_output() >= prop.threshold + EPSILON:
            # The state was split at x0, its guide's point.  x0 is a witness
            # of this abstract query by the falsifier's rule, and still
            # spurious: split again without solving.
            stats.resplits += 1
        else:
            budget = None if timeout is None else timeout - (time.monotonic() - start)
            v = solve(Query(network, box, prop), timeout=budget)
            stats.solver_times.append(v.time)
            stats.solver_nodes += v.nodes
            stats.sampled_counterexamples += v.sampled

            if v.status is not Status.SAT:
                return finish(v.status)
            x0 = v.witness
            # In ``direct`` the solver already accepted x0 by ``is_witness`` on
            # this network and threshold, which is this check, so ``direct``
            # never gets past it to refine.
            if is_genuine(q, x0):
                return finish(Status.SAT, x0, v.sampled)
        if timeout is not None and time.monotonic() - start >= timeout:
            return finish(Status.TIMEOUT)
        state = refine_split(state, x0)
        network = state.network
        stats.splits.append(state.split)
        stats.refinement_steps += 1
