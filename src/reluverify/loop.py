"""The verification loop, one for every mode: solve a query, check its
counterexample against the original query, and refine if it is spurious.

The modes differ only in where the loop starts and in the property it
solves.  ``direct`` starts from the original network, which never needs
refining.  ``cegar`` and ``cegarette`` start from the saturated abstraction
of the preprocessed network and split merged neurons guided by spurious
counterexamples; ``cegarette`` also raises the abstract query's threshold
by the certified output gap of each abstract network it solves.  All
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
split's choice.  The time limit is checked before each split.  Such an
iteration counts in ``RunStats.iterations`` and ``resplits`` and has no
entry in ``thresholds`` or ``solver_times``.

``cegarette`` bounds a network for its gap only when it may solve it.
With ``g`` the network's output at ``x0``, ``c`` the original threshold,
``hi`` the original's SBT upper bound and ``low`` the box corner that
minimises the output lower expression of the last network bounded
(``bounds.lower_corner``), the re-split check passes with no bound when
``g >= c + EPSILON`` and ``network(low) - hi <= g - c - EPSILON``.  The
gap is ``d = max(0, lo - hi)``, with ``lo`` SBT's lower bound of the
network's output, which is at most the output at any box point, ``low``
included; so ``d <= g - c - EPSILON``, and ``x0`` reaches the tightened
threshold ``c + d + EPSILON``.  Such a re-split also counts in
``settled_resplits``.  Otherwise the network is bounded and its gap taken
as before; every solve still gets the threshold tightened for its own
network.  ``low`` is found only before a split that follows a bounded
iteration.

No bound is computed twice in a call: ``bounds.sbt`` keeps every layer's
phase-free result for the box ``verify`` builds, so ``cegarette``
bounds the original once, ``solve``'s root reuses the abstract network's
bound from the gap, and ``lower_corner`` reads that bound.  A split at
layer L leaves layers 0..L-1 of the abstract network as they were, so a
network bounded after splits at layers L1, L2, ... since the last bounded
one is bounded from the lowest of them on.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .abstraction import abstract_to_saturation, refine_split
from .bounds import lower_corner, output_bounds, tighten_property
from .categorize import preprocess
from .network import Query, evaluate
from .solver import EPSILON, Status, Verdict, is_witness, solve

MODES = ("direct", "cegar", "cegarette")


@dataclass
class RunStats:
    """Per-run bookkeeping.  ``abstract_hidden_sizes`` has one entry per
    loop iteration (one abstract network examined); ``thresholds`` and
    ``solver_times`` have one per iteration that solved, which is
    ``iterations - resplits`` of them: the threshold that solve used and
    the time it took."""

    mode: str
    iterations: int = 0
    refinement_steps: int = 0
    abstract_hidden_sizes: list[list[int]] = field(default_factory=list)
    thresholds: list[float] = field(default_factory=list)  # one per solve
    splits: list[tuple[int, int]] = field(default_factory=list)  # (layer, member) per refinement
    solver_times: list[float] = field(default_factory=list)  # one per solve
    resplits: int = 0  # iterations that split again at the kept point, without a solve
    settled_resplits: int = 0  # re-splits that the point settled with no bound (``cegarette``)
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
    if mode == "cegarette":
        hi_orig = output_bounds(q.network, box)[1]  # kept: every gap reuses it
    while True:
        stats.iterations += 1
        stats.abstract_hidden_sizes.append(network.hidden_sizes)
        if stats.iterations > iteration_bound:
            raise RuntimeError(
                f"{mode}: exceeded the convergence bound of {iteration_bound} iterations"
            )

        prop, bounded = q.output, False
        resplit = x0 is not None and state.excess > 0
        if resplit:
            g, c = state.guide_output(), prop.threshold
        if mode == "cegarette":
            if resplit and g >= c + EPSILON and evaluate(network, low)[0] - hi_orig <= g - c - EPSILON:
                # The gap is at most network(low) - hi_orig, so x0 reaches
                # the tightened threshold + EPSILON with no bound.
                stats.settled_resplits += 1
            else:
                prop, bounded = tighten_property(network, q.network, box, q.output), True
        resplit = resplit and g >= prop.threshold + EPSILON

        if resplit:
            # The state was split at x0, its guide's point.  x0 is a witness
            # of this abstract query by the falsifier's rule, and still
            # spurious: split again without solving.
            stats.resplits += 1
        else:
            budget = None if timeout is None else timeout - (time.monotonic() - start)
            v = solve(Query(network, box, prop), timeout=budget)
            stats.thresholds.append(prop.threshold)
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
        if bounded:
            low = lower_corner(network, box)
        state = refine_split(state, x0)
        network = state.network
        stats.splits.append(state.split)
        stats.refinement_steps += 1
