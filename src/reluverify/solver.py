"""Sound and complete decision procedure for a single query.

Branch-and-bound over ReLU phases: each node carries a partial phase
assignment (+1 active, -1 inactive, 0 undecided), bounds are computed per
node with phase-aware symbolic tightening, branches whose output upper
bound cannot exceed the threshold are pruned, and fully-decided leaves
reduce to a linear feasibility problem solved with a dense simplex.

A leaf's LP has a row only for each branch-fixed neuron (a nonzero entry
in the node's phases) and one for the output; every neuron gets its
phase from the node's ``sbt`` modes, which drive the affine propagation.
This is exact.  Call R the box points where the branch-fixed phases
hold.  ``sbt`` with forced phases is sound on R, and a neuron's bounds
depend only on the phases fixed in the layers below it, so by induction
over the layers every point of the LP region lies in R, and there every
neuron that is not branch-fixed is stable in the phase its bounds give.
Its row is therefore implied, and the network equals the affine map the
LP uses.  ``first_feasible_completion``, the reference the tests and
``harness.exhaustive_verdict`` check the search against, keeps a row for
every neuron.

A branch fixes the phase of a whole twin class: the neurons of the branch
layer whose incoming weights and bias equal the chosen neuron's exactly
(``categorize.preprocess`` makes such copies).  This is sound because twins
have the same pre-activation at every input, so a mixed-phase region is
empty except where that pre-activation is 0, and there both phases give 0.
Networks without twins branch on one neuron at a time.

The root is bounded by an ``sbt`` call without phases: its phases are
all unknown, which gives the same arrays, and the call reuses every layer
``bounds`` keeps for the query's box, such as the abstract bound of
``cegarette``'s gap, or the layers below a split that the network shares
with the one it was split from.  A root that prunes, that has a corner
witness, or that is a leaf, is all the work a query does.

Every root the bound does not prune is first answered at one box corner,
``where(g > 0, upper, lower)``, with ``g`` the input gradient under the
root's modes and an unknown neuron counted as inactive.  If the corner's
exact output reaches ``c + EPSILON``, the falsifier's rule below, it is
the witness.  This one check covers two cases where a witness is known
to exist: when the root's sound lower bound clears ``c + EPSILON`` every
box point is one, and at a root leaf (every neuron stable) the network
is affine on the box, so the corner is its maximum.  A root that is not
a leaf and whose corner misses goes to the falsifier.  Then the root is
the search's first batch, its arrays given a leading node axis, and the
step every batch takes branches it or sends it to the leaf path.  So a
root leaf's UNSAT comes only from its presolve or LP, which run only
when the corner misses.

Every later batch is bounded at the end of the step before it.
``solve`` pops up to ``BATCH`` nodes off the top of its depth-first stack
and bounds them with one ``sbt`` call, whose phases carry a leading node
axis.  The phase-conflict check, the prune and the branch choice then
run over the whole batch at once.  Each node is bounded from the input:
``sbt`` gives every node of a batch the arrays of a one-node call on its
phases.  A node's bound therefore depends only on its phases, so the same
node is closed, branched the same way or sent to the same LP whatever
batch it is in, and an UNSAT search visits the same tree as a one-node
search.  A SAT search may stop at another leaf, because a batch runs its
leaves' LPs before the children of its other nodes.  The conflict check
covers every layer.  At a child's branch layer and below it, that check
finds nothing: those layers' pre-activation bounds are the parent's, which
passed, and the branched twin class was unknown in the parent
(``plo < 0 < phi``).

Every leaf LP goes through one leaf path, ``_first_leaf_witness``: a
batch's leaves, the root's among them, and the completions of
``first_feasible_completion``, ``BATCH`` at a time.  One ``_leaf_rows``
call builds all of its leaves' rows, with a zero row and right-hand side 0
in place of each row a leaf does not keep, and one
``simplex._propagation_refutes`` call refutes most of the leaves.  Each
survivor's kept rows do not depend on the other leaves of the call; they
go in node order to the leaf rule, ``_leaf_witness``, and its
``feasible_point``, and the first witness ends the call.  The time limit
is checked before the presolve and before every survivor's LP, the root
leaf's included.

The branch neuron is the unknown one with the widest pre-activation
interval, the first in layer order, then in index order, on ties.  Its
twin class is computed the first time a ``solve`` branches on it and
then kept for that ``solve``.  A child copies only its branch layer's
phase array and shares the others with its parent, which is safe because
no code changes a phase array in place.

Before the root branches, ``_falsify`` looks for a SAT witness by
sampling.  It runs once per ``solve``, at a root that is not a leaf,
when neither the prune nor the corner has decided it.  One numpy batch,
the box midpoint and ``FALSIFY_SAMPLES`` uniform box points from a fixed
seed, takes ``FALSIFY_STEPS`` signed-gradient steps clipped to the box.
A point counts only if its exact output reaches ``c + EPSILON``, which
implies ``is_witness``.  That is the leaf LP's reach rule, so when the
maximum lies in the granularity band ``(c, c + EPSILON)`` the falsifier
finds nothing and ``direct`` keeps its UNSAT answer.  After a miss the
search runs as without the falsifier, and UNSAT still comes only from
that complete search, so soundness and completeness are unchanged.  The
two counts are constants, not options, and the fixed seed keeps verdicts
and witnesses deterministic.  ``Verdict.sampled`` says whether the
witness came from the falsifier.

Tolerance policy.  Three constants fix every tolerance of a verdict:

* ``EPSILON`` is the decision granularity of the strict property ``y > c``.
  UNSAT promises that no x in the box reaches ``y >= c + EPSILON``.
* ``WITNESS_SLACK``: SAT returns a box point x with ``y(x) > c - WITNESS_SLACK``,
  checked by concrete forward evaluation (``is_witness``).  The refinement
  loops accept counterexamples on the original network by the same rule.
* ``RETRY_TOLERANCES`` are the tighter simplex pivot and feasibility
  tolerances for re-solving a leaf, once, whose first run failed
  numerically or returned a marginal point; the first run uses the simplex
  defaults.  This holds for every leaf LP, the reference enumeration's
  (``first_feasible_completion``) included: ``_leaf_witness`` is the one
  place an LP answer becomes a witness or None.

The leaf path's bound-propagation presolve (at most
``simplex.PRESOLVE_SWEEPS`` sweeps) adds no tolerance of its own: it
refutes a leaf only past ``simplex.FEAS_TOL``, the first run's margin, so
it never refutes a leaf whose first run would return a point.  A
survivor's LP, first run and retry alike, runs the tableau only.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import ACTIVE, INACTIVE, UNKNOWN, BoundsMap, sbt
from .network import InputBox, Network, Query, evaluate
from .simplex import SimplexError, _propagation_refutes, feasible_point

EPSILON = 1e-6
WITNESS_SLACK = 1e-9
RETRY_TOLERANCES = {"tol": 1e-11, "feas_tol": 1e-10}
FALSIFY_SAMPLES = 256
FALSIFY_STEPS = 5
BATCH = 64


class Status(str, enum.Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    TIMEOUT = "TIMEOUT"


class SolverError(RuntimeError):
    """Unrecoverable numerical failure while deciding a query."""


@dataclass(frozen=True, eq=False)
class Verdict:
    """A decision; ``nodes`` and ``time`` cover the whole run, every solve
    of a refinement loop included."""

    status: Status
    witness: np.ndarray | None
    nodes: int
    time: float
    sampled: bool = False  # the witness came from the root falsifier

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "witness": None if self.witness is None else self.witness.tolist(),
            "nodes": self.nodes,
            "time": self.time,
            "sampled": self.sampled,
        }


def is_witness(net: Network, x, threshold: float) -> bool:
    """The one acceptance rule for a SAT witness: ``net(x) > threshold - WITNESS_SLACK``."""
    return bool(evaluate(net, x)[0] > threshold - WITNESS_SLACK)


def _leaf_rows(net: Network, modes, phases, target: float):
    """Linear rows (A x <= b) of K leaves' regions: for node n, where every
    neuron with a nonzero entry in ``phases`` has its phase in ``modes``
    (+1 active, -1 inactive) and the output reaches ``target``.  Returns
    ``A`` of shape ``(K, rows, n)``, ``b`` of shape ``(K, rows)`` and the
    ``(K, rows)`` mask ``keep`` of each node's rows.

    ``modes`` and ``phases`` carry a leading node axis, one ``(K, n_k)``
    array per hidden layer, as ``sbt``'s do.  Exact affine propagation:
    under a full phase assignment ``modes`` each layer's pre-activations
    are an affine map ``C x + d`` of the input.  Every node gets a row per
    neuron and the output; ``keep`` marks those of its branch-fixed neurons
    and the output, and every other row is a zero row with right-hand side
    0, which no box point misses.  Passing ``modes`` itself as ``phases``
    keeps every row.  ``d`` is multiplied as a one-column matrix and ``@``
    over a leading axis runs the one-node product on each slice, so a
    node's kept rows do not depend on the other nodes of the call.  With no
    hidden layer, ``np.where`` broadcasts the node axis.
    """
    C, d = net.layers[0].weights, net.layers[0].biases[:, None]
    rows, rhs = [], []
    for layer, mode in zip(net.layers[1:], modes):
        active = (mode == ACTIVE)[..., None]
        rows.append(np.where(active, -C, C))
        rhs.append(np.where(active, d, -d))
        C, d = layer.weights @ (C * active), layer.weights @ (d * active) + layer.biases[:, None]
    rows.append(-C[..., :1, :])
    rhs.append(d[..., :1, :] - target)
    A, b = np.concatenate(rows, axis=-2), np.concatenate(rhs, axis=-2)[..., 0]
    nodes = len(phases[0]) if phases else 1
    keep = np.concatenate([*phases, np.full((nodes, 1), ACTIVE)], axis=-1) != UNKNOWN
    return np.where(keep[..., None], A, 0.0), np.where(keep, b, 0.0), keep


def _first_leaf_witness(net: Network, box: InputBox, modes, phases, threshold: float, timed_out):
    """The leaf path: a verified witness of the first of K leaves, in node
    order, whose leaf LP has one, None when none has, or ``Status.TIMEOUT``.

    ``modes`` and ``phases`` carry a leading node axis (``_leaf_rows``).
    One row build and one presolve serve all K leaves; each survivor's kept
    rows go to the leaf rule.  ``timed_out()`` is checked before the
    presolve and before every LP."""
    A, b, keep = _leaf_rows(net, modes, phases, threshold + EPSILON)
    if timed_out():
        return Status.TIMEOUT
    for n in np.flatnonzero(~_propagation_refutes(A, b, box.lower, box.upper)):
        if timed_out():
            return Status.TIMEOUT
        x = _leaf_witness(net, box, A[n][keep[n]], b[n][keep[n]], threshold)
        if x is not None:
            return x
    return None


def first_feasible_completion(net: Network, box: InputBox, phases, threshold: float):
    """A witness for ``threshold`` in the first completion of ``phases``
    (undecided neurons filled active-first, in layer order) whose leaf LP
    has one, or None when no completion has one.  Every neuron gets a row:
    this is the reference the search is checked against.  The completions
    go to the leaf path ``BATCH`` at a time, in ``itertools.product`` order."""
    flat = np.concatenate([np.zeros(0, dtype=np.int8), *phases])
    free = np.flatnonzero(flat == UNKNOWN)
    ends = np.cumsum([len(ph) for ph in phases])
    combos = itertools.product((ACTIVE, INACTIVE), repeat=free.size)
    while chunk := list(itertools.islice(combos, BATCH)):
        full = np.repeat(flat[None], len(chunk), axis=0)
        full[:, free] = chunk
        modes = [full[:, end - len(ph) : end] for ph, end in zip(phases, ends)]
        x = _first_leaf_witness(net, box, modes, modes, threshold, lambda: False)
        if x is not None:
            return x
    return None


def _leaf_witness(net: Network, box: InputBox, A, b, threshold: float):
    """The leaf rule: a verified witness of the leaf LP ``A x <= b`` over the
    box, or None.  A numerical failure or a marginal point (one
    ``is_witness`` rejects) on the first run is re-solved once with
    ``RETRY_TOLERANCES``."""
    for tolerances in ({}, RETRY_TOLERANCES):
        try:
            x = feasible_point(A, b, box.lower, box.upper, **tolerances)
        except SimplexError:
            if tolerances:
                raise
            continue
        if x is None or is_witness(net, x, threshold):
            return x
    raise SolverError("simplex produced a witness that fails concrete re-evaluation")


def _falsify(net: Network, box: InputBox, c: float):
    """A box point reaching ``c + EPSILON`` found by sampling, or None.

    One numpy batch: the box midpoint and ``FALSIFY_SAMPLES`` uniform box
    points from a fixed seed, moved by ``FALSIFY_STEPS`` signed-gradient
    steps clipped to the box.  The step starts at a quarter of the box width
    and halves each time; each point's gradient comes from its own ReLU
    phases.  The best point of the first batch that reaches the target is
    returned if its exact output also does.
    """
    lo, hi = box.lower, box.upper
    rng = np.random.default_rng(0)
    X = np.vstack([box.midpoint(), rng.uniform(lo, hi, size=(FALSIFY_SAMPLES, box.dim))])
    step = 0.25 * (hi - lo)
    *hidden, out = net.layers
    for s in range(FALSIFY_STEPS + 1):
        V, masks = X, []
        for layer in hidden:
            Z = V @ layer.weights.T + layer.biases
            masks.append(Z > 0.0)
            V = np.where(masks[-1], Z, 0.0)
        y = V @ out.weights[0] + out.biases[0]
        best = int(np.argmax(y))
        if y[best] >= c + EPSILON:
            x = X[best].copy()
            if evaluate(net, x)[0] >= c + EPSILON:
                return x
        if s == FALSIFY_STEPS:
            return None
        G = np.broadcast_to(out.weights[0], V.shape)
        for layer, mask in zip(reversed(hidden), reversed(masks)):
            G = (G * mask) @ layer.weights
        X = np.clip(X + step * np.sign(G), lo, hi)
        step = 0.5 * step


def _widest_unknown(relu_modes, bm):
    """The unknown neuron with the widest pre-activation interval, as an
    index into the hidden neurons in layer order, or -1 if there is none;
    ties go to the first in layer order, then in index order.

    The neuron axis trails and any node axes lead: one node's modes give
    a 0-d result, a batch's ``(K, n_k)`` modes give one index per node.
    """
    if not relu_modes:
        return np.int64(-1)
    widths = np.concatenate(
        [np.where(mode == UNKNOWN, phi - plo, -np.inf) for mode, (plo, phi) in zip(relu_modes, bm.pre)],
        axis=-1,
    )
    return np.where(widths.max(axis=-1) == -np.inf, -1, widths.argmax(axis=-1))


def solve(query: Query, timeout: float | None = None) -> Verdict:
    """Decide a query: UNSAT, SAT with witness, or TIMEOUT.

    UNSAT and SAT promise what the module docstring states.  A NaN timeout,
    which would mean no limit, is a ``ValueError``.
    """
    if timeout is not None and math.isnan(timeout):
        raise ValueError("timeout is NaN")
    net, box, c = query.network, query.input, query.output.threshold
    start = time.monotonic()
    nodes = 0

    def verdict(status: Status, witness=None, sampled: bool = False) -> Verdict:
        return Verdict(status, witness, nodes, time.monotonic() - start, sampled)

    def timed_out() -> bool:
        return timeout is not None and time.monotonic() - start >= timeout

    if timeout is not None and timeout <= 0:
        return verdict(Status.TIMEOUT)

    nodes = 1
    relu_modes, bm = sbt(net, box)
    if bm.output_interval[1] <= c:
        return verdict(Status.UNSAT)
    # The corner the input gradient under the root modes points to, an
    # unknown neuron counted as inactive.
    g = net.layers[-1].weights[0]
    for layer, mode in zip(reversed(net.layers[:-1]), reversed(relu_modes)):
        g = (g * (mode == ACTIVE)) @ layer.weights
    x = np.where(g > 0.0, box.upper, box.lower)
    if evaluate(net, x)[0] >= c + EPSILON:
        return verdict(Status.SAT, x)
    if any((mode == UNKNOWN).any() for mode in relu_modes):
        x = _falsify(net, box, c)
        if x is not None:
            return verdict(Status.SAT, x, sampled=True)

    twins: dict[int, tuple[int, np.ndarray]] = {}  # neuron index -> (layer, its twin class)

    def children(phases, j: int) -> list:
        """The node's two children on neuron ``j``'s twin class, active first."""
        if j not in twins:
            i = j
            for k, size in enumerate(net.hidden_sizes):
                if i < size:
                    break
                i -= size
            W, b = net.layers[k].weights, net.layers[k].biases
            twins[j] = k, np.flatnonzero((W == W[i]).all(axis=1) & (b == b[i]))
        k, cls = twins[j]
        kids = []
        for val in (ACTIVE, INACTIVE):
            ph = phases[k].copy()
            ph[cls] = val
            kids.append(phases[:k] + (ph,) + phases[k + 1 :])
        return kids

    # The root is the first batch, its arrays given a leading node axis.
    # The stack's top is its end; each batch lists its nodes top first.
    batch, stack = [tuple(np.zeros(sz, dtype=np.int8) for sz in net.hidden_sizes)], []
    phases, relu_modes = tuple(ph[None] for ph in batch[0]), tuple(mode[None] for mode in relu_modes)
    bm = BoundsMap(tuple((lo[None], hi[None]) for lo, hi in bm.pre))
    while True:
        closed = bm.pre[-1][1][:, 0] <= c
        for ph, (plo, phi) in zip(phases, bm.pre):
            closed |= np.any(((ph == ACTIVE) & (phi < 0)) | ((ph == INACTIVE) & (plo > 0)), axis=1)
        branches = _widest_unknown(relu_modes, bm)

        pushed = []
        for n in np.flatnonzero(~closed & (branches >= 0)):
            pushed += children(batch[n], int(branches[n]))
        leaves = np.flatnonzero(~closed & (branches < 0))
        if leaves.size:
            x = _first_leaf_witness(
                net, box, [mode[leaves] for mode in relu_modes], [ph[leaves] for ph in phases], c, timed_out
            )
            if x is Status.TIMEOUT:
                return verdict(Status.TIMEOUT)
            if x is not None:
                return verdict(Status.SAT, x)
        stack += reversed(pushed)
        if not stack:
            return verdict(Status.UNSAT)
        if timed_out():
            return verdict(Status.TIMEOUT)
        batch = stack[: -BATCH - 1 : -1]
        del stack[-BATCH:]
        nodes += len(batch)
        phases = tuple(np.stack(layer) for layer in zip(*batch))
        relu_modes, bm = sbt(net, box, phases)
