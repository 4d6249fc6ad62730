"""Sound output bounds over an input box by symbolic bound tightening
(SBT), and the property tightening derived from them.

SBT carries a lower and an upper affine expression (over the raw inputs)
per neuron.  Stably-active ReLUs pass both through, stably-inactive ones
zero both, and unstable ones zero both and fall back to [0, concrete
upper], so the two differ only in their constants and share one
coefficient matrix per layer: ``(C, lk, uk)``.  A relaxation that gives an
unstable neuron a slope (the chord) would need a second matrix.  SBT is
the one bound the library computes: the solver's node bounds,
``output_bounds``, ``output_gap`` and ``tighten_property`` all use it.
``ibp`` (concrete intervals pushed forward layer by layer) is kept as the
reference SBT is checked against: SBT's pre-activation intervals are
contained in IBP's on every neuron.

SBT is a loop over one layer step with two parts: the affine step builds
a layer's pre-activation expressions and intervals, using the signed
weight parts each ``Layer`` computes once, and the ReLU step resolves them,
phase by phase, to post-activation expressions.  The pre-activation
interval is the one interval a layer keeps: the output interval (the
output layer has no ReLU) and each hidden layer's branch choice and phase
check read it, and nothing reads a post-activation interval.

SBT accepts an optional per-neuron phase vector (used by the
branch-and-bound solver) that forces chosen ReLUs active or inactive; the
resulting bounds are then sound on the sub-region of the box where those
phases hold.  The phases may carry a leading node axis, one ``(K, n_k)``
array per hidden layer, which bounds K nodes in one call: each array the
phases reach gets the node axis too, and each node's slice equals, byte
for byte, what a one-node call on that node's phases returns: ``@`` over
a leading axis runs the one-node product once per node, and every other
operation is elementwise.  The affine step therefore multiplies the
constant vectors as one-column matrices, ``(W @ v[..., None])[..., 0]``.
Layer 0's pre-activations, which no phase reaches, stay shared.

A call without phases keeps each layer's result in ``_KEPT``, keyed weakly
by the ``Layer``, and reuses a layer's kept result when it was computed
over the same box object (``is``) right after the kept result this call
has just used for the previous layer (``is``).  Otherwise it computes the
layer and keeps it.  A layer's arrays depend only on the box and on the
layers before it, and ``Layer`` and ``InputBox`` are frozen with read-only
arrays, so identity keys are sound and cost no array comparison; the chain
check stops a layer that two networks share behind different earlier
layers from being reused.  Calls with phases neither read nor write
``_KEPT``.  So ``cegarette`` bounds the unchanged original once per call,
``solve``'s root and ``lower_corner`` reuse the abstract bound that the gap
has just computed, and a network that ``refine_split`` made from one split
at layer L, which shares layers 0..L-1 with the network it came from, is
bounded from layer L on.  ``loop.verify`` bounds with a box of its own
per call, so a repeated call on the same ``Query`` bounds afresh.  Sharing
is safe because no code changes an ``sbt`` result in place.

If original(x) + d <= abstract(x) on the box, then checking the abstract
network against ``y > c + d`` over-approximates checking the original
against ``y > c``: an UNSAT answer for the tightened query carries over.
``output_gap`` certifies such a d and ``tighten_property`` applies it.
``loop.verify`` takes the gap only of an abstract network it may solve.
Its check of whether to split again at a kept point needs only a bound on
d: SBT's output lower bound is at most the output at any box point, such
as an earlier network's ``lower_corner``, so d is at most that output less
the original's upper bound, or 0.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .network import InputBox, Network, OutputProperty

ACTIVE, INACTIVE, UNKNOWN = 1, -1, 0  # a ReLU's phase or mode


@dataclass(frozen=True, eq=False)
class BoundsMap:
    """Per-layer [lo, hi] arrays of pre-activation values, the output layer
    last; ``output_interval`` reads a one-node map."""

    pre: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def output_interval(self) -> tuple[float, float]:
        lo, hi = self.pre[-1]
        return float(lo[0]), float(hi[0])

    def contains(self, other: "BoundsMap", slack: float = 0.0) -> bool:
        """True if every interval of ``other`` lies inside this map's."""
        for (alo, ahi), (blo, bhi) in zip(self.pre, other.pre):
            if np.any(blo < alo - slack) or np.any(bhi > ahi + slack):
                return False
        return True


def ibp(net: Network, box: InputBox) -> BoundsMap:
    """Forward interval propagation; returns sound per-neuron intervals."""
    if box.dim != net.input_size:
        raise ValueError("box dimension does not match network input size")
    lo, hi = box.lower, box.upper
    pre = []
    for layer in net.layers:
        W, b = layer.weights, layer.biases
        Wp, Wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
        lo, hi = Wp @ lo + Wn @ hi + b, Wp @ hi + Wn @ lo + b
        pre.append((lo, hi))
        if layer.relu:
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    return BoundsMap(tuple(pre))


# Layer -> (box, the previous layer's entry, mode, post-activation (C, lk,
# uk), pre-activation interval) of a call without phases.
_KEPT = weakref.WeakKeyDictionary()


def _pre_step(layer, post, box: InputBox):
    """Affine step: a layer's pre-activation expressions ``(C, lk, uk)``
    (shared coefficients over the raw inputs, lower and upper constants),
    built from the previous layer's post-activation ones, and their
    intervals.  ``C`` is summed as ``Wp @ C + Wn @ C``, not ``W @ C``,
    which rounds differently."""
    (Wp, Wn), b = layer.weight_parts, layer.biases
    C, lk, uk = post
    lk, uk = lk[..., None], uk[..., None]
    pC = Wp @ C + Wn @ C
    plk, puk = (Wp @ lk + Wn @ uk)[..., 0] + b, (Wp @ uk + Wn @ lk)[..., 0] + b
    Cp, Cn, lo, hi = np.maximum(pC, 0.0), np.minimum(pC, 0.0), box.lower, box.upper
    return (pC, plk, puk), (Cp @ lo + Cn @ hi + plk, Cp @ hi + Cn @ lo + puk)


def _relu_step(pre, interval, fixed):
    """ReLU step: each neuron's mode, where a nonzero ``fixed`` phase
    overrides the one the interval gives, then the post-activation
    expressions.  An active neuron passes its pre-activation expressions
    through; the others get a zero coefficient row, the lower constant 0
    and the upper constant 0 (inactive) or ``phi`` (relaxed)."""
    pC, plk, puk = pre
    plo, phi = interval
    mode = np.zeros(plo.shape, dtype=np.int8)
    mode[plo >= 0.0] = ACTIVE
    mode[phi <= 0.0] = INACTIVE
    if fixed is not None:
        mode = np.where(fixed != UNKNOWN, fixed, mode).astype(np.int8)
    active = mode == ACTIVE
    return mode, (
        np.where(active[..., None], pC, 0.0),
        np.where(active, plk, 0.0),
        np.where(active, puk, np.where(mode == UNKNOWN, phi, 0.0)),
    )


def sbt(net: Network, box: InputBox, phases=None) -> tuple[tuple[np.ndarray, ...], BoundsMap]:
    """Symbolic bound tightening; returns (relu_modes, concrete bounds).

    ``relu_modes`` records how each hidden neuron was resolved: +1
    expressions passed through (active), -1 zeroed (inactive), 0 relaxed
    (unstable).

    ``phases`` holds one int8 array per hidden layer, ``(n_k,)`` for one
    node or ``(K, n_k)`` for K nodes; the module docstring says what a
    batch returns, and when a call without ``phases`` reuses kept layers.
    """
    modes, pre_iv, _ = _layers(net, box, phases)
    return tuple(modes), BoundsMap(tuple(pre_iv))


def _layers(net: Network, box: InputBox, phases):
    """``sbt``'s walk over the layers: its modes and intervals as lists, and
    the output layer's entry, whose post-activation expressions are the
    output's own."""
    if box.dim != net.input_size:
        raise ValueError("box dimension does not match network input size")
    modes, pre_iv = [], []
    entry = None
    for j, layer in enumerate(net.layers):
        prev, entry = entry, (None if phases is not None else _KEPT.get(layer))
        if entry is None or entry[0] is not box or entry[1] is not prev:
            if prev is None:
                zero = np.zeros(net.input_size)
                post = (np.eye(net.input_size), zero, zero)
            else:
                post = prev[3]
            pre, iv = _pre_step(layer, post, box)
            if layer.relu:
                mode, post = _relu_step(pre, iv, None if phases is None else phases[j])
            else:
                mode, post = None, pre
            entry = (box, prev, mode, post, iv)
            if phases is None:
                _KEPT[layer] = entry
        if layer.relu:
            modes.append(entry[2])
        pre_iv.append(entry[4])
    return modes, pre_iv, entry


def lower_corner(net: Network, box: InputBox) -> np.ndarray:
    """The box corner that minimises SBT's lower expression of the first
    output, ``where(C > 0, lower, upper)`` over its coefficient row ``C``.

    SBT's output lower bound is that expression's minimum over the box, so
    it is at most the network's output at this corner.  The expression is
    the phase-free one, read through ``_KEPT``: right after a phase-free
    ``sbt`` call on the same network and box this takes no affine step.
    """
    C = _layers(net, box, None)[2][3][0][0]
    return np.where(C > 0.0, box.lower, box.upper)


def output_bounds(net: Network, box: InputBox) -> tuple[float, float]:
    """Sound [lo, hi] of the first output over the box: the one bound entry point."""
    return sbt(net, box)[1].output_interval


def output_gap(abstract: Network, original: Network, box: InputBox) -> float:
    """Certified minimal output gap d >= 0 between an abstraction and its
    source: original(x) + d <= abstract(x) for every x in the box.

    Computed as max(0, lower(abstract) - upper(original)).
    """
    if abstract.output_size != 1 or original.output_size != 1:
        raise ValueError("output_gap requires single-output networks")
    if abstract.input_size != original.input_size:
        raise ValueError("networks disagree on input size")
    l_abs = output_bounds(abstract, box)[0]
    u_orig = output_bounds(original, box)[1]
    return max(0.0, l_abs - u_orig)


def tighten_property(
    abstract: Network, original: Network, box: InputBox, prop: OutputProperty
) -> OutputProperty:
    """Return the tightened property ``y > c + d`` with d = output_gap(...)."""
    return OutputProperty(prop.threshold + output_gap(abstract, original, box))
