"""Sound output bounds over an input box by symbolic bound tightening
(SBT), and the property tightening derived from them.

SBT carries one affine lower and one affine upper expression (over the raw
inputs) per neuron; stably-active ReLUs pass expressions through,
stably-inactive ones zero them, and unstable ones fall back to
[0, concrete upper].  SBT is the one bound the library computes: the
solver's node bounds, ``output_bounds``, ``output_gap`` and
``tighten_property`` all use it.  ``ibp`` (concrete intervals pushed
forward layer by layer) is kept as the reference SBT is checked against:
SBT's intervals are contained in IBP's on every neuron.

SBT is a loop over one layer step with two parts: the affine step builds
a layer's pre-activation expressions and intervals, using the signed
weight parts each ``Layer`` computes once, and the ReLU step resolves them,
phase by phase, to post-activation expressions and intervals.  The ReLU
step concretises nothing: an active neuron's post-activation interval is
its pre-activation interval clamped at 0, an inactive one's is [0, 0] and
a relaxed one's is [0, phi].

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

``sbt`` can also resume from an earlier result at layer k: it reuses
layers 0..k-1 and layer k's pre-activations, and reruns the same steps
from layer k's ReLU step on, which gives the same arrays as a run from the
input.  The earlier result may come from another network whose layers
0..k are this one's own ``Layer`` objects, bounded with the same phases:
``refine_split`` changes only layers L and L+1 of an abstract network, so
``loop.verify`` bounds the new one by resuming at L-1 from the root result
of the one it was split from.  That is the only caller that resumes.

A root call, one with neither phases nor ``resume``, is a pure function of
a ``Network`` and an ``InputBox``, both frozen with read-only arrays.
``sbt`` keeps every result computed without phases, resumed or not, in
``_ROOTS``, keyed weakly by the network together with the box, and answers
a root call on the same network and the same box object (``is``) from
there.  Identity keys are sound because neither object can change, and
they cost no array comparison.  An entry holds the network's latest box
only, and it dies with its network.  ``loop.verify`` bounds with a box of
its own per call, so a kept result serves only the call that made it:
``cegarette`` bounds the unchanged original once per call, and ``solve``'s
root reuses the abstract bound that the loop or ``output_gap`` has just
computed, while a repeated call on the same ``Query`` bounds afresh.
Sharing is safe because no code changes an ``sbt`` result in place.

If original(x) + d <= abstract(x) on the box, then checking the abstract
network against ``y > c + d`` over-approximates checking the original
against ``y > c``: an UNSAT answer for the tightened query carries over.
``output_gap`` certifies such a d and ``tighten_property`` applies it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .network import InputBox, Network, OutputProperty


@dataclass(frozen=True, eq=False)
class BoundsMap:
    """Per-layer [lo, hi] arrays for pre- and post-activation values.

    ``sbt`` also keeps each layer's pre-activation expressions in
    ``pre_expr``, so that a later call can resume from them; ``ibp`` leaves
    it empty.  ``output_interval`` reads a one-node map.
    """

    pre: tuple[tuple[np.ndarray, np.ndarray], ...]
    post: tuple[tuple[np.ndarray, np.ndarray], ...]
    pre_expr: tuple[tuple[np.ndarray, ...], ...] = ()

    @property
    def output_interval(self) -> tuple[float, float]:
        lo, hi = self.post[-1]
        return float(lo[0]), float(hi[0])

    def contains(self, other: "BoundsMap", slack: float = 0.0) -> bool:
        """True if every interval of ``other`` lies inside this map's."""
        for (alo, ahi), (blo, bhi) in zip(self.pre + self.post, other.pre + other.post):
            if np.any(blo < alo - slack) or np.any(bhi > ahi + slack):
                return False
        return True


def ibp(net: Network, box: InputBox) -> BoundsMap:
    """Forward interval propagation; returns sound per-neuron intervals."""
    if box.dim != net.input_size:
        raise ValueError("box dimension does not match network input size")
    lo, hi = box.lower, box.upper
    pre, post = [], []
    for layer in net.layers:
        W, b = layer.weights, layer.biases
        Wp, Wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
        plo = Wp @ lo + Wn @ hi + b
        phi = Wp @ hi + Wn @ lo + b
        pre.append((plo, phi))
        if layer.relu:
            lo, hi = np.maximum(plo, 0.0), np.maximum(phi, 0.0)
        else:
            lo, hi = plo, phi
        post.append((lo, hi))
    return BoundsMap(tuple(pre), tuple(post))


_ROOTS = weakref.WeakKeyDictionary()  # network -> (box, its root ``sbt`` result)


def _concrete_lo(coef: np.ndarray, const: np.ndarray, box: InputBox) -> np.ndarray:
    return np.maximum(coef, 0.0) @ box.lower + np.minimum(coef, 0.0) @ box.upper + const


def _concrete_hi(coef: np.ndarray, const: np.ndarray, box: InputBox) -> np.ndarray:
    return np.maximum(coef, 0.0) @ box.upper + np.minimum(coef, 0.0) @ box.lower + const


def _pre_step(layer, post, box: InputBox):
    """Affine step: a layer's pre-activation expressions ``(Lc, Lk, Uc, Uk)``
    (lower and upper coefficients and constants over the raw inputs), built
    from the previous layer's post-activation ones, and their intervals."""
    (Wp, Wn), b = layer.weight_parts, layer.biases
    Lc, Lk, Uc, Uk = post
    Lk, Uk = Lk[..., None], Uk[..., None]
    pLc, pLk = Wp @ Lc + Wn @ Uc, (Wp @ Lk + Wn @ Uk)[..., 0] + b
    pUc, pUk = Wp @ Uc + Wn @ Lc, (Wp @ Uk + Wn @ Lk)[..., 0] + b
    return (pLc, pLk, pUc, pUk), (_concrete_lo(pLc, pLk, box), _concrete_hi(pUc, pUk, box))


def _relu_step(pre, interval, fixed, box: InputBox):
    """ReLU step: each neuron's mode, where a nonzero ``fixed`` phase
    overrides the one the interval gives, then the post-activation
    expressions and their intervals.  An active neuron passes its
    pre-activation expressions and interval through (the interval clamped
    at 0); the others get the lower expression 0 and the upper expression 0
    (inactive) or the constant ``phi`` (relaxed)."""
    pLc, pLk, pUc, pUk = pre
    plo, phi = interval
    mode = np.zeros(plo.shape, dtype=np.int8)
    mode[plo >= 0.0] = 1
    mode[phi <= 0.0] = -1
    if fixed is not None:
        mode = np.where(fixed != 0, fixed, mode).astype(np.int8)
    active = mode == 1
    rows = active[..., None]
    post = (
        np.where(rows, pLc, 0.0),
        np.where(active, pLk, 0.0),
        np.where(rows, pUc, 0.0),
        np.where(active, pUk, np.where(mode == 0, phi, 0.0)),
    )
    # Post-ReLU values are non-negative wherever the phases hold.
    qlo = np.where(active, np.maximum(plo, 0.0), 0.0)
    qhi = np.where(mode == -1, 0.0, np.maximum(phi, 0.0))
    return mode, post, (qlo, qhi)


def sbt(
    net: Network,
    box: InputBox,
    phases=None,
    resume: tuple[int, tuple[np.ndarray, ...], BoundsMap] | None = None,
) -> tuple[tuple[np.ndarray, ...], BoundsMap]:
    """Symbolic bound tightening; returns (relu_modes, concrete bounds).

    ``relu_modes`` records how each hidden neuron was resolved: +1
    expressions passed through (active), -1 zeroed (inactive), 0 relaxed
    (unstable).

    ``phases`` holds one int8 array per hidden layer, ``(n_k,)`` for one
    node or ``(K, n_k)`` for K nodes; the module docstring says what a
    batch returns.

    ``resume=(k, modes, bm)`` continues from a parent's result ``(modes,
    bm)`` of this function over the same box, whose phases equal ``phases``
    outside layer k: layers 0..k-1 and layer k's pre-activations are taken
    from it, and the rest is computed as a call without ``resume`` would,
    so the result is the same.  The parent is this network or one that
    shares its ``Layer`` objects 0..k.

    A root call (no ``phases``, no ``resume``) may be answered from
    ``_ROOTS``, and a call without ``phases`` is kept there; the module
    docstring says when.
    """
    if box.dim != net.input_size:
        raise ValueError("box dimension does not match network input size")
    if phases is None and resume is None:
        kept = _ROOTS.get(net)
        if kept is not None and kept[0] is box:
            return kept[1]
    if resume is None:
        k, modes, pre_expr, pre_iv, post_iv = 0, [], [], [], []
        eye, zero = np.eye(net.input_size), np.zeros(net.input_size)
        post = (eye, zero, eye, zero)
    else:
        k, parent_modes, parent = resume
        modes, post_iv = list(parent_modes[:k]), list(parent.post[:k])
        pre_expr, pre_iv = list(parent.pre_expr[: k + 1]), list(parent.pre[: k + 1])
    for j in range(k, len(net.layers)):
        layer = net.layers[j]
        if j == len(pre_iv):  # false only for a resumed layer k
            expr, iv = _pre_step(layer, post, box)
            pre_expr.append(expr)
            pre_iv.append(iv)
        if layer.relu:
            fixed = None if phases is None else phases[j]
            mode, post, iv = _relu_step(pre_expr[j], pre_iv[j], fixed, box)
            modes.append(mode)
        else:
            post, iv = pre_expr[j], pre_iv[j]
        post_iv.append(iv)
    result = tuple(modes), BoundsMap(tuple(pre_iv), tuple(post_iv), tuple(pre_expr))
    if phases is None:
        _ROOTS[net] = (box, result)
    return result


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
