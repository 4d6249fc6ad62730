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

SBT accepts an optional per-neuron phase vector (used by the
branch-and-bound solver) that forces chosen ReLUs active or inactive; the
resulting bounds are then sound on the sub-region of the box where those
phases hold.

If original(x) + d <= abstract(x) on the box, then checking the abstract
network against ``y > c + d`` over-approximates checking the original
against ``y > c``: an UNSAT answer for the tightened query carries over.
``output_gap`` certifies such a d and ``tighten_property`` applies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import InputBox, Network, OutputProperty


@dataclass(frozen=True, eq=False)
class BoundsMap:
    """Per-layer [lo, hi] arrays for pre- and post-activation values."""

    pre: tuple[tuple[np.ndarray, np.ndarray], ...]
    post: tuple[tuple[np.ndarray, np.ndarray], ...]

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


def _concrete_lo(coef: np.ndarray, const: np.ndarray, box: InputBox) -> np.ndarray:
    return np.maximum(coef, 0.0) @ box.lower + np.minimum(coef, 0.0) @ box.upper + const


def _concrete_hi(coef: np.ndarray, const: np.ndarray, box: InputBox) -> np.ndarray:
    return np.maximum(coef, 0.0) @ box.upper + np.minimum(coef, 0.0) @ box.lower + const


def sbt(net: Network, box: InputBox, phases=None) -> tuple[tuple[np.ndarray, ...], BoundsMap]:
    """Symbolic bound tightening; returns (relu_modes, concrete bounds).

    ``relu_modes`` records how each hidden neuron was resolved: +1
    expressions passed through (active), -1 zeroed (inactive), 0 relaxed
    (unstable).
    """
    if box.dim != net.input_size:
        raise ValueError("box dimension does not match network input size")
    n_in = net.input_size
    # Current post-activation expressions for the previous layer.
    Lc, Lk = np.eye(n_in), np.zeros(n_in)
    Uc, Uk = np.eye(n_in), np.zeros(n_in)
    modes = []
    pre_iv, post_iv = [], []
    for k, layer in enumerate(net.layers):
        W, b = layer.weights, layer.biases
        Wp, Wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
        pLc, pLk = Wp @ Lc + Wn @ Uc, Wp @ Lk + Wn @ Uk + b
        pUc, pUk = Wp @ Uc + Wn @ Lc, Wp @ Uk + Wn @ Lk + b
        plo, phi = _concrete_lo(pLc, pLk, box), _concrete_hi(pUc, pUk, box)
        pre_iv.append((plo, phi))
        if layer.relu:
            m = W.shape[0]
            mode = np.zeros(m, dtype=np.int8)
            mode[plo >= 0.0] = 1
            mode[phi <= 0.0] = -1
            if phases is not None:
                fixed = phases[k]
                mode = np.where(fixed != 0, fixed, mode).astype(np.int8)
            Lc, Lk = pLc.copy(), pLk.copy()
            Uc, Uk = pUc.copy(), pUk.copy()
            inactive = mode == -1
            Lc[inactive], Lk[inactive] = 0.0, 0.0
            Uc[inactive], Uk[inactive] = 0.0, 0.0
            relaxed = mode == 0
            Lc[relaxed], Lk[relaxed] = 0.0, 0.0
            Uc[relaxed], Uk[relaxed] = 0.0, phi[relaxed]
            qlo, qhi = _concrete_lo(Lc, Lk, box), _concrete_hi(Uc, Uk, box)
            # Post-ReLU values are non-negative wherever the phases hold.
            qlo, qhi = np.maximum(qlo, 0.0), np.maximum(qhi, 0.0)
            modes.append(mode)
        else:
            Lc, Lk, Uc, Uk = pLc, pLk, pUc, pUk
            qlo, qhi = plo, phi
        post_iv.append((qlo, qhi))
    return tuple(modes), BoundsMap(tuple(pre_iv), tuple(post_iv))


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
