"""Equivalence-preserving neuron splitting into sign/direction categories.

Every hidden neuron is copied into at most four neurons so that each copy's
outgoing edges agree in sign (pos/neg) and in the direction of their effect
on the single output (inc/dec).  The transformed network computes exactly
the same function; the point of the exercise is that same-category neurons
can later be merged soundly.

A category is a small integer code, an index into ``CATEGORY_NAMES``: bit 1
is the sign (set for neg) and bit 0 the direction (set for dec).  A neuron's
copies are made in code order, so sorting by code puts pos before neg and
inc before dec, and the copies of one neuron come out in that fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import Layer, Network

CATEGORY_NAMES = ("pos-inc", "pos-dec", "neg-inc", "neg-dec")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CategorizedNetwork:
    """A split network plus, per hidden layer, each copy's category.

    ``categories[k][j]`` is the category code of neuron ``j`` of hidden
    layer ``k``, an int8 index into ``CATEGORY_NAMES``, in a read-only array.
    """

    network: Network
    categories: tuple[np.ndarray, ...]

    @cached_property
    def increasing(self) -> tuple[np.ndarray, ...]:
        """Per hidden layer, a boolean array: True where a neuron is inc."""
        return tuple((codes & 1) == 0 for codes in self.categories)

    @cached_property
    def outgoing_weight(self) -> tuple[np.ndarray, ...]:
        """Per hidden layer, each neuron's summed absolute outgoing weight."""
        return tuple(np.abs(layer.weights).sum(axis=0) for layer in self.network.layers[1:])


def _edge_codes(W: np.ndarray, target_dec: np.ndarray) -> np.ndarray:
    """The category each edge of ``W`` imposes on its source neuron (column),
    given each target's (row's) direction bit; -1 for a zero weight.  A
    positive edge keeps the target's direction and a negative one flips it."""
    dec = target_dec[:, None]
    return np.where(W > 0, dec, np.where(W < 0, 3 - dec, -1))


def preprocess(net: Network) -> CategorizedNetwork:
    """Split hidden neurons into categorized copies, output values unchanged.

    Works backward from the output layer, one whole layer at a time: each
    neuron gets one copy per category among its outgoing edges, keeping just
    that category's edges, and incoming edges are duplicated to all copies.
    Neurons with no non-zero outgoing edge are dropped; a layer that would
    become empty keeps a single zero neuron so the layer structure stays
    valid.
    """
    if net.output_size != 1:
        raise ValueError("preprocess requires a single-output network")

    n = len(net.layers)
    new_weights = [layer.weights for layer in net.layers]
    new_biases = [layer.biases for layer in net.layers]
    target_dec = np.zeros(1, dtype=np.int8)  # the single output neuron is inc
    categories: list[np.ndarray] = [None] * (n - 1)

    for k in range(n - 2, -1, -1):
        W = new_weights[k + 1]  # rows: processed layer k+1, cols: original layer k
        code = _edge_codes(W, target_dec)
        present = np.array([(code == c).any(axis=0) for c in range(len(CATEGORY_NAMES))])
        origin, cats = np.nonzero(present.T)  # by source neuron, then by code
        if origin.size == 0:
            # All-zero outgoing layer; keep one inert pos-inc neuron.
            origin, cats = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
        cats = cats.astype(np.int8)
        new_weights[k + 1] = np.where(code[:, origin] == cats, W[:, origin], 0.0)
        new_weights[k] = net.layers[k].weights[origin, :]
        new_biases[k] = net.layers[k].biases[origin]
        target_dec = cats & 1
        categories[k] = _read_only(cats)

    layers = [
        Layer(new_weights[k], new_biases[k], relu=k < n - 1) for k in range(n)
    ]
    return CategorizedNetwork(
        network=Network(layers, net.input_size, domain=net.domain),
        categories=tuple(categories),
    )

