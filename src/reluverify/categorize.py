"""Equivalence-preserving neuron splitting into sign/direction categories.

Every hidden neuron is copied into at most four neurons so that each copy's
outgoing edges agree in sign (pos/neg) and in the direction of their effect
on the single output (inc/dec).  The transformed network computes exactly
the same function; the point of the exercise is that same-category neurons
can later be merged soundly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import Layer, Network


class Sign(enum.Enum):
    POS = "pos"
    NEG = "neg"


class Direction(enum.Enum):
    INC = "inc"
    DEC = "dec"


def _flip(d: Direction) -> Direction:
    return Direction.DEC if d is Direction.INC else Direction.INC


@dataclass(frozen=True)
class Category:
    sign: Sign
    direction: Direction

    def __str__(self):
        return f"{self.sign.value}-{self.direction.value}"


# Deterministic bucket order: pos before neg, inc before dec.
CATEGORY_ORDER = (
    Category(Sign.POS, Direction.INC),
    Category(Sign.POS, Direction.DEC),
    Category(Sign.NEG, Direction.INC),
    Category(Sign.NEG, Direction.DEC),
)


@dataclass(frozen=True, eq=False)
class CategorizedNetwork:
    """A split network plus, per hidden layer, each copy's category and origin.

    ``categories[k][j]`` / ``origins[k][j]`` describe neuron ``j`` of hidden
    layer ``k``; origins index neurons of the source network's same layer.
    """

    network: Network
    categories: tuple[tuple[Category, ...], ...]
    origins: tuple[tuple[int, ...], ...]

    @cached_property
    def increasing(self) -> tuple[np.ndarray, ...]:
        """Per hidden layer, a boolean array: True where a neuron is inc."""
        return tuple(np.array([c.direction is Direction.INC for c in cats], dtype=bool) for cats in self.categories)

    @cached_property
    def outgoing_weight(self) -> tuple[np.ndarray, ...]:
        """Per hidden layer, each neuron's summed absolute outgoing weight."""
        return tuple(np.abs(layer.weights).sum(axis=0) for layer in self.network.layers[1:])


def _edge_category(weight: float, target_dir: Direction) -> Category:
    # Zero weights satisfy either sign constraint; ties go to pos/inc.
    if weight > 0:
        return Category(Sign.POS, target_dir)
    if weight < 0:
        return Category(Sign.NEG, _flip(target_dir))
    return Category(Sign.POS, Direction.INC)


def preprocess(net: Network) -> CategorizedNetwork:
    """Split hidden neurons into categorized copies, output values unchanged.

    Works backward from the output layer: each neuron's outgoing edges are
    partitioned by the category they impose, one copy is created per
    non-empty bucket (keeping just that bucket's edges), and incoming edges
    are duplicated to all copies.  Neurons left with no outgoing edges are
    dropped; a layer that would become empty keeps a single zero neuron so
    the layer structure stays valid.
    """
    if net.output_size != 1:
        raise ValueError("preprocess requires a single-output network")

    n = len(net.layers)
    new_weights = [layer.weights for layer in net.layers]
    new_biases = [layer.biases for layer in net.layers]
    target_dirs: list[Direction] = [Direction.INC]  # the single output neuron
    categories: list[tuple[Category, ...]] = [()] * (n - 1)
    origins: list[tuple[int, ...]] = [()] * (n - 1)

    for k in range(n - 2, -1, -1):
        out_W = new_weights[k + 1]  # rows: processed layer k+1, cols: original layer k
        cols, cats, origin = [], [], []
        for j in range(out_W.shape[1]):
            col = out_W[:, j]
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue  # dead neuron: contributes nothing downstream
            buckets: dict[Category, list[int]] = {}
            for t in nz:
                buckets.setdefault(_edge_category(col[t], target_dirs[t]), []).append(t)
            for cat in CATEGORY_ORDER:
                if cat not in buckets:
                    continue
                new_col = np.zeros(out_W.shape[0])
                new_col[buckets[cat]] = col[buckets[cat]]
                cols.append(new_col)
                cats.append(cat)
                origin.append(j)
        if not cols:
            # All-zero outgoing layer; keep one inert neuron.
            cols = [np.zeros(out_W.shape[0])]
            cats = [Category(Sign.POS, Direction.INC)]
            origin = [0]
        new_weights[k + 1] = np.column_stack(cols)
        new_weights[k] = net.layers[k].weights[origin, :]
        new_biases[k] = net.layers[k].biases[origin]
        categories[k] = tuple(cats)
        origins[k] = tuple(origin)
        target_dirs = [c.direction for c in cats]

    layers = [
        Layer(new_weights[k], new_biases[k], relu=k < n - 1) for k in range(n)
    ]
    return CategorizedNetwork(
        network=Network(layers, net.input_size, domain=net.domain),
        categories=tuple(categories),
        origins=tuple(origins),
    )


def check_category_invariants(cat: CategorizedNetwork) -> None:
    """Raise AssertionError unless every edge respects its source's category.

    Exact sign checks: pos sources have only >= 0 outgoing weights, neg only
    <= 0; inc sources feed inc targets non-negatively and dec targets
    non-positively (dually for dec).  Intended for tests and debugging.
    """
    net = cat.network
    for k in range(len(net.layers) - 1):
        out_W = net.layers[k + 1].weights  # rows: layer k+1 targets
        if k + 1 < len(net.layers) - 1:
            tdirs = [c.direction for c in cat.categories[k + 1]]
        else:
            tdirs = [Direction.INC] * out_W.shape[0]
        for j, c in enumerate(cat.categories[k]):
            col = out_W[:, j]
            if c.sign is Sign.POS:
                assert np.all(col >= 0.0), f"pos neuron ({k},{j}) has a negative outgoing edge"
            else:
                assert np.all(col <= 0.0), f"neg neuron ({k},{j}) has a positive outgoing edge"
            for t in np.flatnonzero(col):
                same = tdirs[t] is c.direction
                ok = (col[t] > 0 and same) or (col[t] < 0 and not same)
                assert ok, f"neuron ({k},{j}) {c}: edge {col[t]} to {tdirs[t].value} target"

