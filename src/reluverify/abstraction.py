"""Network abstraction by merging categorized neurons, and guided splitting.

An abstraction state is a partition of each hidden layer of a categorized
network into same-category groups; its abstract network is derived from
those groups by a fixed aggregation rule, applied per weight matrix:

* rows within a target group collapse first, taking the per-source max for
  inc groups and the per-source min for dec groups (biases likewise),
* the resulting columns are then summed within each source group.

Collapsing target rows before summing source columns matters: it makes the
derived weights monotone under partition refinement (splitting any group
weakly lowers the network's output everywhere), not just sound against the
base.  Every state's network is a function of its groups alone, so the
order of the splits does not matter and a fully-refined state reproduces
the categorized network bit-exactly.  ``_make_state`` derives it from
scratch (for saturation, and as the reference in the tests);
``refine_split`` re-derives only what a split touches, the split layer's
two new rows and the next layer's two new columns, with the same
expressions, and shares every other row, column and layer with its parent.

Both derivations work on whole layers in numpy, not group by group: a
layer's groups are kept as an ``Order`` (its members in group order, each
group's size and offset, each member's group), the per-group max and min
are one ``reduceat`` over the rows permuted by group, and the column sums
gather all groups of one size at once.  Each result is bit-identical to
the per-group expression, which the tests keep as the reference.

A state keeps each layer's ``Order`` (``groups`` is derived from them when
read), its ``excess``, and each layer's rows collapsed but not yet summed
(``collapsed``).  A state made by ``refine_split`` also keeps the split
``(layer, member)`` and a ``Guide``: the guiding point, the base network's
hidden values there and, per layer, the state's own hidden values and
split scores.  A split at layer L pays only for what it changes.  It
permutes layer L's order from the parent's arrays, takes layer L+1's new
columns from its kept collapsed rows, and keeps the parent's values and
scores of layers 0..L-1, recomputing those of layers L onward from layer
L-1's values by ``hidden_values``' arithmetic; ``excess`` drops by one.
Only a split at a point other than the parent's guiding point evaluates
the base and the parent's network there first, and the split choice is
one ``argmax`` over all layers' scores.  The loop's re-split check reads
the state's output at the point from the guide (``guide_output``), so
no network is evaluated twice at one point.  The two re-derived layers are
built with ``network._trusted_layer``: their arrays come from the checked
base, so they are not copied or scanned again.

The aggregation over-approximates the base output for all inputs drawn from
the relevant box.  Merging neurons of the first hidden layer additionally
requires the box to be non-negative (their sources are raw inputs rather
than post-ReLU values), which callers assert via ``abstract_to_saturation``'s
``nonneg_inputs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .categorize import CategorizedNetwork
from .network import Layer, Network, _trusted_layer, _trusted_network, hidden_values

Groups = tuple[tuple[tuple[int, ...], ...], ...]


class CannotRefineError(RuntimeError):
    """Raised when every group is a singleton and no split is possible."""


class Order(NamedTuple):
    """A layer's groups as arrays: the members in group order, each group's
    size, the offset of each group's first member in that order, and each
    member's group index (None for the split's two groups alone)."""

    members: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    group: np.ndarray | None


def _order(members: np.ndarray, sizes: np.ndarray) -> Order:
    """The ``Order`` of a whole layer's groups of ``sizes``, holding ``members``."""
    group = np.empty_like(members)
    group[members] = np.repeat(np.arange(sizes.size), sizes)
    return Order(members, sizes, np.cumsum(sizes) - sizes, group)


def _layer_order(layer_groups) -> Order:
    """The ``Order`` of a layer's groups."""
    sizes = np.fromiter(map(len, layer_groups), dtype=np.intp, count=len(layer_groups))
    members = np.fromiter(chain.from_iterable(layer_groups), dtype=np.intp, count=int(sizes.sum()))
    return _order(members, sizes)


def _collapse(base: CategorizedNetwork, k: int, order: Order):
    """Rows of base layer ``k`` collapsed per target group of ``order``: the
    per-source max for inc groups, the min for dec groups."""
    members, starts = order.members, order.starts
    layer = base.network.layers[k]
    W, b = layer.weights[members], layer.biases[members]
    inc = base.increasing[k][members[starts]]
    rows = np.where(inc[:, None], np.maximum.reduceat(W, starts), np.minimum.reduceat(W, starts))
    biases = np.where(inc, np.maximum.reduceat(b, starts), np.minimum.reduceat(b, starts))
    return rows, biases


def _sum_columns(W: np.ndarray, order: Order) -> np.ndarray:
    """Columns of ``W`` summed within each source group of ``order`` (a
    ``_layer_order``), bit-identical to ``W[:, group].sum(axis=1)`` per
    group.  The order numpy adds in depends on the gathered array's length
    and memory layout, and one fancy index per group size, summed over its
    last axis, keeps both; ``np.add.reduceat`` and a sum over a sliced view
    do not."""
    members, sizes, starts, _ = order
    out = np.empty((W.shape[0], sizes.size))
    for size in set(sizes.tolist()):
        at = np.flatnonzero(sizes == size)
        out[:, at] = W[:, members[starts[at, None] + np.arange(size)]].sum(axis=2)
    return out


def _canonical(layer_groups) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(g)) for g in layer_groups), key=lambda g: g[0]))


class Guide(NamedTuple):
    """A point, the base network's hidden values there, and a state's own
    hidden values and split scores there, one array per hidden layer."""

    point: np.ndarray
    base_values: list[np.ndarray]
    values: list[np.ndarray]
    scores: list[np.ndarray]


@dataclass(frozen=True, eq=False)
class AbstractionState:
    """A partition of each hidden layer of a categorized base, kept as an
    ``Order`` per layer, plus the derived abstract network.

    ``excess`` is the total merge excess, the sum of (group size - 1); 0
    means fully refined.  ``collapsed[k]`` is base layer ``k``'s weights
    collapsed over layer ``k``'s groups (``_collapse``), before the column
    sums; the last is the output layer's weights.  ``split`` is the
    ``(layer, member)`` that ``refine_split`` extracted to make this state,
    and ``guide`` its guide; both are None for a state made from scratch."""

    base: CategorizedNetwork
    network: Network
    orders: tuple[Order, ...]
    excess: int
    collapsed: tuple[np.ndarray, ...]
    split: tuple[int, int] | None = None
    guide: Guide | None = None

    @cached_property
    def groups(self) -> Groups:
        """Each hidden layer's groups, sorted, in order of their first members."""
        return tuple(tuple(tuple(g.tolist()) for g in np.split(o.members, o.starts[1:])) for o in self.orders)

    def guide_output(self) -> float:
        """The abstract network's output at the guide's point, by
        ``evaluate``'s arithmetic, from the guide's hidden values."""
        out = self.network.layers[-1]
        return float((out.weights @ self.guide.values[-1] + out.biases)[0])

    @property
    def hidden_sizes(self) -> list[int]:
        """Groups per hidden layer; the benchmark's saturation span reads it."""
        return [o.sizes.size for o in self.orders]


def _make_state(base: CategorizedNetwork, groups) -> AbstractionState:
    """The state of ``groups``, its network derived from scratch."""
    net = base.network
    orders = tuple(_layer_order(_canonical(layer)) for layer in groups)
    collapsed = [_collapse(base, k, order) for k, order in enumerate(orders)]
    collapsed.append((net.layers[-1].weights, net.layers[-1].biases))
    layers = []
    for k, (W, b) in enumerate(collapsed):
        layers.append(Layer(_sum_columns(W, orders[k - 1]) if k else W, b, relu=k < len(orders)))
    excess = sum(len(cats) - order.sizes.size for cats, order in zip(base.categories, orders))
    network = Network(layers, net.input_size, domain=net.domain)
    return AbstractionState(base, network, orders, excess, tuple(W for W, _ in collapsed))


def abstract_to_saturation(base: CategorizedNetwork, nonneg_inputs: bool = False) -> AbstractionState:
    """Merge until each hidden layer holds at most one neuron per category.

    With ``nonneg_inputs`` False the first hidden layer is left unmerged
    (sound for arbitrary input boxes).
    """
    groups = []
    for k, codes in enumerate(base.categories):
        if k == 0 and not nonneg_inputs:
            groups.append([(j,) for j in range(len(codes))])
        else:
            groups.append([tuple(np.flatnonzero(codes == c).tolist()) for c in np.unique(codes)])
    return _make_state(base, groups)


def _layer_scores(base: CategorizedNetwork, k: int, order: Order, v_base: np.ndarray, v_abs: np.ndarray) -> np.ndarray:
    """Each member's split score in hidden layer ``k``: how much the merge
    distorts its outgoing contribution, the sum over its outgoing edges of
    |w * v_member - w * v_group|, from the base network's values ``v_base``
    and the abstract network's ``v_abs``; -inf in a singleton group."""
    scores = base.outgoing_weight[k] * np.abs(v_base - v_abs[order.group])
    scores[order.sizes[order.group] == 1] = -np.inf
    return scores


def _guide_at(state: AbstractionState, x0: np.ndarray) -> Guide:
    """``state``'s guide at ``x0``: the kept one when ``x0`` is its point."""
    if state.guide is not None and np.array_equal(state.guide.point, x0):
        return state.guide
    v_base, values = hidden_values(state.base.network, x0), hidden_values(state.network, x0)
    scores = [_layer_scores(state.base, k, order, v_base[k], values[k]) for k, order in enumerate(state.orders)]
    return Guide(x0.copy(), v_base, values, scores)


def _split_choice(scores: list[np.ndarray]) -> tuple[int, int]:
    """The ``(layer, member)`` with the highest score.  Ties go to the first
    layer, then the lowest member index, as one ``argmax`` over all layers'
    scores in a row would give."""
    j = int(np.argmax(np.concatenate(scores)))
    for L, s in enumerate(scores):
        if j < s.size:
            return L, j
        j -= s.size


def refine_split(state: AbstractionState, x0) -> AbstractionState:
    """Extract one constituent into a singleton group, guided by the spurious
    input ``x0``; the rest of its group is re-aggregated.

    The result sits between the previous state and the base in the
    over-approximation order, and the total merge excess drops by one.
    It records the split ``(layer, member)`` and shares layers
    ``0..layer-1`` with the previous state's network.
    """
    if state.excess == 0:
        raise CannotRefineError("all groups are singletons; nothing to split")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (state.base.network.input_size,):
        raise ValueError("x0 has the wrong dimension")
    guide = _guide_at(state, x0)
    L, member = _split_choice(guide.scores)

    members, sizes, starts, group = state.orders[L]
    gi = int(group[member])
    old = members[starts[gi] : starts[gi] + sizes[gi]]
    split = Order(np.concatenate([[member], old[old != member]]), np.array([1, old.size - 1]), np.array([0, 1]), None)
    # The new groups are the parent's others and the split's two, appended
    # after them, in the canonical order of their first members; ``order``
    # holds their indices in that joined sequence, and ``at`` where each
    # member of the new order sits in the joined members.
    firsts = np.concatenate([members[starts], split.members[:2]])
    firsts[gi] = -1  # sorts first and is dropped: group gi is replaced
    order = np.argsort(firsts)[1:]
    new_sizes = np.concatenate([sizes, split.sizes])[order]
    at = np.concatenate([starts, split.starts + members.size])[order] - (np.cumsum(new_sizes) - new_sizes)
    at = np.repeat(at, new_sizes) + np.arange(members.size)
    orders = list(state.orders)
    orders[L] = _order(np.concatenate([members, split.members])[at], new_sizes)

    base, layers, collapsed = state.base, list(state.network.layers), list(state.collapsed)
    rows, biases = _collapse(base, L, split)
    collapsed[L] = np.concatenate([collapsed[L], rows]).take(order, axis=0)
    if L > 0:
        rows = _sum_columns(rows, orders[L - 1])
    W, b = np.concatenate([layers[L].weights, rows]), np.concatenate([layers[L].biases, biases])
    layers[L] = _trusted_layer(W.take(order, axis=0), b.take(order), relu=True)
    # The split's two columns, each summed over a fresh gather, which adds in
    # the order _sum_columns would (a sum over a view adds in another); calling
    # _sum_columns(C, split) here took 20 us a split against these 7 us.
    C = collapsed[L + 1]
    new = [C[:, [member]].sum(axis=1, keepdims=True), C[:, split.members[1:]].sum(axis=1, keepdims=True)]
    W = np.concatenate([layers[L + 1].weights, *new], axis=1)
    layers[L + 1] = _trusted_layer(W.take(order, axis=1), layers[L + 1].biases, relu=layers[L + 1].relu)
    network = _trusted_network(tuple(layers), state.network)

    # Layers 0..L-1 keep the parent's values and scores; from L on, each
    # layer's values follow by hidden_values' arithmetic, then its scores.
    values, scores = guide.values[:L], guide.scores[:L]
    v = values[-1] if L else guide.point
    for k in range(L, len(layers) - 1):
        v = np.maximum(layers[k].weights @ v + layers[k].biases, 0.0)
        values.append(v)
        scores.append(_layer_scores(base, k, orders[k], guide.base_values[k], v))
    guide = Guide(guide.point, guide.base_values, values, scores)
    return AbstractionState(base, network, tuple(orders), state.excess - 1, tuple(collapsed), (L, member), guide)
