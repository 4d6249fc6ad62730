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
the categorized network bit-exactly.  ``_aggregate`` derives it from
scratch (for saturation, and as the reference in the tests);
``refine_split`` re-derives only what a split touches, the split layer's
two new rows and the next layer's two new columns, with the same
expressions, and shares every other row, column and layer with its parent.

Both derivations work on whole layers in numpy, not group by group: a
layer's groups become its members in group order plus each group's offset
(``_layer_order``), the per-group max and min are one ``reduceat`` over the
rows permuted by group, and the column sums gather all groups of one size
at once.  Each result is bit-identical to the per-group expression, which
the tests keep as the reference.  The split choice scores every merged
member of every layer in one array and takes one ``argmax``.

A state keeps each layer's ``_layer_order`` in ``orders``, and a split
rebuilds only the split layer's; the other derivations read the kept ones.
A state made by ``refine_split`` also records the split ``(layer,
member)`` and its guiding point, with the base network's and its own
network's hidden values there.  The loop's re-split check reads the
state's output at that point from them (``output_at``), and a next split
at an equal point, as when the loop splits again at the kept
counterexample or the solver's witness is again the same box corner, reuses
both, so no network is evaluated twice at one point.  The two
re-derived layers are built with ``network._trusted_layer``: their arrays
come from the checked base, so they are not copied or scanned again.

The aggregation over-approximates the base output for all inputs drawn from
the relevant box.  Merging neurons of the first hidden layer additionally
requires the box to be non-negative (their sources are raw inputs rather
than post-ReLU values), which callers assert via ``abstract_to_saturation``'s
``nonneg_inputs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .categorize import CategorizedNetwork
from .network import Layer, Network, _trusted_layer, _trusted_network, hidden_values

Groups = tuple[tuple[tuple[int, ...], ...], ...]
Order = tuple[np.ndarray, np.ndarray, np.ndarray]  # members, sizes, starts


class CannotRefineError(RuntimeError):
    """Raised when every group is a singleton and no split is possible."""


def _layer_order(layer_groups):
    """A layer's members in group order, each group's size, and the offset
    of each group's first member in that order."""
    sizes = np.fromiter(map(len, layer_groups), dtype=np.intp, count=len(layer_groups))
    members = np.fromiter(chain.from_iterable(layer_groups), dtype=np.intp, count=int(sizes.sum()))
    starts = np.zeros_like(sizes)
    np.cumsum(sizes[:-1], out=starts[1:])
    return members, sizes, starts


def _collapse(base: CategorizedNetwork, k: int, order: Order, cols=slice(None)):
    """Rows of base layer ``k`` (restricted to ``cols``) collapsed per target
    group of ``order`` (a ``_layer_order``): the per-source max for inc
    groups, the min for dec groups."""
    members, _, starts = order
    layer = base.network.layers[k]
    W, b = layer.weights[:, cols][members], layer.biases[members]
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
    members, sizes, starts = order
    out = np.empty((W.shape[0], sizes.size))
    for size in set(sizes.tolist()):
        at = np.flatnonzero(sizes == size)
        out[:, at] = W[:, members[starts[at, None] + np.arange(size)]].sum(axis=2)
    return out


def _aggregate(base: CategorizedNetwork, groups: Groups) -> Network:
    """The abstract network of ``groups``, derived from scratch."""
    net = base.network
    n = len(net.layers)
    orders = [_layer_order(layer_groups) for layer_groups in groups]
    layers = []
    for k in range(n):
        if k < n - 1:
            W, b = _collapse(base, k, orders[k])
        else:
            W, b = net.layers[k].weights, net.layers[k].biases
        if k > 0:
            W = _sum_columns(W, orders[k - 1])
        layers.append(Layer(W, b, relu=k < n - 1))
    return Network(layers, net.input_size, domain=net.domain)


def _canonical(layer_groups) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(g)) for g in layer_groups), key=lambda g: g[0]))


@dataclass(frozen=True, eq=False)
class AbstractionState:
    """Groups over a categorized base plus the derived abstract network.

    ``orders`` holds ``_layer_order`` of each layer's groups.  ``split`` is
    the ``(layer, member)`` that ``refine_split`` extracted to make this
    state, and ``guide`` its guiding point with the base network's
    concatenated hidden values and ``network``'s hidden values there; both
    are None for a state made from scratch."""

    base: CategorizedNetwork
    groups: Groups
    network: Network
    orders: tuple[Order, ...]
    split: tuple[int, int] | None = None
    guide: tuple[np.ndarray, np.ndarray, list[np.ndarray]] | None = None

    @property
    def excess(self) -> int:
        """Total merge excess: sum of (group size - 1); 0 means fully refined.

        Groups partition each base layer, so this is the base layer sizes
        minus the group counts."""
        return sum(len(cats) - len(layer) for cats, layer in zip(self.base.categories, self.groups))

    def hidden_values_at(self, x: np.ndarray) -> list[np.ndarray]:
        """The abstract network's hidden values at ``x``: the guide's when
        ``x`` is its point, else a forward pass."""
        if self.guide is not None and np.array_equal(self.guide[0], x):
            return self.guide[2]
        return hidden_values(self.network, x)

    def output_at(self, x: np.ndarray) -> float:
        """The abstract network's output at ``x``, by ``evaluate``'s arithmetic."""
        hidden, out = self.hidden_values_at(x), self.network.layers[-1]
        return float((out.weights @ (hidden[-1] if hidden else x) + out.biases)[0])

    @property
    def hidden_sizes(self) -> list[int]:
        """Groups per hidden layer; the benchmark's saturation span reads it."""
        return [len(layer) for layer in self.groups]


def _make_state(base: CategorizedNetwork, groups) -> AbstractionState:
    groups = tuple(_canonical(layer) for layer in groups)
    orders = tuple(_layer_order(layer) for layer in groups)
    return AbstractionState(base, groups, _aggregate(base, groups), orders)


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


def _split_choice(state: AbstractionState, x0: np.ndarray, v_base: np.ndarray) -> tuple[int, int]:
    """The merged member ``(layer, member)`` whose merge most distorts its
    outgoing contribution at ``x0``: the score is the sum over outgoing
    edges of |w * v_member - w * v_group|, where ``v_base`` holds the base
    network's concatenated hidden values at ``x0``.  Ties go to the first
    layer, then the lowest member index.

    All hidden layers are scored at once, over their concatenated neurons:
    a member's index is offset by the base sizes of the layers before it,
    and its group's index by their group counts, which is where the group's
    value sits in the concatenated abstract values."""
    base = state.base
    offsets = np.cumsum([0] + [len(cats) for cats in base.categories])
    members = np.concatenate([m + off for (m, _, _), off in zip(state.orders, offsets)])
    sizes = np.concatenate([s for _, s, _ in state.orders])
    group = np.repeat(np.arange(sizes.size), sizes)
    merged = sizes[group] > 1
    m, g = members[merged], group[merged]
    v_abs = np.concatenate(state.hidden_values_at(x0))
    score = np.full(offsets[-1], -np.inf)
    score[m] = np.concatenate(base.outgoing_weight)[m] * np.abs(v_base[m] - v_abs[g])
    j = int(np.argmax(score))
    k = int(np.searchsorted(offsets, j, side="right")) - 1
    return k, j - int(offsets[k])


def refine_split(state: AbstractionState, x0) -> AbstractionState:
    """Extract one constituent into a singleton group, guided by the spurious
    input ``x0``; the rest of its group is re-aggregated.

    The result sits between the previous state and the base in the
    over-approximation order, and the total merge excess strictly drops.
    It records the split ``(layer, member)`` and shares layers
    ``0..layer-1`` with the previous state's network.
    """
    if state.excess == 0:
        raise CannotRefineError("all groups are singletons; nothing to split")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (state.base.network.input_size,):
        raise ValueError("x0 has the wrong dimension")
    if state.guide is not None and np.array_equal(state.guide[0], x0):
        x0, v_base = state.guide[:2]
    else:
        x0, v_base = x0.copy(), np.concatenate(hidden_values(state.base.network, x0))

    L, member = _split_choice(state, x0, v_base)
    old_groups = state.groups[L]
    members, _, starts = state.orders[L]
    gi = int(np.searchsorted(starts, np.flatnonzero(members == member)[0], side="right")) - 1
    split = ((member,), tuple(m for m in old_groups[gi] if m != member))
    # Where each new group's row (layer L) and column (layer L+1) comes from:
    # the parent's other groups, or the two fresh ones appended after them,
    # taken in the canonical order of their first members.
    firsts = np.concatenate([members[starts], [member, split[1][0]]])
    firsts[gi] = -1  # sorts first and is dropped: group gi is replaced
    order = np.argsort(firsts)[1:]
    groups, orders = list(state.groups), list(state.orders)
    groups[L] = tuple((old_groups + split)[i] for i in order)
    orders[L] = _layer_order(groups[L])

    base, layers = state.base, list(state.network.layers)
    rows, biases = _collapse(base, L, _layer_order(split))
    if L > 0:
        rows = _sum_columns(rows, orders[L - 1])
    W, b = np.concatenate([layers[L].weights, rows]), np.concatenate([layers[L].biases, biases])
    layers[L] = _trusted_layer(W.take(order, axis=0), b.take(order), relu=True)
    cols = list(split[0] + split[1])
    if L + 1 < len(layers) - 1:
        W, _ = _collapse(base, L + 1, orders[L + 1], cols)
    else:
        W = base.network.layers[L + 1].weights[:, cols]
    # Column 0 alone and the rest summed, adding in the order _sum_columns
    # would (a sum over the view W[:, 1:] adds in another order).
    W = np.column_stack([W[:, [0]].sum(axis=1), W[:, np.arange(1, len(cols))].sum(axis=1)])
    W = np.concatenate([layers[L + 1].weights, W], axis=1)
    layers[L + 1] = _trusted_layer(W.take(order, axis=1), layers[L + 1].biases, relu=layers[L + 1].relu)
    network = _trusted_network(tuple(layers), state.network)
    guide = x0, v_base, hidden_values(network, x0)
    return AbstractionState(base, tuple(groups), network, tuple(orders), (L, member), guide)
