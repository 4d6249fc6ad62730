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
base.  Every state's network is a function of its groups alone, so merging
and splitting are order-independent and a fully-refined state reproduces
the categorized network bit-exactly.  ``_aggregate`` derives it from
scratch (for saturation and merges, and as the reference in the tests);
``refine_split`` re-derives only what a split touches, the split layer's
two new rows and the next layer's two new columns, with the same
expressions, and shares every other row, column and layer with its parent.

The aggregation over-approximates the base output for all inputs drawn from
the relevant box.  Merging neurons of the first hidden layer additionally
requires the box to be non-negative (their sources are raw inputs rather
than post-ReLU values), which callers assert via ``nonneg_inputs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categorize import CategorizedNetwork, Direction
from .network import Layer, Network, hidden_values

Groups = tuple[tuple[tuple[int, ...], ...], ...]


class CannotRefineError(RuntimeError):
    """Raised when every group is a singleton and no split is possible."""


def _collapse(base: CategorizedNetwork, k: int, layer_groups, cols=slice(None)):
    """Rows of base layer ``k`` (restricted to ``cols``) collapsed per target
    group: the per-source max for inc groups, the min for dec groups."""
    W, b = base.network.layers[k].weights[:, cols], base.network.layers[k].biases
    rows, biases = [], []
    for g in layer_groups:
        idx = list(g)
        sub, bsub = W[idx, :], b[idx]
        if base.categories[k][g[0]].direction is Direction.INC:
            rows.append(sub.max(axis=0))
            biases.append(bsub.max())
        else:
            rows.append(sub.min(axis=0))
            biases.append(bsub.min())
    return np.vstack(rows), np.array(biases)


def _sum_columns(W: np.ndarray, source_groups) -> np.ndarray:
    return np.stack([W[:, list(h)].sum(axis=1) for h in source_groups], axis=1)


def _aggregate(base: CategorizedNetwork, groups: Groups) -> Network:
    """The abstract network of ``groups``, derived from scratch."""
    net = base.network
    n = len(net.layers)
    layers = []
    for k in range(n):
        if k < n - 1:
            W, b = _collapse(base, k, groups[k])
        else:
            W, b = net.layers[k].weights, net.layers[k].biases
        if k > 0:
            W = _sum_columns(W, groups[k - 1])
        layers.append(Layer(W, b, relu=k < n - 1))
    return Network(layers, net.input_size, domain=net.domain)


def _canonical(layer_groups) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(g)) for g in layer_groups), key=lambda g: g[0]))


@dataclass(frozen=True, eq=False)
class AbstractionState:
    """Groups over a categorized base plus the derived abstract network."""

    base: CategorizedNetwork
    groups: Groups
    nonneg_inputs: bool
    network: Network

    @property
    def excess(self) -> int:
        """Total merge excess: sum of (group size - 1); 0 means fully refined."""
        return sum(len(g) - 1 for layer in self.groups for g in layer)

    @property
    def hidden_sizes(self) -> list[int]:
        return [len(layer) for layer in self.groups]

    def group_category(self, layer: int, gi: int):
        return self.base.categories[layer][self.groups[layer][gi][0]]

    def provenance(self) -> dict:
        """JSON-friendly debug dump: which base neurons each abstract neuron
        represents, with their shared category."""
        return {
            "hidden_layers": [
                [
                    {
                        "members": list(g),
                        "category": str(self.group_category(k, gi)),
                        "origins": [self.base.origins[k][m] for m in g],
                    }
                    for gi, g in enumerate(layer_groups)
                ]
                for k, layer_groups in enumerate(self.groups)
            ],
            "nonneg_inputs": self.nonneg_inputs,
        }


def _make_state(base: CategorizedNetwork, groups, nonneg_inputs: bool) -> AbstractionState:
    groups = tuple(_canonical(layer) for layer in groups)
    return AbstractionState(base, groups, bool(nonneg_inputs), _aggregate(base, groups))


def identity_state(base: CategorizedNetwork, nonneg_inputs: bool = False) -> AbstractionState:
    """One singleton group per categorized neuron (no abstraction)."""
    groups = [
        [(j,) for j in range(len(cats))] for cats in base.categories
    ]
    return _make_state(base, groups, nonneg_inputs)


def merge_pair(state: AbstractionState, a: tuple[int, int], b: tuple[int, int]) -> AbstractionState:
    """Union the groups of abstract neurons ``a`` and ``b`` (layer, index pairs)."""
    (la, ga), (lb, gb) = a, b
    if la != lb:
        raise ValueError(f"cannot merge across layers ({la} vs {lb})")
    if ga == gb:
        raise ValueError("cannot merge a group with itself")
    if state.group_category(la, ga) != state.group_category(lb, gb):
        raise ValueError(
            f"category mismatch: {state.group_category(la, ga)} vs {state.group_category(lb, gb)}"
        )
    if la == 0 and not state.nonneg_inputs:
        raise ValueError("first hidden layer merges require a non-negative input box")
    layer = list(state.groups[la])
    merged = tuple(sorted(layer[ga] + layer[gb]))
    layer = [g for i, g in enumerate(layer) if i not in (ga, gb)] + [merged]
    groups = list(state.groups)
    groups[la] = layer
    return _make_state(state.base, groups, state.nonneg_inputs)


def abstract_to_saturation(base: CategorizedNetwork, nonneg_inputs: bool = False) -> AbstractionState:
    """Merge until each hidden layer holds at most one neuron per category.

    With ``nonneg_inputs`` False the first hidden layer is left unmerged
    (sound for arbitrary input boxes).
    """
    groups = []
    for k, cats in enumerate(base.categories):
        if k == 0 and not nonneg_inputs:
            groups.append([(j,) for j in range(len(cats))])
            continue
        by_cat: dict = {}
        for j, c in enumerate(cats):
            by_cat.setdefault(c, []).append(j)
        groups.append([tuple(v) for v in by_cat.values()])
    return _make_state(base, groups, nonneg_inputs)


def _split_scores(state: AbstractionState, x0: np.ndarray):
    """Score each (layer, group, member) by how much merging distorts the
    member's outgoing contribution at ``x0``: sum over outgoing edges of
    |w * v_member - w * v_group|."""
    base_net = state.base.network
    v_base = hidden_values(base_net, x0)
    v_abs = hidden_values(state.network, x0)

    out = []
    for k, layer_groups in enumerate(state.groups):
        out_abs = np.abs(base_net.layers[k + 1].weights)  # (targets, layer-k neurons)
        out_sums = out_abs.sum(axis=0)
        for gi, g in enumerate(layer_groups):
            if len(g) < 2:
                continue
            for m in g:
                score = out_sums[m] * abs(v_base[k][m] - v_abs[k][gi])
                out.append((score, k, m, gi))
    return out


def refine_split(state: AbstractionState, x0) -> AbstractionState:
    """Extract one constituent into a singleton group, guided by the spurious
    input ``x0``; the rest of its group is re-aggregated.

    The result sits between the previous state and the base in the
    over-approximation order, and the total merge excess strictly drops.
    """
    if state.excess == 0:
        raise CannotRefineError("all groups are singletons; nothing to split")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (state.base.network.input_size,):
        raise ValueError("x0 has the wrong dimension")

    _, L, member, gi = min(_split_scores(state, x0), key=lambda it: (-it[0], it[1], it[2]))
    old_groups = state.groups[L]
    split = ((member,), tuple(m for m in old_groups[gi] if m != member))
    groups = list(state.groups)
    groups[L] = _canonical(old_groups[:gi] + split + old_groups[gi + 1 :])
    # Where each new group's row (layer L) and column (layer L+1) comes from:
    # the parent's, or one of the two fresh ones appended after them.
    source = {g: i for i, g in enumerate(old_groups)}
    source.update({g: len(old_groups) + t for t, g in enumerate(split)})
    order = [source[g] for g in groups[L]]

    base, layers = state.base, list(state.network.layers)
    rows, biases = _collapse(base, L, split)
    if L > 0:
        rows = _sum_columns(rows, groups[L - 1])
    W, b = np.concatenate([layers[L].weights, rows]), np.concatenate([layers[L].biases, biases])
    layers[L] = Layer(W.take(order, axis=0), b.take(order), relu=True)
    cols = list(split[0] + split[1])
    if L + 1 < len(layers) - 1:
        W, _ = _collapse(base, L + 1, groups[L + 1], cols)
    else:
        W = base.network.layers[L + 1].weights[:, cols]
    W = _sum_columns(W, (range(1), range(1, len(cols))))
    W = np.concatenate([layers[L + 1].weights, W], axis=1)
    layers[L + 1] = Layer(W.take(order, axis=1), layers[L + 1].biases, relu=layers[L + 1].relu)
    network = Network(layers, state.network.input_size, domain=state.network.domain)
    return AbstractionState(base, tuple(groups), state.nonneg_inputs, network)
