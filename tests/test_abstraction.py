import numpy as np
import pytest

from reluverify import (
    CannotRefineError,
    InputBox,
    Layer,
    Network,
    abstract_to_saturation,
    evaluate,
    preprocess,
    refine_split,
)

from reluverify.abstraction import (
    _collapse,
    _guide_at,
    _layer_order,
    _make_state,
    _split_choice,
    _sum_columns,
)
from reluverify import bounds
from reluverify.bounds import sbt
from reluverify.categorize import CATEGORY_NAMES
from reluverify.network import hidden_values

from conftest import forward_batch, random_box, random_network, sample_box


def test_merge_self_duplicate():
    # Two identical copies merge into incoming w, outgoing 2w.
    net = Network(
        [Layer([[5.0], [5.0]], [0.25, 0.25], True), Layer([[2.0, 2.0]], [0.0], False)],
        input_size=1,
    )
    merged = abstract_to_saturation(preprocess(net), nonneg_inputs=True)
    assert merged.groups == (((0, 1),),)
    assert np.array_equal(merged.network.layers[0].weights, [[5.0]])
    assert np.array_equal(merged.network.layers[0].biases, [0.25])
    assert np.array_equal(merged.network.layers[1].weights, [[4.0]])


def test_saturation_running_example(net121):
    state = abstract_to_saturation(preprocess(net121), nonneg_inputs=True)
    assert state.hidden_sizes == [1]
    assert np.array_equal(state.network.layers[0].weights, [[10.0]])
    assert np.array_equal(state.network.layers[1].weights, [[7.0]])
    assert state.excess == 1


def test_saturation_distinct_categories_is_identity():
    net = Network(
        [Layer([[1.0], [2.0]], [0.0, 0.0], True), Layer([[1.0, -1.0]], [0.0], False)],
        input_size=1,
    )
    state = abstract_to_saturation(preprocess(net), nonneg_inputs=True)
    assert state.excess == 0
    assert state.hidden_sizes == [2]


def test_saturation_size_bound():
    rng = np.random.default_rng(31)
    for _ in range(60):
        net = random_network(rng)
        base = preprocess(net)
        state = abstract_to_saturation(base, nonneg_inputs=True)
        for k, n_groups in enumerate(state.hidden_sizes):
            assert n_groups <= min(len(base.categories[k]), 4)


def _check_dominates(rng, small: Network, big: Network, box, n=100, slack=1e-9):
    X = sample_box(rng, box, n)
    lo = forward_batch(small, X)[:, 0]
    hi = forward_batch(big, X)[:, 0]
    assert np.all(hi >= lo - slack)


def test_first_layer_merges_need_a_nonneg_box():
    # Both layers hold two pos-inc neurons.  Merged, the first layer's two
    # rows collapse to relu(x), which is 0 at x = -1 where the base's
    # relu(-x) is 1, so only a non-negative box allows that merge.
    net = Network(
        [
            Layer([[1.0], [-1.0]], [0.0, 0.0], True),
            Layer([[1.0, 1.0], [0.5, 2.0]], [0.0, 0.0], True),
            Layer([[1.0, 1.0]], [0.0], False),
        ],
        input_size=1,
    )
    base = preprocess(net)
    guarded = abstract_to_saturation(base, nonneg_inputs=False)
    assert guarded.groups == (((0,), (1,)), ((0, 1),))
    merged = abstract_to_saturation(base, nonneg_inputs=True)
    assert merged.groups == (((0, 1),), ((0, 1),))
    box = InputBox([-1.0], [1.0])
    _check_dominates(np.random.default_rng(38), base.network, guarded.network, box)
    assert evaluate(merged.network, [-1.0])[0] < evaluate(base.network, [-1.0])[0]


def test_random_merges_over_approximate():
    # Random same-category partitions of every layer, which the refinement
    # loop never builds all of; the first layer stays in singletons unless
    # the box is non-negative.
    rng = np.random.default_rng(32)
    merged = 0
    for _ in range(200):
        nonneg = bool(rng.random() < 0.5)
        net = random_network(rng)
        base = preprocess(net)
        box = random_box(rng, net.input_size, nonneg=nonneg)
        groups = []
        for k, codes in enumerate(base.categories):
            if k == 0 and not nonneg:
                groups.append([(j,) for j in range(len(codes))])
                continue
            layer = []
            for c in np.unique(codes):
                members = np.flatnonzero(codes == c)
                layer += [tuple(members[list(g)].tolist()) for g in _random_partition(rng, members.size)]
            groups.append(layer)
        state = _make_state(base, groups)
        merged += state.excess > 0
        _check_dominates(rng, base.network, state.network, box)
        _check_dominates(rng, net, state.network, box)
    assert merged > 100


def test_refine_running_example(net121):
    state = abstract_to_saturation(preprocess(net121), nonneg_inputs=True)
    refined = refine_split(state, [20.0])
    assert refined.groups == (((0,), (1,)),)
    assert np.array_equal(refined.network.layers[0].weights, [[10.0], [1.0]])
    assert np.array_equal(refined.network.layers[1].weights, [[3.0, 4.0]])


def test_refine_exhausts_to_base():
    rng = np.random.default_rng(33)
    for _ in range(30):
        net = random_network(rng)
        base = preprocess(net)
        state = abstract_to_saturation(base, nonneg_inputs=True)
        if state.excess == 0:
            continue
        box = random_box(rng, net.input_size, nonneg=True)
        x0 = rng.uniform(box.lower, box.upper)
        refined = state
        while refined.excess > 0:
            refined = refine_split(refined, x0)
        # Fully refined states reproduce the categorized network bit-exactly.
        for la, lb in zip(refined.network.layers, base.network.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)


def test_refine_splices_only_the_two_touched_layers():
    # Each split must equal the from-scratch aggregation bit for bit and keep
    # every other Layer object of the parent.
    rng = np.random.default_rng(35)
    split_layers = set()
    for trial in range(40):
        net = random_network(rng, n_layers=int(rng.integers(1, 5)), max_width=8)
        base = preprocess(net)
        nonneg = trial % 4 != 3
        box = random_box(rng, net.input_size, nonneg=nonneg)
        state = abstract_to_saturation(base, nonneg_inputs=nonneg)
        last = len(net.layers) - 2
        while state.excess > 0:
            new = refine_split(state, rng.uniform(box.lower, box.upper))
            (L,) = [k for k in range(last + 1) if new.groups[k] != state.groups[k]]
            split_layers.add((L == 0, L == last))
            ref = _make_state(new.base, new.groups).network
            for k, (got, want) in enumerate(zip(new.network.layers, ref.layers)):
                assert np.array_equal(got.weights, want.weights), (trial, L, k)
                assert np.array_equal(got.biases, want.biases), (trial, L, k)
                assert got.relu == want.relu
                if k not in (L, L + 1):
                    assert got is state.network.layers[k]
            state = new
    # First-hidden-layer, last-hidden-layer (output columns) and inner splits.
    assert {(True, False), (False, True), (False, False)} <= split_layers


def test_refine_monotone_between_base_and_previous():
    rng = np.random.default_rng(34)
    for _ in range(100):
        net = random_network(rng)
        base = preprocess(net)
        box = random_box(rng, net.input_size, nonneg=True)
        state = abstract_to_saturation(base, nonneg_inputs=True)
        while state.excess > 0:
            x0 = rng.uniform(box.lower, box.upper)
            new = refine_split(state, x0)
            assert new.excess < state.excess
            X = sample_box(rng, box, 100)
            v_base = forward_batch(base.network, X)[:, 0]
            v_new = forward_batch(new.network, X)[:, 0]
            v_old = forward_batch(state.network, X)[:, 0]
            assert np.all(v_new >= v_base - 1e-9)
            assert np.all(v_old >= v_new - 1e-9)
            state = new


def test_refine_fully_refined_raises(net121):
    state = abstract_to_saturation(preprocess(net121), nonneg_inputs=True)
    while state.excess > 0:
        state = refine_split(state, [20.0])
    with pytest.raises(CannotRefineError):
        refine_split(state, [20.0])


def test_refine_targets_most_distorted_neuron(net121):
    # At x0=20 the merged neuron's value is 200; the copy fed by weight 1
    # contributes 20, so it is the one pulled out first.
    state = abstract_to_saturation(preprocess(net121), nonneg_inputs=True)
    refined = refine_split(state, [20.0])
    assert refined.excess == 0  # group of two: one extraction fully splits it


def _loop_split_choice(state, x0):
    """Per-member reference for ``_split_choice``: score every member of
    every merged group in turn and keep the smallest ``(-score, layer,
    member)``."""
    base_net = state.base.network
    v_base, v_abs = hidden_values(base_net, x0), hidden_values(state.network, x0)
    best = None
    for k, layer_groups in enumerate(state.groups):
        out_sums = np.abs(base_net.layers[k + 1].weights).sum(axis=0)
        for gi, g in enumerate(layer_groups):
            if len(g) < 2:
                continue
            for m in g:
                key = (-(out_sums[m] * abs(v_base[k][m] - v_abs[k][gi])), k, m)
                best = key if best is None or key < best else best
    return best[1], best[2]


def _loop_collapse(base, k, layer_groups, cols=slice(None)):
    """Per-group reference for ``_collapse``."""
    W, b = base.network.layers[k].weights[:, cols], base.network.layers[k].biases
    rows, biases = [], []
    for g in layer_groups:
        sub, bsub = W[list(g), :], b[list(g)]
        if CATEGORY_NAMES[base.categories[k][g[0]]].endswith("-inc"):
            rows.append(sub.max(axis=0))
            biases.append(bsub.max())
        else:
            rows.append(sub.min(axis=0))
            biases.append(bsub.min())
    return np.vstack(rows), np.array(biases)


def _loop_sum_columns(W, source_groups):
    """Per-group reference for ``_sum_columns``: each group summed alone, one
    reduction over only its own columns, in member order."""
    return np.hstack([np.add.reduceat(W[:, list(h)], [0], axis=1) for h in source_groups])


def _random_partition(rng, n):
    """A random partition of ``range(n)``, groups sorted by first member."""
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
    return tuple(sorted((tuple(sorted(g.tolist())) for g in np.split(perm, cuts)), key=lambda g: g[0]))


def _tie_network(rng):
    """A random network with weights and biases from a few small integers,
    so that hidden values and split scores tie often."""
    sizes = [int(rng.integers(1, 4))] + [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 4)))] + [1]
    layers = [
        Layer(
            rng.choice([-1.0, 0.0, 1.0, 2.0], size=(sizes[k], sizes[k - 1])),
            rng.choice([-1.0, 0.0, 1.0], size=sizes[k]),
            relu=k < len(sizes) - 1,
        )
        for k in range(1, len(sizes))
    ]
    return Network(layers, sizes[0])


def test_split_choice_matches_loop_reference():
    # Every state along a refinement walk, at seeded points that give
    # exact ties (integer weights and points), all-zero scores (each merged
    # member's value equals its group's, as where all of them are
    # inactive) and states with singleton groups next to merged ones.
    rng = np.random.default_rng(36)
    ties = all_zero = with_singletons = 0
    for trial in range(120):
        net = _tie_network(rng) if trial % 2 else random_network(rng, max_width=8)
        base = preprocess(net)
        nonneg = trial % 3 != 0
        state = abstract_to_saturation(base, nonneg_inputs=nonneg)
        while state.excess > 0:
            for x0 in (
                rng.integers(0, 3, size=net.input_size).astype(np.float64),
                rng.uniform(0.0, 1.0, size=net.input_size),
                np.zeros(net.input_size),
            ):
                v_base, v_abs = hidden_values(base.network, x0), hidden_values(state.network, x0)
                got = _split_choice(_guide_at(state, x0).scores)
                assert got == _loop_split_choice(state, x0), trial
                scores = [
                    base.outgoing_weight[k][m] * abs(v_base[k][m] - v_abs[k][gi])
                    for k, layer in enumerate(state.groups)
                    for gi, g in enumerate(layer)
                    if len(g) > 1
                    for m in g
                ]
                ties += scores.count(max(scores)) > 1
                all_zero += max(scores) == 0.0
            with_singletons += any(len(g) == 1 for layer in state.groups for g in layer)
            state = refine_split(state, rng.uniform(0.0, 1.0, size=net.input_size))
    assert ties > 100 and all_zero > 50 and with_singletons > 100


def test_collapse_and_column_sums_match_loop_references():
    # Random partitions of every layer (singletons, groups of 8 or more,
    # which numpy sums pairwise in blocks of 8, and groups of inc and of
    # dec neurons), with and without a column subset, bit for bit.  The
    # column sums are also taken over a Fortran-ordered and a
    # non-contiguous copy of the weights: a split splices groups summed
    # alone into a whole layer's sums, so neither a group's place in the
    # order nor the array's layout may change how it is added.
    rng = np.random.default_rng(37)
    directions, sizes = set(), set()
    for trial in range(150):
        net = random_network(rng, n_layers=int(rng.integers(1, 4)), max_width=int(rng.choice([4, 12, 40])))
        base = preprocess(net)
        for k, layer in enumerate(base.network.layers[:-1]):
            groups = _random_partition(rng, layer.size)
            directions |= {CATEGORY_NAMES[base.categories[k][g[0]]].split("-")[1] for g in groups}
            sizes |= {len(g) for g in groups}
            n_in = layer.weights.shape[1]
            subset = list(rng.choice(n_in, size=int(rng.integers(1, n_in + 1)), replace=False))
            for cols in (slice(None), subset):
                # A split takes its next layer's new columns from the
                # collapsed rows of all columns.
                W, b = _collapse(base, k, _layer_order(groups))
                W = W[:, cols]
                W_ref, b_ref = _loop_collapse(base, k, groups, cols)
                assert W.tobytes() == W_ref.tobytes() and b.tobytes() == b_ref.tobytes(), trial
            after = base.network.layers[k + 1].weights
            strided = np.repeat(after, 2, axis=1)[:, ::2]
            for W in (after, np.asfortranarray(after), strided):
                got = _sum_columns(W, _layer_order(groups))
                assert got.tobytes() == _loop_sum_columns(W, groups).tobytes(), trial
    assert directions == {"inc", "dec"}
    assert 1 in sizes and max(sizes) >= 16


def _root_bytes(result):
    modes, bm = result
    arrays = [*modes, *(a for pair in bm.pre for a in pair)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def test_refinement_chain_keeps_orders_and_resumes_roots():
    # Along seeded refinement chains, guided half the time by the box
    # midpoint (so the kept base values are reused) and half the time by a
    # random point, each split must keep every layer's group order equal to
    # _layer_order of its groups, build its two layers read-only, and give a
    # network whose root bound, taken right after the parent's and so
    # reusing its kept layers 0..L-1, equals a fresh one array for array.
    rng = np.random.default_rng(39)
    seen, reused = set(), 0
    for trial in range(30):
        net = random_network(rng, n_layers=int(rng.integers(1, 5)), max_width=8)
        base = preprocess(net)
        nonneg = trial % 4 != 3
        box = random_box(rng, net.input_size, nonneg=nonneg)
        state = abstract_to_saturation(base, nonneg_inputs=nonneg)
        last = len(net.layers) - 2
        while state.excess > 0:
            x0 = box.midpoint() if rng.random() < 0.5 else rng.uniform(box.lower, box.upper)
            reused += state.guide is not None and np.array_equal(state.guide.point, x0)
            new = refine_split(state, x0)
            L, member = new.split
            assert [k for k in range(last + 1) if new.groups[k] != state.groups[k]] == [L]
            assert (member,) in new.groups[L]
            assert np.array_equal(new.guide.point, x0)
            v_base = np.concatenate(hidden_values(base.network, x0))
            assert np.array_equal(np.concatenate(new.guide.base_values), v_base)
            own = hidden_values(new.network, x0)
            assert len(new.guide.values) == len(own)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(new.guide.values, own))
            assert new.guide_output() == evaluate(new.network, x0)[0]
            for kept, layer_groups in zip(new.orders, new.groups):
                for got, want in zip(kept, _layer_order(layer_groups)):
                    assert np.array_equal(got, want), trial
            for layer in new.network.layers[L : L + 2]:
                for a in (layer.weights, layer.biases, *layer.weight_parts):
                    assert not a.flags.writeable and a.flags.c_contiguous
                Wp, Wn = layer.weight_parts
                assert np.array_equal(Wp, np.maximum(layer.weights, 0.0))
                assert np.array_equal(Wn, np.minimum(layer.weights, 0.0))
            bounds._KEPT.clear()
            fresh = _root_bytes(sbt(new.network, box))
            if L > 0:
                bounds._KEPT.clear()
                sbt(state.network, box)
                assert _root_bytes(sbt(new.network, box)) == fresh, trial
                assert _root_bytes(sbt(new.network, box)) == fresh  # every layer kept now
            seen.add("first" if L == 0 else "last" if L == last else "inner")
            state = new
    assert seen == {"first", "inner", "last"} and reused > 50


def _bytes(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def test_refinement_chains_match_a_from_scratch_rebuild():
    # Seeded chains in which each point guides 1 to 4 splits in a row, as
    # the loop's re-split at the kept counterexample does, before a fresh
    # one, on non-negative and signed boxes.  At every split the choice,
    # the kept state and the kept values and scores at the point must equal
    # a from-scratch rebuild byte for byte.
    rng = np.random.default_rng(40)
    splits, reused, seen = 0, 0, set()
    for trial in range(40):
        net = random_network(rng, n_layers=int(rng.integers(1, 5)), max_width=8)
        base = preprocess(net)
        nonneg = trial % 2 == 0
        box = random_box(rng, net.input_size, nonneg=nonneg)
        state = abstract_to_saturation(base, nonneg_inputs=nonneg)
        last = len(net.layers) - 2
        while state.excess > 0:
            x0 = rng.uniform(box.lower, box.upper)
            for _ in range(min(int(rng.integers(1, 5)), state.excess)):
                reused += state.guide is not None and np.array_equal(state.guide.point, x0)
                new = refine_split(state, x0)
                assert new.split == _loop_split_choice(state, x0), trial
                ref = _make_state(base, new.groups)
                assert new.excess == ref.excess == state.excess - 1
                assert new.groups == ref.groups
                for got, want in zip(new.orders, ref.orders):
                    assert _bytes(got) == _bytes(want), trial
                assert _bytes(new.collapsed) == _bytes(ref.collapsed), trial
                for got, want in zip(new.network.layers, ref.network.layers):
                    assert _bytes([got.weights, got.biases]) == _bytes([want.weights, want.biases]), trial
                    assert got.relu == want.relu
                assert _bytes(new.guide.values) == _bytes(hidden_values(new.network, x0)), trial
                assert _bytes(new.guide.scores) == _bytes(_guide_at(ref, x0).scores), trial
                L = new.split[0]
                seen.add(("first" if L == 0 else "last" if L == last else "inner", nonneg))
                splits += 1
                state = new
    assert splits > 500 and reused > 200, (splits, reused)
    assert {"first", "inner", "last"} == {where for where, _ in seen} and {True, False} == {s for _, s in seen}
