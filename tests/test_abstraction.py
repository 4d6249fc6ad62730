import numpy as np
import pytest

from reluverify import (
    CannotRefineError,
    Layer,
    Network,
    abstract_to_saturation,
    identity_state,
    merge_pair,
    preprocess,
    refine_split,
)

from conftest import forward_batch, random_box, random_network, sample_box


def test_merge_pair_running_example(net121):
    state = identity_state(preprocess(net121), nonneg_inputs=True)
    merged = merge_pair(state, (0, 0), (0, 1))
    assert np.array_equal(merged.network.layers[0].weights, [[10.0]])
    assert np.array_equal(merged.network.layers[1].weights, [[7.0]])
    assert merged.groups == (((0, 1),),)


def test_merge_self_duplicate():
    # Two identical copies merge into incoming w, outgoing 2w.
    net = Network(
        [Layer([[5.0], [5.0]], [0.25, 0.25], True), Layer([[2.0, 2.0]], [0.0], False)],
        input_size=1,
    )
    state = identity_state(preprocess(net), nonneg_inputs=True)
    merged = merge_pair(state, (0, 0), (0, 1))
    assert np.array_equal(merged.network.layers[0].weights, [[5.0]])
    assert np.array_equal(merged.network.layers[0].biases, [0.25])
    assert np.array_equal(merged.network.layers[1].weights, [[4.0]])


def test_merge_preconditions(net121):
    base = preprocess(net121)
    state = identity_state(base, nonneg_inputs=True)
    with pytest.raises(ValueError, match="itself"):
        merge_pair(state, (0, 0), (0, 0))
    deep = Network(
        [
            Layer([[1.0], [2.0]], [0.0, 0.0], True),
            Layer([[1.0, 1.0], [-1.0, -1.0]], [0.0, 0.0], True),
            Layer([[1.0, -1.0]], [0.0], False),
        ],
        input_size=1,
    )
    dstate = identity_state(preprocess(deep), nonneg_inputs=True)
    with pytest.raises(ValueError, match="layers"):
        merge_pair(dstate, (0, 0), (1, 0))
    with pytest.raises(ValueError, match="category"):
        merge_pair(dstate, (1, 0), (1, 1))
    guarded = identity_state(base, nonneg_inputs=False)
    with pytest.raises(ValueError, match="non-negative"):
        merge_pair(guarded, (0, 0), (0, 1))


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


def test_random_merges_over_approximate():
    rng = np.random.default_rng(32)
    for _ in range(200):
        nonneg = bool(rng.random() < 0.5)
        net = random_network(rng)
        base = preprocess(net)
        box = random_box(rng, net.input_size, nonneg=nonneg)
        state = identity_state(base, nonneg_inputs=nonneg)
        # apply a few random legal merges
        for _ in range(4):
            options = []
            for layer, groups in enumerate(state.groups):
                if layer == 0 and not nonneg:
                    continue
                for i in range(len(groups)):
                    for j in range(i + 1, len(groups)):
                        if state.group_category(layer, i) == state.group_category(layer, j):
                            options.append(((layer, i), (layer, j)))
            if not options:
                break
            a, b = options[rng.integers(len(options))]
            state = merge_pair(state, a, b)
        _check_dominates(rng, base.network, state.network, box)
        _check_dominates(rng, net, state.network, box)


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
    state = identity_state(preprocess(net121), nonneg_inputs=True)
    with pytest.raises(CannotRefineError):
        refine_split(state, [20.0])


def test_provenance_dump_is_json_serializable(net121):
    import json

    state = abstract_to_saturation(preprocess(net121), nonneg_inputs=True)
    doc = json.loads(json.dumps(state.provenance()))
    assert doc["hidden_layers"][0][0]["members"] == [0, 1]
    assert doc["hidden_layers"][0][0]["category"] == "pos-inc"
    assert doc["nonneg_inputs"] is True


def test_refine_targets_most_distorted_neuron(net121):
    # At x0=20 the merged neuron's value is 200; the copy fed by weight 1
    # contributes 20, so it is the one pulled out first.
    state = abstract_to_saturation(preprocess(net121), nonneg_inputs=True)
    refined = refine_split(state, [20.0])
    assert refined.excess == 0  # group of two: one extraction fully splits it
