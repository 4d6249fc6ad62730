import numpy as np
import pytest

from reluverify import Layer, Network, evaluate, generate_benchmarks, load_network, preprocess
from reluverify.categorize import CATEGORY_NAMES, CategorizedNetwork

from conftest import forward_batch, random_network, sample_box, random_box


def check_category_invariants(cat: CategorizedNetwork) -> None:
    """Raise AssertionError unless every edge respects its source's category.

    Exact sign checks: pos sources have only >= 0 outgoing weights, neg only
    <= 0; inc sources feed inc targets non-negatively and dec targets
    non-positively (dually for dec).
    """
    net = cat.network
    for k in range(len(net.layers) - 1):
        W = net.layers[k + 1].weights  # rows: layer k+1 targets
        codes = cat.categories[k]
        if k + 1 < len(net.layers) - 1:
            target_dec = cat.categories[k + 1] & 1
        else:
            target_dec = np.zeros(W.shape[0], dtype=np.int8)
        same = target_dec[:, None] == (codes & 1)
        wrong_sign = np.where(codes & 2, W > 0.0, W < 0.0)
        wrong_direction = np.where(W > 0.0, ~same, (W < 0.0) & same)
        for rule, wrong in (("sign", wrong_sign), ("direction", wrong_direction)):
            t, j = np.unravel_index(np.argmax(wrong), W.shape)
            assert not wrong[t, j], (
                f"neuron ({k},{j}) {CATEGORY_NAMES[codes[j]]}: edge {W[t, j]} to target {t} has the wrong {rule}"
            )


def _names(cat) -> list[list[str]]:
    return [[CATEGORY_NAMES[c] for c in codes] for codes in cat.categories]


def test_running_example_single_category(net121):
    cat = preprocess(net121)
    assert _names(cat) == [["pos-inc", "pos-inc"]]
    # Single category per neuron: no duplication, the network is unchanged.
    assert np.array_equal(cat.network.layers[0].weights, net121.layers[0].weights)
    assert np.array_equal(cat.network.layers[1].weights, net121.layers[1].weights)


def test_negative_output_weight_is_neg_dec():
    net = Network(
        [Layer([[2.0]], [0.0], True), Layer([[-5.0]], [0.0], False)], input_size=1
    )
    cat = preprocess(net)
    assert _names(cat) == [["neg-dec"]]
    for x in (-1.0, 0.0, 1.0):
        assert evaluate(cat.network, [x]) == pytest.approx(evaluate(net, [x]), abs=0)


def test_mixed_signs_split_and_stay_equivalent():
    # One hidden neuron with both a positive and a negative outgoing edge
    # must split into a pos-inc copy and a neg-dec copy.
    net = Network(
        [
            Layer([[1.0]], [0.0], True),
            Layer([[2.0], [-3.0]], [0.0, 0.0], True),
            Layer([[1.0, 1.0]], [0.0], False),
        ],
        input_size=1,
    )
    cat = preprocess(net)
    assert len(cat.categories[0]) == 2
    assert set(_names(cat)[0]) == {"pos-inc", "neg-dec"}
    check_category_invariants(cat)
    for x in np.linspace(-2, 2, 9):
        assert evaluate(cat.network, [x]) == pytest.approx(evaluate(net, [x]), abs=1e-12)


def test_multi_output_rejected():
    net = Network(
        [Layer([[1.0], [1.0]], [0.0, 0.0], True), Layer(np.eye(2), [0.0, 0.0], False)],
        input_size=1,
    )
    with pytest.raises(ValueError):
        preprocess(net)


def test_random_nets_equivalence():
    # 200 random nets, 100 samples each: outputs must agree to 1e-9.
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        net = random_network(rng, n_layers=int(rng.integers(1, 4)))
        cat = preprocess(net)
        box = random_box(rng, net.input_size)
        X = sample_box(rng, box, 100)
        diff = np.abs(forward_batch(cat.network, X) - forward_batch(net, X)).max()
        worst = max(worst, float(diff))
    assert worst <= 1e-9


def test_random_nets_invariants_and_size_bound():
    rng = np.random.default_rng(202)
    for _ in range(60):
        net = random_network(rng)
        cat = preprocess(net)
        check_category_invariants(cat)
        for k, layer in enumerate(cat.network.layers[:-1]):
            assert layer.size <= 4 * net.layers[k].size
            assert len(cat.categories[k]) == layer.size


def test_zero_outgoing_layer_survives():
    net = Network(
        [Layer([[1.0], [2.0]], [0.3, 0.4], True), Layer([[0.0, 0.0]], [0.7], False)],
        input_size=1,
    )
    cat = preprocess(net)
    assert cat.network.hidden_sizes == [1]
    assert evaluate(cat.network, [1.0]) == pytest.approx([0.7], abs=0)


# The per-edge splitting that ``preprocess`` replaced, kept as its reference.
# Categories are sign-direction names, bucketed one edge at a time and
# emitted in this order; a neuron's zero edges join no bucket.
_LOOP_ORDER = ("pos-inc", "pos-dec", "neg-inc", "neg-dec")


def _loop_edge_category(weight: float, target_dir: str) -> str:
    if weight > 0:
        return f"pos-{target_dir}"
    return "neg-" + ("dec" if target_dir == "inc" else "inc")


def _loop_preprocess(net: Network):
    """The split network and its per-layer category names."""
    n = len(net.layers)
    new_weights = [layer.weights for layer in net.layers]
    new_biases = [layer.biases for layer in net.layers]
    target_dirs = ["inc"]
    categories = [()] * (n - 1)
    for k in range(n - 2, -1, -1):
        out_W = new_weights[k + 1]
        cols, cats, origin = [], [], []
        for j in range(out_W.shape[1]):
            col = out_W[:, j]
            buckets: dict[str, list[int]] = {}
            for t in np.flatnonzero(col):
                buckets.setdefault(_loop_edge_category(col[t], target_dirs[t]), []).append(t)
            for name in _LOOP_ORDER:
                if name in buckets:
                    new_col = np.zeros(out_W.shape[0])
                    new_col[buckets[name]] = col[buckets[name]]
                    cols.append(new_col)
                    cats.append(name)
                    origin.append(j)
        if not cols:
            cols, cats, origin = [np.zeros(out_W.shape[0])], ["pos-inc"], [0]
        new_weights[k + 1] = np.column_stack(cols)
        new_weights[k] = net.layers[k].weights[origin, :]
        new_biases[k] = net.layers[k].biases[origin]
        categories[k] = tuple(cats)
        target_dirs = [name.split("-")[1] for name in cats]
    layers = [Layer(new_weights[k], new_biases[k], relu=k < n - 1) for k in range(n)]
    return Network(layers, net.input_size, domain=net.domain), categories


def _with_zeros(rng, net: Network) -> Network:
    """``net`` with zero and -0.0 weights, dead neurons (all-zero outgoing
    columns) and, now and then, an all-zero layer."""
    layers = []
    for layer in net.layers:
        W = layer.weights.copy()
        W[rng.random(W.shape) < 0.25] = 0.0
        W[rng.random(W.shape) < 0.1] = -0.0
        if rng.random() < 0.3:
            W[:, rng.integers(W.shape[1])] = 0.0
        if rng.random() < 0.1:
            W[:] = rng.choice([0.0, -0.0])
        layers.append(Layer(W, layer.biases, layer.relu))
    return Network(layers, net.input_size)


def test_preprocess_matches_loop_reference_byte_for_byte(tmp_path):
    rng = np.random.default_rng(303)
    nets = [_with_zeros(rng, random_network(rng, max_width=int(rng.choice([3, 8])))) for _ in range(300)]
    manifest = generate_benchmarks(424242, 30, tmp_path, kind="robust")
    nets += [load_network(tmp_path / entry["net"]) for entry in manifest["queries"]]
    assert CATEGORY_NAMES == _LOOP_ORDER
    seen = set()
    for i, net in enumerate(nets):
        cat = preprocess(net)
        ref_net, ref_cats = _loop_preprocess(net)
        for layer, ref in zip(cat.network.layers, ref_net.layers, strict=True):
            assert layer.weights.shape == ref.weights.shape, i
            assert layer.weights.tobytes() == ref.weights.tobytes(), i
            assert layer.biases.tobytes() == ref.biases.tobytes(), i
        for codes, names in zip(cat.categories, ref_cats, strict=True):
            assert codes.dtype == np.int8 and not codes.flags.writeable, i
            assert codes.tolist() == [_LOOP_ORDER.index(name) for name in names], i
            seen.update(names)
    assert seen == set(_LOOP_ORDER)
