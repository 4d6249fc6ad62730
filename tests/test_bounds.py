import gc
import weakref

import numpy as np
import pytest

from reluverify import (
    InputBox,
    Layer,
    Network,
    abstract_to_saturation,
    bounds,
    evaluate,
    ibp,
    output_gap,
    preprocess,
    refine_split,
    sbt,
)

from conftest import forward_batch, random_box, random_network, sample_box


@pytest.fixture
def abstract121(net121):
    return abstract_to_saturation(preprocess(net121), nonneg_inputs=True).network


def test_ibp_running_example(net121, abstract121):
    box = InputBox([20.0], [21.0])
    bm = ibp(net121, box)
    assert bm.pre[0][0] == pytest.approx([200.0, 20.0], abs=1e-9)
    assert bm.pre[0][1] == pytest.approx([210.0, 21.0], abs=1e-9)
    assert bm.output_interval == pytest.approx((680.0, 714.0), abs=1e-9)
    assert ibp(abstract121, box).output_interval == pytest.approx((1400.0, 1470.0), abs=1e-9)


def test_point_box_bounds():
    rng = np.random.default_rng(41)
    for _ in range(30):
        net = random_network(rng)
        x = rng.uniform(-1.0, 1.0, size=net.input_size)
        box = InputBox(x, x)
        y = evaluate(net, x)[0]
        for method, bm in (("ibp", ibp(net, box)), ("sbt", sbt(net, box)[1])):
            lo, hi = bm.output_interval
            scale = max(1.0, abs(y))
            assert lo - 1e-9 * scale <= y <= hi + 1e-9 * scale, method
            assert hi - lo <= 1e-9 * scale


def test_ibp_monotone_in_box():
    rng = np.random.default_rng(42)
    for _ in range(40):
        net = random_network(rng)
        box = random_box(rng, net.input_size)
        shrink = rng.uniform(0.1, 0.5, size=net.input_size) * (box.upper - box.lower)
        inner = InputBox(box.lower + 0.5 * shrink, box.upper - 0.5 * shrink)
        lo1, hi1 = ibp(net, box).output_interval
        lo2, hi2 = ibp(net, inner).output_interval
        assert lo2 >= lo1 - 1e-12 and hi2 <= hi1 + 1e-12


def test_sbt_stable_network_is_exact(net121):
    box = InputBox([20.0], [21.0])
    modes, bm = sbt(net121, box)
    assert np.all(modes[0] == 1)  # both ReLUs stably active
    assert bm.output_interval == pytest.approx((680.0, 714.0), abs=1e-9)


def test_sbt_unstable_relu():
    net = Network([Layer([[1.0]], [0.0], True), Layer([[1.0]], [0.0], False)], 1)
    box = InputBox([-1.0], [1.0])
    modes, bm = sbt(net, box)
    assert modes[0][0] == 0
    assert bm.pre[0][0][0] == pytest.approx(-1.0, abs=0)
    assert bm.pre[0][1][0] == pytest.approx(1.0, abs=0)
    assert bm.output_interval == pytest.approx((0.0, 1.0), abs=0)


def test_sbt_contained_in_ibp_and_sound():
    rng = np.random.default_rng(43)
    for _ in range(200):
        net = random_network(rng)
        box = random_box(rng, net.input_size)
        ibp_map = ibp(net, box)
        _, sbt_map = sbt(net, box)
        assert ibp_map.contains(sbt_map, slack=1e-12)
        ys = forward_batch(net, sample_box(rng, box, 500))[:, 0]
        for bm in (ibp_map, sbt_map):
            lo, hi = bm.output_interval
            assert np.all(ys >= lo - 1e-9) and np.all(ys <= hi + 1e-9)


def test_output_gap_running_example(net121, abstract121):
    box = InputBox([20.0], [21.0])
    assert output_gap(abstract121, net121, box) == pytest.approx(686.0, abs=1e-9)


def test_output_gap_identical_networks(net121):
    box = InputBox([20.0], [21.0])
    assert output_gap(net121, net121, box) == 0.0


def test_output_gap_pointwise_guarantee():
    rng = np.random.default_rng(44)
    for _ in range(60):
        net = random_network(rng)
        abstract = abstract_to_saturation(preprocess(net), nonneg_inputs=True).network
        box = random_box(rng, net.input_size, nonneg=True)
        d = output_gap(abstract, net, box)
        assert d >= 0.0
        X = sample_box(rng, box, 1000)
        orig = forward_batch(net, X)[:, 0]
        abst = forward_batch(abstract, X)[:, 0]
        assert np.all(orig + d <= abst + 1e-9)


def _loop_concrete_lo(coef, const, box):
    return np.maximum(coef, 0.0) @ box.lower + np.minimum(coef, 0.0) @ box.upper + const


def _loop_concrete_hi(coef, const, box):
    return np.maximum(coef, 0.0) @ box.upper + np.minimum(coef, 0.0) @ box.lower + const


def _loop_pre_step(layer, post, box):
    """Reference affine step: splits ``W`` into its signed parts on every call."""
    W, b = layer.weights, layer.biases
    Wp, Wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
    Lc, Lk, Uc, Uk = post
    pLc, pLk = Wp @ Lc + Wn @ Uc, Wp @ Lk + Wn @ Uk + b
    pUc, pUk = Wp @ Uc + Wn @ Lc, Wp @ Uk + Wn @ Lk + b
    return (pLc, pLk, pUc, pUk), (_loop_concrete_lo(pLc, pLk, box), _loop_concrete_hi(pUc, pUk, box))


def _loop_relu_step(pre, interval, fixed):
    """Reference ReLU step: masked writes into copies of the pre-activation
    expressions."""
    pLc, pLk, pUc, pUk = pre
    plo, phi = interval
    mode = np.zeros(plo.shape[0], dtype=np.int8)
    mode[plo >= 0.0] = 1
    mode[phi <= 0.0] = -1
    if fixed is not None:
        mode = np.where(fixed != 0, fixed, mode).astype(np.int8)
    Lc, Lk = pLc.copy(), pLk.copy()
    Uc, Uk = pUc.copy(), pUk.copy()
    inactive = mode == -1
    Lc[inactive], Lk[inactive] = 0.0, 0.0
    Uc[inactive], Uk[inactive] = 0.0, 0.0
    relaxed = mode == 0
    Lc[relaxed], Lk[relaxed] = 0.0, 0.0
    Uc[relaxed], Uk[relaxed] = 0.0, phi[relaxed]
    return mode, (Lc, Lk, Uc, Uk)


def _loop_sbt(net, box, phases):
    """From-scratch SBT over the reference steps."""
    eye, zero = np.eye(net.input_size), np.zeros(net.input_size)
    post = (eye, zero, eye, zero)
    modes, pre_iv = [], []
    for j, layer in enumerate(net.layers):
        expr, iv = _loop_pre_step(layer, post, box)
        pre_iv.append(iv)
        if layer.relu:
            mode, post = _loop_relu_step(expr, iv, phases[j])
            modes.append(mode)
        else:
            post = expr
    return modes, pre_iv


def _sbt_bytes(modes, pre):
    arrays = [*modes, *(a for pair in pre for a in pair)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _fresh_bytes(net, box):
    """The bytes of ``net``'s bound from the input: all-zero phases give
    the arrays of a call without phases, and read no kept layer."""
    modes, bm = sbt(net, box, tuple(np.zeros(m, dtype=np.int8) for m in net.hidden_sizes))
    return _sbt_bytes(modes, bm.pre)


def test_sbt_step_matches_loop_reference_byte_for_byte():
    # sbt against the reference steps, compared with tobytes() (so even the
    # sign of a zero counts), on random networks and their split networks
    # with random forced phases, phases that contradict the interval,
    # all-inactive and all-active layers, and a child's phases, which
    # change one layer of them.
    rng = np.random.default_rng(46)
    kinds = set()
    for _ in range(60):
        base = random_network(rng, n_layers=int(rng.integers(1, 5)))
        box = random_box(rng, base.input_size)
        for net in (base, preprocess(base).network):
            free_modes, free_bm = sbt(net, box)
            for kind in ("none", "random", "contradict", "all-inactive", "all-active"):
                phases = []
                for (plo, phi), m in zip(free_bm.pre, net.hidden_sizes):
                    ph = np.where(rng.random(m) < 0.3, rng.choice([-1, 1], size=m), 0)
                    if kind == "none":
                        ph[:] = 0
                    elif kind == "contradict":
                        ph = np.where(phi < 0.0, 1, np.where(plo > 0.0, -1, ph))
                    elif kind in ("all-inactive", "all-active") and rng.random() < 0.5:
                        ph[:] = -1 if kind == "all-inactive" else 1
                    phases.append(ph.astype(np.int8))
                phases = tuple(phases)
                modes, bm = sbt(net, box, phases)
                ref = _loop_sbt(net, box, phases)
                assert _sbt_bytes(modes, bm.pre) == _sbt_bytes(*ref)
                if kind == "contradict" and any(np.any(p != 0) for p in phases):
                    kinds.add(kind)
                if any(np.all(p == -1) for p in phases):
                    kinds.add("all-inactive")
                # A child: new phases in one layer.
                k = int(rng.integers(0, len(phases)))
                ph = phases[k].copy()
                ph[rng.random(ph.size) < 0.5] = rng.choice([-1, 1])
                child = phases[:k] + (ph,) + phases[k + 1 :]
                modes, bm = sbt(net, box, child)
                assert _sbt_bytes(modes, bm.pre) == _sbt_bytes(*_loop_sbt(net, box, child))
    assert kinds == {"contradict", "all-inactive"}


def test_reference_lower_and_upper_coefficients_are_equal_at_every_layer():
    # The premise of sbt's one coefficient matrix: the reference steps,
    # which keep a lower and an upper matrix, make the two byte-equal at
    # every layer, before and after the ReLU, on random networks and their
    # split networks with no, random, contradicting, all-inactive and
    # all-active forced phases.  A relaxation that gives a relaxed row a
    # slope breaks this here first.
    rng = np.random.default_rng(52)
    kinds = set()
    for _ in range(60):
        base = random_network(rng, n_layers=int(rng.integers(1, 5)))
        box = random_box(rng, base.input_size)
        for net in (base, preprocess(base).network):
            free_bm = sbt(net, box)[1]
            for kind in ("none", "random", "contradict", "all-inactive", "all-active"):
                phases = []
                for (plo, phi), m in zip(free_bm.pre, net.hidden_sizes):
                    ph = np.where(rng.random(m) < 0.3, rng.choice([-1, 1], size=m), 0)
                    if kind == "none":
                        ph[:] = 0
                    elif kind == "contradict":
                        ph = np.where(phi < 0.0, 1, np.where(plo > 0.0, -1, ph))
                    elif kind in ("all-inactive", "all-active"):
                        ph[:] = -1 if kind == "all-inactive" else 1
                    phases.append(ph.astype(np.int8))
                eye, zero = np.eye(net.input_size), np.zeros(net.input_size)
                post = (eye, zero, eye, zero)
                for j, layer in enumerate(net.layers):
                    expr, iv = _loop_pre_step(layer, post, box)
                    assert expr[0].tobytes() == expr[2].tobytes()
                    if layer.relu:
                        mode, post = _loop_relu_step(expr, iv, phases[j])
                        assert post[0].tobytes() == post[2].tobytes()
                        kinds.update(int(m) for m in np.unique(mode))
    assert kinds == {-1, 0, 1}


def test_batched_sbt_equals_one_node_sbt_byte_for_byte():
    # Phases with a leading node axis, one (K, n_k) array per hidden layer,
    # give every node the arrays of a one-node call on its own phases,
    # compared with tobytes(), for K = 1 and K > 1, on random networks and
    # their split networks with random forced phases, phases that
    # contradict the interval, and all-inactive and all-active layers.
    # Arrays that no phase reaches (layer 0's pre-activations) have no node
    # axis and are shared by every node.
    rng = np.random.default_rng(49)
    kinds, sizes = set(), set()
    for _ in range(60):
        base = random_network(rng, n_layers=int(rng.integers(1, 5)))
        box = random_box(rng, base.input_size)
        for net in (base, preprocess(base).network):
            free_bm = sbt(net, box)[1]
            K = int(rng.choice([1, 2, 7, 64]))
            nodes = []
            for _ in range(K):
                kind = str(rng.choice(["random", "contradict", "all-inactive", "all-active"]))
                node = []
                for (plo, phi), m in zip(free_bm.pre, net.hidden_sizes):
                    ph = np.where(rng.random(m) < 0.3, rng.choice([-1, 1], size=m), 0)
                    if kind == "contradict":
                        ph = np.where(phi < 0.0, 1, np.where(plo > 0.0, -1, ph))
                    elif kind != "random" and rng.random() < 0.5:
                        ph[:] = -1 if kind == "all-inactive" else 1
                    node.append(ph.astype(np.int8))
                if kind == "contradict" and any(np.any(p != 0) for p in node):
                    kinds.add(kind)
                for fill in (-1, 1):
                    if any(np.all(p == fill) for p in node):
                        kinds.add(fill)
                nodes.append(tuple(node))
            modes, bm = sbt(net, box, tuple(np.stack(layer) for layer in zip(*nodes)))
            batched = _sbt_bytes(modes, bm.pre)
            for n, node in enumerate(nodes):
                one = sbt(net, box, node)
                arrays = [*one[0], *(a for pair in one[1].pre for a in pair)]
                assert len(arrays) == len(batched)
                for a, (dtype, shape, raw) in zip(arrays, batched):
                    assert dtype == a.dtype.str and shape in (a.shape, (K, *a.shape))
                    if shape == a.shape:
                        assert raw == a.tobytes()
                    else:
                        assert np.frombuffer(raw, a.dtype).reshape(shape)[n].tobytes() == a.tobytes()
            sizes.add(K > 1)
    assert kinds == {"contradict", -1, 1} and sizes == {False, True}


def test_layer_weight_parts_are_cached_and_read_only():
    rng = np.random.default_rng(47)
    layer = random_network(rng).layers[0]
    Wp, Wn = layer.weight_parts
    assert layer.weight_parts[0] is Wp and layer.weight_parts[1] is Wn
    assert np.array_equal(Wp, np.maximum(layer.weights, 0.0))
    assert np.array_equal(Wn, np.minimum(layer.weights, 0.0))
    for part in (Wp, Wn):
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0, 0] = 1.0


def test_root_sbt_is_kept_for_the_same_network_and_box(affine_steps):
    # A call without phases is a pure function of two immutable objects.
    # Repeating it on the same network and box objects takes no affine step
    # and equals the first run byte for byte, as does a run with all-zero
    # phases.  An equal but distinct box, or another box, is bounded afresh.
    # Each layer takes one affine step per computation.
    rng = np.random.default_rng(48)
    for _ in range(20):
        base = random_network(rng, n_layers=int(rng.integers(1, 4)))
        box = random_box(rng, base.input_size)
        for net in (base, preprocess(base).network):
            n = len(net.layers)
            affine_steps.clear()
            modes, bm = sbt(net, box)
            expected = _sbt_bytes(modes, bm.pre)
            assert len(affine_steps) == n
            modes, bm = sbt(net, box)
            assert _sbt_bytes(modes, bm.pre) == expected and len(affine_steps) == n
            assert _fresh_bytes(net, box) == expected
            modes, bm = sbt(net, InputBox(box.lower, box.upper))
            assert _sbt_bytes(modes, bm.pre) == expected
            assert len(affine_steps) == 3 * n
            sbt(net, random_box(rng, net.input_size))
            assert len(affine_steps) == 4 * n
    # The kept layers do not keep their network alive.
    net = random_network(rng)
    sbt(net, random_box(rng, net.input_size))
    alive = [weakref.ref(obj) for obj in (net, *net.layers)]
    del net
    affine_steps.clear()  # it holds the layers it recorded
    gc.collect()
    assert all(ref() is None for ref in alive)


def test_lower_corner_minimises_the_output_lower_expression(affine_steps):
    # On seeded networks with up to 8 inputs, and their split networks, the
    # corner minimises the reference steps' output lower expression over
    # every corner of the box, so the network's output there is at least
    # SBT's output lower bound.  Read right after a phase-free ``sbt`` call,
    # it takes no affine step.
    rng = np.random.default_rng(54)
    for _ in range(40):
        base = random_network(rng, n_inputs=int(rng.integers(1, 9)), n_layers=int(rng.integers(1, 4)))
        box = random_box(rng, base.input_size)
        bits = np.array(np.meshgrid(*[[0, 1]] * box.dim, indexing="ij")).reshape(box.dim, -1).T
        corners = np.where(bits == 1, box.upper, box.lower)
        for net in (base, preprocess(base).network):
            lo = sbt(net, box)[1].output_interval[0]
            affine_steps.clear()
            low = bounds.lower_corner(net, box)
            assert affine_steps == []
            assert any(np.array_equal(low, corner) for corner in corners)
            assert evaluate(net, low)[0] >= lo
            eye, zero = np.eye(net.input_size), np.zeros(net.input_size)
            post = (eye, zero, eye, zero)
            for layer in net.layers:
                expr, iv = _loop_pre_step(layer, post, box)
                post = _loop_relu_step(expr, iv, None)[1] if layer.relu else expr
            lower = corners @ post[0][0] + post[1][0]
            assert low @ post[0][0] + post[1][0] <= lower.min() + 1e-12 * max(1.0, np.abs(lower).max())


def test_split_network_bound_reuses_the_layers_below_the_split(affine_steps):
    # Along seeded refine_split chains, each network's bound, taken right
    # after the bound of the network it was split from at layer L, reuses
    # that network's kept layers 0..L-1: it takes one affine step per layer
    # from L on, and equals a bound from the input byte for byte.
    rng = np.random.default_rng(51)
    seen = set()
    for trial in range(30):
        net = random_network(rng, n_layers=int(rng.integers(1, 5)), max_width=8)
        nonneg = trial % 4 != 3
        box = random_box(rng, net.input_size, nonneg=nonneg)
        state = abstract_to_saturation(preprocess(net), nonneg_inputs=nonneg)
        last = len(net.layers) - 2
        sbt(state.network, box)
        while state.excess > 0:
            state = refine_split(state, rng.uniform(box.lower, box.upper))
            L = state.split[0]
            affine_steps.clear()
            modes, bm = sbt(state.network, box)
            assert affine_steps == list(state.network.layers[L:]), trial
            assert _sbt_bytes(modes, bm.pre) == _fresh_bytes(state.network, box), trial
            seen.add("first" if L == 0 else "last" if L == last else "inner")
    assert seen == {"first", "inner", "last"}


def test_a_shared_layer_behind_another_layer_0_is_bounded_afresh(affine_steps):
    # Two networks share their later Layer objects behind different layer-0
    # objects.  A kept layer is reused only right after the kept result of
    # the layer before it, so each network recomputes the shared layers
    # after the other has been bounded, and every bound equals one from the
    # input byte for byte.
    rng = np.random.default_rng(52)
    for _ in range(20):
        net = random_network(rng, n_layers=int(rng.integers(1, 4)))
        box = random_box(rng, net.input_size)
        first = net.layers[0]
        other = Layer(first.weights + rng.uniform(-0.5, 0.5, first.weights.shape), first.biases, relu=True)
        twin = Network([other, *net.layers[1:]], net.input_size)
        sbt(net, box)
        for bounded, steps in ((twin, twin.layers), (net, net.layers[1:])):
            affine_steps.clear()
            modes, bm = sbt(bounded, box)
            assert affine_steps == list(steps)
            assert _sbt_bytes(modes, bm.pre) == _fresh_bytes(bounded, box)


def test_calls_with_phases_leave_the_kept_layers_unchanged(affine_steps):
    # One-node and batched calls neither read nor write ``bounds._KEPT``:
    # they take one affine step per layer even when every layer is kept for
    # their box, and they add or replace no entry, also for a network that
    # has none.
    rng = np.random.default_rng(53)
    for _ in range(20):
        net = random_network(rng, n_layers=int(rng.integers(1, 4)))
        split = preprocess(net).network
        box = random_box(rng, net.input_size)
        sbt(net, box)
        kept = list(bounds._KEPT.items())
        for bounded in (net, split):
            for shape in ((), (1,), (7,)):
                phases = tuple(
                    rng.integers(-1, 2, size=(*shape, m)).astype(np.int8) for m in bounded.hidden_sizes
                )
                affine_steps.clear()
                sbt(bounded, box, phases)
                assert affine_steps == list(bounded.layers)
        assert {id(layer) for layer in bounds._KEPT.keys()} <= {id(layer) for layer, _ in kept}
        assert all(bounds._KEPT[layer] is entry for layer, entry in kept)
