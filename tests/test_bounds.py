import gc
import weakref

import numpy as np
import pytest

from reluverify import (
    InputBox,
    Layer,
    Network,
    abstract_to_saturation,
    evaluate,
    ibp,
    output_gap,
    preprocess,
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
    assert bm.post[0][0][0] == pytest.approx(0.0, abs=0)
    assert bm.post[0][1][0] == pytest.approx(1.0, abs=0)
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


def test_sbt_resumed_at_branch_layer_equals_from_scratch():
    # A solver child changes only the phases of its branch layer k; resuming
    # from the parent's result must give exactly the arrays of a fresh run.
    # Each network takes a chain of branches (first, inner and last hidden
    # layer, in random order), each resuming from the previous result.
    rng = np.random.default_rng(45)
    seen = set()
    for _ in range(40):
        base = random_network(rng, n_layers=int(rng.integers(1, 5)))
        box = random_box(rng, base.input_size)
        for net in (base, preprocess(base).network):
            n_hidden = len(net.hidden_sizes)
            phases = tuple(
                np.where(rng.random(m) < 0.3, rng.choice([-1, 1], size=m), 0).astype(np.int8)
                for m in net.hidden_sizes
            )
            result = sbt(net, box, phases)
            for k in map(int, rng.permutation(sorted({0, int(rng.integers(0, n_hidden)), n_hidden - 1}))):
                ph = phases[k].copy()
                ph[rng.random(ph.size) < 0.5] = rng.choice([-1, 1])
                phases = phases[:k] + (ph,) + phases[k + 1 :]
                resumed = sbt(net, box, phases, (k, *result))
                modes, bm = sbt(net, box, phases)
                assert len(resumed[0]) == len(modes)
                assert all(np.array_equal(a, b) for a, b in zip(resumed[0], modes))
                assert len(resumed[1].pre + resumed[1].post) == len(bm.pre + bm.post)
                for a, b in zip(resumed[1].pre + resumed[1].post, bm.pre + bm.post):
                    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                if k == 0:
                    seen.add("first")
                if k == n_hidden - 1:
                    seen.add("last")
                if 0 < k < n_hidden - 1:
                    seen.add("inner")
                result = resumed
    assert seen == {"first", "inner", "last"}


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


def _loop_relu_step(pre, interval, fixed, box):
    """Reference ReLU step: masked writes into copies of the pre-activation
    expressions, then a second pair of concretisations."""
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
    qlo, qhi = _loop_concrete_lo(Lc, Lk, box), _loop_concrete_hi(Uc, Uk, box)
    return mode, (Lc, Lk, Uc, Uk), (np.maximum(qlo, 0.0), np.maximum(qhi, 0.0))


def _loop_sbt(net, box, phases):
    """From-scratch SBT over the reference steps."""
    eye, zero = np.eye(net.input_size), np.zeros(net.input_size)
    post = (eye, zero, eye, zero)
    modes, pre_expr, pre_iv, post_iv = [], [], [], []
    for j, layer in enumerate(net.layers):
        expr, iv = _loop_pre_step(layer, post, box)
        pre_expr.append(expr)
        pre_iv.append(iv)
        if layer.relu:
            mode, post, iv = _loop_relu_step(expr, iv, phases[j], box)
            modes.append(mode)
        else:
            post = expr
        post_iv.append(iv)
    return modes, pre_iv, post_iv, pre_expr


def _sbt_bytes(modes, pre, post, pre_expr):
    arrays = [*modes, *(a for pair in pre + post for a in pair), *(a for e in pre_expr for a in e)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def test_sbt_step_matches_loop_reference_byte_for_byte():
    # sbt against the reference steps, compared with tobytes() (so even the
    # sign of a zero counts), on random networks and their split networks
    # with random forced phases, phases that contradict the interval,
    # all-inactive and all-active layers, and calls resumed at a branch layer.
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
                assert _sbt_bytes(modes, bm.pre, bm.post, bm.pre_expr) == _sbt_bytes(*ref)
                if kind == "contradict" and any(np.any(p != 0) for p in phases):
                    kinds.add(kind)
                if any(np.all(p == -1) for p in phases):
                    kinds.add("all-inactive")
                # A child: new phases in one layer, resumed from this result.
                k = int(rng.integers(0, len(phases)))
                ph = phases[k].copy()
                ph[rng.random(ph.size) < 0.5] = rng.choice([-1, 1])
                child = phases[:k] + (ph,) + phases[k + 1 :]
                modes, bm = sbt(net, box, child, (k, modes, bm))
                assert _sbt_bytes(modes, bm.pre, bm.post, bm.pre_expr) == _sbt_bytes(*_loop_sbt(net, box, child))
    assert kinds == {"contradict", "all-inactive"}


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
            batched = _sbt_bytes(modes, bm.pre, bm.post, bm.pre_expr)
            for n, node in enumerate(nodes):
                one = sbt(net, box, node)
                arrays = [*one[0], *(a for pair in one[1].pre + one[1].post for a in pair)]
                arrays += [a for e in one[1].pre_expr for a in e]
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
    # A root call (no phases, no resume) is a pure function of two immutable
    # objects.  Repeating it on the same network and box objects returns the
    # kept result, which equals a fresh run byte for byte, as does a run
    # with all-zero phases.  An equal but distinct box, or another box, is
    # bounded afresh.  Each layer takes one affine step per computation.
    rng = np.random.default_rng(48)
    for _ in range(20):
        base = random_network(rng, n_layers=int(rng.integers(1, 4)))
        box = random_box(rng, base.input_size)
        for net in (base, preprocess(base).network):
            n = len(net.layers)
            affine_steps.clear()
            kept = sbt(net, box)
            assert len(affine_steps) == n
            assert sbt(net, box) is kept and len(affine_steps) == n
            expected = _sbt_bytes(kept[0], kept[1].pre, kept[1].post, kept[1].pre_expr)
            zero = tuple(np.zeros(m, dtype=np.int8) for m in net.hidden_sizes)
            for modes, bm in (sbt(net, box, zero), sbt(net, InputBox(box.lower, box.upper))):
                assert _sbt_bytes(modes, bm.pre, bm.post, bm.pre_expr) == expected
            assert len(affine_steps) == 3 * n
            sbt(net, random_box(rng, net.input_size))
            assert len(affine_steps) == 4 * n
    # The kept result does not keep its network alive.
    net = random_network(rng)
    sbt(net, random_box(rng, net.input_size))
    alive = weakref.ref(net)
    del net
    gc.collect()
    assert alive() is None
