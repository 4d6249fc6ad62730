from types import SimpleNamespace

import numpy as np
import pytest

from reluverify import (
    InputBox,
    Layer,
    Network,
    OutputProperty,
    Query,
    Status,
    abstract_to_saturation,
    evaluate,
    exhaustive_verdict,
    generate_benchmarks,
    load_network,
    load_query,
    preprocess,
    solve,
)
from reluverify import solver
from reluverify.bounds import BoundsMap
from reluverify.harness import _gen_oracle_query
from reluverify.simplex import SimplexError, feasible_point
from reluverify.solver import (
    EPSILON,
    RETRY_TOLERANCES,
    SolverError,
    _leaf_rows,
    _solve_leaf,
    _widest_unknown,
    first_feasible_completion,
)

from conftest import (
    forward_batch,
    oracle_queries_and_split_twins,
    oracle_verdict,
    random_network,
    random_oracle_network,
    random_query,
)


def test_running_example_unsat(query121):
    v = solve(query121)
    assert v.status is Status.UNSAT
    assert v.witness is None
    assert v.nodes >= 1


def test_abstract_running_example_sat(net121):
    abstract = abstract_to_saturation(preprocess(net121), nonneg_inputs=True).network
    q = Query(abstract, InputBox([20.0], [21.0]), OutputProperty(800.0))
    v = solve(q)
    assert v.status is Status.SAT
    assert q.input.contains(v.witness)
    assert evaluate(abstract, v.witness)[0] > 800.0


def test_epsilon_granularity():
    # y = ReLU(x) on [0, 1]: the maximum is exactly 1.
    net = Network([Layer([[1.0]], [0.0], True), Layer([[1.0]], [0.0], False)], 1)
    box = InputBox([0.0], [1.0])
    assert solve(Query(net, box, OutputProperty(1.0))).status is Status.UNSAT
    v = solve(Query(net, box, OutputProperty(1.0 - 1e-4)))
    assert v.status is Status.SAT
    assert evaluate(net, v.witness)[0] > 1.0 - 1e-4 - 1e-9


def test_timeout_returns_timeout(query121):
    assert solve(query121, timeout=0.0).status is Status.TIMEOUT


def test_affine_only_network():
    # No hidden layers: the root is immediately a leaf.
    net = Network([Layer([[2.0]], [-1.0], False)], 1)
    box = InputBox([0.0], [1.0])
    v = solve(Query(net, box, OutputProperty(0.5)))
    assert v.status is Status.SAT and evaluate(net, v.witness)[0] > 0.5 - 1e-9
    assert solve(Query(net, box, OutputProperty(1.0))).status is Status.UNSAT


def test_agreement_with_exhaustive_oracle():
    rng = np.random.default_rng(71)
    n_sat = n_unsat = 0
    for _ in range(120):
        q = random_query(rng, net=random_oracle_network(rng))
        truth = oracle_verdict(q)
        # The split network computes the same function with twin neurons.
        twins = Query(preprocess(q.network).network, q.input, q.output)
        for query in (q, twins):
            v = solve(query)
            assert v.status.value == truth
            if v.status is Status.SAT:
                assert q.input.contains(v.witness)
                assert evaluate(q.network, v.witness)[0] > q.output.threshold - 1e-9
        if truth == "SAT":
            n_sat += 1
        else:
            n_unsat += 1
    assert n_sat > 10 and n_unsat > 10  # the suite genuinely mixes verdicts


def _solve_checking_prunes(query, monkeypatch, completions=True):
    """``solve(query)``, with its prunes checked against the reference.

    Every ``solver.sbt`` call ``solve`` makes is recorded, and each node's
    closed flag is recomputed by the rule the ``solver`` docstring states:
    the output upper bound is at most ``c``, or a fixed phase conflicts with
    its pre-activation interval (the root by its bound alone).  With
    ``completions``, ``first_feasible_completion`` must find no witness in a
    closed node.  On UNSAT, where the search visits every node it opens, the
    nodes ``solve`` closed must be exactly these: the ones no later node
    extends and that were not given to a leaf LP's row build (a batch's or
    the root leaf's, whether the presolve refutes the leaf or not).  That
    check needs no LP.
    """
    net, box, c = query.network, query.input, query.output.threshold
    bounded, leaves = [], []
    real_sbt, real_rows = solver.sbt, solver._leaf_rows

    def recording_sbt(net, box, phases=None):
        relu_modes, bm = real_sbt(net, box, phases)
        if phases is None:
            root = [np.zeros((1, size), dtype=np.int8) for size in net.hidden_sizes]
            bounded.append((root, np.array([bm.output_interval[1] <= c])))
        else:
            closed = bm.pre[-1][1][:, 0] <= c
            for ph, (plo, phi) in zip(phases, bm.pre):
                closed |= np.any(((ph == 1) & (phi < 0)) | ((ph == -1) & (plo > 0)), axis=1)
            bounded.append((phases, closed))
        return relu_modes, bm

    def recording_rows(net, modes, phases, target):
        leaves.extend(np.atleast_2d(np.concatenate(phases, axis=-1)))
        return real_rows(net, modes, phases, target)

    with monkeypatch.context() as m:
        m.setattr(solver, "sbt", recording_sbt)
        m.setattr(solver, "_leaf_rows", recording_rows)
        v = solve(query)
    nodes = np.vstack([np.hstack(phases) for phases, _ in bounded])
    closed = np.concatenate([closed for _, closed in bounded])
    for i in np.flatnonzero(closed) if completions else ():
        node = tuple(np.split(nodes[i], np.cumsum(net.hidden_sizes)[:-1]))
        x = first_feasible_completion(net, box, node, c)
        assert x is None, f"pruned node contains a feasible leaf (witness {x})"
    if v.status is Status.UNSAT:
        for i, node in enumerate(nodes):
            later = nodes[i + 1 :]
            extended = np.any(np.all((node == 0) | (later == node), axis=1) & np.any(later != node, axis=1))
            solved = any(np.array_equal(node, leaf) for leaf in leaves)
            assert closed[i] == (not extended and not solved), f"node {node} closed {closed[i]}"
    return v


def test_pruned_branches_contain_no_sat_leaf(monkeypatch):
    # With the root falsifier off, the search also runs on SAT queries the
    # corner misses, so nodes close on the way to a witness too.
    rng = np.random.default_rng(72)
    queries = []
    for _ in range(30):
        net = random_network(rng, n_layers=2, max_width=3)
        q = random_query(rng, net=net)
        queries.append((q, oracle_verdict(q)))
        queries.append((Query(preprocess(net).network, q.input, q.output), queries[-1][1]))
    for query, truth in queries:
        assert _solve_checking_prunes(query, monkeypatch).status.value == truth
    monkeypatch.setattr(solver, "_falsify", lambda net, box, c: None)
    for query, truth in queries:
        assert _solve_checking_prunes(query, monkeypatch).status.value == truth


def test_unsat_searches_close_exactly_the_documented_nodes(monkeypatch):
    # The closed-set check alone, with no LP per closed node, is cheap
    # enough for many searches: 120 seeded oracle queries with the falsifier
    # off.  It catches a prune that closes a node the rule keeps open, as a
    # phase-conflict test loosened to ``phi < 0.05`` does.
    rng = np.random.default_rng(5)
    monkeypatch.setattr(solver, "_falsify", lambda net, box, c: None)
    searches = 0
    for _ in range(120):
        q, truth = _gen_oracle_query(rng)
        v = _solve_checking_prunes(q, monkeypatch, completions=False)
        assert v.status.value == truth
        searches += v.status is Status.UNSAT and v.nodes > 1
    assert searches >= 10


def test_twin_branch_at_zero_pre_activation(monkeypatch):
    # Two twin copies of ReLU(x) and one ReLU(-x): y = x for x <= 0 and
    # y = -2x for x >= 0, so the maximum 0 lies exactly where the twins'
    # pre-activation is 0, the one point where their mixed phase is
    # non-empty.  The twins are unstable on the box, so solve branches on
    # them.  SAT means some x reaches c + EPSILON, so the verdict flips as
    # c crosses -EPSILON.
    net = Network(
        [Layer([[1.0], [1.0], [-1.0]], [0.0, 0.0, 0.0], True), Layer([[-1.0, -1.0, -1.0]], [0.0], False)],
        1,
    )
    box = InputBox([-1.0], [1.0])
    for c, truth in ((-2 * EPSILON, "SAT"), (-EPSILON / 2, "UNSAT"), (EPSILON, "UNSAT")):
        q = Query(net, box, OutputProperty(c))
        assert exhaustive_verdict(q) == truth
        v = _solve_checking_prunes(q, monkeypatch)
        assert v.status.value == truth, c
        if v.status is Status.SAT:
            assert evaluate(net, v.witness)[0] > c - 1e-9


def test_split_network_search_stays_close_to_original(tmp_path):
    # preprocess copies neurons into twins with equal incoming rows.  A
    # branch fixes a whole twin class, so the split network's search stays
    # within a small factor of the original's; branching on twins one at a
    # time walks empty mixed-phase regions down to the leaf LP.
    manifest = generate_benchmarks(42, 60, tmp_path, kind="oracle")
    for entry in manifest["queries"]:
        net = load_network(tmp_path / entry["net"])
        q = load_query(tmp_path / entry["query"], net)
        split = Query(preprocess(net).network, q.input, q.output)
        v, w = solve(q, timeout=8.0), solve(split, timeout=8.0)
        assert v.status is not Status.TIMEOUT and w.status is not Status.TIMEOUT, entry["id"]
        assert v.status is w.status, entry["id"]
        assert w.nodes <= 3 * v.nodes, (entry["id"], v.nodes, w.nodes)


def test_deterministic_verdicts_and_witnesses():
    # Witnesses found by the root falsifier are deterministic too: its
    # samples come from a fixed seed.
    rng = np.random.default_rng(73)
    sampled = 0
    for _ in range(20):
        q = random_query(rng)
        v1, v2 = solve(q), solve(q)
        assert v1.status is v2.status and v1.sampled == v2.sampled
        if v1.witness is not None:
            assert np.array_equal(v1.witness, v2.witness)
        sampled += v1.sampled
    assert sampled > 0


def test_falsifier_follows_the_granularity_band(net121):
    # The maximum on [20, 21] is 714, at x = 21.  Like the search, the
    # falsifier only accepts a point that reaches c + EPSILON, so inside the
    # band (c, c + EPSILON) it finds nothing and direct answers UNSAT.
    box = InputBox([20.0], [21.0])
    c = 714.0 - 5e-7
    assert solver._falsify(net121, box, c) is None
    assert solve(Query(net121, box, OutputProperty(c))).status is Status.UNSAT
    c = 714.0 - 2e-6
    x = solver._falsify(net121, box, c)
    assert x is not None and box.contains(x, slack=0.0)
    assert evaluate(net121, x)[0] >= c + EPSILON


def test_falsifier_off_gives_the_same_verdicts(tmp_path, monkeypatch):
    # On the oracle-small queries and their split networks, the root
    # falsifier changes how SAT is found, never the verdict, and every
    # sampled witness is a box point that reaches c + EPSILON.
    queries = oracle_queries_and_split_twins(tmp_path)
    runs = [solve(q, timeout=60.0) for q in queries]
    monkeypatch.setattr(solver, "_falsify", lambda net, box, c: None)
    sampled = 0
    for q, v in zip(queries, runs):
        w = solve(q, timeout=60.0)
        assert v.status is w.status and v.status is not Status.TIMEOUT
        assert not w.sampled
        if v.sampled:
            sampled += 1
            assert v.status is Status.SAT and q.input.contains(v.witness, slack=0.0)
            assert evaluate(q.network, v.witness)[0] >= q.output.threshold + EPSILON
    assert sampled > 10


def _loop_leaf_rows(net, modes, phases, target):
    """Per-neuron reference for ``_leaf_rows``: same arithmetic, one row at a
    time, a row only for a neuron with a nonzero entry in ``phases``."""
    C, d = np.eye(net.input_size), np.zeros(net.input_size)
    rows, rhs = [], []
    for layer, mode, fixed in zip(net.layers[:-1], modes, phases):
        pC, pd = layer.weights @ C, layer.weights @ d + layer.biases
        for i in range(layer.size):
            if fixed[i] == 0:
                continue
            sign = -1.0 if mode[i] == 1 else 1.0
            rows.append(sign * pC[i])
            rhs.append(-sign * pd[i])
        act = (mode == 1).astype(np.float64)
        C, d = pC * act[:, None], pd * act
    last = net.layers[-1]
    rows.append(-(last.weights @ C)[0])
    rhs.append((last.weights @ d + last.biases)[0] - target)
    return np.array(rows), np.array(rhs)


def test_leaf_rows_match_loop_reference_and_hold_in_their_region():
    # Rows built for x's own phase pattern with target y(x) equal the
    # per-neuron reference bit for bit, hold at x, and are tight on the
    # output, both with a row for every neuron (phases = modes) and with
    # rows for a random subset of branch-fixed neurons only.
    rng = np.random.default_rng(74)
    for _ in range(50):
        net = random_network(rng, n_layers=int(rng.integers(0, 4)))
        x = rng.uniform(-1.0, 1.0, size=net.input_size)
        modes, v = [], x
        for layer in net.layers[:-1]:
            pre = layer.weights @ v + layer.biases
            modes.append(np.where(pre >= 0.0, 1, -1).astype(np.int8))
            v = np.maximum(pre, 0.0)
        y = evaluate(net, x)[0]
        fixed = [np.where(rng.random(m.size) < 0.5, m, 0).astype(np.int8) for m in modes]
        for phases in (modes, fixed):
            A, b = _leaf_rows(net, modes, phases, y)
            A_ref, b_ref = _loop_leaf_rows(net, modes, phases, y)
            assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)
            assert A.shape[0] == 1 + sum(int(np.count_nonzero(p)) for p in phases)
            assert np.all(A @ x <= b + 1e-9)
            assert A[-1] @ x - b[-1] == pytest.approx(0.0, abs=1e-9)


def test_batched_leaf_rows_equal_one_node_calls():
    # Every node of a batch gets a row per neuron and the output.  Dropping
    # the rows of the neurons it does not branch-fix leaves, byte for byte,
    # the rows of a one-node call, and each dropped row is a zero row with
    # right-hand side 0.  A network with no hidden layer has no phase array
    # to carry a node axis: its call gives the one node's rows.
    rng = np.random.default_rng(78)
    for trial in range(80):
        net = random_network(rng, n_layers=trial % 4, max_width=8)
        K = int(rng.integers(1, 9))
        modes = [rng.choice([-1, 1], size=(K, size)).astype(np.int8) for size in net.hidden_sizes]
        phases = [np.where(rng.random(m.shape) < 0.5, m, 0).astype(np.int8) for m in modes]
        target = float(rng.uniform(-1.0, 1.0))
        A, b = _leaf_rows(net, modes, phases, target)
        for n in range(K):
            one_A, one_b = _leaf_rows(net, [m[n] for m in modes], [p[n] for p in phases], target)
            if not net.hidden_sizes:
                assert A.tobytes() == one_A.tobytes() and b.tobytes() == one_b.tobytes()
                continue
            assert A.shape == (K, sum(net.hidden_sizes) + 1, net.input_size) and b.shape == A.shape[:2]
            keep = np.concatenate([*(p[n] for p in phases), [1]]) != 0
            assert A[n][keep].shape == one_A.shape
            assert A[n][keep].tobytes() == one_A.tobytes() and b[n][keep].tobytes() == one_b.tobytes()
            assert not A[n][~keep].any() and not b[n][~keep].any()


def test_a_dropped_row_with_a_negative_right_hand_side_refutes_nothing():
    # h0 = relu(x - 1) and h1 = relu(x) are both active on [2, 3], and
    # y = h0 + h1 reaches 4.5 at x = 2.75.  A leaf that branch-fixes only h1
    # has no row for h0, whose own row -x <= -1 has a negative right-hand
    # side; in a batch that row is a zero row with right-hand side 0, so the
    # batch's presolve keeps the leaf, and so does its LP.
    net = Network([Layer([[1.0], [1.0]], [-1.0, 0.0], True), Layer([[1.0, 1.0]], [0.0], False)], 1)
    box = InputBox([2.0], [3.0])
    modes = (np.array([[1, 1], [1, 1]], dtype=np.int8),)
    phases = (np.array([[0, 1], [1, 1]], dtype=np.int8),)
    node_modes, node_phases = (modes[0][0],), (phases[0][0],)
    _, b_all = _leaf_rows(net, node_modes, node_modes, 4.5)
    assert b_all[0] < 0.0
    A, b = _leaf_rows(net, modes, phases, 4.5)
    assert b[0, 0] == 0.0 and not A[0, 0].any()
    refuted = solver._propagation_refutes(A, b, box.lower, box.upper, 1e-8)
    assert refuted.tolist() == [False, False]
    x = _solve_leaf(net, box, node_modes, node_phases, 4.5 - EPSILON)
    assert x is not None and evaluate(net, x)[0] >= 4.5 - 1e-9


def test_leaf_lp_over_branch_fixed_rows_agrees_with_all_rows(tmp_path, monkeypatch):
    # Every leaf solve gives to a leaf LP's row build on the oracle-small
    # queries and their split networks, refuted by the presolve or not: the
    # LP with rows for the branch-fixed neurons only is feasible exactly
    # when the LP with a row for every neuron is, and each point it returns
    # satisfies every row.  The root falsifier is off, so that the search
    # itself reaches the feasible leaves of the SAT queries.
    leaves, box = [], None
    real = solver._leaf_rows
    monkeypatch.setattr(solver, "_falsify", lambda net, box, c: None)

    def recording(net, modes, phases, target):
        if phases and phases[0].ndim == 2:
            leaves.extend((net, box, [m[n] for m in modes], [p[n] for p in phases], target) for n in range(len(phases[0])))
        else:
            leaves.append((net, box, modes, phases, target))
        return real(net, modes, phases, target)

    queries = oracle_queries_and_split_twins(tmp_path)
    monkeypatch.setattr(solver, "_leaf_rows", recording)
    for q in queries:
        box = q.input
        solve(q, timeout=60.0)
    feasible = dropped = 0
    for net, box, modes, phases, target in leaves:
        A, b = _leaf_rows(net, modes, phases, target)
        A_all, b_all = _leaf_rows(net, modes, modes, target)
        dropped += A_all.shape[0] - A.shape[0]
        x = feasible_point(A, b, box.lower, box.upper)
        x_all = feasible_point(A_all, b_all, box.lower, box.upper)
        assert (x is None) == (x_all is None)
        if x is not None:
            feasible += 1
            assert box.contains(x)
            assert np.all(A_all @ x <= b_all + 1e-9)
    assert feasible > 20 and len(leaves) - feasible > 20 and dropped > 0


def _loop_widest_unknown(relu_modes, bm):
    """Per-neuron reference for ``_widest_unknown``: the first strictly
    widest unknown neuron, in layer order, then index order, as an index
    into the hidden neurons in layer order, or -1."""
    branch, widest, offset = -1, -np.inf, 0
    for k, mode in enumerate(relu_modes):
        plo, phi = bm.pre[k]
        for i in np.flatnonzero(mode == 0):
            width = phi[i] - plo[i]
            if width > widest:
                widest, branch = width, offset + int(i)
        offset += mode.size
    return branch


def test_widest_unknown_matches_loop_reference():
    # Widths drawn from a few values make exact ties common; a share of the
    # nodes has no unknown neuron, and some have no hidden layer at all.
    # Each draw is a batch of K nodes with (K, n_k) modes and intervals,
    # except layer 0's intervals, which are shared as in a batched ``sbt``;
    # every node's index must be the reference's, batched and alone.
    rng = np.random.default_rng(75)
    ties = nones = 0
    for _ in range(400):
        sizes = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(0, 4)))]
        K = int(rng.integers(1, 5))
        p_unknown = rng.choice([0.0, 0.2, 0.6])
        modes, pre = [], []
        for k, m in enumerate(sizes):
            shape = (m,) if k == 0 else (K, m)
            modes.append(np.where(rng.random((K, m)) < p_unknown, 0, rng.choice([-1, 1], size=(K, m))).astype(np.int8))
            plo = rng.choice([-1.0, -0.5, -0.25], size=shape)
            pre.append((plo, plo + rng.choice([0.5, 1.0, 1.5], size=shape)))
        batched = _widest_unknown(tuple(modes), BoundsMap(tuple(pre)))
        for n in range(K):
            node_modes = tuple(mode[n] for mode in modes)
            node_pre = tuple((plo, phi) if k == 0 else (plo[n], phi[n]) for k, (plo, phi) in enumerate(pre))
            node_pre += ((np.zeros(1), np.ones(1)),)
            bm = BoundsMap(node_pre)
            expected = _loop_widest_unknown(node_modes, bm)
            assert _widest_unknown(node_modes, bm) == expected
            if sizes:
                assert batched.shape == (K,) and batched[n] == expected
            if expected < 0:
                nones += 1
            else:
                widths = np.concatenate([phi - plo for plo, phi in node_pre[:-1]])
                unknown = np.concatenate(node_modes) == 0
                ties += int(np.sum(widths[unknown] == widths[expected]) > 1)
    assert ties > 50 and nones > 50


def test_batched_search_equals_one_node_search(tmp_path, monkeypatch):
    # A node's bound depends only on its phases, and a batched ``sbt`` call
    # gives every node the arrays of a one-node call, so ``BATCH = 1`` must
    # reach the same verdicts, and on every UNSAT query the same node count,
    # on the oracle-small queries, their split networks and seeded
    # 2-hidden-layer networks.
    queries = oracle_queries_and_split_twins(tmp_path)
    rng = np.random.default_rng(76)
    for _ in range(20):
        n_in = int(rng.integers(1, 4))
        sizes = [n_in, int(rng.integers(4, 9)), int(rng.integers(4, 9)), 1]
        layers = [
            Layer(rng.uniform(-1.0, 1.0, size=(sizes[k], sizes[k - 1])), rng.uniform(-0.5, 0.5, size=sizes[k]), k < 3)
            for k in range(1, 4)
        ]
        q = random_query(rng, net=Network(layers, n_in))
        queries += [q, Query(preprocess(q.network).network, q.input, q.output)]

    real, batched = solver.sbt, []

    def counting(net, box, phases=None):
        if phases is not None:
            batched.append(len(phases[0]))
        return real(net, box, phases)

    monkeypatch.setattr(solver, "sbt", counting)
    runs = [solve(q, timeout=60.0) for q in queries]
    assert sum(batched) > 1000 and max(batched) == solver.BATCH
    monkeypatch.setattr(solver, "BATCH", 1)
    unsat = 0
    for q, v in zip(queries, runs):
        w = solve(q, timeout=60.0)
        assert v.status is w.status and v.status is not Status.TIMEOUT
        if v.status is Status.UNSAT:
            unsat += 1
            assert v.nodes == w.nodes
    assert unsat > 20 and any(v.status is Status.SAT for v in runs)


def test_no_leaf_lp_starts_after_the_deadline(monkeypatch):
    # A fake clock advances one second per leaf LP.  The query's 8 leaves
    # come in one batch, and all 8 are given to the batch's row build.  The
    # presolve is made to refute none of them, so each gets its own LP; the
    # limit is checked before every one, so no leaf starts at or past it, and
    # the query times out inside its one batch.
    rng = np.random.default_rng(2)
    net = random_network(rng, n_inputs=2, n_layers=1, max_width=8)
    box = InputBox([-1.0, -1.0], [1.0, 1.0])
    c = float(forward_batch(net, rng.uniform(-1.0, 1.0, size=(20000, 2)))[:, 0].max()) + 0.05
    q = Query(net, box, OutputProperty(c))
    now, starts, built, presolved = [0.0], [], [], []
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: now[0]))
    real_lp, real_rows, real_presolve = solver.feasible_point, solver._leaf_rows, solver._propagation_refutes

    def timed_lp(*args, **kwargs):
        starts.append(now[0])
        now[0] += 1.0
        return real_lp(*args, **kwargs)

    def rows(net, modes, phases, target):
        built.append(len(phases[0]))
        return real_rows(net, modes, phases, target)

    def presolve(A, b, lo, hi, feas_tol):
        presolved.append(len(A))
        return np.zeros(len(A), dtype=bool)

    monkeypatch.setattr(solver, "feasible_point", timed_lp)
    monkeypatch.setattr(solver, "_leaf_rows", rows)
    monkeypatch.setattr(solver, "_propagation_refutes", presolve)
    assert solve(q).status is Status.UNSAT and len(starts) == 8
    assert built == [8] and presolved == [8]
    starts.clear()
    now[0] = 0.0
    v = solve(q, timeout=3.5)
    assert v.status is Status.TIMEOUT
    assert starts == [0.0, 1.0, 2.0, 3.0]
    # The limit is also checked before a batch's presolve: a row build that
    # ends past the limit is followed by no presolve and no LP.
    def slow_rows(net, modes, phases, target):
        now[0] += 4.0
        return real_rows(net, modes, phases, target)

    def recording_presolve(A, b, lo, hi, feas_tol):
        presolved.append(len(A))
        return real_presolve(A, b, lo, hi, feas_tol)

    monkeypatch.setattr(solver, "_leaf_rows", slow_rows)
    monkeypatch.setattr(solver, "_propagation_refutes", recording_presolve)
    starts.clear()
    presolved.clear()
    now[0] = 0.0
    assert solve(q, timeout=3.5).status is Status.TIMEOUT
    assert starts == [] and presolved == []


# A fake ``solver.feasible_point`` answers each leaf LP from a script: a
# numerical failure, a marginal point (feasible for the LP, rejected by
# ``is_witness``) or a good point.  On 1-2-1 with threshold 700, y = 34 x
# over [20, 21], so 20 is marginal and 21 is a witness.
_LEAF_ANSWERS = {"error": SimplexError("stalled"), "marginal": np.array([20.0]), "good": np.array([21.0])}
_LEAF_SCRIPTS = [
    (("error", "good"), "good"),
    (("marginal", "good"), "good"),
    (("marginal", "marginal"), SolverError),
    (("error", "marginal"), SolverError),
    (("error", "error"), SimplexError),
]


@pytest.mark.parametrize(
    "script, outcome, reference",
    [
        pytest.param(script, outcome, reference, id=("reference-" if reference else "") + "-".join(script))
        for reference in (False, True)
        for script, outcome in _LEAF_SCRIPTS
    ],
)
def test_leaf_lp_is_re_solved_once_with_tighter_tolerances(net121, monkeypatch, script, outcome, reference):
    # The first run uses the simplex defaults; after a numerical failure or
    # a marginal point the leaf is re-solved once with RETRY_TOLERANCES; a
    # second marginal point is a SolverError and a second numerical failure
    # propagates, with no third run.  The reference enumeration, here over
    # phases that are all fixed (one completion), accepts its LP by the
    # same rule.
    calls = []

    def scripted(A, b, lo, hi, **tolerances):
        calls.append(tolerances)
        answer = _LEAF_ANSWERS[script[len(calls) - 1]]
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(solver, "feasible_point", scripted)
    modes = (np.array([1, 1], dtype=np.int8),)
    box = InputBox([20.0], [21.0])

    def decide():
        if reference:
            return first_feasible_completion(net121, box, modes, 700.0)
        return _solve_leaf(net121, box, modes, modes, 700.0)

    if isinstance(outcome, type):
        with pytest.raises(outcome):
            decide()
    else:
        assert decide() is _LEAF_ANSWERS[outcome]
    assert calls == [{}, RETRY_TOLERANCES]


def test_solve_rejects_a_nan_timeout(query121):
    # A NaN limit used to run with no limit and return a verdict.
    with pytest.raises(ValueError, match="NaN"):
        solve(query121, timeout=float("nan"))


def test_root_leaf_corner_agrees_with_the_leaf_lp():
    # Small boxes make every neuron stable at the root, where the network
    # is affine and ``solve`` first tries the corner its gradient points
    # to.  Thresholds are drawn inside the root's output interval, and some
    # in the granularity band just under its top, so the root bound decides
    # none of them.  The verdict must be the leaf LP's, a corner witness must
    # pass ``is_witness``, and no LP point may beat it by more than 1e-9.
    rng = np.random.default_rng(86)
    leaves, corners, unsat = 0, 0, 0
    while leaves < 150:
        net = random_network(rng, n_inputs=int(rng.integers(1, 4)))
        center = rng.uniform(-1.0, 1.0, size=net.input_size)
        half = rng.uniform(1e-4, 1e-2, size=net.input_size)
        box = InputBox(center - half, center + half)
        modes, bm = solver.sbt(net, box)
        if any(np.any(mode == 0) for mode in modes):
            continue
        lo, hi = bm.output_interval
        c = hi - rng.uniform(0.0, EPSILON) if leaves % 3 == 0 else rng.uniform(lo, hi)
        if not lo - EPSILON < c < hi:
            continue
        leaves += 1
        v = solve(Query(net, box, OutputProperty(c)))
        root = tuple(np.zeros(size, dtype=np.int8) for size in net.hidden_sizes)
        x_lp = _solve_leaf(net, box, modes, root, c)
        assert (v.status is Status.SAT) == (x_lp is not None), leaves
        if x_lp is None:
            unsat += 1
            continue
        assert np.all((v.witness == box.lower) | (v.witness == box.upper))
        assert solver.is_witness(net, v.witness, c)
        assert evaluate(net, v.witness)[0] >= evaluate(net, x_lp)[0] - 1e-9
        corners += 1
    assert corners > 50 and unsat > 20


def _no_falsifier(net, box, c):
    raise AssertionError("the root corner should have decided this query")


def test_root_lower_bound_clearing_c_gives_a_corner_witness(monkeypatch):
    # Roots with an unknown neuron whose sound output lower bound clears
    # c + EPSILON: every box point is a witness, so the corner is one, and
    # solve answers at the root without the falsifier.
    monkeypatch.setattr(solver, "_falsify", _no_falsifier)
    rng = np.random.default_rng(88)
    checked = 0
    while checked < 100:
        net = random_network(rng, n_inputs=int(rng.integers(1, 4)))
        center = rng.uniform(-1.0, 1.0, size=net.input_size)
        half = rng.uniform(0.05, 0.5, size=net.input_size)
        box = InputBox(center - half, center + half)
        modes, bm = solver.sbt(net, box)
        if all(np.all(mode != 0) for mode in modes):
            continue
        c = bm.output_interval[0] - rng.uniform(EPSILON, 1.0)
        v = solve(Query(net, box, OutputProperty(c)))
        assert v.status is Status.SAT and v.nodes == 1 and not v.sampled
        assert np.all((v.witness == box.lower) | (v.witness == box.upper))
        assert evaluate(net, v.witness)[0] >= c + EPSILON
        checked += 1


def test_root_corner_is_a_witness_where_the_midpoint_is_not(monkeypatch):
    # y = 0.1 relu(x) + relu(x + 2) - 2 on [-1, 1]: relu(x) is unknown at the
    # root, so the root is not a leaf, and counted inactive it leaves the
    # gradient 1, which points to x = 1, where y = 1.1.  The midpoint gives
    # y = 0, below c = 0.5.
    monkeypatch.setattr(solver, "_falsify", _no_falsifier)
    net = Network([Layer([[1.0], [1.0]], [0.0, 2.0], True), Layer([[0.1, 1.0]], [-2.0], False)], 1)
    box = InputBox([-1.0], [1.0])
    modes, _ = solver.sbt(net, box)
    assert modes[0].tolist() == [0, 1]
    assert not solver.is_witness(net, box.midpoint(), 0.5)
    v = solve(Query(net, box, OutputProperty(0.5)))
    assert v.status is Status.SAT and v.nodes == 1 and not v.sampled
    assert v.witness.tolist() == [1.0]
