"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own propagation and
simplex code: forward evaluation is re-implemented with batched matrix
arithmetic, and exhaustive query solving enumerates ReLU phase patterns
with scipy's LP solver.
"""

import itertools

import numpy as np
import pytest

from reluverify import (
    InputBox,
    Layer,
    Network,
    OutputProperty,
    Query,
    bounds,
    generate_benchmarks,
    load_network,
    load_query,
    loop,
    preprocess,
)


@pytest.fixture
def net121() -> Network:
    """1-2-1 network: hidden weights 10 and 1, output weights 3 and 4."""
    return Network(
        [
            Layer([[10.0], [1.0]], [0.0, 0.0], relu=True),
            Layer([[3.0, 4.0]], [0.0], relu=False),
        ],
        input_size=1,
    )


@pytest.fixture
def query121(net121) -> Query:
    return Query(net121, InputBox([20.0], [21.0]), OutputProperty(800.0))


@pytest.fixture
def abstraction_states(monkeypatch) -> list:
    """Every abstraction state the refinement loop builds, in order.

    Wraps the loop's own references to the state constructors, which it
    resolves through its module globals at call time.
    """
    trace = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            state = fn(*args, **kwargs)
            trace.append(state)
            return state

        return wrapper

    monkeypatch.setattr(loop, "abstract_to_saturation", recording(loop.abstract_to_saturation))
    monkeypatch.setattr(loop, "refine_split", recording(loop.refine_split))
    return trace


@pytest.fixture
def affine_steps(monkeypatch) -> list:
    """The layer of every SBT affine step, in order: one per layer that a
    bound computation visits (a call without phases skips the layers it
    reuses from ``bounds._KEPT``, and a batch of nodes takes one step per
    layer)."""
    steps = []
    real_step = bounds._pre_step

    def counting_step(layer, post, box):
        steps.append(layer)
        return real_step(layer, post, box)

    monkeypatch.setattr(bounds, "_pre_step", counting_step)
    return steps


def random_network(rng, n_inputs=None, n_layers=None, max_width=6, n_outputs=1) -> Network:
    """Small random network with uniform weights; ReLU hidden, affine output."""
    if n_inputs is None:
        n_inputs = int(rng.integers(1, 4))
    if n_layers is None:
        n_layers = int(rng.integers(1, 4))
    sizes = [n_inputs] + [int(rng.integers(1, max_width + 1)) for _ in range(n_layers)] + [n_outputs]
    layers = []
    for k in range(1, len(sizes)):
        W = rng.uniform(-1.0, 1.0, size=(sizes[k], sizes[k - 1]))
        b = rng.uniform(-0.5, 0.5, size=sizes[k])
        layers.append(Layer(W, b, relu=k < len(sizes) - 1))
    return Network(layers, n_inputs)


def random_oracle_network(rng, n_outputs=1) -> Network:
    """Random network capped at 8 hidden neurons total (oracle-friendly)."""
    n_inputs = int(rng.integers(1, 4))
    n_layers = int(rng.integers(1, 4))
    widths, budget = [], 8
    for left in range(n_layers, 0, -1):
        w = int(rng.integers(1, min(4, budget - (left - 1)) + 1))
        widths.append(w)
        budget -= w
    sizes = [n_inputs] + widths + [n_outputs]
    layers = []
    for k in range(1, len(sizes)):
        W = rng.uniform(-1.0, 1.0, size=(sizes[k], sizes[k - 1]))
        b = rng.uniform(-0.5, 0.5, size=sizes[k])
        layers.append(Layer(W, b, relu=k < len(sizes) - 1))
    return Network(layers, n_inputs)


def random_box(rng, dim, nonneg=False) -> InputBox:
    center = rng.uniform(0.2, 1.2, size=dim) if nonneg else rng.uniform(-1.0, 1.0, size=dim)
    half = rng.uniform(0.05, 0.6, size=dim)
    lo = center - half
    if nonneg:
        lo = np.maximum(lo, 0.0)
    return InputBox(lo, center + half)


def sample_box(rng, box, n) -> np.ndarray:
    return rng.uniform(box.lower, box.upper, size=(n, box.dim))


def forward_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Independent forward oracle: rows of X are inputs; returns (n, out)."""
    V = X.T
    for layer in net.layers:
        V = layer.weights @ V + layer.biases[:, None]
        if layer.relu:
            V = np.maximum(V, 0.0)
    return V.T


def oracle_verdict(q: Query, epsilon: float = 1e-6) -> str:
    """Exhaustive ReLU phase enumeration with scipy's LP as the feasibility
    engine; ground truth for small networks."""
    from scipy.optimize import linprog

    net = q.network
    total_hidden = sum(net.hidden_sizes)
    assert total_hidden <= 12, "oracle is exponential; keep test nets tiny"
    n = net.input_size
    bnds = list(zip(q.input.lower, q.input.upper))
    for bits in itertools.product((1.0, 0.0), repeat=total_hidden):
        C, d = np.eye(n), np.zeros(n)
        rows, rhs = [], []
        pos = 0
        for layer in net.layers[:-1]:
            pC = layer.weights @ C
            pd = layer.weights @ d + layer.biases
            act = np.array(bits[pos : pos + layer.size])
            pos += layer.size
            sign = 2.0 * act - 1.0  # active: pre >= 0, inactive: pre <= 0
            rows.extend(-sign[i] * pC[i] for i in range(layer.size))
            rhs.extend(sign[i] * pd[i] for i in range(layer.size))
            C, d = pC * act[:, None], pd * act
        last = net.layers[-1]
        oC, od = last.weights @ C, last.weights @ d + last.biases
        rows.append(-oC[0])
        rhs.append(od[0] - q.output.threshold - epsilon)
        res = linprog(np.zeros(n), A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bnds, method="highs")
        if res.status == 0:
            return "SAT"
    return "UNSAT"


def random_query(rng, net=None, nonneg=False, margin=0.3) -> Query:
    """Random query with the threshold placed a healthy margin away from the
    sampled output range (mixed SAT/UNSAT across draws)."""
    if net is None:
        net = random_network(rng)
    box = random_box(rng, net.input_size, nonneg=nonneg)
    ys = forward_batch(net, sample_box(rng, box, 256))[:, 0]
    spread = float(ys.max() - ys.min()) + 0.1
    if rng.random() < 0.5:
        c = float(ys.min() + margin * spread)
    else:
        c = float(ys.max() + margin * spread)
    return Query(net, box, OutputProperty(c))


def oracle_queries_and_split_twins(tmp_path) -> list:
    """The 60 ``oracle-small`` queries, each followed by its query on
    ``preprocess``'s split network."""
    manifest = generate_benchmarks(42, 60, tmp_path, kind="oracle")
    queries = []
    for entry in manifest["queries"]:
        q = load_query(tmp_path / entry["query"], load_network(tmp_path / entry["net"]))
        queries += [q, Query(preprocess(q.network).network, q.input, q.output)]
    return queries
