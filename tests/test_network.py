import numpy as np
import pytest

from reluverify import InputBox, Layer, Network, OutputProperty, Query, ValidationError, evaluate

from conftest import forward_batch, random_network


def test_forward_values(net121):
    assert evaluate(net121, [21.0]) == pytest.approx([714.0], abs=0)
    assert evaluate(net121, [20.0]) == pytest.approx([680.0], abs=0)


def test_zero_network():
    net = Network(
        [Layer([[0.0, 0.0]], [0.0], True), Layer([[0.0]], [0.0], False)], input_size=2
    )
    assert evaluate(net, [3.0, -7.0]) == pytest.approx([0.0], abs=0)


def test_dimension_mismatch(net121):
    with pytest.raises(ValueError):
        evaluate(net121, [1.0, 2.0])


def test_forward_deterministic(net121):
    x = [20.37]
    a, b = evaluate(net121, x), evaluate(net121, x)
    assert np.array_equal(a, b)


def test_relu_noop_when_preactivations_nonneg():
    # Positive weights/biases and a non-negative input keep every
    # pre-activation non-negative, so ReLU must act as the identity.
    W1, b1 = np.array([[0.5, 1.0], [2.0, 0.25]]), np.array([0.1, 0.3])
    W2, b2 = np.array([[1.5, 0.5]]), np.array([0.2])
    net = Network([Layer(W1, b1, True), Layer(W2, b2, False)], input_size=2)
    for x in ([0.0, 0.0], [1.0, 2.0], [0.3, 0.7]):
        affine = W2 @ (W1 @ np.asarray(x) + b1) + b2
        assert evaluate(net, x) == pytest.approx(affine, abs=0)


def test_network_validation():
    with pytest.raises(ValidationError):
        Network([], input_size=1)
    with pytest.raises(ValidationError):
        Network([Layer([[1.0]], [0.0], True)], input_size=1)  # output must be affine
    with pytest.raises(ValidationError):
        Network(
            [Layer([[1.0]], [0.0], False), Layer([[1.0]], [0.0], False)], input_size=1
        )  # hidden must be ReLU
    with pytest.raises(ValidationError):
        Network([Layer([[1.0, 2.0]], [0.0], False)], input_size=1)  # dim chain
    with pytest.raises(ValidationError):
        Layer([[np.inf]], [0.0], False)
    with pytest.raises(ValidationError):
        Layer([[1.0]], [np.nan], False)


def test_booleans_among_numbers_are_rejected():
    # numpy reads a list mixing booleans with numbers as numbers: true as
    # 1.0, false as 0.0.  Each field names itself.
    for make, field in (
        (lambda: Layer([[True, 1.5]], [0.0], relu=False), "weights"),
        (lambda: Layer([[1.0], [2.0]], [0.5, False], relu=True), "biases"),
        (lambda: InputBox([0.0, False], [1.0, 1.0]), "input lower"),
        (lambda: InputBox([0.0, 0.0], [1, True]), "input upper"),
        (lambda: Network([Layer([[1.0, 1.0]], [0.0], False)], 2, domain=([0.0, False], [1.0, 1.0])), "domain lower"),
    ):
        with pytest.raises(ValidationError, match=f"^{field}: expected numbers, got booleans$"):
            make()
    # Numbers of either kind, and float arrays, still load.
    assert InputBox([0, 0.5], (1, 2.0)).lower.tolist() == [0.0, 0.5]
    assert Layer(np.eye(2), np.zeros(2), relu=True).weights.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_layers_are_immutable(net121):
    with pytest.raises(ValueError):
        net121.layers[0].weights[0, 0] = 5.0


def test_box_and_query_validation(net121):
    with pytest.raises(ValidationError):
        InputBox([1.0], [0.0])
    with pytest.raises(ValidationError):
        InputBox([np.inf], [np.inf])
    with pytest.raises(ValidationError):
        OutputProperty(np.nan)
    with pytest.raises(ValidationError):
        Query(net121, InputBox([0.0, 0.0], [1.0, 1.0]), OutputProperty(0.0))
    two_out = Network(
        [Layer([[1.0], [2.0]], [0.0, 0.0], True), Layer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], False)],
        input_size=1,
    )
    with pytest.raises(ValidationError):
        Query(two_out, InputBox([0.0], [1.0]), OutputProperty(0.0))


def test_forward_matches_batched_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        net = random_network(rng)
        X = rng.uniform(-2.0, 2.0, size=(40, net.input_size))
        ours = np.array([evaluate(net, x) for x in X])
        # Vector and batched matmuls may round differently; only bit-exact
        # REPEATED evaluation is promised (covered above).
        assert np.allclose(ours, forward_batch(net, X), atol=1e-12, rtol=1e-12)
