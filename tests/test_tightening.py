import numpy as np
import pytest

from reluverify import (
    InputBox,
    OutputProperty,
    abstract_to_saturation,
    preprocess,
    refine_split,
    tighten_property,
)

from conftest import forward_batch, random_box, random_network, sample_box


def test_running_example_threshold(net121):
    abstract = abstract_to_saturation(preprocess(net121), nonneg_inputs=True).network
    box = InputBox([20.0], [21.0])
    prop = tighten_property(abstract, net121, box, OutputProperty(800.0))
    assert prop.threshold == pytest.approx(1486.0, abs=1e-9)


def test_identical_networks_keep_threshold(net121):
    box = InputBox([20.0], [21.0])
    prop = tighten_property(net121, net121, box, OutputProperty(800.0))
    assert prop == OutputProperty(800.0)


def test_threshold_never_decreases():
    rng = np.random.default_rng(51)
    for _ in range(50):
        net = random_network(rng)
        abstract = abstract_to_saturation(preprocess(net), nonneg_inputs=True).network
        box = random_box(rng, net.input_size, nonneg=True)
        c = float(rng.normal())
        prop = tighten_property(abstract, net, box, OutputProperty(c))
        assert prop.threshold >= c


def test_soundness_transfer_on_samples():
    # Any sample that beats the original threshold must beat the tightened
    # one on the abstract network; conversely an abstract output at or below
    # the tightened threshold pins the original at or below c.
    rng = np.random.default_rng(52)
    for _ in range(40):
        net = random_network(rng)
        abstract = abstract_to_saturation(preprocess(net), nonneg_inputs=True).network
        box = random_box(rng, net.input_size, nonneg=True)
        X = sample_box(rng, box, 1000)
        orig = forward_batch(net, X)[:, 0]
        abst = forward_batch(abstract, X)[:, 0]
        c = float(np.quantile(orig, 0.7))
        cp = tighten_property(abstract, net, box, OutputProperty(c)).threshold
        beats = orig > c
        assert np.all(abst[beats] > cp - 1e-9)
        capped = abst <= cp
        assert np.all(orig[capped] <= c + 1e-9)


def test_fully_refined_fixpoint():
    rng = np.random.default_rng(53)
    for _ in range(30):
        net = random_network(rng)
        box = random_box(rng, net.input_size, nonneg=True)
        c = float(rng.normal())
        prop = tighten_property(preprocess(net).network, net, box, OutputProperty(c))
        assert prop == OutputProperty(c)


def test_threshold_relaxes_back_after_full_refinement(net121):
    box = InputBox([20.0], [21.0])
    state = abstract_to_saturation(preprocess(net121), nonneg_inputs=True)
    tight = tighten_property(state.network, net121, box, OutputProperty(800.0))
    assert tight.threshold > 800.0
    refined = refine_split(state, [20.0])
    back = tighten_property(refined.network, net121, box, OutputProperty(800.0))
    assert back == OutputProperty(800.0)
