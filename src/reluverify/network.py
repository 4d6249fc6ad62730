"""Feed-forward ReLU network model and exact forward evaluation.

Networks are layered and dense: layer ``i`` owns a weight matrix whose rows
are layer-``i`` neurons and whose columns are layer ``i-1`` neurons.  Hidden
layers apply ReLU, the (single-row or multi-row) output layer is affine.
All instances are immutable after construction; transformations elsewhere in
the package build new networks instead of mutating.

The public constructors copy their arrays, check every shape and scan for
non-finite entries.  ``_trusted_layer`` and ``_trusted_network`` skip all
three for arrays that package code has just derived from an already
checked network, and still set the arrays read-only; only
``abstraction.refine_split`` uses them, on the rows and columns it
re-aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class ValidationError(ValueError):
    """A structurally well-formed object violates a semantic constraint."""


def _as_floats(values, name: str) -> np.ndarray:
    try:
        arr = np.array(values)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{name}: expected numbers ({e})") from e
    # One dtype check per array: numpy would convert strings and booleans.
    if arr.dtype.kind not in "iuf":
        got = {"b": "booleans", "U": "strings"}.get(arr.dtype.kind, f"{arr.dtype} entries")
        raise ValidationError(f"{name}: expected numbers, got {got}")
    return arr.astype(np.float64, copy=False)


def _as_matrix(values, name: str) -> np.ndarray:
    arr = _as_floats(values, name)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"{name}: expected a non-empty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: weights must be finite")
    arr.flags.writeable = False
    return arr


def _as_vector(values, name: str, length: int | None = None) -> np.ndarray:
    arr = _as_floats(values, name)
    if arr.ndim != 1:
        raise ValidationError(f"{name}: expected a 1-D vector, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValidationError(f"{name}: expected length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Layer:
    """One affine layer: ``v = act(W @ prev + b)`` with act = ReLU or identity."""

    weights: np.ndarray
    biases: np.ndarray
    relu: bool

    def __init__(self, weights, biases, relu: bool):
        W = _as_matrix(weights, "weights")
        b = _as_vector(biases, "biases", length=W.shape[0])
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "relu", bool(relu))

    @cached_property
    def weight_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """``(max(W, 0), min(W, 0))``, computed once per layer, read-only."""
        parts = np.maximum(self.weights, 0.0), np.minimum(self.weights, 0.0)
        for part in parts:
            part.flags.writeable = False
        return parts

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class Network:
    """An immutable stack of layers; all layers but the last carry ReLU.

    ``domain`` optionally records the valid input region (used when clipping
    robustness balls); it plays no role in evaluation.
    """

    layers: tuple[Layer, ...]
    input_size: int
    domain: tuple[np.ndarray, np.ndarray] | None = field(default=None)

    def __init__(self, layers, input_size: int, domain=None):
        layers = tuple(layers)
        if not layers:
            raise ValidationError("network needs at least one layer")
        if not isinstance(input_size, (int, np.integer)) or isinstance(input_size, bool):
            raise ValidationError(f"input_size must be an integer, got {input_size!r}")
        if input_size <= 0:
            raise ValidationError("input_size must be positive")
        prev = input_size
        for i, layer in enumerate(layers):
            if layer.fan_in != prev:
                raise ValidationError(
                    f"layer {i}: weight matrix has {layer.fan_in} columns, "
                    f"previous layer has {prev} neurons"
                )
            want_relu = i < len(layers) - 1
            if layer.relu != want_relu:
                kind = "hidden" if want_relu else "output"
                raise ValidationError(f"layer {i} is {kind} but relu={layer.relu}")
            prev = layer.size
        if domain is not None:
            lo = _as_vector(domain[0], "domain lower", length=input_size)
            hi = _as_vector(domain[1], "domain upper", length=input_size)
            if np.any(lo > hi):
                raise ValidationError("domain lower exceeds upper")
            domain = (lo, hi)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "input_size", int(input_size))
        object.__setattr__(self, "domain", domain)

    @property
    def output_size(self) -> int:
        return self.layers[-1].size

    @property
    def hidden_sizes(self) -> list[int]:
        return [layer.size for layer in self.layers[:-1]]


def _trusted_layer(weights: np.ndarray, biases: np.ndarray, relu: bool) -> Layer:
    """A ``Layer`` over arrays its caller owns and has derived from checked
    ones: not copied, not scanned, only made read-only."""
    weights.flags.writeable = False
    biases.flags.writeable = False
    layer = object.__new__(Layer)
    object.__setattr__(layer, "weights", weights)
    object.__setattr__(layer, "biases", biases)
    object.__setattr__(layer, "relu", relu)
    return layer


def _trusted_network(layers: tuple[Layer, ...], like: Network) -> Network:
    """A ``Network`` over ``layers``, whose shapes and activations its caller
    keeps consistent, with the input size and domain of ``like``."""
    net = object.__new__(Network)
    object.__setattr__(net, "layers", layers)
    object.__setattr__(net, "input_size", like.input_size)
    object.__setattr__(net, "domain", like.domain)
    return net


@dataclass(frozen=True, eq=False)
class InputBox:
    """Axis-aligned box of admissible inputs: ``lower[k] <= x[k] <= upper[k]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = _as_vector(lower, "input lower")
        hi = _as_vector(upper, "input upper", length=lo.shape[0])
        if np.any(lo > hi):
            raise ValidationError("input box has lower > upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, x, slack: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(x >= self.lower - slack) and np.all(x <= self.upper + slack))

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class OutputProperty:
    """Output constraint ``y > threshold``; a SAT witness exceeds the threshold."""

    threshold: float

    def __init__(self, threshold: float):
        try:
            # float() would read "800" as 800 and True as 1.
            if isinstance(threshold, (str, bool, np.bool_)):
                raise TypeError
            t = float(threshold)
        except (TypeError, ValueError) as e:
            raise ValidationError(f"threshold must be a number, got {threshold!r}") from e
        if not np.isfinite(t):
            raise ValidationError("threshold must be finite")
        object.__setattr__(self, "threshold", t)


@dataclass(frozen=True, eq=False)
class Query:
    """Verification query: does some x in the box drive the output above c?"""

    network: Network
    input: InputBox
    output: OutputProperty

    def __init__(self, network: Network, input: InputBox, output: OutputProperty):
        if network.output_size != 1:
            raise ValidationError("queries require a single-output network")
        if input.dim != network.input_size:
            raise ValidationError(
                f"input box has dimension {input.dim}, network expects {network.input_size}"
            )
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "output", output)


def evaluate(net: Network, x) -> np.ndarray:
    """Exact forward pass; ReLU on hidden layers, identity on the output layer."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (net.input_size,):
        raise ValueError(f"input has shape {v.shape}, expected ({net.input_size},)")
    hidden = hidden_values(net, v)
    out = net.layers[-1]
    return out.weights @ (hidden[-1] if hidden else v) + out.biases


def hidden_values(net: Network, x) -> list[np.ndarray]:
    """Post-activation values of every hidden layer at input ``x``."""
    v = np.asarray(x, dtype=np.float64)
    out = []
    for layer in net.layers[:-1]:
        v = np.maximum(layer.weights @ v + layer.biases, 0.0)
        out.append(v)
    return out
