"""Verification of feed-forward ReLU networks, with joint abstraction of the
network (neuron merging) and of the output property (bound-derived
threshold tightening)."""

from .abstraction import (
    AbstractionState,
    CannotRefineError,
    abstract_to_saturation,
    refine_split,
)
from .bounds import (
    BoundsMap,
    ibp,
    output_gap,
    sbt,
    tighten_property,
)
from .categorize import CategorizedNetwork, preprocess
from .formats import (
    FormatError,
    load_network,
    load_query,
    save_network,
    save_query,
)
from .harness import (
    BenchmarkRecord,
    RobustnessSpec,
    exhaustive_verdict,
    generate_benchmarks,
    reduce_to_single_output,
    run_bench,
)
from .loop import MODES, RunStats, verify
from .network import (
    InputBox,
    Layer,
    Network,
    OutputProperty,
    Query,
    ValidationError,
    evaluate,
)
from .solver import Status, Verdict, solve

__version__ = "0.1.0"

__all__ = [
    "AbstractionState",
    "BenchmarkRecord",
    "BoundsMap",
    "CannotRefineError",
    "CategorizedNetwork",
    "FormatError",
    "InputBox",
    "Layer",
    "MODES",
    "Network",
    "OutputProperty",
    "Query",
    "RobustnessSpec",
    "RunStats",
    "Status",
    "ValidationError",
    "Verdict",
    "abstract_to_saturation",
    "evaluate",
    "exhaustive_verdict",
    "generate_benchmarks",
    "ibp",
    "load_network",
    "load_query",
    "output_gap",
    "preprocess",
    "reduce_to_single_output",
    "refine_split",
    "run_bench",
    "save_network",
    "save_query",
    "sbt",
    "solve",
    "tighten_property",
    "verify",
]
