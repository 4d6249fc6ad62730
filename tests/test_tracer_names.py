"""The benchmark's layer tracer (``perfbench/spans.py``) wraps library
functions by module attribute name.  This pins those names: every wrapped
function must still exist, be called through the wrapped attribute, and
run without raising."""

import importlib.util
import os

import pytest

from reluverify import MODES, InputBox, Layer, Network, OutputProperty, Query, verify

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")
WRAPPED = {
    "categorize.preprocess",
    "abstraction.saturate",
    "abstraction.refine",
    "tightening.tighten",
    "solver.solve",
    "loop.is_genuine",
    "solver.sbt",
    "simplex.feasible_point",
    "bounds.output_bounds",
}


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    t = spans.Tracer()
    t.install()
    try:
        yield t, spans
    finally:
        t.uninstall()


def test_tracer_sees_every_wrapped_layer(tracer, query121):
    t, spans = tracer
    # The output -|x - 0.3| reaches c + EPSILON only within 1e-5 of x = 0.3,
    # closer than sampling gets: the search branches and a leaf LP finds the witness.
    net = Network([Layer([[1.0], [-1.0]], [-0.3, 0.3], True), Layer([[-1.0, -1.0]], [0.0], False)], 1)
    sat = Query(net, InputBox([-1.0], [1.0]), OutputProperty(-1e-5))
    for qid, q in (("unsat", query121), ("sat", sat)):
        for mode in MODES:
            v, _ = t.call(f"{qid}:{mode}", q.network, verify, q, mode)
            assert v.status.value == ("UNSAT" if qid == "unsat" else "SAT")
    names = {s[spans.NAME] for s in t.spans}
    assert WRAPPED <= names, WRAPPED - names
    raised = [s for s in t.spans if s[spans.INFO] and "raised" in s[spans.INFO]]
    assert raised == []
