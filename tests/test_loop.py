import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from reluverify import (
    InputBox,
    Layer,
    MODES,
    Network,
    OutputProperty,
    Query,
    Status,
    abstract_to_saturation,
    evaluate,
    preprocess,
    verify,
)
from reluverify import bounds, loop, solver
from reluverify.abstraction import _guide_at, _make_state, refine_split
from reluverify.loop import is_genuine

from conftest import (
    forward_batch,
    oracle_verdict,
    random_oracle_network,
    random_network,
    random_query,
    sample_box,
)


def test_running_example_direct(query121):
    v, stats = verify(query121, "direct")
    assert v.status is Status.UNSAT
    assert stats.refinement_steps == 0
    assert stats.iterations == 1


def test_running_example_cegar(query121):
    v, stats = verify(query121, "cegar")
    assert v.status is Status.UNSAT
    assert stats.refinement_steps >= 1
    assert stats.thresholds == [800.0] * len(stats.solver_times)
    # The first abstract attempt is smaller than the network itself.
    assert stats.abstract_hidden_sizes[0] == [1]


def test_running_example_cegarette(query121):
    v, stats = verify(query121, "cegarette")
    assert v.status is Status.UNSAT
    assert stats.refinement_steps == 0
    assert stats.iterations == 1
    assert stats.thresholds[0] == pytest.approx(1486.0, abs=1e-9)


def test_point_box_sat_query(net121):
    q = Query(net121, InputBox([21.0], [21.0]), OutputProperty(700.0))
    for mode in MODES:
        v, stats = verify(q, mode)
        assert v.status is Status.SAT
        assert evaluate(net121, v.witness)[0] > 700.0 - 1e-6


def test_cegar_zero_refinements_when_abstraction_suffices():
    # A single hidden neuron cannot be merged, so the saturated abstraction
    # already equals the network and the first solve settles it.
    net = Network([Layer([[2.0]], [0.0], True), Layer([[1.0]], [0.0], False)], 1)
    q = Query(net, InputBox([0.0], [1.0]), OutputProperty(5.0))
    v, stats = verify(q, "cegar")
    assert v.status is Status.UNSAT
    assert stats.refinement_steps == 0


def test_cegarette_sat_with_zero_refinements(net121):
    # Lowering the threshold makes the first abstract counterexample genuine.
    q = Query(net121, InputBox([20.0], [21.0]), OutputProperty(600.0))
    v, stats = verify(q, "cegarette")
    assert v.status is Status.SAT
    assert stats.refinement_steps == 0
    assert evaluate(net121, v.witness)[0] > 600.0 - 1e-6


def test_cross_mode_agreement_with_oracle():
    rng = np.random.default_rng(81)
    for _ in range(100):
        q = random_query(rng, net=random_oracle_network(rng))
        truth = oracle_verdict(q)
        for mode in ("direct", "cegar", "cegarette"):
            v, stats = verify(q, mode)
            assert v.status.value == truth, mode
            if v.status is Status.SAT:
                assert evaluate(q.network, v.witness)[0] > q.output.threshold - 1e-6
                assert q.input.contains(v.witness)
            assert stats.iterations <= 1 + (stats.initial_excess or 0)
            assert stats.refinement_steps == stats.iterations - 1


def test_stats_shape_and_monotone_sizes():
    rng = np.random.default_rng(82)
    for _ in range(30):
        q = random_query(rng, net=random_oracle_network(rng), nonneg=True)
        v, stats = verify(q, "cegarette")
        assert len(stats.abstract_hidden_sizes) == stats.iterations
        assert len(stats.solver_times) == stats.iterations - stats.resplits
        assert len(stats.thresholds) == len(stats.solver_times)
        totals = [sum(sz) for sz in stats.abstract_hidden_sizes]
        assert all(a <= b for a, b in zip(totals, totals[1:]))


def test_states_over_approximate_along_the_run(abstraction_states):
    trace = abstraction_states
    rng = np.random.default_rng(83)
    for _ in range(40):
        q = random_query(rng, net=random_oracle_network(rng), nonneg=True)
        trace.clear()
        verify(q, "cegarette")
        assert trace
        X = sample_box(rng, q.input, 100)
        orig = forward_batch(q.network, X)[:, 0]
        for state in trace:
            abst = forward_batch(state.network, X)[:, 0]
            assert np.all(abst >= orig - 1e-9)


def test_timeout_propagates_with_partial_stats(query121):
    v, stats = verify(query121, "cegar", timeout=0.0)
    assert v.status is Status.TIMEOUT
    assert stats.iterations >= 1
    assert stats.mode == "cegar"


def test_verdict_time_covers_the_whole_run(query121):
    # In every mode the verdict is one record of the whole run: its time is
    # the run's wall time, which covers every solve of a multi-iteration
    # run, and a run whose budget is spent before its first solve still
    # reports the time it took to get there; its nodes are the run's nodes.
    for mode in MODES:
        for timeout in (None, 0.0):
            v, stats = verify(query121, mode, timeout=timeout)
            if timeout is None:
                assert stats.iterations >= (2 if mode == "cegar" else 1)
            else:
                assert v.status is Status.TIMEOUT
            assert v.time == stats.total_time, mode
            assert v.nodes == stats.solver_nodes, mode
            assert v.time >= sum(stats.solver_times)
            assert v.time > 0
            assert len(stats.solver_times) == stats.iterations - stats.resplits, (mode, timeout)


def test_timeout_reports_cumulative_nodes(query121, monkeypatch):
    # The first abstract solve finds a spurious counterexample; the second is
    # forced to time out.  The verdict must count the nodes of both solves.
    calls = []
    real_solve = loop.solve

    def solve_then_time_out(query, **kwargs):
        calls.append(query)
        if len(calls) == 2:
            kwargs["timeout"] = 0.0
        return real_solve(query, **kwargs)

    monkeypatch.setattr(loop, "solve", solve_then_time_out)
    v, stats = verify(query121, "cegar")
    assert len(calls) == 2 and stats.refinement_steps == 1
    assert v.status is Status.TIMEOUT
    assert stats.solver_nodes >= 1
    assert v.nodes == stats.solver_nodes


def test_sampled_counterexamples_are_counted(monkeypatch):
    # The first abstract solve branches at its root, where the corner
    # misses and the falsifier finds a spurious counterexample; one split
    # then proves UNSAT.  With the falsifier off, the search finds the
    # counterexample instead.
    net = Network(
        [
            Layer([[0.4, -0.2], [-0.7, 0.4]], [0.0, -0.2], True),
            Layer([[0.0, 0.8], [0.9, -0.3]], [0.1, -0.2], True),
            Layer([[0.6, 0.3]], [0.0], False),
        ],
        2,
    )
    q = Query(net, InputBox([-1.0, -1.0], [1.0, 1.0]), OutputProperty(0.5))
    assert oracle_verdict(q) == "UNSAT"
    for sampled in (1, 0):
        for mode in ("cegar", "cegarette"):
            v, stats = verify(q, mode)
            assert v.status is Status.UNSAT and not v.sampled
            assert stats.refinement_steps == 1
            assert stats.sampled_counterexamples == sampled
            assert stats.to_dict()["sampled_counterexamples"] == sampled
        monkeypatch.setattr(solver, "_falsify", lambda net, box, c: None)


def test_cegarette_bounds_each_network_once_per_call(monkeypatch, affine_steps, abstraction_states):
    # The original network never changes during a run, so its root bound is
    # computed once per call, not once per iteration; a second call on the
    # same Query computes it again.  The first abstract network is bounded
    # in full, once, for the gap.  A later network is bounded only when its
    # kept point does not settle its re-split check; it shares layers
    # 0..L-1 with the last bounded network when the splits since that one
    # were at layers L or above, and its gap reuses that one's kept layers,
    # so it takes one affine step per layer from the lowest of those splits
    # on.  The corner that settles the checks is read from the kept bound
    # and takes no affine step.  ``solve``'s root, its one ``sbt`` call
    # without phases, reuses the bound and takes no affine step; its child
    # nodes are bounded in batches, with phases, from the input.
    rng = np.random.default_rng(9)
    pinned = random_query(rng, net=random_network(rng, n_layers=2, max_width=5))
    rng = np.random.default_rng(14)
    queries = [pinned]
    for _ in range(4):
        queries.append(random_query(rng, net=random_network(rng, n_layers=int(rng.integers(2, 4)), max_width=5)))
    solved, root_steps, bounded = [], [], []
    real_solve, real_sbt, real_tighten = loop.solve, solver.sbt, loop.tighten_property

    def recording_solve(query, **kwargs):
        solved.append((query.network, len(affine_steps)))
        v = real_solve(query, **kwargs)
        solved[-1] += (len(affine_steps),)
        return v

    def recording_sbt(net, box, phases=None):
        before = len(affine_steps)
        result = real_sbt(net, box, phases)
        if phases is None:
            root_steps.append(len(affine_steps) - before)
        return result

    def recording_tighten(abstract, *args):
        bounded.append(abstract)
        return real_tighten(abstract, *args)

    monkeypatch.setattr(loop, "solve", recording_solve)
    monkeypatch.setattr(solver, "sbt", recording_sbt)
    monkeypatch.setattr(loop, "tighten_property", recording_tighten)
    seen = set()
    for q in queries:
        for _ in range(2):
            affine_steps.clear()
            solved.clear()
            root_steps.clear()
            bounded.clear()
            abstraction_states.clear()
            v, stats = verify(q, "cegarette")
            if q is pinned:
                assert v.status is Status.UNSAT and stats.iterations == 13 and stats.settled_resplits > 0
            assert len(solved) == stats.iterations - stats.resplits
            assert root_steps == [0] * len(solved)
            inside = {i for _, start, end in solved for i in range(start, end)}
            outside = [layer for i, layer in enumerate(affine_steps) if i not in inside]
            nets = [state.network for state in abstraction_states]
            assert len(bounded) == stats.iterations - stats.settled_resplits
            expected, lowest = [*q.network.layers, *nets[0].layers], len(q.network.layers)
            for net, (L, _) in zip(nets[1:], stats.splits):
                lowest = min(lowest, L)
                if id(net) in {id(b) for b in bounded}:
                    expected += net.layers[lowest:]
                    seen.add("from a split" if lowest == L else "from an earlier split")
                    if lowest > 0:
                        seen.add("above layer 0")
                    lowest = len(net.layers)
            assert len(outside) == len(expected) and all(a is b for a, b in zip(outside, expected))
    assert seen == {"from a split", "from an earlier split", "above layer 0"}


def _record_solves_and_splits(monkeypatch) -> list:
    """The loop's solves and splits, in order: ``("solve", query)`` and
    ``("split", network split, point)``."""
    events = []
    real_solve, real_refine = loop.solve, loop.refine_split

    def recording_solve(query, **kwargs):
        events.append(("solve", query))
        return real_solve(query, **kwargs)

    def recording_refine(state, x0):
        events.append(("split", state.network, np.array(x0)))
        return real_refine(state, x0)

    monkeypatch.setattr(loop, "solve", recording_solve)
    monkeypatch.setattr(loop, "refine_split", recording_refine)
    return events


def test_each_network_is_checked_against_its_own_threshold(monkeypatch):
    # Criterion 2's suite.  Solving the network that ends a re-split chain
    # against the threshold tightened for the network before it answered
    # UNSAT on queries 133, 143, 314 and 381, which are SAT.  Every
    # ``cegarette`` solve must use the threshold tightened for the network
    # it solves, which ``RunStats.thresholds`` records, and every re-split
    # point (a split with no solve since the last one) must reach the
    # threshold tightened for the network it splits + EPSILON, whether the
    # loop bounded that network or the point settled the check.
    rng = np.random.default_rng(20240817)
    queries = [random_query(rng, net=random_oracle_network(rng)) for _ in range(500)]
    events = _record_solves_and_splits(monkeypatch)
    resplits = settled = 0
    for i, q in enumerate(queries):
        events.clear()
        v, stats = verify(q, "cegarette")
        if i in (133, 143, 314, 381):
            assert v.status is Status.SAT and oracle_verdict(q) == "SAT", i
        thresholds, run_resplits = [], 0
        for previous, event in zip([("solve",), *events], events):
            if event[0] == "solve":
                network, threshold = event[1].network, event[1].output.threshold
                thresholds.append(threshold)
                assert threshold == bounds.tighten_property(network, q.network, q.input, q.output).threshold, i
            elif previous[0] == "split":
                run_resplits += 1
                network = event[1]
                threshold = bounds.tighten_property(network, q.network, q.input, q.output).threshold
                assert evaluate(network, event[2])[0] >= threshold + solver.EPSILON, i
        assert thresholds == stats.thresholds, i
        assert run_resplits == stats.resplits >= stats.settled_resplits, i
        resplits += run_resplits
        settled += stats.settled_resplits
    assert resplits > 50 and settled > 0


def test_timeout_inside_a_re_split_chain(monkeypatch):
    # The clock jumps past the budget during the first re-split.  The time
    # limit is checked before each split, so the run stops at the next
    # split of the chain, with no solve after the jump.
    rng = np.random.default_rng(9)
    q = random_query(rng, net=random_network(rng, n_layers=2, max_width=5))
    events = _record_solves_and_splits(monkeypatch)
    _, stats = verify(q, "cegar")
    kinds = [e[0] for e in events]
    assert kinds[:4] == ["solve", "split", "split", "split"]  # two re-splits follow the first solve
    jump = [0.0]
    real_refine = loop.refine_split

    def refine_then_jump(state, x0):
        if events[-1][0] == "split":
            jump[0] = 1e6
        return real_refine(state, x0)

    monkeypatch.setattr(loop, "refine_split", refine_then_jump)
    monkeypatch.setattr(loop, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + jump[0]))
    events.clear()
    v, stats = verify(q, "cegar", timeout=10.0)
    assert v.status is Status.TIMEOUT
    assert v.time == stats.total_time >= 1e6
    assert [e[0] for e in events] == kinds[:3]
    assert stats.iterations == 3 and stats.resplits == 2 and len(stats.solver_times) == 1


def test_kept_point_inside_the_granularity_band_is_solved(monkeypatch):
    # The first solve's witness x0 is the abstract root's corner, which does
    # not depend on c.  c is placed so that x0's output on the network split
    # at x0 is c + EPSILON / 2, inside [c, c + EPSILON): x0 is not a witness
    # there by the falsifier's rule, so the loop must solve that network,
    # not split again.
    rng = np.random.default_rng(87)
    box = InputBox([0.0, 0.0], [1.0, 1.0])
    events = _record_solves_and_splits(monkeypatch)
    checked = 0
    while checked < 5:
        net = random_network(rng, n_inputs=2, n_layers=2, max_width=3)
        state = abstract_to_saturation(preprocess(net), nonneg_inputs=True)
        if state.excess == 0:
            continue
        v = solver.solve(Query(state.network, box, OutputProperty(-1e3)))
        x0 = v.witness
        split = refine_split(state, x0)
        c = split.guide_output() - solver.EPSILON / 2
        q = Query(net, box, OutputProperty(c))
        if split.excess == 0 or evaluate(state.network, x0)[0] < c + solver.EPSILON or is_genuine(q, x0):
            continue
        assert not v.sampled
        events.clear()
        verify(q, "cegar")
        assert [e[0] for e in events[:3]] == ["solve", "split", "solve"], checked
        assert np.array_equal(events[1][2], x0) and events[2][1].network is not state.network
        checked += 1


def test_splits_name_the_layer_whose_groups_changed(abstraction_states):
    rng = np.random.default_rng(84)
    refined = 0
    for _ in range(30):
        q = random_query(rng, net=random_network(rng, n_layers=int(rng.integers(1, 4))), nonneg=True)
        for mode in ("cegar", "cegarette"):
            abstraction_states.clear()
            _, stats = verify(q, mode)
            assert len(stats.splits) == stats.refinement_steps == len(abstraction_states) - 1
            for (L, member), old, new in zip(stats.splits, abstraction_states, abstraction_states[1:]):
                changed = [k for k, (a, b) in enumerate(zip(old.groups, new.groups)) if a != b]
                assert changed == [L] and (member,) in new.groups[L]
            refined += stats.refinement_steps
    assert refined > 50


class _KeepsNothing(dict):
    """A stand-in for ``bounds._KEPT`` under which every layer is bounded fresh."""

    def __setitem__(self, key, value):
        pass


def test_incremental_paths_match_from_scratch_reference(monkeypatch):
    # The reference run rebuilds every state with ``_make_state`` (no shared
    # layers, no kept group orders or base values) and its guide at the
    # split point with ``_guide_at`` (no kept values or scores), and bounds
    # every network from the input; verdicts, witnesses, node counts,
    # thresholds and splits must be those of the run as shipped.
    rng = np.random.default_rng(85)
    queries = [
        random_query(rng, net=random_network(rng, n_layers=int(rng.integers(2, 4)), max_width=6), nonneg=True)
        for _ in range(12)
    ]

    def run():
        out = []
        for q in queries:
            for mode in ("cegar", "cegarette"):
                v, stats = verify(q, mode)
                witness = None if v.witness is None else v.witness.tobytes()
                out.append((v.status, witness, v.nodes, stats.thresholds, stats.splits))
        return out

    shipped = run()
    real_refine = loop.refine_split

    def refine_from_scratch(state, x0):
        new = real_refine(state, x0)
        ref = _make_state(new.base, new.groups)
        return dataclasses.replace(ref, split=new.split, guide=_guide_at(ref, new.guide.point))

    monkeypatch.setattr(loop, "refine_split", refine_from_scratch)
    monkeypatch.setattr(bounds, "_KEPT", _KeepsNothing())
    assert run() == shipped
    splits = [L for *_, s in shipped for L, _ in s]
    assert sum(L > 0 for L in splits) > 20 and 0 in splits


def test_repeated_runs_do_equal_bound_work(affine_steps):
    # Kept layer bounds are scoped to one call: a second pass over the same
    # Query objects bounds as much as the first.
    rng = np.random.default_rng(50)
    queries = [random_query(rng) for _ in range(10)]
    for mode in MODES:
        work = []
        for _ in range(2):
            affine_steps.clear()
            for q in queries:
                verify(q, mode)
            work.append(len(affine_steps))
        assert work[0] == work[1] > 0, mode


def test_unknown_mode_rejected(query121):
    with pytest.raises(ValueError):
        verify(query121, "fastest")


def test_unknown_keyword_rejected(query121):
    with pytest.raises(TypeError):
        verify(query121, "cegar", timout=0.0)


def test_near_threshold_reproducer_unsat_in_every_mode():
    # The maximum on [20, 21] is exactly 340, at x = 20; c sits 5e-7 above
    # it, so the witness x = 20 misses c and must be rejected as spurious.
    net = Network(
        [Layer([[-10.0], [-1.0]], [300.0, 30.0], True), Layer([[3.0, 4.0]], [0.0], False)], 1
    )
    q = Query(net, InputBox([20.0], [21.0]), OutputProperty(340.0 + 5e-7))
    assert not is_genuine(q, np.array([20.0]))
    for mode in MODES:
        v, _ = verify(q, mode)
        assert v.status is Status.UNSAT, mode


def test_near_threshold_cross_mode_agreement():
    # Thresholds within epsilon of the sampled maximum.  Every witness must
    # pass the solver's rule on the original network, and the modes must
    # agree except inside the granularity band: UNSAT only promises that no
    # point reaches c + epsilon, so a SAT witness may sit in (c, c + epsilon)
    # where another mode's leaf LP is infeasible.  Outside that band a SAT
    # next to an UNSAT is a contradiction.
    eps = solver.EPSILON
    rng = np.random.default_rng(85)
    seen = set()
    for _ in range(60):
        q = random_query(rng, net=random_oracle_network(rng))
        ys = forward_batch(q.network, sample_box(rng, q.input, 512))[:, 0]
        c = float(ys.max() + rng.uniform(-eps, eps))
        q = Query(q.network, q.input, OutputProperty(c))
        runs = {mode: verify(q, mode)[0] for mode in MODES}
        margins = []
        for v in runs.values():
            seen.add(v.status)
            if v.status is Status.SAT:
                assert q.input.contains(v.witness)
                margins.append(evaluate(q.network, v.witness)[0] - c)
                assert margins[-1] > -1e-9
        if Status.UNSAT in {v.status for v in runs.values()}:
            assert all(m < eps for m in margins), (runs, margins)
    assert seen == {Status.SAT, Status.UNSAT}
