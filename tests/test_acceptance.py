"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight
fixtures (the 500-query oracle suite and the 200-query robustness bench)
are module-scoped and shared between criteria.
"""

import os
import time

import numpy as np
import pytest

from reluverify import (
    InputBox,
    OutputProperty,
    Query,
    abstract_to_saturation,
    evaluate,
    ibp,
    load_network,
    load_query,
    output_gap,
    preprocess,
    run_bench,
    sbt,
    save_network,
    tighten_property,
    verify,
)
from reluverify.harness import generate_benchmarks

from conftest import (
    forward_batch,
    oracle_verdict,
    random_box,
    random_network,
    random_oracle_network,
    random_query,
    sample_box,
)

EPS = 1e-6


def _report(n: int, ok: bool, detail: str):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def oracle_suite():
    """500 random queries on nets with <= 8 hidden neurons, solved in every
    mode and by the exhaustive oracle."""
    rng = np.random.default_rng(20240817)
    rows = []
    for _ in range(500):
        q = random_query(rng, net=random_oracle_network(rng))
        truth = oracle_verdict(q, epsilon=EPS)
        runs = {}
        for name in ("direct", "cegar", "cegarette"):
            runs[name] = verify(q, name)
        rows.append((q, truth, runs))
    return rows


@pytest.fixture(scope="module")
def robust_bench(tmp_path_factory):
    """Seeded robustness suite (2-4 hidden layers of 10-30 neurons, all
    certified UNSAT) and its Table-style bench results."""
    suite = tmp_path_factory.mktemp("robust_suite")
    manifest = generate_benchmarks(424242, 200, suite, kind="robust")
    out_csv = suite / "bench.csv"
    records, summary = run_bench(
        suite,
        ["cegar", "cegarette"],
        timeout=60.0,
        jobs=max(1, os.cpu_count() or 1),
        out_csv=out_csv,
    )
    return suite, manifest, records, summary, out_csv


# ---------------------------------------------------------------- criteria


def test_criterion_1_running_example(tmp_path):
    t0 = time.monotonic()
    path = tmp_path / "net.json"
    path.write_text(
        '{"input_size": 1, "layers": ['
        '{"weights": [[10.0], [1.0]], "biases": [0.0, 0.0], "activation": "relu"},'
        '{"weights": [[3.0, 4.0]], "biases": [0.0], "activation": "none"}]}\n'
    )
    net = load_network(path)
    box = InputBox([20.0], [21.0])
    state = abstract_to_saturation(preprocess(net), nonneg_inputs=True)
    assert np.array_equal(state.network.layers[0].weights, [[10.0]])
    assert np.array_equal(state.network.layers[1].weights, [[7.0]])

    lo, hi = ibp(net, box).output_interval
    assert abs(lo - 680.0) <= 1e-9 and abs(hi - 714.0) <= 1e-9
    lo_a, hi_a = ibp(state.network, box).output_interval
    assert abs(lo_a - 1400.0) <= 1e-9 and abs(hi_a - 1470.0) <= 1e-9

    d = output_gap(state.network, net, box)
    assert abs(d - 686.0) <= 1e-9
    prop = tighten_property(state.network, net, box, OutputProperty(800.0))
    assert abs(prop.threshold - 1486.0) <= 1e-9

    q = Query(net, box, OutputProperty(800.0))
    v_t, s_t = verify(q, "cegarette")
    v_g, s_g = verify(q, "cegar")
    assert v_t.status.value == "UNSAT" and s_t.refinement_steps == 0
    assert v_g.status.value == "UNSAT" and s_g.refinement_steps >= 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        elapsed < 1.0,
        f"golden example exact (gap {d:.0f}, threshold {prop.threshold:.0f}, "
        f"cegar {s_g.refinement_steps} refinements, cegarette 0) in {elapsed:.2f}s",
    )


def test_criterion_2_oracle_agreement(oracle_suite):
    mismatches = 0
    for q, truth, runs in oracle_suite:
        for name, (v, _) in runs.items():
            if v.status.value != truth:
                mismatches += 1
    _report(
        2,
        mismatches == 0,
        f"500 queries x 3 modes agree with the exhaustive oracle "
        f"({mismatches} mismatches)",
    )


def test_criterion_3_over_approximation(abstraction_states):
    rng = np.random.default_rng(31337)
    violations = 0
    states_checked = 0
    for _ in range(200):
        q = random_query(rng, net=random_oracle_network(rng))
        trace = abstraction_states
        trace.clear()
        verify(q, "cegarette")
        X = sample_box(rng, q.input, 100)
        orig = forward_batch(q.network, X)[:, 0]
        for state in trace:
            states_checked += 1
            abst = forward_batch(state.network, X)[:, 0]
            violations += int(np.any(abst < orig - 1e-9))
    _report(
        3,
        violations == 0,
        f"200 nets, {states_checked} abstraction states x 100 samples: "
        f"{violations} over-approximation violations",
    )


def test_criterion_4_preprocessing_equivalence():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(200):
        net = random_network(rng)
        cat = preprocess(net)
        box = random_box(rng, net.input_size)
        X = sample_box(rng, box, 100)
        diff = np.abs(forward_batch(cat.network, X) - forward_batch(net, X)).max()
        worst = max(worst, float(diff))
    _report(4, worst <= 1e-9, f"200 nets x 100 samples, max |cat - orig| = {worst:.2e}")


def test_criterion_5_convergence(oracle_suite, robust_bench):
    # Loop-internal assertions already abort any run violating the bound or
    # hitting an impossible refinement; re-check the recorded stats here.
    bad = 0
    for q, truth, runs in oracle_suite:
        for name in ("cegar", "cegarette"):
            v, stats = runs[name]
            if stats.iterations > 1 + stats.initial_excess:
                bad += 1
    suite, manifest, records, summary, _ = robust_bench
    nets = {e["id"]: e for e in manifest["queries"]}
    for rec in records:
        entry = nets[rec.query_id]
        net = load_network(os.path.join(suite, entry["net"]))
        q = load_query(os.path.join(suite, entry["query"]), net)
        state = abstract_to_saturation(
            preprocess(q.network), nonneg_inputs=bool(np.all(q.input.lower >= 0))
        )
        if rec.verdict == "ERROR" or rec.iterations > 1 + state.excess:
            bad += 1
    _report(
        5,
        bad == 0,
        f"iteration count <= 1 + initial merge excess on all "
        f"{2 * len(oracle_suite) + len(records)} refinement runs ({bad} violations)",
    )


def test_criterion_6_refinement_dominance(robust_bench):
    suite, manifest, records, summary, out_csv = robust_bench
    n_queries = manifest["count"]
    assert n_queries >= 200
    cegar = summary["modes"]["cegar"]
    cegarette = summary["modes"]["cegarette"]
    total_ref_cegar = sum(r.refinements for r in records if r.mode == "cegar")
    total_ref_cegarette = sum(r.refinements for r in records if r.mode == "cegarette")
    ok = (
        total_ref_cegarette <= total_ref_cegar
        and cegarette["finished"] >= cegar["finished"]
        and all(r.verdict in ("UNSAT", "TIMEOUT") for r in records)
    )
    print(f"\nTable-style summary over {n_queries} certified-UNSAT robustness queries:")
    print(f"  {'mode':<10} {'finished':>9} {'timeouts':>9} {'total refinements':>18}")
    for mode in ("cegar", "cegarette"):
        m = summary["modes"][mode]
        tot = total_ref_cegar if mode == "cegar" else total_ref_cegarette
        print(f"  {mode:<10} {m['finished']:>9} {m['timeouts']:>9} {tot:>18}")
    pair = summary["pairs"]["cegar_vs_cegarette"]
    print(f"  pairwise (both finished {pair['both_finished']}): "
          f"cegar faster {pair['cegar_faster']}, cegarette faster {pair['cegarette_faster']}, "
          f"cegar fewer refinements {pair['cegar_fewer_refinements']}, "
          f"cegarette fewer refinements {pair['cegarette_fewer_refinements']}")
    print(f"  full CSV: {out_csv}")
    _report(
        6,
        ok,
        f"refinements {total_ref_cegarette} (cegarette) <= {total_ref_cegar} (cegar); "
        f"finished {cegarette['finished']} >= {cegar['finished']}",
    )


def test_criterion_7_sbt_dominance(oracle_suite):
    rng = np.random.default_rng(1618)
    violations = 0
    for q, _, _ in oracle_suite:
        net, box = q.network, q.input
        ibp_map = ibp(net, box)
        _, sbt_map = sbt(net, box)
        if not ibp_map.contains(sbt_map, slack=1e-12):
            violations += 1
            continue
        ys = forward_batch(net, sample_box(rng, box, 10_000))[:, 0]
        for bm in (ibp_map, sbt_map):
            lo, hi = bm.output_interval
            if np.any(ys < lo - 1e-9) or np.any(ys > hi + 1e-9):
                violations += 1
    _report(
        7,
        violations == 0,
        f"SBT within IBP and both sound on 10000 samples for all "
        f"{len(oracle_suite)} nets ({violations} violations)",
    )
