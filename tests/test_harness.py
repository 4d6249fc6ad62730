import csv
import hashlib
import json
import os

import numpy as np
import pytest

from reluverify import (
    Layer,
    Network,
    RobustnessSpec,
    ValidationError,
    evaluate,
    exhaustive_verdict,
    generate_benchmarks,
    load_network,
    load_query,
    reduce_to_single_output,
    run_bench,
    verify,
)
from reluverify.bounds import output_bounds
from reluverify.harness import CSV_COLUMNS, load_manifest

from conftest import oracle_verdict, random_network


def _multiclass_net(rng, n_inputs=3, n_outputs=10):
    return random_network(rng, n_inputs=n_inputs, n_layers=2, max_width=4, n_outputs=n_outputs)


def test_reduction_structure():
    rng = np.random.default_rng(91)
    net = _multiclass_net(rng)
    center = rng.uniform(0.2, 0.8, size=net.input_size)
    spec = RobustnessSpec(net, center, 0.05, label=4)
    queries = reduce_to_single_output(spec)
    assert len(queries) == 9
    for q in queries:
        assert q.network.output_size == 1
        assert q.output.threshold == 0.0
        assert np.all(q.input.lower >= 0.0) and np.all(q.input.upper <= 1.0)  # clipped


def test_difference_network_evaluates_margins():
    rng = np.random.default_rng(92)
    net = _multiclass_net(rng, n_outputs=2)
    center = rng.uniform(0.3, 0.7, size=net.input_size)
    label = int(np.argmax(evaluate(net, center)))
    spec = RobustnessSpec(net, center, 0.1, label=label)
    (q,) = reduce_to_single_output(spec)
    for _ in range(20):
        x = rng.uniform(q.input.lower, q.input.upper)
        z = evaluate(net, x)
        other = 1 - label
        assert evaluate(q.network, x)[0] == pytest.approx(z[other] - z[label], abs=1e-9)


def test_zero_radius_spec_is_robust():
    rng = np.random.default_rng(93)
    net = _multiclass_net(rng, n_outputs=10)
    center = rng.uniform(0.2, 0.8, size=net.input_size)
    label = int(np.argmax(evaluate(net, center)))
    spec = RobustnessSpec(net, center, 0.0, label=label)
    queries = reduce_to_single_output(spec)
    assert len(queries) == 9
    for q in queries:
        v, _ = verify(q, "direct")
        assert v.status.value == "UNSAT"


def test_reduction_soundness_against_sampling_attack():
    # When every reduced query is UNSAT, no point of the ball (10 000
    # samples) may change the classification.
    rng = np.random.default_rng(96)
    checked = 0
    while checked < 3:
        net = _multiclass_net(rng, n_inputs=4, n_outputs=3)
        center = rng.uniform(0.2, 0.8, size=net.input_size)
        label = int(np.argmax(evaluate(net, center)))
        spec = RobustnessSpec(net, center, 0.02, label=label)
        queries = reduce_to_single_output(spec)
        verdicts = [verify(q, "direct")[0].status.value for q in queries]
        if set(verdicts) != {"UNSAT"}:
            continue  # ball too large for this draw; try another
        checked += 1
        box = queries[0].input
        X = rng.uniform(box.lower, box.upper, size=(10_000, net.input_size))
        from conftest import forward_batch

        assert np.all(np.argmax(forward_batch(net, X), axis=1) == label)
        for x in X[rng.integers(0, 10_000, size=50)]:  # exact eval on a subsample
            assert int(np.argmax(evaluate(net, x))) == label


def test_spec_validation():
    rng = np.random.default_rng(94)
    net = _multiclass_net(rng, n_outputs=3)
    center = np.full(net.input_size, 0.5)
    with pytest.raises(ValidationError):
        RobustnessSpec(net, center, -0.1, label=0)
    with pytest.raises(ValidationError):
        RobustnessSpec(net, center, 0.1, label=3)
    with pytest.raises(ValidationError):
        RobustnessSpec(net, [0.5], 0.1, label=0)


def test_exhaustive_verdict_matches_test_oracle():
    rng = np.random.default_rng(95)
    from conftest import random_oracle_network, random_query

    for _ in range(40):
        q = random_query(rng, net=random_oracle_network(rng))
        assert exhaustive_verdict(q) == oracle_verdict(q)


def _dir_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def test_generate_oracle_suite_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    m1 = generate_benchmarks(42, 12, a, kind="oracle")
    m2 = generate_benchmarks(42, 12, b, kind="oracle")
    assert m1 == m2
    assert _dir_digest(a) == _dir_digest(b)
    assert m1["count"] == 12


def test_oracle_suite_labels_match_direct(tmp_path):
    suite = tmp_path / "suite"
    manifest = generate_benchmarks(7, 12, suite, kind="oracle")
    labels = {e["label"] for e in manifest["queries"]}
    assert labels == {"SAT", "UNSAT"}  # a real mix
    for entry in manifest["queries"]:
        net = load_network(suite / entry["net"])
        q = load_query(suite / entry["query"], net)
        v, _ = verify(q, "direct")
        assert v.status.value == entry["label"]


def test_generate_robust_suite_certified_unsat(tmp_path):
    suite = tmp_path / "robust"
    manifest = generate_benchmarks(3, 6, suite, kind="robust")
    assert manifest["count"] == 6
    for entry in manifest["queries"]:
        assert entry["label"] == "UNSAT"
        assert entry["label_source"] == "certified"
        assert 2 <= len(entry["hidden_sizes"]) <= 4
        net = load_network(suite / entry["net"])
        q = load_query(suite / entry["query"], net)
        assert output_bounds(q.network, q.input)[1] <= 0.0


def test_run_bench_bookkeeping(tmp_path):
    suite = tmp_path / "suite"
    generate_benchmarks(11, 8, suite, kind="oracle")
    out = tmp_path / "results.csv"
    records, summary = run_bench(suite, ["direct", "cegar", "cegarette"], timeout=30.0, out_csv=out)
    assert len(records) == 24
    seen = {(r.query_id, r.mode) for r in records}
    assert len(seen) == 24  # exactly one record per pair
    for mode, agg in summary["modes"].items():
        assert agg["finished"] + agg["timeouts"] + agg["errors"] == 8
        assert agg["errors"] == 0
    # verdict consistency across modes on completed queries
    by_query = {}
    for r in records:
        by_query.setdefault(r.query_id, set()).add(r.verdict)
    for verdicts in by_query.values():
        assert len(verdicts - {"TIMEOUT"}) == 1
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 25
    assert os.path.exists(str(out) + ".summary.json")


def test_run_bench_parallel_matches_serial(tmp_path):
    suite = tmp_path / "suite"
    generate_benchmarks(13, 6, suite, kind="oracle")
    r1, _ = run_bench(suite, ["direct", "cegarette"], jobs=1)
    r2, _ = run_bench(suite, ["direct", "cegarette"], jobs=2)
    key = lambda r: (r.query_id, r.mode, r.verdict, r.refinements, r.iterations)
    assert [key(r) for r in r1] == [key(r) for r in r2]


def test_empty_suite(tmp_path):
    suite = tmp_path / "empty"
    os.makedirs(suite)
    with open(suite / "manifest.json", "w") as fh:
        json.dump({"kind": "oracle", "seed": 0, "count": 0, "queries": []}, fh)
    out = tmp_path / "empty.csv"
    records, summary = run_bench(suite, ["direct"], out_csv=out)
    assert records == []
    with open(out) as fh:
        assert list(csv.reader(fh)) == [CSV_COLUMNS]


def test_manifest_roundtrip(tmp_path):
    suite = tmp_path / "suite"
    manifest = generate_benchmarks(5, 4, suite, kind="oracle")
    assert load_manifest(suite) == manifest


@pytest.mark.parametrize("modes", [[], ["direct", "cegr"], ["cegar", "direct", "cegar"]])
def test_run_bench_rejects_bad_modes_before_any_task(tmp_path, monkeypatch, modes):
    import reluverify.harness as harness

    calls = []
    monkeypatch.setattr(harness, "verify", lambda *a, **kw: calls.append(a))
    suite = tmp_path / "suite"
    generate_benchmarks(17, 2, suite, kind="oracle")
    out = tmp_path / "results.csv"
    with pytest.raises(ValidationError, match="modes must be"):
        run_bench(suite, modes, out_csv=out)
    assert calls == [] and not out.exists()


def test_error_records_carry_the_exception(tmp_path, monkeypatch):
    import reluverify.harness as harness

    def boom(*a, **kw):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(harness, "verify", boom)
    suite = tmp_path / "suite"
    generate_benchmarks(17, 2, suite, kind="oracle")
    out = tmp_path / "results.csv"
    records, summary = run_bench(suite, ["direct"], out_csv=out)
    assert [r.verdict for r in records] == ["ERROR", "ERROR"]
    assert all(r.error == "RuntimeError: induced failure" for r in records)
    assert summary["modes"]["direct"]["errors"] == 2
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["error"] for row in rows] == ["RuntimeError: induced failure"] * 2


def test_unknown_kind_creates_no_directory(tmp_path):
    with pytest.raises(ValueError, match="unknown benchmark kind"):
        generate_benchmarks(1, 1, tmp_path / "suite", kind="bogus")
    assert not (tmp_path / "suite").exists()


def test_written_files_keep_their_layout(tmp_path):
    # Net and query files are one compact line; the manifest and the bench
    # summary are indented by one space.
    suite = tmp_path / "suite"
    generate_benchmarks(5, 1, suite, kind="oracle")
    for name in ("net.json", "query.json"):
        text = (suite / "q0000" / name).read_text()
        assert text.endswith("}\n") and text.count("\n") == 1 and ": " in text
    assert (suite / "manifest.json").read_text().startswith('{\n "kind": "oracle",\n "seed": 5,\n')
    out = tmp_path / "results.csv"
    run_bench(suite, ["direct"], out_csv=out)
    summary = tmp_path / "results.csv.summary.json"
    assert summary.read_text().startswith('{\n "modes": {\n  "direct": {\n')
