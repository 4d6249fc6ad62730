import argparse
import inspect
import json

import pytest

import reluverify
from reluverify import (
    MODES,
    InputBox,
    Layer,
    Network,
    OutputProperty,
    Query,
    generate_benchmarks,
    save_network,
    save_query,
    verify,
)
from reluverify.bounds import output_bounds, output_gap, tighten_property
from reluverify.cli import _build_parser, main


@pytest.fixture
def query_files(tmp_path, net121, query121):
    net_path, prop_path = tmp_path / "net.json", tmp_path / "prop.json"
    save_network(net121, net_path)
    save_query(query121, prop_path)
    return str(net_path), str(prop_path)


def test_verify_unsat(query_files, tmp_path, capsys):
    net, prop = query_files
    out = tmp_path / "run.json"
    code = main(["verify", "--net", net, "--prop", prop, "--mode", "cegarette", "--out", str(out)])
    assert code == 0
    assert "verdict: UNSAT" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["verdict"]["status"] == "UNSAT" and doc["verdict"]["sampled"] is False
    assert doc["stats"]["refinement_steps"] == 0 and doc["stats"]["sampled_counterexamples"] == 0
    assert doc["stats"]["thresholds"] == [1486.0] and doc["stats"]["settled_resplits"] == 0


def test_verify_all_modes_agree(query_files, capsys):
    net, prop = query_files
    for mode in ("direct", "cegar", "cegarette"):
        assert main(["verify", "--net", net, "--prop", prop, "--mode", mode]) == 0
        assert "verdict: UNSAT" in capsys.readouterr().out


def test_verify_timeout_exit_code(query_files):
    net, prop = query_files
    assert main(["verify", "--net", net, "--prop", prop, "--timeout", "0"]) == 124


def test_usage_errors_exit_1(query_files):
    net, prop = query_files
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--net", net, "--prop", prop, "--mode", "bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_internal_error_exit_2(query_files, monkeypatch):
    import reluverify.cli as cli

    def boom(*a, **kw):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(cli, "verify", boom)
    net, prop = query_files
    assert main(["verify", "--net", net, "--prop", prop]) == 2


def test_numerical_failure_exits_2_with_one_line(tmp_path, capsys):
    # y = relu(x + 1e12) - 1e12 is x in real arithmetic, but 0 in float64 on
    # [0, 1e-5]: the leaf LP's witness for c = 5e-6 fails re-evaluation in
    # every mode, and the CLI names that failure in one line.
    net = Network([Layer([[1.0]], [1e12], True), Layer([[1.0]], [-1e12], False)], 1)
    net_path, prop_path = tmp_path / "net.json", tmp_path / "prop.json"
    save_network(net, net_path)
    save_query(Query(net, InputBox([0.0], [1e-5]), OutputProperty(5e-6)), prop_path)
    for mode in MODES:
        assert main(["verify", "--net", str(net_path), "--prop", str(prop_path), "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("reluverify: numerical failure: SolverError: ") and err.count("\n") == 1, mode


def test_missing_file_exit_1(tmp_path, query_files):
    net, _ = query_files
    assert main(["verify", "--net", net, "--prop", str(tmp_path / "nope.json")]) == 1


def test_malformed_file_exit_1(tmp_path, query_files):
    _, prop = query_files
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["verify", "--net", str(bad), "--prop", prop]) == 1


_MALFORMED = [
    pytest.param(0, lambda doc: doc["layers"][0].update(weights="ab"), id="text-weights"),
    pytest.param(0, lambda doc: doc["layers"][0].update(weights=[[10.0], [1.0, 2.0]]), id="ragged-weights"),
    pytest.param(0, lambda doc: doc.update(input_size="1"), id="text-input-size"),
    pytest.param(0, lambda doc: doc.update(domain="lowerupper"), id="text-domain"),
    pytest.param(1, lambda doc: doc.update(output_threshold="x"), id="text-threshold"),
    pytest.param(1, lambda doc: doc.update(output_threshold=None), id="null-threshold"),
]


@pytest.mark.parametrize("which, edit", _MALFORMED)
def test_malformed_values_exit_1_with_one_line(query_files, capsys, which, edit):
    path = query_files[which]
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    net, prop = query_files
    assert main(["verify", "--net", net, "--prop", prop]) == 1
    err = capsys.readouterr().err
    assert err.startswith("reluverify: ") and err.count("\n") == 1, err


_MISBUILT = [
    pytest.param(0, lambda doc: doc.update(input_size="1"), id="network-input-size"),
    pytest.param(0, lambda doc: doc.update(domain={"lower": [1.0], "upper": [0.0]}), id="network-domain"),
    pytest.param(1, lambda doc: doc.update(output_threshold="x"), id="query-threshold"),
    pytest.param(1, lambda doc: doc.update(input_lower=[22.0]), id="query-box"),
    pytest.param(1, lambda doc: doc.update(input_lower=[20.0, 0.0], input_upper=[21.0, 1.0]), id="query-dimension"),
    # numpy and float() would read these as numbers: "10" as 10, true as 1.
    pytest.param(0, lambda doc: doc["layers"][0].update(weights=[["10"], [1.0]]), id="network-string-weight"),
    pytest.param(0, lambda doc: doc["layers"][0].update(biases=[False, False]), id="network-boolean-biases"),
    pytest.param(1, lambda doc: doc.update(output_threshold="800"), id="query-string-threshold"),
    pytest.param(1, lambda doc: doc.update(output_threshold=True), id="query-boolean-threshold"),
    pytest.param(1, lambda doc: doc.update(input_lower=["20"]), id="query-string-bound"),
]


@pytest.mark.parametrize("which, edit", _MISBUILT)
def test_errors_building_network_or_query_name_the_file(query_files, capsys, which, edit):
    path = query_files[which]
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    net, prop = query_files
    assert main(["verify", "--net", net, "--prop", prop]) == 1
    assert capsys.readouterr().err.startswith(f"reluverify: {path}: ")


def test_out_reports_sampled_counterexamples(tmp_path):
    # y = 0.5 - |x - 0.3| on [-1, 1] with c = 0.4: the root is unstable,
    # and its corner x = -1 (every unknown neuron counted inactive) misses
    # c, so the falsifier finds the witness in every mode.
    net = Network([Layer([[1.0], [-1.0]], [-0.3, 0.3], True), Layer([[-1.0, -1.0]], [0.5], False)], 1)
    net_path, prop_path, out = tmp_path / "net.json", tmp_path / "prop.json", tmp_path / "run.json"
    save_network(net, net_path)
    save_query(Query(net, InputBox([-1.0], [1.0]), OutputProperty(0.4)), prop_path)
    for mode in MODES:
        assert main(["verify", "--net", str(net_path), "--prop", str(prop_path), "--mode", mode, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"]["status"] == "SAT" and doc["verdict"]["sampled"] is True
        assert doc["stats"]["sampled_counterexamples"] == 1


@pytest.mark.parametrize("modes", ["direct,cegr", ",", "cegar,cegar"])
def test_bench_rejects_bad_modes(tmp_path, capsys, modes):
    suite = tmp_path / "suite"
    generate_benchmarks(2, 1, suite)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", str(suite), "--modes", modes, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("reluverify: modes must be")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["gen", "--seed", "1", "--count", "-3", "--out", "{dir}/gen"], "--count"),
        (["bench", "--suite", "{dir}/suite", "--modes", "direct", "--jobs", "-2", "--out", "{dir}/bench.csv"], "--jobs"),
    ],
    ids=["count", "jobs"],
)
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv, option):
    generate_benchmarks(2, 1, tmp_path / "suite")
    with pytest.raises(SystemExit) as exc:
        main([a.format(dir=tmp_path) for a in argv])
    assert exc.value.code == 1
    assert f"argument {option}: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "gen").exists() and not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("value", ["nan", "-1", "-0.5"])
@pytest.mark.parametrize("command", ["verify", "bench"])
def test_invalid_timeouts_are_usage_errors(query_files, tmp_path, capsys, command, value):
    # NaN used to run with no limit and exit 0; a negative limit used to
    # run and be reported as a timeout.
    net, prop = query_files
    if command == "verify":
        argv = ["verify", "--net", net, "--prop", prop]
    else:
        generate_benchmarks(2, 1, tmp_path / "suite")
        argv = ["bench", "--suite", str(tmp_path / "suite"), "--out", str(tmp_path / "bench.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--timeout", value])
    assert exc.value.code == 1
    assert "argument --timeout: must be 0 or more seconds" in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


def test_verify_rejects_a_nan_timeout(query121):
    for mode in MODES:
        with pytest.raises(ValueError, match="NaN"):
            verify(query121, mode, timeout=float("nan"))


def test_gen_and_bench_pipeline(tmp_path, capsys):
    suite = tmp_path / "suite"
    assert main(["gen", "--seed", "2", "--count", "5", "--out", str(suite)]) == 0
    assert (suite / "manifest.json").exists()
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--suite",
            str(suite),
            "--modes",
            "cegar,cegarette",
            "--timeout",
            "30",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "cegar_vs_cegarette" in printed


def _subcommand_options(name: str) -> set[str]:
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[name]._actions for opt in action.option_strings}


def _signature(fn) -> list[tuple]:
    return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]


def _required(*names: str) -> list[tuple]:
    return [(n, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty) for n in names]


def test_option_surface():
    # Every option here has a caller that needs more than one value; the
    # tolerances, the refinement batch and the generated network shape are
    # constants of the library, not options.
    help_ = {"-h", "--help"}
    assert _subcommand_options("verify") == help_ | {
        "--net", "--prop", "--mode", "--timeout", "--out"
    }
    assert _subcommand_options("bench") == help_ | {
        "--suite", "--modes", "--timeout", "--jobs", "--out"
    }
    assert _subcommand_options("gen") == help_ | {"--seed", "--count", "--out", "--kind"}
    assert _signature(verify) == _required("q", "mode") + [
        ("timeout", inspect.Parameter.POSITIONAL_OR_KEYWORD, None)
    ]
    # SBT is the one bound: no method selector on any bound entry point.
    assert _signature(output_bounds) == _required("net", "box")
    assert _signature(output_gap) == _required("abstract", "original", "box")
    assert _signature(tighten_property) == _required("abstract", "original", "box", "prop")
    for gone in (
        "BoundMethod", "SymbolicBoundsMap", "Category", "Sign", "Direction",
        "merge_pair", "identity_state",
    ):
        assert not hasattr(reluverify, gone) and gone not in reluverify.__all__


_BAD_MANIFESTS = [
    pytest.param(lambda doc: "{broken", id="malformed-json"),
    pytest.param(lambda doc: [doc], id="top-level-list"),
    pytest.param(lambda doc: {"kind": doc["kind"]}, id="no-queries"),
    pytest.param(lambda doc: {**doc, "queries": doc["queries"][0]}, id="queries-not-a-list"),
    pytest.param(lambda doc: {**doc, "queries": ["q0000"]}, id="entry-not-an-object"),
    pytest.param(
        lambda doc: {**doc, "queries": [{"id": "q0000", "query": "q0000/query.json"}]},
        id="entry-without-net",
    ),
    pytest.param(
        lambda doc: {**doc, "queries": [{"id": "q0000", "net": 3, "query": "q0000/query.json"}]},
        id="net-not-a-string",
    ),
    pytest.param(lambda doc: {**doc, "queries": doc["queries"][:1] * 2}, id="repeated-id"),
]


@pytest.mark.parametrize("edit", _BAD_MANIFESTS)
def test_bad_manifests_exit_1_naming_the_file(tmp_path, capsys, edit):
    # These used to end in a traceback and exit 2.
    suite = tmp_path / "suite"
    generate_benchmarks(2, 2, suite)
    path = suite / "manifest.json"
    doc = edit(json.loads(path.read_text()))
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", str(suite), "--modes", "direct", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"reluverify: {path}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_gen_out_naming_a_file_exits_1(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["gen", "--seed", "1", "--count", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("reluverify: ") and str(out) in err and err.count("\n") == 1, err


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--seed", "-1", "--count", "1", "--out", str(tmp_path / "gen")])
    assert exc.value.code == 1
    assert "argument --seed: must be 0 or more, got -1" in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("which, name", [(0, "net.json"), (0, "net.nnet"), (1, "prop.json")])
def test_non_utf8_input_exits_1_naming_the_file(query_files, tmp_path, capsys, which, name):
    # A file starting with byte 0xff used to end in a UnicodeDecodeError
    # traceback and exit 2.
    bad = tmp_path / "bad" / name
    bad.parent.mkdir()
    bad.write_bytes(b"\xff" + b"1,2,3\n" * 8)
    args = list(query_files)
    args[which] = str(bad)
    assert main(["verify", "--net", args[0], "--prop", args[1]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"reluverify: {bad}: not UTF-8") and err.count("\n") == 1, err


def test_verify_out_in_a_missing_directory_exits_before_solving(query_files, tmp_path, capsys, monkeypatch):
    import reluverify.cli as cli

    solved = []
    monkeypatch.setattr(cli, "verify", lambda *a, **kw: solved.append(a))
    net, prop = query_files
    out = tmp_path / "missing" / "v.json"
    assert main(["verify", "--net", net, "--prop", prop, "--out", str(out)]) == 1
    assert solved == []
    assert capsys.readouterr().err.startswith(f"reluverify: {out}: ")


def test_bench_out_in_a_missing_directory_exits_before_deciding(tmp_path, capsys, monkeypatch):
    import reluverify.harness as harness

    decided = []
    monkeypatch.setattr(harness, "verify", lambda *a, **kw: decided.append(a))
    suite = tmp_path / "suite"
    generate_benchmarks(2, 2, suite)
    out = tmp_path / "missing" / "x.csv"
    assert main(["bench", "--suite", str(suite), "--modes", "direct", "--out", str(out)]) == 1
    assert decided == []
    assert capsys.readouterr().err.startswith(f"reluverify: {out}: ")


def test_out_lists_each_split(query_files, tmp_path):
    net, prop = query_files
    out = tmp_path / "run.json"
    assert main(["verify", "--net", net, "--prop", prop, "--mode", "cegar", "--out", str(out)]) == 0
    stats = json.loads(out.read_text())["stats"]
    assert stats["refinement_steps"] >= 1
    assert stats["splits"] == [[0, 1]] * stats["refinement_steps"]


def test_verify_prints_solves(query_files, tmp_path, capsys):
    # The summary line counts solves apart from iterations: an iteration
    # that splits again at the kept counterexample solves nothing.
    net, prop = query_files
    out = tmp_path / "run.json"
    assert main(["verify", "--net", net, "--prop", prop, "--mode", "cegar", "--out", str(out)]) == 0
    stats = json.loads(out.read_text())["stats"]
    solves = len(stats["solver_times"])
    assert solves == stats["iterations"] - stats["resplits"]
    summary = f"iterations: {stats['iterations']}  refinements: {stats['refinement_steps']}  solves: {solves}  "
    assert summary in capsys.readouterr().out
