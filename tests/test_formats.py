import ast
import json
from pathlib import Path

import numpy as np
import pytest

import reluverify
from reluverify import (
    FormatError,
    InputBox,
    Layer,
    Network,
    OutputProperty,
    Query,
    ValidationError,
    evaluate,
    load_network,
    load_query,
    save_network,
    save_query,
)
from reluverify.formats import load_nnet

from conftest import random_box, random_network


def test_json_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(20):
        net = random_network(rng, n_layers=3)
        path = tmp_path / f"net{i}.json"
        save_network(net, path)
        back = load_network(path)
        assert back.input_size == net.input_size
        assert len(back.layers) == len(net.layers)
        for la, lb in zip(net.layers, back.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)
            assert la.relu == lb.relu


def test_domain_roundtrip(tmp_path):
    net = Network(
        [Layer([[1.0]], [0.0], True), Layer([[1.0]], [0.0], False)],
        input_size=1,
        domain=([0.0], [2.5]),
    )
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert np.array_equal(back.domain[0], [0.0])
    assert np.array_equal(back.domain[1], [2.5])


def test_load_running_example(tmp_path, net121):
    path = tmp_path / "net.json"
    save_network(net121, path)
    net = load_network(path)
    assert np.array_equal(net.layers[0].weights, [[10.0], [1.0]])
    assert np.array_equal(net.layers[1].weights, [[3.0, 4.0]])


def test_malformed_network_files(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FormatError, match="line"):
        load_network(p)
    p.write_text(json.dumps({"input_size": 1, "layers": []}))
    with pytest.raises(FormatError, match="layers"):
        load_network(p)
    p.write_text(json.dumps({"layers": [{}]}))
    with pytest.raises(FormatError, match="input_size"):
        load_network(p)
    p.write_text(
        json.dumps(
            {
                "input_size": 1,
                "layers": [
                    {"weights": [[1.0]], "biases": [0.0], "activation": "relu"},
                    {"weights": [[1.0, 2.0]], "biases": [0.0], "activation": "none"},
                ],
            }
        )
    )
    with pytest.raises(ValidationError, match="columns"):
        load_network(p)
    p.write_text(
        json.dumps(
            {
                "input_size": 1,
                "layers": [{"weights": [[1.0]], "biases": [0.0], "activation": "tanh"}],
            }
        )
    )
    with pytest.raises(FormatError, match="activation"):
        load_network(p)


NNET_TEXT = """\
// small test network
2,1,1,2,
1,2,1,
0,
-1.0,
1.0,
0.0,0.0,
1.0,1.0,
10.0,
1.0,
0.0,
0.0,
3.0,4.0,
0.0,
"""


def test_nnet_reader(tmp_path):
    p = tmp_path / "tiny.nnet"
    p.write_text(NNET_TEXT)
    net = load_network(p)
    assert net.input_size == 1 and net.output_size == 1
    assert np.array_equal(net.layers[0].weights, [[10.0], [1.0]])
    assert np.array_equal(net.layers[1].weights, [[3.0, 4.0]])
    assert evaluate(net, [21.0]) == pytest.approx([714.0])


def test_nnet_truncated(tmp_path):
    p = tmp_path / "trunc.nnet"
    p.write_text("\n".join(NNET_TEXT.splitlines()[:9]))
    with pytest.raises(FormatError, match="layer"):
        load_nnet(p)


# (file name, line of NNET_TEXT replaced, its new text, expected error)
_MALFORMED_NNET = [
    ("inf-header", 1, "inf,1,1,2,", FormatError),
    ("inf-size", 2, "1,inf,1,", FormatError),
    ("fractional-count", 1, "2.9,1,1,2,", FormatError),
    ("fractional-size", 2, "1,2.7,1,", FormatError),
    ("nan-weight", 8, "nan,", ValidationError),
    ("zero-size", 2, "1,0,1,", ValidationError),
    ("negative-size", 2, "1,-2,1,", ValidationError),
    ("wide-row", 8, "10.0,2.0,", ValidationError),
]


@pytest.mark.parametrize("name, line, text, error", _MALFORMED_NNET, ids=[c[0] for c in _MALFORMED_NNET])
def test_nnet_malformed_names_the_file_once(tmp_path, name, line, text, error):
    # Each malformed file raises an input-file error whose message names
    # the file exactly once.
    lines = NNET_TEXT.splitlines()
    lines[line] = text
    p = tmp_path / f"{name}.nnet"
    p.write_text("\n".join(lines))
    with pytest.raises(error) as info:
        load_nnet(p)
    assert str(info.value).count(str(p)) == 1, str(info.value)


def test_nnet_negative_layer_count(tmp_path):
    # A layer count below 1 is a validation error naming the file, not an
    # IndexError from reading the empty sizes list.
    lines = NNET_TEXT.splitlines()
    p = tmp_path / "negative.nnet"
    p.write_text("\n".join([lines[0], "-1,2,1,", ","] + lines[3:]))
    with pytest.raises(ValidationError, match="negative.nnet"):
        load_nnet(p)


def test_query_roundtrip(tmp_path, net121, query121):
    p = tmp_path / "query.json"
    save_query(query121, p)
    q = load_query(p, net121)
    assert np.array_equal(q.input.lower, [20.0])
    assert np.array_equal(q.input.upper, [21.0])
    assert q.output.threshold == 800.0


def test_query_validation(tmp_path, net121):
    p = tmp_path / "q.json"
    p.write_text(json.dumps({"input_lower": [1.0], "input_upper": [0.0], "output_threshold": 0.0}))
    with pytest.raises(ValidationError):
        load_query(p, net121)
    p.write_text(json.dumps({"input_lower": [0.0, 0.0], "input_upper": [1.0, 1.0], "output_threshold": 0.0}))
    with pytest.raises(ValidationError):
        load_query(p, net121)
    p.write_text(json.dumps({"input_lower": [0.0]}))
    with pytest.raises(FormatError, match="input_upper"):
        load_query(p, net121)


def test_query_fuzz_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    for i in range(100):
        net = random_network(rng)
        box = random_box(rng, net.input_size)
        q = Query(net, box, OutputProperty(float(rng.normal())))
        p = tmp_path / f"q{i}.json"
        save_query(q, p)
        back = load_query(p, net)
        assert np.array_equal(back.input.lower, box.lower)
        assert np.array_equal(back.input.upper, box.upper)
        assert back.output.threshold == q.output.threshold


def test_only_formats_parses_or_writes_json():
    # Every JSON file goes through formats.read_json / write_json, so a
    # malformed JSON input always fails as a FormatError naming the file.
    package = Path(reluverify.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "formats.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("load", "dump")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "json"
                and {a.name for a in node.names} & {"load", "dump"}
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
