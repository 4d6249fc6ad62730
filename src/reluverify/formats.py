"""On-disk formats: JSON networks/queries and the plain-text NNet reader.

JSON network files round-trip bit-exactly (floats are written with Python's
shortest-roundtrip repr).  NNet files are read-only; their normalization
header (input mins/maxes, means, ranges) is parsed for well-formedness but
otherwise ignored, since verification here works on raw network inputs.
"""

from __future__ import annotations

import json

from .network import InputBox, Layer, Network, OutputProperty, Query, ValidationError


class FormatError(ValueError):
    """A file could not be parsed; the message carries line/field context."""


def read_json(path) -> dict:
    """Parse a JSON file whose top-level value must be an object.  This and
    ``write_json`` are the package's one way to read and write JSON files."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from e
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top-level value must be an object")
    return doc


def _not_utf8(path, e: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not UTF-8 text: {e.reason} (byte {e.object[e.start]:#04x})")


def write_json(doc, path, indent=None) -> None:
    """Write ``doc`` and a final newline; ``indent=None`` writes one compact line."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise FormatError(f"{where}: missing required field '{key}'")
    return obj[key]


def network_to_dict(net: Network) -> dict:
    doc = {
        "input_size": net.input_size,
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "biases": layer.biases.tolist(),
                "activation": "relu" if layer.relu else "none",
            }
            for layer in net.layers
        ],
    }
    if net.domain is not None:
        doc["domain"] = {"lower": net.domain[0].tolist(), "upper": net.domain[1].tolist()}
    return doc


def network_from_dict(doc: dict, where: str = "network") -> Network:
    input_size = _require(doc, "input_size", where)
    layer_docs = _require(doc, "layers", where)
    if not isinstance(layer_docs, list) or not layer_docs:
        raise FormatError(f"{where}: 'layers' must be a non-empty list")
    layers = []
    for i, ld in enumerate(layer_docs):
        ctx = f"{where}: layer {i}"
        if not isinstance(ld, dict):
            raise FormatError(f"{ctx}: expected an object")
        act = _require(ld, "activation", ctx)
        if act not in ("relu", "none"):
            raise FormatError(f"{ctx}: activation must be 'relu' or 'none', got {act!r}")
        try:
            layers.append(Layer(_require(ld, "weights", ctx), _require(ld, "biases", ctx), act == "relu"))
        except ValidationError as e:
            raise ValidationError(f"{ctx}: {e}") from e
    domain = None
    if "domain" in doc:
        dd = doc["domain"]
        if not isinstance(dd, dict):
            raise FormatError(f"{where}: 'domain' must be an object")
        domain = (_require(dd, "lower", f"{where}: domain"), _require(dd, "upper", f"{where}: domain"))
    try:
        return Network(layers, input_size, domain=domain)
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from e


def save_network(net: Network, path) -> None:
    write_json(network_to_dict(net), path)


def load_network(path) -> Network:
    """Load a network from a ``.nnet`` text file or a JSON file (by extension)."""
    if str(path).endswith(".nnet"):
        return load_nnet(path)
    return network_from_dict(read_json(path), where=str(path))


def _nnet_values(line: str) -> list[float]:
    # NNet lines are comma separated and usually end with a trailing comma.
    return [float(tok) for tok in line.strip().split(",") if tok.strip() != ""]


def _nnet_count(value: float) -> int:
    # int() would truncate 2.9 to 2 without a word.
    if value != int(value):
        raise ValueError(f"count {value!r} is not an integer")
    return int(value)


def load_nnet(path) -> Network:
    """Read the ACAS-Xu style plain-text format (all hidden layers ReLU)."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = [ln for ln in fh.readlines() if not ln.startswith("//")]
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from e
    lines = [ln for ln in (ln.strip() for ln in raw) if ln]
    try:
        header = _nnet_values(lines[0])
        n_layers, input_size, output_size = (_nnet_count(v) for v in header[:3])
        sizes = [_nnet_count(v) for v in _nnet_values(lines[1])]
        # line 2: symmetric flag; lines 3-6: mins, maxes, means, ranges (ignored).
        for i in range(2, 7):
            _nnet_values(lines[i])
        pos = 7
    except (IndexError, ValueError, OverflowError) as e:
        raise FormatError(f"{path}: malformed NNet header: {e}") from e
    if n_layers < 1 or len(sizes) != n_layers + 1 or sizes[0] != input_size or sizes[-1] != output_size:
        raise ValidationError(f"{path}: layer size list inconsistent with header counts")
    if min(sizes) < 1:
        raise ValidationError(f"{path}: layer sizes must be at least 1, got {sizes}")
    layers = []
    for k in range(n_layers):
        ctx, n_out, n_in = f"{path}: layer {k}", sizes[k + 1], sizes[k]
        block = []  # n_out weight rows, then n_out biases
        for _ in range(2 * n_out):
            try:
                block.append(_nnet_values(lines[pos]))
            except IndexError as e:
                raise FormatError(f"{path}: truncated file in layer {k}") from e
            except ValueError as e:
                raise FormatError(f"{ctx}, line {pos + 1}: {e}") from e
            pos += 1
        rows, biases = block[:n_out], block[n_out:]
        for j, row in enumerate(rows):
            if len(row) != n_in:
                raise ValidationError(f"{ctx} neuron {j}: expected {n_in} weights, got {len(row)}")
        for j, vals in enumerate(biases):
            if len(vals) != 1:
                raise ValidationError(f"{ctx} neuron {j}: expected 1 bias value")
        try:
            layers.append(Layer(rows, [vals[0] for vals in biases], relu=k < n_layers - 1))
        except ValidationError as e:
            raise ValidationError(f"{ctx}: {e}") from e
    return Network(layers, input_size)


def query_to_dict(q: Query) -> dict:
    return {
        "input_lower": q.input.lower.tolist(),
        "input_upper": q.input.upper.tolist(),
        "output_threshold": q.output.threshold,
    }


def save_query(q: Query, path) -> None:
    write_json(query_to_dict(q), path)


def load_query(path, net: Network) -> Query:
    """Load box + threshold from JSON and bind them to ``net`` as a query."""
    doc, where = read_json(path), str(path)
    lower, upper = _require(doc, "input_lower", where), _require(doc, "input_upper", where)
    threshold = _require(doc, "output_threshold", where)
    try:
        return Query(net, InputBox(lower, upper), OutputProperty(threshold))
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from e

