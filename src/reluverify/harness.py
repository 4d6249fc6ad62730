"""Benchmark harness: robustness reduction to single-output queries,
seeded suite generation, and batch execution with result aggregation.

A robustness claim (all points within a radius of a center keep the
center's classification) reduces to one query per competing label whose
network computes that label's margin over the true label; the claim holds
iff every reduced query is UNSAT.
"""

from __future__ import annotations

import csv
import itertools
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .bounds import output_bounds
from .formats import (
    FormatError, load_network, load_query, read_json, save_network, save_query, write_json
)
from .loop import MODES, verify
from .network import (
    InputBox,
    Layer,
    Network,
    OutputProperty,
    Query,
    ValidationError,
    evaluate,
)
from .solver import first_feasible_completion

# Robustness-suite network shape: hidden layer count and width ranges.
MIN_LAYERS, MAX_LAYERS = 2, 4
MIN_WIDTH, MAX_WIDTH = 10, 30
# Radius range searched by the certified-radius bisection.
RADIUS_LO, RADIUS_HI = 1e-4, 0.5
# Suite kind -> how its labels are known.
LABEL_SOURCES = {"oracle": "exhaustive", "robust": "certified"}


@dataclass(frozen=True, eq=False)
class RobustnessSpec:
    """A classification point, a perturbation radius, and the expected label."""

    network: Network
    center: np.ndarray
    radius: np.ndarray
    label: int

    def __init__(self, network: Network, center, radius, label: int):
        center = np.asarray(center, dtype=np.float64)
        radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), center.shape).copy()
        if center.shape != (network.input_size,):
            raise ValidationError("center does not match the network input size")
        if np.any(radius < 0) or not np.all(np.isfinite(radius)):
            raise ValidationError("radius must be finite and non-negative")
        if not 0 <= int(label) < network.output_size:
            raise ValidationError("label out of range")
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "label", int(label))


def difference_network(net: Network, j: int, label: int) -> Network:
    """Single-output network computing output[j] - output[label].

    The +1/-1 selector layer is folded into the final affine layer, so the
    layer structure (ReLU hidden, affine output) is preserved.
    """
    selector = np.zeros(net.output_size)
    selector[j] = 1.0
    selector[label] = -1.0
    last = net.layers[-1]
    out = Layer(
        (selector @ last.weights).reshape(1, -1), [float(selector @ last.biases)], relu=False
    )
    return Network(list(net.layers[:-1]) + [out], net.input_size, domain=net.domain)


def reduce_to_single_output(spec: RobustnessSpec) -> list[Query]:
    """One query per competing label; the spec is robust iff all are UNSAT."""
    net = spec.network
    if net.domain is not None:
        dlo, dhi = net.domain
    else:
        dlo, dhi = np.zeros(net.input_size), np.ones(net.input_size)
    lo = np.clip(spec.center - spec.radius, dlo, dhi)
    hi = np.clip(spec.center + spec.radius, dlo, dhi)
    box = InputBox(lo, hi)
    return [
        Query(difference_network(net, j, spec.label), box, OutputProperty(0.0))
        for j in range(net.output_size)
        if j != spec.label
    ]


def exhaustive_verdict(q: Query) -> str:
    """Ground truth by brute force: enumerate every ReLU phase pattern
    (active first) and decide the induced linear feasibility problem by the
    search's leaf path, ``solver.BATCH`` patterns per row build and
    presolve, so SAT comes only with a point ``is_witness`` accepts.  Only
    for tiny networks."""
    net = q.network
    if sum(net.hidden_sizes) > 16:
        raise ValueError("exhaustive enumeration limited to 16 hidden neurons")
    phases = [np.zeros(size, dtype=np.int8) for size in net.hidden_sizes]
    x = first_feasible_completion(net, q.input, phases, q.output.threshold)
    return "UNSAT" if x is None else "SAT"


def _random_network(rng, n_inputs, widths, n_outputs, scale="uniform", domain=None) -> Network:
    sizes = [n_inputs] + list(widths) + [n_outputs]
    layers = []
    for k in range(1, len(sizes)):
        if scale == "uniform":
            W = rng.uniform(-1.0, 1.0, size=(sizes[k], sizes[k - 1]))
            b = rng.uniform(-0.5, 0.5, size=sizes[k])
        else:
            W = rng.normal(0.0, 1.0 / np.sqrt(sizes[k - 1]), size=(sizes[k], sizes[k - 1]))
            b = rng.normal(0.0, 0.05, size=sizes[k])
        layers.append(Layer(W, b, relu=k < len(sizes) - 1))
    return Network(layers, n_inputs, domain=domain)


def _gen_oracle_query(rng) -> tuple[Query, str]:
    n_inputs = int(rng.integers(2, 4))
    n_layers = int(rng.integers(1, 4))
    widths = []
    budget = 8
    for _ in range(n_layers):
        w = int(rng.integers(2, 5))
        w = min(w, budget - (n_layers - len(widths) - 1) * 2)
        w = max(w, 1)
        widths.append(w)
        budget -= w
    net = _random_network(rng, n_inputs, widths, 1)
    center = rng.uniform(-1.0, 1.0, size=n_inputs)
    half = rng.uniform(0.1, 0.6, size=n_inputs)
    box = InputBox(center - half, center + half)
    samples = rng.uniform(box.lower, box.upper, size=(512, n_inputs))
    ys = np.array([evaluate(net, x)[0] for x in samples])
    spread = float(ys.max() - ys.min()) + 0.1
    if rng.random() < 0.5:
        c = float(ys.min() + 0.3 * spread)
    else:
        c = float(ys.max() + 0.3 * spread)
    q = Query(net, box, OutputProperty(c))
    return q, exhaustive_verdict(q)


def _certified_radius(net: Network, center, label: int):
    """Largest radius (bisected) at which symbolic bounds certify robustness."""

    def certified(delta: float) -> bool:
        spec = RobustnessSpec(net, center, delta, label)
        return all(
            output_bounds(rq.network, rq.input)[1] <= 0.0
            for rq in reduce_to_single_output(spec)
        )

    if not certified(RADIUS_LO):
        return None
    if certified(RADIUS_HI):
        return RADIUS_HI
    lo, hi = RADIUS_LO, RADIUS_HI
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _gen_robust_queries(rng) -> list[Query]:
    """Reduced robustness queries, each provably UNSAT via symbolic bounds."""
    n_inputs = int(rng.integers(4, 7))
    n_outputs = int(rng.integers(2, 4))
    n_layers = int(rng.integers(MIN_LAYERS, MAX_LAYERS + 1))
    widths = [int(rng.integers(MIN_WIDTH, MAX_WIDTH + 1)) for _ in range(n_layers)]
    domain = (np.zeros(n_inputs), np.ones(n_inputs))
    net = _random_network(rng, n_inputs, widths, n_outputs, scale="normal", domain=domain)
    center = rng.uniform(0.1, 0.9, size=n_inputs)
    out = evaluate(net, center)
    order = np.argsort(out)
    if out[order[-1]] - out[order[-2]] < 1e-3:
        return []  # ambiguous classification; caller resamples
    label = int(order[-1])
    delta_max = _certified_radius(net, center, label)
    if delta_max is None:
        return []
    delta = float(rng.uniform(0.25, 0.75)) * delta_max
    spec = RobustnessSpec(net, center, delta, label)
    return reduce_to_single_output(spec)


def generate_benchmarks(seed: int, count: int, out_dir, kind: str = "oracle") -> dict:
    """Write a deterministic suite of query files plus a manifest.

    ``oracle`` emits small single-output queries labeled by exhaustive
    enumeration (a mix of SAT and UNSAT); ``robust`` emits reduced
    robustness queries whose UNSAT labels are certified by symbolic bounds.
    Exactly ``count`` queries are written.
    """
    if kind not in LABEL_SOURCES:
        raise ValueError(f"unknown benchmark kind {kind!r}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    pending: list[tuple[Query, str]] = []
    guard = 0
    while len(pending) < count:
        guard += 1
        if guard > 100 * count:
            raise RuntimeError("benchmark generation failed to converge")
        if kind == "oracle":
            pending.append(_gen_oracle_query(rng))
        else:
            pending += [(q, "UNSAT") for q in _gen_robust_queries(rng)]

    for i, (q, label) in enumerate(pending[:count]):
        qid = f"q{i:04d}"
        qdir = os.path.join(out_dir, qid)
        os.makedirs(qdir, exist_ok=True)
        save_network(q.network, os.path.join(qdir, "net.json"))
        save_query(q, os.path.join(qdir, "query.json"))
        entries.append(
            {
                "id": qid,
                "net": f"{qid}/net.json",
                "query": f"{qid}/query.json",
                "label": label,
                "label_source": LABEL_SOURCES[kind],
                "hidden_sizes": q.network.hidden_sizes,
            }
        )
    manifest = {"kind": kind, "seed": seed, "count": len(entries), "queries": entries}
    write_json(manifest, os.path.join(out_dir, "manifest.json"), indent=1)
    return manifest


def load_manifest(suite_dir) -> dict:
    """Read a suite's manifest: ``queries`` lists each query's distinct ``id``
    and the suite-relative paths of its ``net`` and ``query`` files."""
    path = os.path.join(suite_dir, "manifest.json")
    manifest = read_json(path)
    queries = manifest.get("queries")
    if not isinstance(queries, list) or not all(
        isinstance(e, dict) and all(isinstance(e.get(k), str) for k in ("id", "net", "query"))
        for e in queries
    ) or len({e["id"] for e in queries}) < len(queries):
        raise FormatError(
            f"{path}: 'queries' must be a list of objects with a distinct string 'id' "
            "and string 'net' and 'query'"
        )
    return manifest


@dataclass(frozen=True)
class BenchmarkRecord:
    query_id: str
    mode: str
    verdict: str
    refinements: int
    iterations: int
    time_ms: float
    timeout: bool
    error: str = ""  # "Type: message" of the exception behind an ERROR verdict

    def row(self) -> list:
        return list(astuple(replace(self, time_ms=round(self.time_ms, 3), timeout=int(self.timeout))))


CSV_COLUMNS = [f.name for f in fields(BenchmarkRecord)]


def _bench_task(args) -> BenchmarkRecord:
    qid, net_path, query_path, mode, timeout = args
    t0 = time.monotonic()
    try:
        verdict, stats = verify(load_query(query_path, load_network(net_path)), mode, timeout=timeout)
    except Exception as e:
        elapsed_ms = 1000.0 * (time.monotonic() - t0)
        return BenchmarkRecord(qid, mode, "ERROR", 0, 0, elapsed_ms, False, f"{type(e).__name__}: {e}")
    status = verdict.status.value
    return BenchmarkRecord(
        qid, mode, status, stats.refinement_steps, stats.iterations,
        1000.0 * stats.total_time, status == "TIMEOUT",
    )


def run_bench(
    suite_dir,
    modes,
    timeout: float = 60.0,
    jobs: int = 1,
    out_csv=None,
) -> tuple[list[BenchmarkRecord], dict]:
    """Run every (query, mode) pair of a suite; returns records and a summary.

    Records come back sorted by query id then by the given mode order; the
    summary counts finished/timeout per mode and, for every mode pair,
    strict wins on time and on refinement count among commonly finished
    queries.
    """
    modes = list(modes)
    if not modes or len(set(modes)) != len(modes) or not set(modes) <= set(MODES):
        raise ValidationError(f"modes must be distinct values from {', '.join(MODES)}; got {modes}")
    manifest = load_manifest(suite_dir)
    tasks = [
        (
            entry["id"],
            os.path.join(suite_dir, entry["net"]),
            os.path.join(suite_dir, entry["query"]),
            mode,
            timeout,
        )
        for entry in manifest["queries"]
        for mode in modes
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_bench_task, tasks, chunksize=1))
    else:
        records = [_bench_task(t) for t in tasks]
    order = {m: i for i, m in enumerate(modes)}
    records.sort(key=lambda r: (r.query_id, order[r.mode]))

    decided = {
        m: {r.query_id: r for r in records if r.mode == m and r.verdict in ("SAT", "UNSAT")}
        for m in modes
    }
    outcomes = Counter((r.mode, r.verdict) for r in records)
    summary = {"modes": {}, "pairs": {}}
    for m in modes:
        summary["modes"][m] = {
            "finished": len(decided[m]),
            "timeouts": outcomes[m, "TIMEOUT"],
            "errors": outcomes[m, "ERROR"],
            "total_refinements": sum(r.refinements for r in decided[m].values()),
        }
    for ma, mb in itertools.combinations(modes, 2):
        a, b = decided[ma], decided[mb]
        common = [q for q in a if q in b]
        summary["pairs"][f"{ma}_vs_{mb}"] = {
            "both_finished": len(common),
            f"{ma}_faster": sum(a[q].time_ms < b[q].time_ms for q in common),
            f"{mb}_faster": sum(b[q].time_ms < a[q].time_ms for q in common),
            f"{ma}_fewer_refinements": sum(a[q].refinements < b[q].refinements for q in common),
            f"{mb}_fewer_refinements": sum(b[q].refinements < a[q].refinements for q in common),
        }

    if out_csv is not None:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(r.row() for r in records)
        write_json(summary, str(out_csv) + ".summary.json", indent=1)
    return records, summary
