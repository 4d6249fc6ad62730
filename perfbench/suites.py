"""Seeded query suites, one per workload.

Each workload writes its suite to disk with the library's own writers and
loads it back with ``reluverify.formats``, so set-up time covers generation
(``harness``) and loading (``formats``).  A suite depends only on the
workload's suite seed; the per-query timeouts are recorded with it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reluverify import (
    InputBox,
    Layer,
    Network,
    OutputProperty,
    Query,
    RobustnessSpec,
    evaluate,
    load_network,
    load_query,
    reduce_to_single_output,
    save_network,
    save_query,
    sbt,
)
from reluverify.harness import generate_benchmarks

MODES = ("direct", "cegar", "cegarette")


@dataclass(frozen=True)
class Entry:
    """One query on disk, with its label (``SAT``, ``UNSAT`` or None)."""

    qid: str
    net_path: str
    query_path: str
    label: str | None


@dataclass(frozen=True, eq=False)
class Case:
    qid: str
    query: Query
    label: str | None


@dataclass(frozen=True)
class Workload:
    name: str
    suite_seed: int
    timeouts: dict  # mode -> per-query timeout in seconds
    generate: Callable[[int, str], list]  # (seed, out_dir) -> list[Entry]


def _manifest_entries(out_dir: str, manifest: dict) -> list[Entry]:
    return [
        Entry(
            e["id"],
            os.path.join(out_dir, e["net"]),
            os.path.join(out_dir, e["query"]),
            e["label"],
        )
        for e in manifest["queries"]
    ]


def _save(out_dir: str, qid: str, q: Query, label: str | None) -> Entry:
    qdir = os.path.join(out_dir, qid)
    os.makedirs(qdir, exist_ok=True)
    net_path, query_path = os.path.join(qdir, "net.json"), os.path.join(qdir, "query.json")
    save_network(q.network, net_path)
    save_query(q, query_path)
    return Entry(qid, net_path, query_path, label)


def robust_refine(seed: int, out_dir: str) -> list[Entry]:
    """The shipped robustness generator: 30 certified-UNSAT reduced queries."""
    return _manifest_entries(out_dir, generate_benchmarks(seed, 30, out_dir, kind="robust"))


def reproducer_121() -> Query:
    """1-2-1 network whose maximum on [20, 21] is exactly 340, at x = 20.

    With c = 340 + 5e-7 the query is UNSAT: no box point exceeds c.
    """
    net = Network(
        [
            Layer([[-10.0], [-1.0]], [300.0, 30.0], relu=True),
            Layer([[3.0, 4.0]], [0.0], relu=False),
        ],
        1,
    )
    return Query(net, InputBox([20.0], [21.0]), OutputProperty(340.0 + 5e-7))


def oracle_small(seed: int, out_dir: str) -> list[Entry]:
    """60 exhaustively labelled tiny queries plus the 1-2-1 near-threshold query."""
    entries = _manifest_entries(out_dir, generate_benchmarks(seed, 60, out_dir, kind="oracle"))
    entries.append(_save(out_dir, "r121", reproducer_121(), "UNSAT"))
    return entries


def _random_net(rng, sizes) -> Network:
    layers = [
        Layer(
            rng.normal(0.0, 1.0 / np.sqrt(sizes[k - 1]), size=(sizes[k], sizes[k - 1])),
            rng.normal(0.0, 0.05, size=sizes[k]),
            relu=k < len(sizes) - 1,
        )
        for k in range(1, len(sizes))
    ]
    n = sizes[0]
    return Network(layers, n, domain=(np.zeros(n), np.ones(n)))


def _sbt_certifies(net: Network, center, radius: float, label: int) -> bool:
    spec = RobustnessSpec(net, center, radius, label)
    return all(
        sbt(q.network, q.input)[1].output_interval[1] <= 0.0
        for q in reduce_to_single_output(spec)
    )


def _certified_radius(net: Network, center, label: int) -> float | None:
    """Largest radius (bisected) at which SBT certifies the label."""
    lo, hi = 1e-4, 0.5
    if not _sbt_certifies(net, center, lo, label) or _sbt_certifies(net, center, hi, label):
        return None
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if _sbt_certifies(net, center, mid, label):
            lo = mid
        else:
            hi = mid
    return lo


BEYOND_COUNT = 30


def beyond_radius(seed: int, out_dir: str) -> list[Entry]:
    """Reduced robustness queries at 1.2-3x the SBT-certified radius.

    Two hidden layers of 4-8 neurons.  Past the certified radius the root
    bound no longer decides the query, so ``direct`` has to branch; some
    queries are SAT and none carries a label.
    """
    rng = np.random.default_rng(seed)
    queries: list[Query] = []
    while len(queries) < BEYOND_COUNT:
        n_in, n_out = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        sizes = [n_in, int(rng.integers(4, 9)), int(rng.integers(4, 9)), n_out]
        net = _random_net(rng, sizes)
        center = rng.uniform(0.1, 0.9, size=n_in)
        y = evaluate(net, center)
        order = np.argsort(y)
        if y[order[-1]] - y[order[-2]] < 1e-3:
            continue
        label = int(order[-1])
        r_cert = _certified_radius(net, center, label)
        if r_cert is None:
            continue
        radius = float(rng.uniform(1.2, 3.0)) * r_cert
        queries.extend(reduce_to_single_output(RobustnessSpec(net, center, radius, label)))
    return [_save(out_dir, f"q{i:04d}", q, None) for i, q in enumerate(queries[:BEYOND_COUNT])]


def load_cases(entries: list[Entry]) -> list[Case]:
    return [Case(e.qid, load_query(e.query_path, load_network(e.net_path)), e.label) for e in entries]


# Suite seeds and per-query timeouts (why each workload exists: README.md).
# Each timeout sits in a gap of the suite's finishing times, so `decided`
# rarely flaps with machine noise: robust-refine finishes by 6.2 s and one
# query runs past 20 s; oracle-small finishes by 2.8 s and one query takes
# 12 s; on beyond-radius direct finishes by 3.5 s, and the refinement modes
# finish by 0.3 s, but for one query at 0.41-0.6 s.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "robust-refine",
            424242,
            {"direct": 8.0, "cegar": 8.0, "cegarette": 8.0},
            robust_refine,
        ),
        Workload(
            "beyond-radius",
            11,
            {"direct": 6.0, "cegar": 0.45, "cegarette": 0.45},
            beyond_radius,
        ),
        Workload(
            "oracle-small",
            42,
            {"direct": 4.0, "cegar": 4.0, "cegarette": 4.0},
            oracle_small,
        ),
    )
}
