"""Outside-in layer trace.

The tracer replaces public functions of ``reluverify`` modules with timing
wrappers, from the benchmark process only; nothing under ``src/`` changes.
The library resolves these names through its module globals at call time,
so each wrapped call records a span: name, start, end, parent span and the
operation (one query in one mode) it belongs to.  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import time

import numpy as np

from reluverify import bounds, loop, solver

ID, PARENT, NAME, START, END, OP, INFO = range(7)


def _hidden(net) -> int:
    return int(sum(net.hidden_sizes))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._installed: list[tuple] = []
        self._op = None
        self._original = None

    def _begin(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None, self._op, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, attr: str, name: str, describe=None) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[INFO] = {"raised": type(e).__name__}
                raise
            finally:
                self._end(span)
            if describe is not None:
                span[INFO] = describe(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, fn))

    def install(self) -> None:
        w = self._wrap
        w(loop, "preprocess", "categorize.preprocess",
          lambda a, k, r: {"split": _hidden(r.network), "original": _hidden(a[0])})
        w(loop, "abstract_to_saturation", "abstraction.saturate",
          lambda a, k, r: {"abstract": sum(r.hidden_sizes), "split": _hidden(a[0].network)})
        w(loop, "refine_split", "abstraction.refine")
        w(loop, "tighten_property", "tightening.tighten",
          lambda a, k, r: {"d": r.threshold - a[3].threshold})
        w(loop, "solve", "solver.solve", lambda a, k, r: {"nodes": r.nodes})
        w(loop, "is_genuine", "loop.is_genuine", lambda a, k, r: {"genuine": bool(r)})
        w(solver, "sbt", "solver.sbt")
        w(solver, "feasible_point", "simplex.feasible_point",
          lambda a, k, r: {"feasible": r is not None, "retry": "tol" in k})
        w(bounds, "output_bounds", "bounds.output_bounds",
          lambda a, k, r: {"original": a[0] is self._original})

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def call(self, op: str, original, fn, *args, **kwargs):
        """Run ``fn`` under a root ``verify`` span for operation ``op``."""
        self._op, self._original = op, original
        span = self._begin("verify")
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)
            self._op = self._original = None

    def self_times(self) -> np.ndarray:
        dur = np.array([s[END] - s[START] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return dur - child


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, mode_of: dict, decided: set, scale_of: dict) -> dict:
    """Per-layer numbers from one traced round: name -> (value, unit).

    ``mode_of`` maps op -> mode and ``scale_of`` op -> factor to reference
    seconds.  Times sum over every op; counts and ratios use only ops in
    ``decided``, because a timed-out op stops at a machine-dependent point
    and would make them differ from run to run.
    """
    self_t = tracer.self_times()
    by: dict = {}
    for s, st in zip(tracer.spans, self_t):
        by.setdefault((mode_of[s[OP]], s[NAME]), []).append((s, st))

    def secs(modes, name, self_only=False):
        return sum((st if self_only else s[END] - s[START]) * scale_of[s[OP]]
                   for m in modes for s, st in by.get((m, name), []))

    def infos(modes, name):
        return [s[INFO] or {} for m in modes for s, _ in by.get((m, name), [])
                if s[OP] in decided]

    def share(items, key):
        return _ratio(sum(1 for i in items if i.get(key)), len(items))

    out: dict = {}
    modes = sorted(set(mode_of.values()))
    for m in modes:
        one = (m,)
        solves = infos(one, "solver.solve")
        out[f"{m}.solver.solve_calls"] = (len(solves), "count")
        out[f"{m}.solver.nodes"] = (sum(i["nodes"] for i in solves), "count")
        out[f"{m}.solver.node_bound_s"] = (secs(one, "solver.sbt"), "s")
        out[f"{m}.solver.self_s"] = (secs(one, "solver.solve", self_only=True), "s")
        every_solve = by.get((m, "solver.solve"), [])
        all_nodes = sum((s[INFO] or {}).get("nodes", 0) for s, _ in every_solve)
        out[f"{m}.solver.nodes_per_s"] = (_ratio(all_nodes, secs(one, "solver.solve")), "1/s")
        out[f"{m}.unwrapped_s"] = (secs(one, "verify", self_only=True), "s")
        if m == "direct":
            continue
        saturations = infos(one, "abstraction.saturate")
        preprocessed = infos(one, "categorize.preprocess")
        out[f"{m}.abstraction.refine_s"] = (secs(one, "abstraction.refine"), "s")
        out[f"{m}.abstraction.refine_calls"] = (len(infos(one, "abstraction.refine")), "count")
        out[f"{m}.abstraction.saturate_s"] = (secs(one, "abstraction.saturate"), "s")
        out[f"{m}.abstraction.saturated_size_ratio"] = (
            _ratio(sum(i["abstract"] for i in saturations), sum(i["split"] for i in saturations)),
            "ratio")
        out[f"{m}.loop.iterations"] = (len(solves), "count")
        checks = infos(one, "loop.is_genuine")
        out[f"{m}.loop.spurious_ratio"] = (
            _ratio(sum(1 for i in checks if not i["genuine"]), len(checks)), "ratio")
        out[f"{m}.loop.genuine_check_s"] = (secs(one, "loop.is_genuine"), "s")
        out[f"{m}.categorize.preprocess_s"] = (secs(one, "categorize.preprocess"), "s")
        out[f"{m}.categorize.growth"] = (
            _ratio(sum(i["split"] for i in preprocessed), sum(i["original"] for i in preprocessed)),
            "ratio")
        if m != "cegarette":
            continue
        tightenings = infos(one, "tightening.tighten")
        out[f"{m}.tightening.tighten_s"] = (secs(one, "tightening.tighten"), "s")
        out[f"{m}.tightening.gap_positive_ratio"] = (
            _ratio(sum(1 for i in tightenings if i["d"] > 0), len(tightenings)), "ratio")
        out[f"{m}.bounds.gap_s"] = (secs(one, "bounds.output_bounds"), "s")
        out[f"{m}.bounds.original_bound_calls"] = (
            sum(1 for i in infos(one, "bounds.output_bounds") if i["original"]), "count")

    lps = infos(modes, "simplex.feasible_point")
    out["simplex.calls"] = (len(lps), "count")
    out["simplex.self_s"] = (secs(modes, "simplex.feasible_point", self_only=True), "s")
    out["simplex.feasible_ratio"] = (share(lps, "feasible"), "ratio")
    out["simplex.retries"] = (sum(1 for i in lps if i.get("retry")), "count")
    return out


def self_time_by_layer(tracer: Tracer, mode_of: dict) -> dict:
    """mode -> span name -> summed self time; the accounting table of a run."""
    table: dict = {}
    for s, st in zip(tracer.spans, tracer.self_times()):
        row = table.setdefault(mode_of[s[OP]], {})
        row[s[NAME]] = row.get(s[NAME], 0.0) + float(st)
    return table
