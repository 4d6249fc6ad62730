"""Command-line interface: verify a single query, generate benchmark
suites, and run batch comparisons.

Exit codes: 0 completed with a verdict, 1 usage, input-file or output-path
error, 2 internal error, 124 timeout (single-query mode).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .formats import FormatError, load_network, load_query, write_json
from .harness import LABEL_SOURCES, generate_benchmarks, run_bench
from .loop import MODES, verify
from .network import ValidationError
from .simplex import SimplexError
from .solver import SolverError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_TIMEOUT = 124


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def positive_int(text: str) -> int:
    """An integer option that counts something, so 1 or more."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def seed(text: str) -> int:
    """A seed for numpy's generator, so 0 or more."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


def time_limit(text: str) -> float:
    """A timeout in seconds: 0 or more, and not NaN, which would mean no limit."""
    t = float(text)
    if not t >= 0.0:
        raise argparse.ArgumentTypeError(f"must be 0 or more seconds, got {text}")
    return t


def _build_parser() -> _Parser:
    parser = _Parser(prog="reluverify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="decide one query")
    pv.add_argument("--net", required=True, help="network file (.json or .nnet)")
    pv.add_argument("--prop", required=True, help="query file (JSON box + threshold)")
    pv.add_argument("--mode", default="cegarette", choices=MODES)
    pv.add_argument("--timeout", type=time_limit, default=None, help="seconds")
    pv.add_argument("--out", default=None, help="write verdict + stats as JSON")

    pb = sub.add_parser("bench", help="run a suite over several modes")
    pb.add_argument("--suite", required=True, help="directory with manifest.json")
    pb.add_argument("--modes", default="cegar,cegarette", help="comma separated")
    pb.add_argument("--timeout", type=time_limit, default=60.0)
    pb.add_argument("--jobs", type=positive_int, default=1)
    pb.add_argument("--out", required=True, help="CSV output path")

    pg = sub.add_parser("gen", help="generate a benchmark suite")
    pg.add_argument("--seed", type=seed, required=True)
    pg.add_argument("--count", type=positive_int, required=True)
    pg.add_argument("--out", required=True, help="suite directory")
    pg.add_argument("--kind", default="oracle", choices=list(LABEL_SOURCES))
    return parser


def _check_out(path: str) -> None:
    """Fail before any work, not after it, when ``path`` cannot be written:
    its directory is missing or it names a directory."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"{path}: no directory {folder} to write in")
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path}: is a directory")


def _cmd_verify(args) -> int:
    if args.out:
        _check_out(args.out)
    q = load_query(args.prop, load_network(args.net))
    verdict, stats = verify(q, args.mode, timeout=args.timeout)
    doc = {"verdict": verdict.to_dict(), "stats": stats.to_dict()}
    if args.out:
        write_json(doc, args.out, indent=1)
    print(f"verdict: {verdict.status.value}")
    if verdict.witness is not None:
        print(f"witness: {verdict.witness.tolist()}")
    print(
        f"iterations: {stats.iterations}  refinements: {stats.refinement_steps}  "
        f"solves: {len(stats.solver_times)}  time: {stats.total_time:.3f}s  nodes: {stats.solver_nodes}"
    )
    return EXIT_TIMEOUT if verdict.status.value == "TIMEOUT" else EXIT_OK


def _cmd_bench(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    _check_out(args.out)
    records, summary = run_bench(
        args.suite, modes, timeout=args.timeout, jobs=args.jobs, out_csv=args.out
    )
    print(json.dumps(summary, indent=1))
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    manifest = generate_benchmarks(args.seed, args.count, args.out, kind=args.kind)
    print(f"wrote {manifest['count']} queries to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            code = _cmd_verify(args)
        elif args.command == "bench":
            code = _cmd_bench(args)
        else:
            code = _cmd_gen(args)
    except (FormatError, ValidationError, OSError) as e:
        print(f"reluverify: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, SimplexError) as e:
        print(f"reluverify: numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
