"""Benchmark of the reluverify verifier.

    python3 perfbench/run.py --workload robust-refine --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: ``reluverify`` is imported from
its ``src/`` directory, and nothing needs installing besides numpy.
Without those sources the run exits with code 2 and prints no result.
What a run does and prints: ``bench.py`` and ``README.md``.
"""

import os
import sys

# One BLAS thread, set before numpy loads: the benchmark measures one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "reluverify", "__init__.py")):
        print(f"error: no reluverify sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
