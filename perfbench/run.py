"""navlim benchmark: one command that runs a workload, checks its outputs and
prints every metric with its unit.

    python3 perfbench/run.py --workload sweep-time --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout: navlim is imported from ./src, never
from an installed copy, and the command fails (exit 2) without it.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run. The last stdout line is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 when an
output check fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import sys
from pathlib import Path

# Single-threaded BLAS (at most nproc): the serial baseline that any later
# parallel work is compared against. Must be set before numpy is imported in
# this process or its children.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="navlim benchmark")
    parser.add_argument("--workload", required=True, help="sweep-time, sweep-nodes or dense-bound")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the shipped default seed)")
    parser.add_argument("--seconds", type=int, default=30, help="measured wall time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "navlim" / "__init__.py").is_file():
        print(f"error: navlim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, SRC)


if __name__ == "__main__":
    sys.exit(main())
