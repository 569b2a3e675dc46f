"""Benchmark entry point.

    python3 perfbench/run.py --workload train_b16 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from its ``src/``
directory, so there is nothing to build. The last line of standard output is
the result (``correct``, ``attempted``, ``failed``, ``metrics``); the line
before it is the full report (named metrics with units and sample counts,
determinism fingerprint, checks, environment stamp, per-boundary self times).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stacksolver" / "__init__.py").is_file():
        print(f"perfbench: no stacksolver sources under {ROOT / 'src'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.dont_write_bytecode = True
    # One BLAS thread, set before numpy loads: the process then runs one
    # thread, and its CPU time is the time the job took.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    report, result = harness.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
