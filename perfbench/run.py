"""Benchmark entry point.

    python3 perfbench/run.py --workload serve-steady --seed 7 --seconds 20 --trace 0

Run from the repository root (any directory whose ``src/repro`` holds
the simulator).  Prints every metric with its unit and sample count,
then one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
Exits 1 when a correctness check fails and 2 when the simulator source
is missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = (
    "serve-steady",
    "serve-replicated-failover",
    "serve-saturation",
    "paper-cells",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            f"perfbench: {ROOT} holds no simulator source (src/repro) "
            "or no BENCHMARK.json; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import bench

    return bench.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
