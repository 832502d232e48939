"""Check that two traced runs of one workload and seed give the same counts.

    python3 perfbench/determinism.py --workload NAME [--seed N] [--seconds S]

Run it from the repository root.  It runs perfbench/run.py with --trace 1
twice and compares every count metric (calls, pairs, group elements, nets
found, report size); it exits nonzero if any differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import COUNTS

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    first, second = (traced_counts(args.workload, args.seed, args.seconds) for _ in range(2))
    for name in first:
        print(f"{'ok  ' if first[name] == second[name] else 'DIFF'} {name}: {first[name]} {second[name]}")
    return 0 if first == second else 1


if __name__ == "__main__":
    sys.exit(main())
