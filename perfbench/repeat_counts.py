"""Check that the trace's counts repeat exactly for one seed.

Runs ``run.py --trace 1`` twice with the same workload and seed and compares
every count of the two runs: each function's calls and errors, the computed
numpy flops and bytes, and the per-layer metrics whose unit is a count, a
flop or a byte.  Run from the root of an hclab checkout:

    python3 perfbench/repeat_counts.py --workload classify_large --seed 5

Exits 0 when the counts agree and 1, listing the differences, when not.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_UNITS = ("count", "flop", "B")


def traced_counts(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}
    path = os.path.join(HERE, "out", f"trace-{workload}-seed{seed}.json.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        summary = json.load(fh)["summary"]
    for name, row in summary.items():
        for key in ("calls", "errors", "flops", "bytes"):
            counts[f"{name}.{key}"] = row[key]
    return counts


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for key in differ:
        print(f"differs: {key}: {first.get(key)} vs {second.get(key)}")
    print(f"{len(first)} counts compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
