"""Run ``perfbench/run.py`` of two checkouts in alternating pairs and
summarize the pairs.

Usage: python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --seeds A-B
       [--trace 0|1]

PARENT_ROOT and CHANGE_ROOT are the roots of two hclab checkouts.  Each seed
from A to B (inclusive) makes one pair: ``python3 perfbench/run.py --workload W
--seed SEED --seconds S --trace T`` run from each root, one run at a time,
with the checkout's own, unmodified ``perfbench``; S is ``run_seconds`` of
``BENCHMARK.json``.  Pair i runs the parent
first when i is even and the change first when i is odd.  Each run's
``src_sha256`` is read off the ``run record:`` line it prints and its result
off its last line.

The output is one JSON document: ``order``, the ``runs`` in the order they
ran (order, workload, seed, side, trace, src_sha256, result) and
``summary``, keyed by the workload.  The summary holds the pairs, the seeds,
and for each metric that ``BENCHMARK.json`` declares and the runs report, its
unit, ``parent_q1_median_q3`` and ``change_q1_median_q3`` (numpy.percentile
25, 50 and 75, linear, over each side's runs, rounded to 4 decimals),
``change_wins`` (the pairs in which the change is better, in the metric's
declared direction) and ``ties``; then ``attempted_failed``, the distinct
(attempted, failed) counts of each side's runs.  A line per run goes to
standard error as it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

RECORD = "run record: "
SIDES = ("parent", "change")


def benchmark() -> dict:
    """The benchmark's declaration, ``BENCHMARK.json`` at the repository root."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def directions() -> dict:
    """metric -> (unit, "higher" or "lower"), as ``BENCHMARK.json`` declares it."""
    spec = benchmark()
    return {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"]}


def run_perfbench(root: str, workload: str, seed: int, trace: int) -> str:
    """The standard output of one ``perfbench/run.py`` run from ``root``."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(benchmark()["run_seconds"]),
            "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True).stdout


def parse(stdout: str) -> tuple[str, dict]:
    """(src_sha256 of the run record, the result object on the last line)."""
    lines = stdout.splitlines()
    record = next(json.loads(line[len(RECORD):]) for line in lines if line.startswith(RECORD))
    return record["src_sha256"], json.loads(lines[-1])


def pairs(roots: dict, workload: str, seeds: list, trace: int) -> list:
    """The run records of one pair per seed, parent first in the even pairs."""
    runs = []
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            digest, result = parse(run_perfbench(roots[side], workload, seed, trace))
            runs.append({"order": len(runs), "workload": workload, "seed": seed, "side": side,
                         "trace": trace, "src_sha256": digest, "result": result})
            sys.stderr.write(f"{workload} seed {seed} {side}: attempted {result['attempted']} "
                             f"failed {result['failed']}\n")
    return runs


def summarize(runs: list, declared: dict) -> dict:
    """The summary block of one workload's runs (see the module docstring)."""
    seeds = sorted({run["seed"] for run in runs})
    by_side = {side: {run["seed"]: run["result"] for run in runs if run["side"] == side}
               for side in SIDES}
    summary = {"pairs": len(seeds), "seeds": seeds}
    reported = set.intersection(*(set(run["result"]["metrics"]) for run in runs))
    for name, (unit, better) in declared.items():
        if name not in reported:
            continue
        values = {side: np.array([by_side[side][s]["metrics"][name]["value"] for s in seeds])
                  for side in SIDES}
        gain = values["change"] - values["parent"]
        gain = gain if better == "higher" else -gain
        summary[name] = {"unit": unit}
        for side in SIDES:
            q = np.percentile(values[side], [25, 50, 75])
            summary[name][f"{side}_q1_median_q3"] = [round(float(x), 4) for x in q]
        summary[name].update(change_wins=int(np.sum(gain > 0)), ties=int(np.sum(gain == 0)))
    summary["attempted_failed"] = {
        side: [list(c) for c in sorted({(r["attempted"], r["failed"])
                                        for r in by_side[side].values()})]
        for side in SIDES}
    return summary


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    roots = {"parent": args.parent_root, "change": args.change_root}
    runs = pairs(roots, args.workload, args.seeds, args.trace)
    print(json.dumps({
        "order": "pair i runs the parent first when i is even and the change first when "
                 "i is odd",
        "runs": runs,
        "summary": {args.workload: summarize(runs, directions())},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
