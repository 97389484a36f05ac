"""Time every operation of a perfbench workload on two hclab packages in one
process, side by side, and print the paired ratios.

Usage: python tools/ab_ops.py SRC_A SRC_B --workload W [--rounds R] [--seed S]

SRC_A and SRC_B are directories that each hold an ``hclab`` package (``src``
in a checkout).  Both are imported into this process, as the packages
``hclab_a`` and ``hclab_b``, with one BLAS thread.  The operations are
``build_plan(W, S, R, ...)`` of ``perfbench/workloads.py`` (imported from this
checkout, not edited): one in-process ``cli.main([command, "--file", spec])``
per operation and side, with stdout captured, after one untimed warm-up
operation per (command, family) on each side.  Operation i runs side A first
when i is even and side B first when i is odd, so the machine's drifts in
speed fall on both sides alike; a paired ratio compares two calls made
within milliseconds of each other, which a pair of whole benchmark runs
cannot resolve per family and size.

Output: one line per (command, family, N) of the workload, in plan order,
``command family N=n  A <median ms>  B <median ms>  B/A <median of the
paired ratios>  (<pairs>)``, then ``identical K of M``: the operations whose
stdout (or, for an operation that raised, traceback) is the same on both
sides.  Defaults: 3 rounds, seed 1.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def load_cli(src_dir: str, name: str):
    """The ``cli`` module of the ``hclab`` package in SRC_DIR, imported as NAME."""
    package = os.path.join(os.path.abspath(src_dir), "hclab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def call(cli, op) -> tuple[float, str]:
    """(seconds, stdout) of one operation; an operation that raises gives
    its traceback in place of its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            cli.main([op.command, "--file", op.spec])
        except Exception:  # a failed operation is compared by its traceback
            seconds = time.perf_counter() - start
            return seconds, traceback.format_exc()
        seconds = time.perf_counter() - start
    return seconds, out.getvalue()


def run(clis, ops) -> list:
    """(group, seconds A, seconds B, same output) of each operation, side A
    first in the even operations and side B first in the odd ones."""
    rows = []
    for i, op in enumerate(ops):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        result = {}
        for side in order:
            result[side] = call(clis[side], op)
        rows.append(((op.command, op.family, op.n), result[0][0], result[1][0],
                     result[0][1] == result[1][1]))
    return rows


def report(rows) -> list:
    """The output lines of ``rows``: one per group, then ``identical K of M``."""
    groups = {}
    for group, a, b, _ in rows:
        groups.setdefault(group, []).append((a, b))
    lines = []
    for (command, family, n), times in groups.items():
        a = statistics.median(t[0] for t in times) * 1e3
        b = statistics.median(t[1] for t in times) * 1e3
        ratio = statistics.median(t[1] / t[0] for t in times)
        lines.append(f"{command} {family} N={n}  A {a:.3f}  B {b:.3f}  B/A {ratio:.3f}  "
                     f"({len(times)})")
    lines.append(f"identical {sum(row[3] for row in rows)} of {len(rows)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src_a")
    p.add_argument("src_b")
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(os.path.abspath(PERFBENCH))
    clis = (load_cli(args.src_a, "hclab_a"), load_cli(args.src_b, "hclab_b"))
    with tempfile.TemporaryDirectory() as workdir:
        run(clis, workloads.warmup_ops(args.workload, workdir))
        plan = workloads.build_plan(args.workload, args.seed, args.rounds, workdir)
        rows = run(clis, [op for ops in plan for op in ops])
    print("\n".join(report(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
