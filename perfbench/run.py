"""End-to-end benchmark of the hclab command line, with an optional trace.

Run from the root of an hclab checkout:

    python3 perfbench/run.py --workload classify_small --seed 1 --seconds 30 --trace 0

Each operation is one in-process call ``hclab.cli.main([cmd, "--file",
spec])`` with the report captured in memory, checked afterwards against the
answer the paper gives (see workloads.py).  Load is a closed loop: one client,
one process, BLAS pinned to one thread.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it replays its rounds first untraced
and then with every public hclab function wrapped (tracer.py), and prints the
per-layer metrics and the tracing overhead.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy is first imported, here and in every child process
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# the CLI lets HCLAB_SEED override --seed; keep reports reproducible
os.environ.pop("HCLAB_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
TAIL_BEYOND = 10   # the tail percentile keeps at least this many samples above it


class SpeedMeter:
    """Reads the machine's speed while the benchmark runs, so that every time
    it reports can be stated at one reference speed.

    On a machine whose cores are shared, speed swings by 20% and more within
    seconds, and CPU time follows wall time, so the swings are not
    preemption.  The meter times a fixed probe that runs no hclab code (one
    SVD, a short Python loop, and a loop of small matrix products whose time
    is mostly numpy's per-call overhead, as in hclab at small N) before and
    after each measured call and, inside ``continuous()``, every INTERVAL_S
    from a SIGALRM handler in the middle of it.  A call's speed factor is its probes' mean time over
    REFERENCE_S; the time the handler spent inside the call is subtracted.
    A change to hclab moves the reported times exactly as it moves the raw
    ones, since the probe does not depend on hclab.
    """

    REFERENCE_S = 0.0028   # the probe's median on the 2-core machine used for tuning
    INTERVAL_S = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self._small = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                       for _ in range(4)]
        self._svd = np.linalg.svd   # bound now, so the tracer never sees the probe
        self.samples = []           # (start, seconds) of every probe

    def _probe(self, *_signal):
        start = time.perf_counter()
        self._svd(self._matrix)
        acc = 0
        for i in range(5000):
            acc += i * i % 7
        for i in range(150):
            acc += float(np.abs(self._small[i % 4] @ self._small[(i + 1) % 4]).sum())
        self.samples.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def continuous(self):
        """Probe every INTERVAL_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn, *args):
        """Call ``fn(*args)``; return (result, seconds as measured, speed factor).

        The seconds exclude probes that ran inside the call; divide them by
        the factor for seconds at reference speed."""
        self._probe()
        first = len(self.samples)
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        seconds -= sum(d for _, d in self.samples[first:])
        self._probe()
        window = [d for _, d in self.samples[first - 1:]]
        return result, seconds, statistics.fmean(window) / self.REFERENCE_S


@dataclass
class Outcome:
    op: workloads.Op
    seconds: float          # wall time of the call, probes excluded
    factor: float           # machine speed factor during it
    failure: workloads.Failure | None

    @property
    def reference_seconds(self) -> float:
        return self.seconds / self.factor


# -- one operation ---------------------------------------------------------------

def call(cli, op):
    """Run one operation; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([op.command, "--file", op.spec])
        except Exception:  # an operation that raises is a failed operation
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_round(cli, meter, ops, verify_tolerances, tracer=None, first_id=0):
    """Run a round; answers are checked after the last operation."""
    measured = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_id + i
        measured.append(meter.measure(call, cli, op))
    return [Outcome(op, seconds, factor, workloads.check(op, *report, verify_tolerances))
            for op, (report, seconds, factor) in zip(ops, measured)]


# -- set-up ----------------------------------------------------------------------

def import_seconds(src):
    """Time ``import hclab`` in a fresh interpreter, as a CLI user pays it."""
    code = "import time; t = time.perf_counter(); import hclab; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def set_up(cli, meter, name, seed, rounds, src, workdir):
    """Median-of-three set-up, at reference speed: import, spec generation
    and warm-up.

    Every repetition rewrites the same spec files: creating a file costs
    far more than rewriting one on some file systems, and that cost belongs
    to the benchmark, not to hclab.
    """
    specs = os.path.join(workdir, "specs")

    def specs_and_warmup():
        plan = workloads.build_plan(name, seed, rounds, specs)
        for op in workloads.warmup_ops(name, specs):
            call(cli, op)
        return plan

    imports, rest = [], []
    with meter.continuous():
        for _ in range(SETUP_REPEATS):
            child_s, _, factor = meter.measure(import_seconds, src)
            imports.append(child_s / factor)
            plan, seconds, factor = meter.measure(specs_and_warmup)
            rest.append(seconds / factor)
    print(f"set-up at reference speed: import {', '.join(f'{t:.3f}' for t in imports)} s; "
          f"specs and warm-up {', '.join(f'{t:.3f}' for t in rest)} s; medians are summed")
    return statistics.median(imports) + statistics.median(rest), plan


# -- run record ------------------------------------------------------------------

def source_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "hclab")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def run_record(args, root, src):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "probe_reference_s": SpeedMeter.REFERENCE_S,
    }


# -- end-to-end metrics ------------------------------------------------------------

def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump when
    the mix of operations leaves a gap between latencies at the quantile."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    grid = np.concatenate(([0.0], t, [1.0]))
    cdf = np.concatenate(([0.0], cdf / cdf[-1], [1.0]))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples above it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return max(latencies), 100.0
    p = (n - TAIL_BEYOND) / n
    return quantile(latencies, p), 100.0 * p


def summarize_failures(outcomes):
    """(failed count, whether every failure is a known seed defect, lines)."""
    failed = [o for o in outcomes if o.failure is not None]
    groups: dict = {}
    for o in failed:
        key = (o.op.command, o.op.family, o.op.n, o.failure.kind)
        groups.setdefault(key, []).append(o)
    lines = []
    for (cmd, fam, n, kind), items in sorted(groups.items()):
        known = workloads.is_known_defect(items[0].op, items[0].failure)
        lines.append(f"  {len(items)} x {cmd}/{fam}/N={n} [{kind}]"
                     f"{' known seed defect' if known else ' UNEXPECTED'}: {items[0].failure}")
    only_known = all(workloads.is_known_defect(o.op, o.failure) for o in failed)
    return len(failed), only_known, lines


def end_to_end(cli, meter, plan, setup_s, verify_tolerances):
    """Run every round of the plan once, with the speed probe running."""
    with meter.continuous():
        rounds = [run_round(cli, meter, ops, verify_tolerances) for ops in plan]
    outcomes = [o for done in rounds for o in done]
    latencies = [o.reference_seconds for o in outcomes]
    tail_value, tail_pct = tail(latencies)
    failed, only_known, lines = summarize_failures(outcomes)
    attempted = len(outcomes)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "passed_frac": ((attempted - failed) / attempted, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = [o.seconds for o in outcomes]
    factors = [o.factor for o in outcomes]
    print(f"timed phase: {attempted} operations in {len(rounds)} rounds of {len(rounds[0])}, "
          f"{sum(wall):.3f} s in operations")
    print(f"machine speed factor (probe / {SpeedMeter.REFERENCE_S} s): median "
          f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}")
    print(f"as measured, before the speed correction: {attempted / sum(wall):.4g} operations/s, "
          f"p50 {quantile(wall, 0.5) * 1e3:.4g} ms, tail {tail(wall)[0] * 1e3:.4g} ms")
    print("operations/s by round at reference speed: " + " ".join(
        f"{len(done) / sum(o.reference_seconds for o in done):.2f}" for done in rounds))
    if attempted > TAIL_BEYOND:
        print(f"latency_tail_ms is p{tail_pct:.2f} of {attempted} samples "
              f"({TAIL_BEYOND} samples beyond it)")
    else:
        print(f"latency_tail_ms is the maximum: only {attempted} samples")
    print(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted})")
    for line in lines:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    return attempted, failed, only_known, metrics


# -- traced run --------------------------------------------------------------------

# Functions whose per-layer metrics the JSON line carries.  Times (ms per
# operation) are listed only for functions that every workload calls, so none
# of them reads a constant zero; stages that only some workloads reach report
# their share of operation time instead.
COUNT_FUNCTIONS = (
    "chains.span_closure", "chains.analysis_block", "chains.isometry_tower",
    "chains.verify_chain_structure", "commutation.gram_power", "subspaces.orthonormalize",
    "subspaces.subspace_ominus", "linalg.polar", "spectral.spectral_correspondence_check",
    "classifier.relation_detect", "classifier.shift_rank_one_reconstruct",
    "numpy.svd", "numpy.eigh", "numpy.inv", "numpy.matrix_power",
)
TIME_FUNCTIONS = (
    "cli.main", "cli.build_model", "operators.load_operator_spec",
    "commutation.gram_power", "commutation.half_centered_check", "commutation.centered_check",
    "commutation.kernel_of_adjoint", "chains.chain_decomposition", "chains.analysis_block",
    "subspaces.orthonormalize", "subspaces.Subspace", "spectral.joint_diagonalize",
    "spectral.structure_extract", "spectral.enumerate_triples", "numpy.svd", "numpy.eigh",
)
SHARE_FUNCTIONS = (
    "chains.span_closure", "chains.isometry_tower", "chains.verify_chain_structure",
    "spectral.spectral_correspondence_check", "classifier.relation_detect",
    "classifier.shift_rank_one_reconstruct", "linalg.polar",
)
FAMILY_COUNTS = (("aq", "commutation.gram_power"), ("sro", "commutation.gram_power"),
                 ("aq", "numpy.svd"), ("weighted_shift", "numpy.svd"))


def per_layer(tracer, rows, edges, ops, overhead):
    n = len(ops)
    everything = range(n)
    table = tracing.combine(rows, everything)
    by_parent = tracing.combine(edges, everything)
    empty = dict.fromkeys(tracing.ROW_FIELDS, 0)

    def row(name):
        return table.get(name, empty)

    m = {}
    for name in COUNT_FUNCTIONS:
        m[f"{name}.calls"] = (row(name)["calls"] / n, "count")
    m["chains.verify_chain_structure.errors"] = (
        row("chains.verify_chain_structure")["errors"] / n, "count")
    closure_orth = by_parent.get(("chains.span_closure", "subspaces.orthonormalize"))
    m["chains.span_closure.orthonormalize_calls"] = (
        (closure_orth["calls"] if closure_orth else 0) / n, "count")
    fed = tracer.closure_columns
    m["chains.span_closure.kept_col_ratio"] = (tracer.closure_gain / fed if fed else 0.0, "ratio")
    m["subspaces.Subspace.constructions"] = (row("subspaces.Subspace")["calls"] / n, "count")
    for kernel in tracing.NUMPY_KERNELS:
        m[f"numpy.{kernel}.flops_computed"] = (row(f"numpy.{kernel}")["flops"] / n, "flop")
    m["numpy.svd.bytes_computed"] = (row("numpy.svd")["bytes"] / n, "B")
    for family, name in FAMILY_COUNTS:
        ids = [i for i, op in enumerate(ops) if op.family == family]
        calls = tracing.combine(rows, ids).get(name, empty)["calls"]
        m[f"{family}.{name}.calls"] = (calls / len(ids), "count")
    for name in TIME_FUNCTIONS:
        m[f"{name}.incl_ms"] = (row(name)["incl_ns"] / n / 1e6, "ms")
    for name in ("cli.report", "cli.main", "subspaces.Subspace", "chains.chain_decomposition"):
        m[f"{name}.self_ms"] = (row(name)["self_ns"] / n / 1e6, "ms")
    for name in SHARE_FUNCTIONS:
        m[f"{name}.incl_pct"] = (100.0 * row(name)["incl_ns"] / row("cli.main")["incl_ns"], "%")
    m["trace.overhead_pct"] = (100.0 * overhead, "%")
    return m, table, by_parent


def print_layer_table(table, n):
    print(f"per-layer table, per operation over {n} traced operations "
          "(calls, incl_ms, self_ms, errors; numpy flops/bytes are computed, not measured):")
    for name in sorted(table, key=lambda k: -table[k]["incl_ns"]):
        r = table[name]
        extra = ""
        if r["flops"]:
            extra = f"  flops_computed={r['flops'] / n:.6g}  bytes_computed={r['bytes'] / n:.6g}"
        print(f"  {name:46s} calls={r['calls'] / n:<10.6g} incl_ms={r['incl_ns'] / n / 1e6:<10.4f}"
              f" self_ms={r['self_ns'] / n / 1e6:<10.4f} errors={r['errors'] / n:.6g}{extra}")


def print_groups(rows, edges, ops):
    """Per (command, family, N): calls of the shared layers, and the stage
    with the largest inclusive time under the command."""
    print("per operation group (per operation):")
    groups: dict = {}
    for i, op in enumerate(ops):
        groups.setdefault(op.group, []).append(i)
    for group, ids in sorted(groups.items()):
        table = tracing.combine(rows, ids)
        counts = "  ".join(
            f"{name}.calls={table[name]['calls'] / len(ids):g}"
            for name in ("commutation.gram_power", "chains.analysis_block", "numpy.svd")
            if name in table)
        command = ops[ids[0]].command
        parent = "classifier.classify" if command == "classify" else f"cli.cmd_{command}"
        stages = {child: e["ns"] for (p, child), e in tracing.combine(edges, ids).items()
                  if p == parent}
        stage = ""
        if stages:
            top = max(stages, key=stages.get)
            stage = (f"  top stage under {parent}: {top} {stages[top] / len(ids) / 1e6:.1f} of "
                     f"{table[parent]['incl_ns'] / len(ids) / 1e6:.1f} ms")
        print(f"  {group:34s} ops={len(ids):<3d} {counts}{stage}")


def traced_run(args, cli, meter, plan, verify_tolerances, record, root):
    ops = [op for ops in plan for op in ops]
    # no probes inside calls here: they would land in the spans
    untraced = [o for ops_round in plan
                for o in run_round(cli, meter, ops_round, verify_tolerances)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [o for r, ops_round in enumerate(plan)
                  for o in run_round(cli, meter, ops_round, verify_tolerances, tracer,
                                     first_id=r * len(ops_round))]
    finally:
        tracer.uninstall()
    outcomes = untraced + traced
    untraced_s = sum(o.reference_seconds for o in untraced)
    traced_s = sum(o.reference_seconds for o in traced)
    overhead = traced_s / untraced_s - 1.0
    rows, edges = tracer.tables()
    metrics, table, by_parent = per_layer(tracer, rows, edges, ops, overhead)
    print(f"traced phase: {len(ops)} operations; at reference speed untraced "
          f"{untraced_s:.3f} s, traced {traced_s:.3f} s, tracing overhead {100 * overhead:.1f}%")
    print_layer_table(table, len(ops))
    print_groups(rows, edges, ops)
    print("calls by parent (numpy kernels):")
    for (parent, child), edge in sorted(by_parent.items(), key=lambda kv: -kv[1]["calls"]):
        if child.startswith("numpy."):
            print(f"  {child:18s} <- {parent:44s} {edge['calls'] / len(ops):g} per operation")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json.gz")
    tracer.dump(path, {
        "run_record": record,
        "ops": [[i, op.command, op.family, op.n, op.param] for i, op in enumerate(ops)],
        "summary": table,
        "per_layer": {k: v for k, (v, _) in metrics.items()},
    })
    print(f"spans written to {os.path.relpath(path, root)} ({len(tracer.spans)} spans)")
    failed, only_known, lines = summarize_failures(outcomes)
    for line in lines:
        print(line)
    return len(outcomes), failed, only_known, metrics


# -- entry point -----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hclab", "cli.py")):
        sys.stderr.write("run.py: src/hclab/cli.py not found; run from the root of an "
                         "hclab checkout\n")
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        import hclab.cli as cli
        record = run_record(args, root, src)
        print("run record: " + json.dumps(record, sort_keys=True))
        meter = SpeedMeter()
        workload = workloads.WORKLOADS[args.workload]
        rounds = (workload.trace_rounds if args.trace else workload.timed_rounds)(args.seconds)
        setup_s, plan = set_up(cli, meter, args.workload, args.seed, rounds, src, workdir)
        # read at run time: the gate moves with the program's own bounds
        verify_tolerances = dict(cli.VERIFY_TOLERANCES)
        if args.trace:
            attempted, failed, only_known, metrics = traced_run(
                args, cli, meter, plan, verify_tolerances, record, root)
        else:
            attempted, failed, only_known, metrics = end_to_end(
                cli, meter, plan, setup_s, verify_tolerances)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": only_known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
