"""Outside-in tracing of hclab: spans around every public module function.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces
each public function of each hclab module with a wrapper that records a
span, and rebinds every name a module imported from another one (such as
``classifier.span_closure``), so calls made through either name are seen.
Four numpy.linalg kernels are wrapped as well; their flops and bytes are
computed from the argument shapes with textbook operation counts, so they
are labelled "computed", not measured.

A span is ``(op_id, parent_span, name, start_ns, end_ns, error, nested)``,
where ``nested`` marks a span opened inside another span of the same name.
Spans stay in memory until ``dump`` writes them out after the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

import numpy as np

HCLAB_MODULES = ("linalg", "subspaces", "matio", "operators", "commutation",
                 "chains", "spectral", "classifier", "cli")

# private functions that are still a stage worth a span, under a public name
EXTRA_SPANS = {("cli", "_emit_report"): "cli.report"}

NUMPY_KERNELS = ("svd", "eigh", "inv", "matrix_power")
ROW_FIELDS = ("calls", "incl_ns", "self_ns", "errors", "flops", "bytes")


def _svd_flops(a, args, kwargs):
    """Golub & Van Loan counts for the Golub-Reinsch SVD."""
    m, n = a.shape[-2:]
    big, k = max(m, n), min(m, n)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if not uv:
        return 4 * big * k * k - 4 * k ** 3 / 3
    if full:
        return 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
    return 14 * big * k * k + 8 * k ** 3


def _matrix_power_flops(a, args, kwargs):
    k = int(args[1] if len(args) > 1 else kwargs["n"])
    # numpy squares and multiplies along the binary digits of k
    products = 0 if k < 2 else (k.bit_length() - 1) + (bin(k).count("1") - 1)
    return products * 2 * a.shape[-1] ** 3


# real-arithmetic flop counts by kernel; a complex input costs four times as
# much (one complex multiply-add is four real multiplies and four adds)
KERNEL_FLOPS = {
    "svd": _svd_flops,
    "eigh": lambda a, args, kwargs: 9 * a.shape[-1] ** 3,
    "inv": lambda a, args, kwargs: 2 * a.shape[-1] ** 3,
    "matrix_power": _matrix_power_flops,
}


def kernel_work(kernel, args, kwargs, result):
    """(flops, bytes, input columns) of one numpy kernel call."""
    a = np.asarray(args[0])
    flops = KERNEL_FLOPS[kernel](a, args, kwargs) * (4 if np.iscomplexobj(a) else 1)
    outs = (result,) if isinstance(result, np.ndarray) else tuple(result)
    nbytes = a.nbytes + sum(np.asarray(r).nbytes for r in outs)
    return flops, nbytes, a.shape[-1]


class Tracer:
    """Span recorder for one benchmark process.

    ``op_id`` is set by the caller before each operation; spans opened while
    it is set belong to that operation.
    """

    def __init__(self):
        self.spans: list = []
        self.work: dict = {}        # span id -> (flops, bytes, columns) of a numpy kernel
        self.closure_gain = 0       # dimension gained by span_closure calls
        self.closure_columns = 0    # columns those calls fed to SVDs
        self.op_id = -1
        self._stack: list = []
        self._active: dict = {}     # name -> spans of that name now open
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, on_return=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        nested = self._active.get(name, 0) > 0
        self.spans.append(None)
        self._stack.append(sid)
        self._active[name] = self._active.get(name, 0) + 1
        failed = True
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._active[name] -= 1
            self.spans[sid] = (self.op_id, parent, name, start, end, failed, nested)
        if on_return is not None:
            on_return(sid, args, kwargs, result)
        return result

    def _wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_return)
        return traced

    def _record_gain(self, sid, args, kwargs, result):
        # span_closure(model, cfg, seed_space) -> (closure, status)
        self.closure_gain += result[0].dim - args[2].dim

    def _record_work(self, kernel, sid, args, kwargs, result):
        self.work[sid] = kernel_work(kernel, args, kwargs, result)
        if kernel == "svd" and self._active.get("chains.span_closure"):
            self.closure_columns += self.work[sid][2]

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public hclab function and the numpy kernels."""
        modules = {short: importlib.import_module(f"hclab.{short}") for short in HCLAB_MODULES}
        package = importlib.import_module("hclab")
        wrappers = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = EXTRA_SPANS.get((short, attr))
                if name is None:
                    if attr.startswith("_"):
                        continue
                    name = f"{short}.{attr}"
                hook = self._record_gain if name == "chains.span_closure" else None
                wrappers[id(obj)] = self._wrap(name, obj, hook)
        # rebind the defining name and every imported alias of it
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        subspace = modules["subspaces"].Subspace
        self._patch(subspace, "__post_init__",
                    self._wrap("subspaces.Subspace", subspace.__post_init__))
        # np.linalg.norm(x, 2) reaches svd through the private module, so
        # patch both names: every SVD numpy runs for hclab is counted
        owners = [np.linalg]
        private = getattr(np.linalg, "_linalg", None)
        if private is not None:
            owners.append(private)
        for kernel in NUMPY_KERNELS:
            original = getattr(np.linalg, kernel)
            hook = functools.partial(self._record_work, kernel)
            wrapper = self._wrap(f"numpy.{kernel}", original, hook)
            for owner in owners:
                if getattr(owner, kernel, None) is original:
                    self._patch(owner, kernel, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def tables(self):
        """Per-operation totals, from one pass over the spans.

        Returns ``{op: {name: row}}`` with calls, incl_ns, self_ns, errors,
        flops and bytes, and ``{op: {(parent name, name): {calls, ns}}}``.
        Inclusive time counts only the outermost span of a name on a stack,
        so a recursive call is not counted twice; self time is the span minus
        its direct children.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[4] - span[3]
        rows: dict = {}
        edges: dict = {}
        for sid, (op, parent, name, start, end, failed, nested) in enumerate(spans):
            row = rows.setdefault(op, {}).setdefault(name, dict.fromkeys(ROW_FIELDS, 0))
            row["calls"] += 1
            row["self_ns"] += end - start - child_ns[sid]
            row["errors"] += failed
            if not nested:
                row["incl_ns"] += end - start
            if sid in self.work:
                row["flops"] += self.work[sid][0]
                row["bytes"] += self.work[sid][1]
            key = (spans[parent][2] if parent >= 0 else "<root>", name)
            edge = edges.setdefault(op, {}).setdefault(key, {"calls": 0, "ns": 0})
            edge["calls"] += 1
            edge["ns"] += end - start
        return rows, edges

    def dump(self, path, header: dict):
        """Write the header, a name table and every span, gzip-compressed."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            **header,
            "span_fields": ["op_id", "parent", "name", "start_ns", "end_ns", "error"],
            "names": names,
            "spans": [[op, parent, index[name], start, end, int(failed)]
                      for op, parent, name, start, end, failed, _ in self.spans],
            "kernel_work_fields": ["span", "flops_computed", "bytes_computed", "columns"],
            "kernel_work": [[sid, *w] for sid, w in sorted(self.work.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def combine(per_op: dict, op_ids) -> dict:
    """Sum the per-operation tables of ``op_ids`` key by key."""
    total: dict = {}
    for op in op_ids:
        for key, row in per_op.get(op, {}).items():
            acc = total.setdefault(key, dict.fromkeys(row, 0))
            for field, value in row.items():
                acc[field] += value
    return total
