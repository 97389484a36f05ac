"""Summarize the answers of the hclab command line on the grid of
``cli_grid.py``, for each operator T, for D T D* with seeded diagonal phases D,
for U T U* with a seeded dense unitary U and for 0.1 T and 10 T, and count the
runs whose rotated or scaled summaries differ from the plain one.

Usage: python tools/invariance_grid.py SRC_DIR

SRC_DIR is the directory that holds the ``hclab`` package (``src`` in a
checkout).  The runs are the json runs of ``cli_grid.grid()`` except ``zoo``:
300 runs, each made five times, in process.  Each line reads
``basis N family command exit`` and then the summary fields the run's report
has: ``verdict``, ``dim_E``, ``dim_M_E``, ``moduli_status``, ``V`` (the chain's
V_n dimensions), ``triples`` (a count), ``condition_II_ok`` and ``failures``
(the failing ``verify`` keys).  A run without a report names its error type.
``basis`` is ``T`` for the operator as the command line builds it, ``DTD*``
for that model conjugated by D = diag(exp(2 pi i theta)), with theta drawn
from ``default_rng(PHASE_SEED)``, and ``UTU*`` for it conjugated by a Haar
unitary U drawn from ``default_rng(UNITARY_SEED)``.  Both go through
``OperatorModel.conjugated``, which rotates the window along, so every answer
should hold; both make a real operator complex, and U makes it dense.
``0.1T`` and ``10T`` are ``dataclasses.replace(model, matrix=c * model.matrix)``
of T, so the window metadata and the gauge still apply; every answer of the
paper is scale invariant.  The lines ``differ K of 300``, ``differ UTU* K of
300``, ``differ 0.1T K of 300`` and ``differ 10T K of 300`` count the runs
whose DTD*, UTU*, 0.1T and 10T lines differ from the T line, and
``condition II false K of M`` counts the ``classify`` runs, over all five
bases, whose report reads ``condition_II_ok`` false.  The lines ``analysed
real BASIS K of M`` count, per basis, the runs whose model the command line
analyses in float64: those where ``real_gauge(model)`` is real (a checkout
without ``real_gauge`` analyses the model as built).  Summaries
do not hold residuals, so the ``T`` lines of two checkouts compare their
answers where the bits of their arithmetic differ.
"""

from __future__ import annotations

import json
import re
import sys

import cli_grid

PHASE_SEED = 20240601
UNITARY_SEED = 20240602
FIELDS = ("verdict", "dim_E", "dim_M_E", "moduli_status", "V", "triples",
          "condition_II_ok", "failures")


def runs():
    """(N, family, command) of every json run of the grid except zoo."""
    for n, family, command, fmt in cli_grid.grid():
        if fmt == "json" and command != "zoo":
            yield n, family, command


def summary(code: int, out: str, err: str) -> str:
    """``exit`` and the summary fields of one run's report."""
    if not out:
        found = re.match(r"error\[(\w+)\]", err)
        return f"{code} error={found.group(1) if found else '?'}"
    report = json.loads(out)
    dims = report.get("dims") or (report.get("structure") or {}).get("dims") or {}
    triples = report.get("triples")
    values = {
        "verdict": report.get("verdict"),
        "dim_E": report.get("dim_E", dims.get("E")),
        "dim_M_E": report.get("dim_M_E", dims.get("M_E")),
        "moduli_status": report.get("moduli_status"),
        "V": dims.get("V"),
        "triples": len(triples) if isinstance(triples, list) else triples,
        "condition_II_ok": report.get("condition_II_ok"),
        "failures": sorted(report["failures"]) if "failures" in report else None,
    }
    return " ".join([str(code)] + [f"{key}={json.dumps(values[key], separators=(',', ':'))}"
                                   for key in FIELDS if values[key] is not None])


def _conjugating(cli, unitary):
    """A ``build_model`` for ``cli`` that returns the model T it would build,
    conjugated by ``unitary(np, N)``."""
    import numpy as np  # imported here, after load_cli has set the BLAS threads

    build = cli.build_model

    def rotated(args):
        model = build(args)
        return model.conjugated(unitary(np, model.dim))
    return rotated


def _phases(np, n):
    theta = np.random.default_rng(PHASE_SEED).uniform(size=n)
    return np.diag(np.exp(2j * np.pi * theta))


def _haar(np, n):
    """Q of the QR of a complex Gaussian matrix, its phases fixed by R's diagonal."""
    z = np.random.default_rng(UNITARY_SEED).standard_normal((2, n, n))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    return q * (np.diag(r) / np.abs(np.diag(r)))


def phase_conjugated(cli):
    """A ``build_model`` for ``cli`` that returns D T D* for the model T it
    would build."""
    return _conjugating(cli, _phases)


def unitary_conjugated(cli):
    """A ``build_model`` for ``cli`` that returns U T U* for the model T it
    would build."""
    return _conjugating(cli, _haar)


def scaled(cli, c: float):
    """A ``build_model`` for ``cli`` that returns c T for the model T it would
    build, with T's window metadata."""
    import dataclasses

    build = cli.build_model

    def scaling(args):
        model = build(args)
        return dataclasses.replace(model, matrix=c * model.matrix)
    return scaling


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write("usage: invariance_grid.py SRC_DIR\n")
        return 2
    cli = cli_grid.load_cli(args[0])
    builders = {"T": cli.build_model, "DTD*": phase_conjugated(cli),
                "UTU*": unitary_conjugated(cli), "0.1T": scaled(cli, 0.1),
                "10T": scaled(cli, 10.0)}
    differ = {"DTD*": 0, "UTU*": 0, "0.1T": 0, "10T": 0}
    real = dict.fromkeys(builders, 0)
    gauge = getattr(cli, "real_gauge", lambda model: model)
    built = []

    def recording(build):
        def record(args):
            built.append(build(args))
            return built[-1]
        return record
    total = 0
    span_false = span_runs = 0
    try:
        for n, family, command in runs():
            argv = [command, *cli_grid.family_args(family, n), "--n", str(n), "--format", "json"]
            lines = {}
            for basis, build in builders.items():
                cli.build_model = recording(build)  # main looks it up at call time
                built.clear()
                code, out, err, _ = cli_grid.capture(cli.main, argv)
                real[basis] += bool(built) and gauge(built[0]).matrix.dtype == "float64"
                lines[basis] = summary(code, out, err)
                if command == "classify":
                    span_runs += 1
                    span_false += "condition_II_ok=false" in lines[basis]
                print(basis, n, family, command, lines[basis], flush=True)
            total += 1
            for basis in differ:
                differ[basis] += lines["T"] != lines[basis]
    finally:
        cli.build_model = builders["T"]
    print("differ", differ["DTD*"], "of", total)
    for basis in ("UTU*", "0.1T", "10T"):
        print("differ", basis, differ[basis], "of", total)
    print("condition II false", span_false, "of", span_runs)
    for basis, count in real.items():
        print("analysed real", basis, count, "of", total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
