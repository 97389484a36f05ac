"""Run the hclab command line over a fixed grid of operators, in process, and
print one line per run.

Usage: python tools/cli_grid.py SRC_DIR

SRC_DIR is the directory that holds the ``hclab`` package (``src`` in a
checkout).  Each line reads ``N family command format exit sha256``, where the
hash covers the run's stdout, its stderr and any warnings it raised.  Two
checkouts print the same lines exactly when every run gives the same output
and exit code, so diffing the output of two checkouts compares their CLIs.

The grid: ws, sro (a = 0.3+0.4i, index 2), hardy (c = 0.5) and aq at
q = 0.3, 0.5 (r = 5) and 0.7, times the six commands, times
N in {4, 6, 8, 12, 16, 24, 32, 48, 64} in json and text, plus json at N = 128.
After the grid come the argv edge cases of ``EDGE_CASES``, one line each,
``edge name exit sha256``: argparse's own exits (usage errors and help) are
caught, and ``COLUMNS`` is fixed at 80 so its line wrapping is reproducible.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import warnings

FAMILIES = ("ws", "sro", "hardy", "aq0.3", "aq0.5r5", "aq0.7")
COMMANDS = ("zoo", "check", "decompose", "spectral", "classify", "verify")
SIZES = (4, 6, 8, 12, 16, 24, 32, 48, 64)
LARGE = 128
_WS = ["--family", "weighted_shift", "--weights", "1,1,1", "--n", "4"]
EDGE_CASES = (
    ("no-command", []),
    ("unknown-command", ["frobnicate", *_WS]),
    ("unknown-flag", ["check", *_WS, "--no-such-flag"]),
    ("format-xml", ["check", *_WS, "--format", "xml"]),
    ("help", ["-h"]),
    ("command-help", ["classify", "-h"]),
)


def _weights(n: int) -> str:
    """n - 1 nonzero weights of alternating sign, the first negative."""
    return ",".join(f"{(-1) ** (k + 1) * (0.6 + 0.1 * (k % 5)):g}" for k in range(n - 1))


def family_args(family: str, n: int) -> list[str]:
    if family == "ws":
        return ["--family", "weighted_shift", f"--weights={_weights(n)}"]
    if family == "sro":
        return ["--family", "shift_plus_rank_one", f"--weights={_weights(n)}",
                "--a", "0.3+0.4j", "--index", "2"]
    if family == "hardy":
        return ["--family", "shift_plus_rank_one", "--weights=" + ",".join(["0.5"] * (n - 1)),
                "--a", "1", "--index", "0"]
    q, _, r = family[2:].partition("r")
    return ["--family", "aq", "--q", q] + (["--r", r] if r else [])


def grid():
    for n in SIZES + (LARGE,):
        formats = ("json",) if n == LARGE else ("json", "text")
        for family in FAMILIES:
            for command in COMMANDS:
                for fmt in formats:
                    yield n, family, command, fmt


def run(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits on usage errors and help
                code = exc.code
    # warnings carry the file path and line, which differ between checkouts
    noted = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    digest = hashlib.sha256((out.getvalue() + err.getvalue() + noted).encode()).hexdigest()
    return code, digest


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write("usage: cli_grid.py SRC_DIR\n")
        return 2
    os.environ.pop("HCLAB_SEED", None)
    os.environ["COLUMNS"] = "80"
    # one BLAS thread, set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.abspath(args[0]))
    from hclab.cli import main as hclab_main

    for n, family, command, fmt in grid():
        argv = [command, *family_args(family, n), "--n", str(n), "--format", fmt]
        code, digest = run(hclab_main, argv)
        print(n, family, command, fmt, code, digest, flush=True)
    for name, argv in EDGE_CASES:
        code, digest = run(hclab_main, argv)
        print("edge", name, code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
