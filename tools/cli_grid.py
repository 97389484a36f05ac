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
``edge name exit sha256``; the ill-conditioned aq input of ``ILL_CASES``
(q = 0.5, r = 1.123915264854093, N = 32), five commands at the default
tolerances and at ``--tol-comm 1e-8``, ``ill name exit sha256``; the six
commands of the README's "Command line" block, ``readme name exit sha256``;
and five commands on ``SPAN_SPEC``, the one input whose condition II fails,
``span name exit sha256``: 684 + 6 + 10 + 6 + 5 runs.  The README's ``check --file pq.json`` is run on the
JSON text of that projection-product spec, which ``--file`` accepts, so no
file is needed.  ``main`` returns 1 for a usage error and 0 for help; older
checkouts raise argparse's ``SystemExit`` instead, so it is caught.
``COLUMNS`` is fixed at 80 so argparse's line wrapping is reproducible.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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
# aq with r 1e-9 above -lambda_min(A_q), condition number about 1e20
_AQ_ILL = ["--family", "aq", "--q", "0.5", "--r", "1.123915264854093", "--n", "32"]
ILL_CASES = tuple((command + suffix, [command, *_AQ_ILL, *tol])
                  for suffix, tol in (("", []), ("@tol-comm-1e-8", ["--tol-comm", "1e-8"]))
                  for command in ("check", "decompose", "spectral", "classify", "verify"))
PQ_SPEC = ('{"family": "projection_product", "P": [[0.5, -0.5], [-0.5, 0.5]], '
           '"Q": [[1, 0], [0, 0]]}')
_AQ = ["--family", "aq", "--q", "0.5", "--r", "5"]
README_COMMANDS = (
    ("zoo", ["zoo", "--family", "weighted_shift", "--weights", "1,2,3", "--n", "4",
             "--format", "text"]),
    ("check", ["check", "--file", PQ_SPEC]),
    ("decompose", ["decompose", *_AQ, "--n", "32"]),
    ("spectral", ["spectral", "--family", "shift_plus_rank_one", "--weights", "0.7,0.9,1.1",
                  "--a", "0.3+0.4j", "--index", "1", "--n", "4"]),
    ("classify", ["classify", *_AQ, "--n", "48"]),
    ("verify", ["verify", *_AQ, "--n", "32"]),
)


def _scalar_plus_shift() -> str:
    """0.9 I_2 (+) a weighted shift with weights linspace(0.8, 1.2, 21), N = 24,
    in the plain-text matrix format: M_E is the shift's first index, and its
    closure under T never reaches the scalar part, so condition II fails."""
    step = (1.2 - 0.8) / 20  # numpy's linspace, bit for bit
    weights = [k * step + 0.8 for k in range(20)] + [1.2]
    rows = [[0.0] * 24 for _ in range(24)]
    rows[0][0] = rows[1][1] = 0.9
    for k, w in enumerate(weights):
        rows[k + 3][k + 2] = w
    return "24 24\n" + "\n".join(" ".join(repr(x) for x in row) for row in rows) + "\n"


SPAN_SPEC = json.dumps({"family": "matrix", "matrix": _scalar_plus_shift(), "exact": False})
SPAN_CASES = tuple((command, [command, "--file", SPAN_SPEC])
                   for command in ("check", "decompose", "spectral", "classify", "verify"))


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


def capture(main, argv: list[str]) -> tuple[int, str, str, str]:
    """Exit code, stdout, stderr and the warnings raised, of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # older checkouts exit on usage errors and help
                code = exc.code
    # warnings carry the file path and line, which differ between checkouts
    noted = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue(), noted


def run(main, argv: list[str]) -> tuple[int, str]:
    code, *texts = capture(main, argv)
    return code, hashlib.sha256("".join(texts).encode()).hexdigest()


def load_cli(src_dir: str):
    """The ``hclab.cli`` module of SRC_DIR, with one BLAS thread and fixed COLUMNS."""
    os.environ.pop("HCLAB_SEED", None)  # older checkouts let it override --seed
    os.environ["COLUMNS"] = "80"
    # one BLAS thread, set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.abspath(src_dir))
    import hclab.cli
    return hclab.cli


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write("usage: cli_grid.py SRC_DIR\n")
        return 2
    hclab_main = load_cli(args[0]).main

    for n, family, command, fmt in grid():
        argv = [command, *family_args(family, n), "--n", str(n), "--format", fmt]
        code, digest = run(hclab_main, argv)
        print(n, family, command, fmt, code, digest, flush=True)
    for tag, cases in (("edge", EDGE_CASES), ("ill", ILL_CASES), ("readme", README_COMMANDS),
                       ("span", SPAN_CASES)):
        for name, argv in cases:
            code, digest = run(hclab_main, argv)
            print(tag, name, code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
