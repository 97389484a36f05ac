"""Run the json runs of ``cli_grid.py``'s grid on two checkouts and print one
line per run whose output differs, saying how it differs.

Usage: python tools/report_diff.py SRC_A SRC_B

SRC_A and SRC_B are directories that each hold an ``hclab`` package (``src``
in a checkout).  Both run in this process, one after the other, through
``cli_grid.load_cli`` (one BLAS thread: the N = 128 reports depend on the BLAS
thread count) and ``cli_grid.capture``.  Each line reads
``N family command exit CODE`` (``A->B`` when the exit codes differ), then
``fields=`` with the paths of the report fields other than floats that differ
(verdicts, dimensions, statuses, keys present on one side only; list indices
are written ``[]``), then ``numbers=K max_abs=X max_rel=Y`` over the floats
that differ, then ``at=PATH``, the path of the float with the largest absolute
change (the first on a tie; ``-`` when no float differs).  A run whose stdout
is not a json report compares its stderr and warnings as the fields
``stderr`` and ``warnings``.  Five summary lines close the output:
``differ K of R``; ``exit changed K of R``, the runs whose exit code differs;
``max_abs X at N FAMILY COMMAND PATH``, the largest absolute float change
over all runs and where it is (``max_abs 0.00e+00 at -`` when no float
differs); ``fields changed K of R``, the runs where a field other than a
float differs; and ``max_abs floats-only X at N FAMILY COMMAND PATH``, the
largest float change over the runs where only floats differ.  So a change
can quote its bound from one line, even when some runs also move a
dimension.
"""

from __future__ import annotations

import json
import math
import os
import sys

import cli_grid


def runs():
    """(N, family, command) of every json run of the grid."""
    for n, family, command, fmt in cli_grid.grid():
        if fmt == "json":
            yield n, family, command


def outputs(src_dir: str) -> list:
    """(exit, stdout, stderr, warnings) of every run of ``runs()`` on SRC_DIR."""
    for name in [name for name in sys.modules if name == "hclab" or name.startswith("hclab.")]:
        del sys.modules[name]   # the other checkout's package
    main = cli_grid.load_cli(src_dir).main
    sys.path.remove(os.path.abspath(src_dir))
    return [cli_grid.capture(main, [command, *cli_grid.family_args(family, n), "--n", str(n),
                                    "--format", "json"])
            for n, family, command in runs()]


class Difference:
    """The differing non-float fields and floats of two json documents."""

    def __init__(self):
        self.fields = set()
        self.numbers = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.max_path = "-"
        self.code = ""   # the exit code, or ``A->B`` when the two differ

    def line(self) -> str:
        return (f"exit {self.code} fields={','.join(sorted(self.fields)) or '-'} "
                f"numbers={self.numbers} max_abs={self.max_abs:.2e} max_rel={self.max_rel:.2e} "
                f"at={self.max_path}")

    def compare(self, a, b, path: str = "") -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                sub = f"{path}.{key}" if path else key
                if key in a and key in b:
                    self.compare(a[key], b[key], sub)
                else:
                    self.fields.add(sub)
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for x, y in zip(a, b):
                self.compare(x, y, path + "[]")
        elif _is_float(a, b):
            self._number(float(a), float(b), path)
        elif a != b:
            self.fields.add(path)

    def _number(self, a: float, b: float, path: str) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.numbers += 1
        gap = abs(a - b)
        gap = math.inf if math.isnan(gap) else gap
        if gap > self.max_abs:
            self.max_abs, self.max_path = gap, path
        self.max_rel = max(self.max_rel, gap / max(abs(a), abs(b)))


def _is_float(a, b) -> bool:
    """Two json numbers, at least one of them a float (an int pair, such as a
    dimension, is compared as a field)."""
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    return numbers and (isinstance(a, float) or isinstance(b, float))


def _report(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def difference(a: tuple, b: tuple) -> Difference | None:
    """The Difference of run outputs ``a`` and ``b`` (exit, stdout, stderr,
    warnings), or None when they are equal."""
    if a == b:
        return None
    diff = Difference()
    report_a, report_b = _report(a[1]), _report(b[1])
    if report_a is not None and report_b is not None:
        diff.compare(report_a, report_b)
    elif a[1] != b[1]:
        diff.fields.add("stdout")
    for name, i in (("stderr", 2), ("warnings", 3)):
        if a[i] != b[i]:
            diff.fields.add(name)
    diff.code = f"{a[0]}" if a[0] == b[0] else f"{a[0]}->{b[0]}"
    return diff


def describe(a: tuple, b: tuple) -> str | None:
    """How run outputs ``a`` and ``b`` differ, or None when they are equal."""
    diff = difference(a, b)
    return None if diff is None else diff.line()


def _largest(label: str, diffs: list) -> str:
    """``LABEL X at N FAMILY COMMAND PATH``: the largest absolute float change
    over ``diffs``, (run, Difference) pairs, and where it is."""
    largest, where = 0.0, "-"
    for run, diff in diffs:
        if diff.max_abs > largest:
            largest, where = diff.max_abs, f"{' '.join(map(str, run))} {diff.max_path}"
    return f"{label} {largest:.2e} at {where}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write("usage: report_diff.py SRC_A SRC_B\n")
        return 2
    first = outputs(args[0])
    second = outputs(args[1])
    diffs, floats_only = [], []
    for run, a, b in zip(runs(), first, second):
        diff = difference(a, b)
        if diff is not None:
            print(*run, diff.line(), flush=True)
            diffs.append((run, diff))
            if not diff.fields and a[0] == b[0]:
                floats_only.append((run, diff))
    print("differ", len(diffs), "of", len(first))
    print("exit changed", sum(a[0] != b[0] for a, b in zip(first, second)), "of", len(first))
    print(_largest("max_abs", diffs))
    print("fields changed", sum(bool(diff.fields) for _, diff in diffs), "of", len(first))
    print(_largest("max_abs floats-only", floats_only))
    return 0


if __name__ == "__main__":
    sys.exit(main())
