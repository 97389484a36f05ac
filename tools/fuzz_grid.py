"""Draw valid operator specs from a seed, run five hclab commands on each, in
process, and print one line per run, marking each run that ends outside the
command line's exit contract.

Usage: python tools/fuzz_grid.py SRC_DIR [--seed S] [--count K]

SRC_DIR is the directory that holds the ``hclab`` package (``src`` in a
checkout).  ``default_rng(S)`` (S = 2026 by default) draws K specs (160 by
default), one family each, at N from 2 to 48:

- ``ws``: a weighted shift, weights of random sign with magnitudes
  log-uniform in [1e-3, 3e3];
- ``sro``: such a shift plus a rank-one term a e_0 (x) e_n*, |a| log-uniform
  in [1e-3, 30] with a random phase, n a random index;
- ``aq``: q uniform in (0.02, 0.98), r the default margin or, on a coin
  flip, log-uniform in [0.1, 10] times it;
- ``hardy``: the constant shift of weight c, c uniform in (0.05, 3), plus
  e_0 (x) e_0*.

Each spec runs ``check``, ``decompose``, ``spectral``, ``classify`` and
``verify`` through ``cli_grid.load_cli`` and ``cli_grid.capture``.  Each line
reads ``fuzz I FAMILY N COMMAND EXIT SHA256``, I the spec's draw index and the
hash over the run's stdout, stderr and warnings, so diffing the output of two
checkouts compares their answers.  A run outside the contract gets
`` outside REASON`` appended: exit 1 on a valid spec (``exit1-NAME``, NAME
the error its stderr names), exit 3 with no named ``error[...]``
(``unnamed-exit3``), another exit code (``exitX``), or an exception that
escapes ``main`` (``raised-NAME``; EXIT reads ``-``).  The last line,
``outside contract K of M``, counts them over the M runs.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys

import numpy as np

import cli_grid

FAMILIES = ("ws", "sro", "aq", "hardy")
COMMANDS = ("check", "decompose", "spectral", "classify", "verify")
DOCUMENTED_EXITS = (0, 2, 3, 4)


def _log_uniform(rng, low: float, high: float, size=None):
    return np.exp(rng.uniform(np.log(low), np.log(high), size))


def _signed_weights(rng, n: int) -> str:
    w = _log_uniform(rng, 1e-3, 3e3, n - 1) * rng.choice((-1.0, 1.0), n - 1)
    return ",".join(repr(float(x)) for x in w)


def draw(rng, max_n: int = 48) -> tuple[str, int, list[str]]:
    """(family, N, the command-line flags of the spec) of one draw, N <= max_n."""
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    n = int(rng.integers(2, max_n + 1))
    if family == "ws":
        args = ["--family", "weighted_shift", f"--weights={_signed_weights(rng, n)}"]
    elif family == "sro":
        weights = _signed_weights(rng, n)
        a = complex(_log_uniform(rng, 1e-3, 30.0) * np.exp(2j * np.pi * rng.uniform()))
        args = ["--family", "shift_plus_rank_one", f"--weights={weights}", f"--a={a!r}",
                "--index", str(int(rng.integers(n)))]
    elif family == "aq":
        q = float(rng.uniform(0.02, 0.98))
        args = ["--family", "aq", "--q", repr(q)]
        if rng.uniform() < 0.5:
            r = float((2.0 / (1.0 - q) + 1.0) * _log_uniform(rng, 0.1, 10.0))
            args += ["--r", repr(r)]
    else:
        c = float(rng.uniform(0.05, 3.0))
        args = ["--family", "shift_plus_rank_one", "--weights=" + ",".join([repr(c)] * (n - 1)),
                "--a", "1", "--index", "0"]
    return family, n, args + ["--n", str(n)]


def outside(code, err: str) -> str | None:
    """Why a run with exit ``code`` and stderr ``err`` breaks the contract, or None."""
    named = re.match(r"error\[(\w+)\]", err)
    if code == 1:
        return f"exit1-{named.group(1) if named else 'unnamed'}"
    if code == 3 and not named:
        return "unnamed-exit3"
    if code not in DOCUMENTED_EXITS:
        return f"exit{code}"
    return None


def run(hclab_main, argv: list[str]) -> tuple[str, str, str | None]:
    """(exit, sha256, reason outside the contract or None) of one run."""
    try:
        code, *texts = cli_grid.capture(hclab_main, argv)
    except Exception as exc:  # noqa: BLE001 - an escaping exception is the finding
        text = f"{type(exc).__name__}: {exc}"
        return "-", hashlib.sha256(text.encode()).hexdigest(), f"raised-{type(exc).__name__}"
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    return str(code), digest, outside(code, texts[1])


def fuzz(hclab_main, seed: int, count: int, max_n: int = 48,
         write=print) -> tuple[int, int]:
    """Run ``count`` specs drawn from ``seed`` at N <= max_n, writing each
    line; (runs outside the contract, runs)."""
    rng = np.random.default_rng(seed)
    bad = total = 0
    for i in range(count):
        family, n, args = draw(rng, max_n)
        for command in COMMANDS:
            code, digest, reason = run(hclab_main, [command, *args])
            total += 1
            bad += reason is not None
            write(f"fuzz {i} {family} {n} {command} {code} {digest}"
                  + (f" outside {reason}" if reason else ""))
    write(f"outside contract {bad} of {total}")
    return bad, total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src_dir")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--count", type=int, default=160)
    args = p.parse_args(argv)
    fuzz(cli_grid.load_cli(args.src_dir).main, args.seed, args.count,
         write=lambda line: print(line, flush=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
