"""Workload plans, operator specs drawn from the seed, and the answer check.

An operation is one ``hclab <command> --file <spec>`` call.  A round runs
every (size, family, command) of a workload once, in a fixed order, so every
round has the same mix.  A run does a number of rounds fixed by the workload
and ``--seconds`` alone, so every run attempts the same operations.

The paper fixes the answer for each family:

- ``weighted_shift``: a centered weighted shift, dim M_E = 1;
- ``sro`` (shift plus rank one at index 2): the normal form, with the
  rank-one index recovered, dim M_E = 2;
- ``hardy`` (constant weight c plus e0 (x) e0*): both branches, dim M_E = 2,
  relation (n, m) = (1, 1), reconstruction index 0;
- ``aq``: a four-term relation, degenerate with (n, m) = (1, 1), because
  every gram power lies in the span of I and (A_q + r)^-1.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

FAMILIES = ("weighted_shift", "sro", "hardy", "aq")
SRO_A = "0.3+0.4j"
SRO_INDEX = 2
PARAM_RANGE = (0.3, 0.7)   # hardy weight c and aq decay q
WARMUP_N = 16


@dataclass(frozen=True)
class Workload:
    commands: tuple
    sizes: tuple
    round_s: float         # seconds per round at reference speed

    def timed_rounds(self, seconds: float) -> int:
        """Rounds of the timed phase: fixed by ``seconds`` alone, so that
        every run attempts the same operations, and sized so they take about
        ``seconds`` at reference speed."""
        return max(1, round(seconds / self.round_s))

    def trace_rounds(self, seconds: float) -> int:
        """Rounds of a traced run, sized so that the untraced and traced
        replays together take about ``seconds``."""
        return max(1, int(seconds / (2 * self.round_s)))


# Why each workload: see BENCHMARK.json.
WORKLOADS = {
    "classify_large": Workload(("classify",), (128, 160), round_s=8.8),
    "classify_small": Workload(("classify",), (16, 24, 32, 48), round_s=0.9),
    "analysis_suite": Workload(("check", "decompose", "spectral", "verify"), (32, 64),
                               round_s=2.7),
}


@dataclass(frozen=True)
class Op:
    command: str
    family: str
    n: int
    param: float | None    # c for hardy, q for aq
    spec: str              # path of the spec file

    @property
    def group(self) -> str:
        return f"{self.command}/{self.family}/N={self.n}"


def _complex_text(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _random_weights(rng, count):
    """Nonzero weights bounded away from zero, with generic phases."""
    return rng.uniform(0.6, 1.4, count) * np.exp(2j * np.pi * rng.uniform(size=count))


def _spec(family, n, param, rng) -> dict:
    if family == "weighted_shift":
        return {"family": "weighted_shift", "N": n,
                "weights": [_complex_text(w) for w in _random_weights(rng, n - 1)]}
    if family == "sro":
        return {"family": "shift_plus_rank_one", "N": n,
                "weights": [_complex_text(w) for w in _random_weights(rng, n - 1)],
                "a": SRO_A, "n": SRO_INDEX}
    if family == "hardy":
        return {"family": "shift_plus_rank_one", "N": n,
                "weights": [_complex_text(complex(param))] * (n - 1), "a": "1", "n": 0}
    return {"family": "aq", "N": n, "q": param}


def round_layout(name: str) -> list:
    """(command, family, N) of each operation of one round, in order."""
    wl = WORKLOADS[name]
    return [(cmd, fam, n) for n in wl.sizes for fam in FAMILIES for cmd in wl.commands]


def build_plan(name: str, seed: int, rounds: int, workdir: str) -> list:
    """Write the spec files of ``rounds`` rounds and return them as lists of Op.

    The seed draws the shift weights, and the order in which each
    (command, family, N) of hardy and aq meets its values of c or q.  Those
    values are the midpoints of ``rounds`` equal cells of [0.3, 0.7], the
    same for every seed.  Which operations fail depends on c and q (the
    known aq defects do), and so does their cost, through dim M_E of aq (the
    working set of the closure loops).  So every run of a workload attempts
    and fails the same number of operations, and costs the same work,
    whatever the seed.
    """
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    layout = round_layout(name)
    lo, hi = PARAM_RANGE
    grid = lo + (hi - lo) * (np.arange(rounds) + 0.5) / rounds
    orders = [rng.permutation(rounds) for _ in layout]
    os.makedirs(workdir, exist_ok=True)
    plan = []
    for r in range(rounds):
        ops = []
        for slot, (cmd, fam, n) in enumerate(layout):
            param = None
            if fam in ("hardy", "aq"):
                param = float(grid[orders[slot][r]])
            path = os.path.join(workdir, f"r{r:03d}-{slot:02d}-{cmd}-{fam}-{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_spec(fam, n, param, rng), fh)
            ops.append(Op(cmd, fam, n, param, path))
        plan.append(ops)
    return plan


def warmup_ops(name: str, workdir: str) -> list:
    """One small operation per (command, family) of the workload."""
    rng = np.random.default_rng(0)
    wl = WORKLOADS[name]
    ops = []
    for fam in FAMILIES:
        for cmd in wl.commands:
            path = os.path.join(workdir, f"warmup-{cmd}-{fam}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_spec(fam, WARMUP_N, 0.5, rng), fh)
            ops.append(Op(cmd, fam, WARMUP_N, 0.5, path))
    return ops


# -- the answer check ----------------------------------------------------------

EXPECTED_VERDICT = {"weighted_shift": "centered_weighted_shift", "sro": "shift_plus_rank_one",
                    "hardy": "both", "aq": "four_term_relation"}
# aq's dim M_E is a tolerance artifact (it stops where q^k falls below
# rank_tol), so it is not compared
EXPECTED_DIM_ME = {"weighted_shift": 1, "sro": 2, "hardy": 2}
EXPECTED_RELATION = {"hardy": (1, 1), "aq": (1, 1)}
EXPECTED_RECONSTRUCTION = {"sro": SRO_INDEX, "hardy": 0}

# Failures of the seed that the benchmark counts but does not treat as a
# broken benchmark: (command, family, kind).  Any other failure makes the
# run incorrect.
KNOWN_DEFECTS = {
    # the structural suite on aq: NotContained leaks from subspace_ominus
    # (exit 2 in verify, structure_skipped in decompose) or its residuals
    # exceed VERIFY_TOLERANCES, depending on N and q
    ("verify", "aq", "structure"),
    ("decompose", "aq", "structure"),
    # at N = 16 and q above about 0.64 the window is too short to certify
    # the (1, 1) relation within relation_tol; (1, 2) is reported instead
    ("classify", "aq", "relation_pair"),
}


class Failure(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def _require(cond, kind, detail):
    if not cond:
        raise Failure(kind, detail)


def _gate(value, tol, kind, key):
    _require(value is not None and value <= tol, kind, f"{key} = {value} > {tol}")


def _check_dims(op, dims):
    _require(dims["E"] == 1, "dims", f"dim E = {dims['E']}")
    if op.family in EXPECTED_DIM_ME:
        want = EXPECTED_DIM_ME[op.family]
        _require(dims["M_E"] == want, "dims", f"dim M_E = {dims['M_E']}, expected {want}")


def _check_structure(table, verify_tolerances):
    """The structural suite's residuals against hclab.cli.VERIFY_TOLERANCES."""
    for key, tol in verify_tolerances.items():
        _gate(table.get(key), tol, "structure", key)
    _require(table.get("v_dims_weakly_decreasing") is True, "structure",
             "V dims not weakly decreasing")


def _check_classify(op, report, tols):
    _require(report["verdict"] == EXPECTED_VERDICT[op.family], "verdict",
             f"{report['verdict']}, expected {EXPECTED_VERDICT[op.family]}")
    _require(report["dim_E"] == 1, "dims", f"dim E = {report['dim_E']}")
    if op.family in EXPECTED_DIM_ME:
        _require(report["dim_M_E"] == EXPECTED_DIM_ME[op.family], "dims",
                 f"dim M_E = {report['dim_M_E']}")
    rel, rec = report["relation"], report["reconstruction"]
    if op.family in EXPECTED_RELATION:
        _require(rel is not None, "verdict", "no relation")
        pair = (rel["n"], rel["m"])
        _require(pair == EXPECTED_RELATION[op.family], "relation_pair",
                 f"(n, m) = {pair}, expected {EXPECTED_RELATION[op.family]}")
        for key in ("residual", "tau_residual", "beta_residual"):
            _gate(rel[key], tols["relation_tol"], "residual", f"relation.{key}")
    if op.family in EXPECTED_RECONSTRUCTION:
        _require(rec is not None, "verdict", "no reconstruction")
        _require(rec["n"] == EXPECTED_RECONSTRUCTION[op.family], "reconstruction_index",
                 f"index {rec['n']}, expected {EXPECTED_RECONSTRUCTION[op.family]}")
        for key in ("residual", "joint_eigenvector_residual"):
            _gate(rec[key], tols["relation_tol"], "residual", f"reconstruction.{key}")


def _check_check(op, report, tols):
    centered = op.family == "weighted_shift"
    _require(report["verdict"]["half_centered"] is True, "verdict", "not half-centered")
    _require(report["verdict"]["centered"] is centered, "verdict",
             f"centered = {report['verdict']['centered']}")
    _require(report["criterion"]["verdict"] is centered, "verdict",
             f"criterion = {report['criterion']['verdict']}")
    _gate(report["half_residual"], tols["commutator_tol"], "residual", "half_residual")


def _check_decompose(op, report, verify_tolerances):
    _check_dims(op, report["dims"])
    _require(report.get("structure") is not None, "structure",
             f"structure skipped: {report.get('structure_skipped')}")
    _check_structure(report["structure"], verify_tolerances)


def _check_spectral(op, report):
    triples = len(report["triples"])
    if op.family in EXPECTED_RECONSTRUCTION:
        _require(triples == 1, "triples", f"{triples} triples, expected 1")
    else:
        _require(triples >= 2, "triples", f"{triples} triples, expected at least 2")


def _check_verify(op, report, verify_tolerances):
    _check_dims(op, report["structure"]["dims"])
    _check_structure(report["structure"], verify_tolerances)
    _require(report["verdict"] is True and not report["failures"], "structure",
             f"failures {sorted(report['failures'])}")


def expected_exit(op) -> tuple:
    """(exit code, error class) the paper's answer implies for this operation."""
    if op.command == "spectral" and op.family == "weighted_shift":
        return 2, "ModuliTooSmall"   # beta is undefined when dim M_E = 1
    return 0, None


def check(op, code: int, out: str, err: str, verify_tolerances) -> Failure | None:
    """The failure of one operation, or None when its answer is right."""
    try:
        want_code, want_error = expected_exit(op)
        if code != want_code:
            suite = op.command in ("verify", "decompose") and (code == 4 or "NotContained" in err)
            kind = "structure" if suite else "exit"
            raise Failure(kind, f"exit {code}, expected {want_code}: {err.strip()[:200]}")
        if want_error is not None:
            _require(f"error[{want_error}]" in err, "exit", f"expected {want_error}: {err.strip()}")
            return None
        report = json.loads(out)
        tols = report["config"]["tolerances"]
        if op.command == "classify":
            _check_classify(op, report, tols)
        elif op.command == "check":
            _check_check(op, report, tols)
        elif op.command == "decompose":
            _check_decompose(op, report, verify_tolerances)
        elif op.command == "spectral":
            _check_spectral(op, report)
        else:
            _check_verify(op, report, verify_tolerances)
    except Failure as exc:
        return exc
    except (ValueError, KeyError, TypeError) as exc:
        return Failure("report", f"{type(exc).__name__}: {exc}")
    return None


def is_known_defect(op, failure: Failure) -> bool:
    return (op.command, op.family, failure.kind) in KNOWN_DEFECTS
