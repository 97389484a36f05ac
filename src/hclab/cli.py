"""Command line front end tying construction, checking, decomposition,
spectral analysis and classification into reproducible runs.

Exit codes: 0 clean verdict, 1 parse error, 2 precondition violation,
3 numerical failure, 4 inconclusive / failed verification.  With the same
spec and seed, JSON output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .chains import chain_decomposition, isometry_tower, verify_chain_structure
from .classifier import classify
from .commutation import analysis_depth, centered_check, centered_criterion, half_centered_check
from .errors import HclabError, SpecParseError
from .matio import dumps_matrix
from .operators import OperatorModel, ToleranceConfig, _jsonable, load_operator_spec
from .spectral import enumerate_triples, spectral_correspondence_check, structure_extract

VERIFY_TOLERANCES = {
    "space1": 1e-8,
    "space1_direct_sum": 1e-8,
    "isisis": 1e-8,
    "jups": 1e-8,
    "saknar": 1e-8,
    "labann": 1e-9,
    "key": 1e-9,
    "fuio": 1e-9,
    "fukth": 1e-9,
    "gram_invariance_residual": 1e-9,
}


def build_model(args) -> OperatorModel:
    """The model of ``--file``, or of the same spec assembled from the flags."""
    if args.file:
        return load_operator_spec(args.file)
    if not args.family:
        raise SpecParseError("either --file or --family is required")
    spec = {"family": args.family, "N": args.n, "n": args.index,
            "a": args.a, "q": args.q, "r": args.r}
    for key in ("weights", "psi", "xi"):
        text = getattr(args, key)
        spec[key] = None if text is None else [tok for tok in text.split(",") if tok.strip()]
    return load_operator_spec(spec)


def build_config(args) -> ToleranceConfig:
    seed = args.seed
    env_seed = os.environ.get("HCLAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise SpecParseError(f"HCLAB_SEED must be an integer, got {env_seed!r}") from exc
    return ToleranceConfig(
        rank_tol=args.tol_rank, commutator_tol=args.tol_comm,
        relation_tol=args.tol_rel, spectral_match_tol=args.tol_match,
        depth=args.depth, seed=seed,
    )


def _config_echo(model: OperatorModel, cfg: ToleranceConfig,
                 requested: ToleranceConfig | None = None) -> dict:
    echo = {"operator": model.describe(), "tolerances": cfg.as_dict()}
    if requested is not None and requested.depth != cfg.depth:
        echo["depth_requested"] = requested.depth
    return echo


def _emit(text: str, out_path: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hclab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_report(report: dict, args) -> None:
    report = _jsonable(report)
    if args.format == "json":
        _emit(json.dumps(report, sort_keys=True, indent=2), args.out)
    else:
        lines = _render_text(report)
        _emit("\n".join(lines), args.out)


def _render_text(obj, prefix: str = "") -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_render_text(val, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.extend(_render_text(val, prefix + "  "))
            else:
                lines.append(f"{prefix}- {val}")
    else:
        lines.append(f"{prefix}{obj}")
    return lines


def cmd_zoo(model, cfg) -> tuple[dict, int]:
    report = {"matrix": dumps_matrix(model.matrix)}
    if model.companion is not None:
        report["companion"] = dumps_matrix(model.companion)
    return report, 0


def cmd_check(model, cfg) -> tuple[dict, int]:
    report = centered_check(model, cfg).as_dict()
    return {**report, "criterion": centered_criterion(model, cfg).as_dict()}, 0


def cmd_decompose(model, cfg) -> tuple[dict, int]:
    chain = chain_decomposition(model, cfg)
    out = chain.as_dict()
    try:
        tower = isometry_tower(model, cfg)
        out["structure"] = verify_chain_structure(model, chain, tower, cfg)
    except HclabError as exc:
        out["structure"] = None
        out["structure_skipped"] = f"{type(exc).__name__}: {exc}"
    return out, 0


def cmd_spectral(model, cfg) -> tuple[dict, int]:
    chain = chain_decomposition(model, cfg)
    structure = structure_extract(model, chain, cfg)
    triples = enumerate_triples(model, chain, structure, cfg)
    correspondence = spectral_correspondence_check(model, chain, cfg)
    return {
        **structure.as_dict(),
        "triples": [t.as_dict() for t in triples],
        "correspondence": correspondence,
    }, 0


def cmd_classify(model, cfg) -> tuple[dict, int]:
    report = classify(model, cfg)
    return report.as_dict(), 4 if report.verdict == "inconclusive" else 0


def cmd_verify(model, cfg) -> tuple[dict, int]:
    half = half_centered_check(model, cfg)
    chain = chain_decomposition(model, cfg)
    tower = isometry_tower(model, cfg)
    table = verify_chain_structure(model, chain, tower, cfg)
    failures = {}
    for key, tol in VERIFY_TOLERANCES.items():
        val = table.get(key)
        if isinstance(val, (int, float)) and val > tol:
            failures[key] = {"residual": val, "tolerance": tol}
    if not table.get("v_dims_weakly_decreasing", True):
        failures["v_dims_weakly_decreasing"] = {"residual": "violated", "tolerance": None}
    return {
        "half_residual": half.max_half_residual,
        "structure": table,
        "failures": failures,
        "verdict": not failures,
    }, 0 if not failures else 4


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hclab",
        description="numerical laboratory for half-centered operators",
    )
    p.add_argument("command",
                   choices=("zoo", "check", "decompose", "spectral", "classify", "verify"))
    p.add_argument("--file", help="operator spec JSON file")
    p.add_argument("--family", help="operator family name")
    p.add_argument("--n", type=int, default=32, help="truncation dimension N")
    p.add_argument("--weights", help="comma separated shift weights")
    p.add_argument("--a", help="rank-one coefficient (complex, e.g. 0.3+0.4j)")
    p.add_argument("--index", type=int, default=0, help="rank-one column index")
    p.add_argument("--q", type=float, help="decay parameter in (0,1)")
    p.add_argument("--r", type=float, help="positivity margin (default 2/(1-q)+1)")
    p.add_argument("--psi", help="comma separated index map values")
    p.add_argument("--xi", help="comma separated composition weights")
    p.add_argument("--depth", type=int, default=6, help="analysis depth K")
    p.add_argument("--tol-rank", type=float, default=1e-10)
    p.add_argument("--tol-comm", type=float, default=1e-9)
    p.add_argument("--tol-rel", type=float, default=1e-8)
    p.add_argument("--tol-match", type=float, default=1e-7)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--out", help="write the report to this path (atomically)")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        model = build_model(args)
        requested = build_config(args)
        cfg = requested.with_depth(analysis_depth(model, requested))
        # looked up at call time, so a rebound cmd_* attribute is the one called
        report, code = globals()[f"cmd_{args.command}"](model, cfg)
        if args.command != "zoo":
            echo = _config_echo(model, cfg, requested)
        elif args.format == "text":  # the raw matrix dump, as matio reads it
            _emit("".join(report.values()), args.out)
            return code
        else:  # the spec's own config, before the depth is capped to the model
            echo = _config_echo(model, requested)
        _emit_report({"config": echo, **report}, args)
        return code
    except (HclabError, ValueError, OSError) as exc:
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        if isinstance(exc, HclabError):
            return exc.exit_code
        # numpy's LinAlgError is a ValueError, but a numerical failure
        return 3 if isinstance(exc, np.linalg.LinAlgError) else 1


if __name__ == "__main__":
    sys.exit(main())
