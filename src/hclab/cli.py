"""Command line front end tying construction, checking, decomposition,
spectral analysis and classification into reproducible runs.

Exit codes: 0 clean verdict, 1 parse error, 2 precondition violation,
3 numerical failure, 4 inconclusive / failed verification.  With the same
spec and seed, JSON output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import numpy as np

from .chains import chain_decomposition, verify_chain_structure
from .classifier import classify
from .commutation import (analysis_depth, centered_check, centered_criterion,
                          require_half_centered)
from .errors import HclabError, SpecParseError
from .matio import dumps_matrix
from .operators import (OperatorModel, ToleranceConfig, _jsonable, load_operator_spec,
                        real_gauge)
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
    return ToleranceConfig(
        rank_tol=args.tol_rank, commutator_tol=args.tol_comm,
        relation_tol=args.tol_rel, spectral_match_tol=args.tol_match,
        depth=args.depth, seed=args.seed,
    )


def _config_echo(model: OperatorModel, cfg: ToleranceConfig) -> dict:
    """The operator and the tolerances at the depth the stages ran at, with
    the parsed depth as ``depth_requested`` when the two differ."""
    depth = analysis_depth(model, cfg)
    echo = {"operator": model.describe(), "tolerances": {**cfg.as_dict(), "depth": depth}}
    if depth != cfg.depth:
        echo["depth_requested"] = cfg.depth
    return echo


def _emit(text: str, out_path: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    target = os.path.realpath(out_path)  # a symlink is written through, not replaced
    if os.path.isdir(target):  # os.replace would refuse it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    directory = os.path.dirname(target)
    try:  # the target's mode, else what a new file gets under the umask
        mode = os.stat(target).st_mode & 0o777
    except FileNotFoundError:
        os.umask(mask := os.umask(0o22))
        mode = 0o666 & ~mask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hclab-")
    try:
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_report(report: dict, args) -> None:
    text = (_json_text(report) if args.format == "json"
            else "\n".join(_render_text(_jsonable(report))))
    _emit(text, args.out)


_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling
# json's text of each scalar type; bool precedes int, its base, for subclass lookups
_LEAF = {bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null",
         str: _quote, int: int.__repr__,
         float: lambda x: _WORDS.get(text := float.__repr__(x), text)}


def _leaves(values) -> list[str] | None:
    """``json``'s text of each value when all are None, bools, str, ints or
    floats, by one ``map`` when they share a type; else None."""
    kinds = set(map(type, values))
    if kinds == {float}:
        text = list(map(float.__repr__, values))
        return list(map(_WORDS.get, text, text))
    if not kinds <= _LEAF.keys():
        return None
    if len(kinds) == 1:
        return list(map(_LEAF[kinds.pop()], values))
    return [_LEAF[type(val)](val) for val in values]


def _records(rows, indent: str) -> list[str] | None:
    """The items of a list of dicts with one set of str keys and scalar
    values, column by column through one template per record."""
    keysets = set(map(frozenset, rows)) if set(map(type, rows)) == {dict} else ()
    keys = sorted(*keysets) if len(keysets) == 1 else []
    if not keys or set(map(type, keys)) != {str}:
        return None
    columns = [_leaves(list(map(itemgetter(key), rows))) for key in keys]
    if None in columns:
        return None
    pad = f"\n{indent}  "
    template = ",".join(f"{pad}{_quote(key).replace('%', '%%')}: %s" for key in keys)
    return list(map(f"{{{template}\n{indent}}}".__mod__, zip(*columns)))


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(_jsonable(obj), sort_keys=True, indent=2)``, byte for byte,
    in one walk that converts as ``_jsonable`` does and writes json's layout."""
    leaf = _LEAF.get(type(obj)) or next((_LEAF[t] for t in _LEAF if isinstance(obj, t)), None)
    if leaf:  # a subclass of a scalar type is written as its base
        return leaf(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = sorted({str(key): val for key, val in obj.items()}.items())
        body, ends = [f"{_quote(key)}: {_json_text(val, inner)}" for key, val in items], "{}"
    elif isinstance(obj, (list, tuple)):
        body = obj and (_leaves(obj) or _records(obj, inner)
                        or [_json_text(val, inner) for val in obj])
        ends = "[]"
    elif isinstance(obj, (complex, np.ndarray)):
        return _json_text({"re": obj.real, "im": obj.imag} if isinstance(obj, complex)
                          else obj.tolist(), indent)
    elif isinstance(obj, np.generic) and not isinstance(obj := obj.item(), complex):
        return _json_text(obj, indent)
    else:  # _jsonable leaves item()'s complex to json, which rejects it
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    pad = "\n" + inner
    return ends[0] + pad + f",{pad}".join(body) + f"\n{indent}{ends[1]}" if body else ends


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
    return {**centered_check(model, cfg), "criterion": centered_criterion(model, cfg)}, 0


def cmd_decompose(model, cfg) -> tuple[dict, int]:
    chain = chain_decomposition(model, cfg)
    out = chain.as_dict()
    try:
        out["structure"] = verify_chain_structure(chain)
    except HclabError as exc:
        out["structure"] = None
        out["structure_skipped"] = f"{type(exc).__name__}: {exc}"
    return out, 0


def cmd_spectral(model, cfg) -> tuple[dict, int]:
    require_half_centered(model, cfg)
    chain = chain_decomposition(model, cfg)
    structure = structure_extract(chain)
    return {
        **structure.as_dict(),
        "triples": enumerate_triples(chain, structure),
        "correspondence": spectral_correspondence_check(chain),
    }, 0


def cmd_classify(model, cfg) -> tuple[dict, int]:
    report = classify(model, cfg)
    return report, 4 if report["verdict"] == "inconclusive" else 0


def cmd_verify(model, cfg) -> tuple[dict, int]:
    half = require_half_centered(model, cfg)
    table = verify_chain_structure(chain_decomposition(model, cfg))
    failures = {}
    for key, tol in VERIFY_TOLERANCES.items():
        val = table.get(key)
        if isinstance(val, (int, float)) and val > tol:
            failures[key] = {"residual": val, "tolerance": tol}
    if not table.get("v_dims_weakly_decreasing", True):
        failures["v_dims_weakly_decreasing"] = {"residual": "violated", "tolerance": None}
    return {
        "half_residual": half["half_residual"],
        "structure": table,
        "failures": failures,
        "verdict": not failures,
    }, 0 if not failures else 4


@functools.cache  # one parser per process; argparse reads the terminal width when it formats
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
    defaults = ToleranceConfig()
    p.add_argument("--depth", type=int, default=defaults.depth, help="analysis depth K")
    p.add_argument("--tol-rank", type=float, default=defaults.rank_tol)
    p.add_argument("--tol-comm", type=float, default=defaults.commutator_tol)
    p.add_argument("--tol-rel", type=float, default=defaults.relation_tol)
    p.add_argument("--tol-match", type=float, default=defaults.spectral_match_tol)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--out", help="write the report to this path (atomically)")
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its help or usage error
        return 0 if exc.code == 0 else 1
    try:
        model = build_model(args)
        cfg = build_config(args)
        # the stages run on |T| when a diagonal gauge makes T nonnegative: the
        # reports are basis invariant, while zoo and the echo keep the user's T
        analysed = model if args.command == "zoo" else real_gauge(model)
        # looked up at call time, so a rebound cmd_* attribute is the one called
        report, code = globals()[f"cmd_{args.command}"](analysed, cfg)
        if args.command != "zoo":
            echo = _config_echo(model, cfg)
        elif args.format == "text":  # the raw matrix dump, as matio reads it
            _emit("".join(report.values()), args.out)
            return code
        else:  # the spec's own config: zoo runs no stage that caps the depth
            echo = {"operator": model.describe(), "tolerances": cfg.as_dict()}
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
