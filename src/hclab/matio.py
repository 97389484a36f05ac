"""Plain-text matrix interchange format.

Layout: first line ``rows cols``, then the entries in row-major order as
``re+imj`` tokens separated by arbitrary whitespace.  Values are emitted with
17 significant digits, which makes the round trip bit-stable for float64.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, SpecParseError

__all__ = ["format_complex", "parse_complex", "dumps_matrix", "loads_matrix"]


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def parse_complex(token: str) -> complex:
    try:
        z = complex(token.replace(" ", ""))
    except ValueError as exc:
        raise SpecParseError(f"bad complex token {token!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFinite(f"non-finite entry {token!r}")
    return z


def dumps_matrix(m) -> str:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def loads_matrix(text: str) -> np.ndarray:
    tokens = text.split()
    if len(tokens) < 2:
        raise SpecParseError("matrix text is missing the 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise SpecParseError("matrix header must be two integers") from exc
    body = tokens[2:]
    if rows < 0 or cols < 0 or len(body) != rows * cols:
        raise SpecParseError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(body)}"
        )
    data = [parse_complex(tok) for tok in body]
    return np.array(data, dtype=complex).reshape(rows, cols)
