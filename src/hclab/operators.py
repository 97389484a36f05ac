"""Constructors for the operator families under study.

Each constructor returns an :class:`OperatorModel`: an N x N matrix plus
window metadata describing for which power depth k the entries of
``T*^k T^k`` still agree with the infinite operator the matrix truncates.
For a band-``b`` truncation, each power corrupts ``b`` further trailing
indices, so statements at depth ``k`` are asserted on the leading
``N - k*b`` block only.  Genuinely finite operators carry ``exact=True``
and a full window at every depth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial, wraps

import numpy as np

from .errors import (
    IndexOutOfRange,
    NotLeftInvertible,
    NotPositive,
    NotProjection,
    SpecParseError,
    ZeroWeight,
)
from .linalg import as_complex_matrix, positive_sqrt, smallest_singular_triplet
from .matio import loads_matrix, parse_complex

__all__ = [
    "ToleranceConfig",
    "OperatorModel",
    "weighted_shift",
    "shift_plus_rank_one",
    "projection_product",
    "composition_operator",
    "aq_operator",
    "cauchy_dual",
    "from_matrix",
    "load_operator_spec",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances, analysis depth and seed shared across the laboratory."""

    rank_tol: float = 1e-10
    commutator_tol: float = 1e-9
    relation_tol: float = 1e-8
    spectral_match_tol: float = 1e-7
    depth: int = 6
    seed: int = 7

    def __post_init__(self):
        for name in ("rank_tol", "commutator_tol", "relation_tol", "spectral_match_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")

    def with_depth(self, depth: int) -> "ToleranceConfig":
        return replace(self, depth=depth)

    def as_dict(self) -> dict:
        return {
            "rank_tol": self.rank_tol,
            "commutator_tol": self.commutator_tol,
            "relation_tol": self.relation_tol,
            "spectral_match_tol": self.spectral_match_tol,
            "depth": self.depth,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class OperatorModel:
    """A finite matrix model of an operator plus truncation metadata.

    ``bandwidth`` bounds the sparsity pattern (|i-j| > bandwidth implies a
    zero entry) up to the listed ``exceptions``; ``None`` means dense.
    ``window_step`` is the number of trailing indices each application of the
    operator corrupts; ``window(k)`` is the usable block size at depth k.
    """

    matrix: np.ndarray
    family: str = "matrix"
    params: dict = field(default_factory=dict)
    bandwidth: int | None = None
    exceptions: tuple = ()
    exact: bool = True
    window_step: int = 0
    companion: np.ndarray | None = None
    window_frame: np.ndarray | None = None
    # values derived by _memoized functions; a new model starts empty
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("operator models must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.exact and self.window_step != 0:
            raise ValueError("exact models must have window_step == 0")
        if self.bandwidth is not None:
            self._check_band()

    def _check_band(self):
        n = self.dim
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > self.bandwidth
        for (i, j) in self.exceptions:
            mask[i, j] = False
        stray = np.max(np.abs(self.matrix[mask])) if mask.any() else 0.0
        if stray > 0:
            raise ValueError(
                f"declared bandwidth {self.bandwidth} inconsistent with entries "
                f"(largest off-band magnitude {stray:.3e})"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def window(self, k: int) -> int:
        """Leading block size where depth-k statements are reliable."""
        return max(self.dim - k * self.window_step, 0)

    def power(self, k: int) -> np.ndarray:
        return np.linalg.matrix_power(self.matrix, k)

    def window_cols(self, w: int) -> np.ndarray:
        """Orthonormal basis of the leading-w window subspace."""
        if self.window_frame is not None:
            return self.window_frame[:, :w]
        return np.eye(self.dim, dtype=complex)[:, :w]

    def window_compress(self, m: np.ndarray, w: int) -> np.ndarray:
        """Compression of an ambient matrix to the leading-w window."""
        if self.window_frame is None:
            return m[:w, :w]
        cols = self.window_frame[:, :w]
        return cols.conj().T @ m @ cols

    def window_restrict(self, m: np.ndarray, w: int) -> np.ndarray:
        """Restriction of an ambient matrix to the leading-w window columns."""
        if self.window_frame is None:
            return m[:, :w]
        return m @ self.window_frame[:, :w]

    def conjugated(self, u: np.ndarray) -> "OperatorModel":
        """The model in a rotated basis: matrix u* T u, windows rotated along.

        Window metadata refers to the leading columns of ``window_frame``,
        so every window compression of the rotated model reproduces the
        original numbers and verdicts are basis independent.
        """
        u = as_complex_matrix(u)
        n = self.dim
        if u.shape != (n, n) or np.linalg.norm(u.conj().T @ u - np.eye(n)) > 1e-10 * n:
            raise ValueError("conjugation requires a unitary of matching size")
        frame = self.window_frame if self.window_frame is not None else np.eye(n, dtype=complex)
        return OperatorModel(
            matrix=u.conj().T @ self.matrix @ u,
            family=self.family, params=dict(self.params),
            bandwidth=None, exceptions=(),
            exact=self.exact, window_step=self.window_step,
            companion=self.companion,
            window_frame=u.conj().T @ frame,
        )

    def describe(self) -> dict:
        return {
            "family": self.family,
            "N": self.dim,
            "bandwidth": self.bandwidth,
            "exact": self.exact,
            "window_step": self.window_step,
            "params": _jsonable(self.params),
        }


def _memoized(fn):
    """``fn(model, *args)``, computed once per model and argument tuple (a call
    that raises stores nothing).  The model is immutable, so the value never
    goes stale; every caller shares it, and an array value is made read-only."""
    @wraps(fn)
    def derived(model, *args, **kwargs):
        key = (fn, args, tuple(kwargs.items()))
        if key not in model._memo:
            value = model._memo[key] = fn(model, *args, **kwargs)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return model._memo[key]
    return derived


def _jsonable(obj):
    """JSON-ready copy: str keys, complex numbers as ``{"re", "im"}``, numpy
    scalars and arrays as Python numbers and lists."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def weighted_shift(weights, N: int) -> OperatorModel:
    """Shift ``J e_k = w_k e_{k+1}`` truncated to C^N.

    The truncation zeroes the image of the last basis vector, so the model
    is not exact: each power loses one trailing index.
    """
    w = np.asarray(list(weights), dtype=complex)
    if w.shape != (N - 1,):
        raise ValueError(f"need exactly N-1={N - 1} weights, got {w.shape}")
    if np.any(np.abs(w) == 0):
        raise ZeroWeight("shift weights must be nonzero")
    m = np.zeros((N, N), dtype=complex)
    m[np.arange(1, N), np.arange(N - 1)] = w
    return OperatorModel(
        matrix=m, family="weighted_shift", params={"weights": w.tolist()},
        bandwidth=1, exact=False, window_step=1,
    )


def shift_plus_rank_one(weights, a: complex, n: int, N: int) -> OperatorModel:
    """Weighted shift plus the rank-one term ``a * (e_0 (x) e_n*)``."""
    if not 0 <= n < N:
        raise IndexOutOfRange(f"rank-one index {n} outside 0..{N - 1}")
    base = weighted_shift(weights, N)
    m = base.matrix.copy()
    m[0, n] += a
    return OperatorModel(
        matrix=m, family="shift_plus_rank_one",
        params={"weights": list(base.params["weights"]), "a": complex(a), "n": n},
        bandwidth=1, exceptions=((0, n),), exact=False, window_step=1,
    )


def projection_product(P, Q, tol: float = 1e-9) -> OperatorModel:
    """Product ``P @ Q`` of two orthogonal projections; a genuine C^N operator."""
    P = as_complex_matrix(P)
    Q = as_complex_matrix(Q)
    for name, X in (("P", P), ("Q", Q)):
        scale = max(1.0, np.linalg.norm(X))
        if np.linalg.norm(X @ X - X) > tol * scale or np.linalg.norm(X - X.conj().T) > tol * scale:
            raise NotProjection(f"{name} is not an orthogonal projection")
    return OperatorModel(
        matrix=P @ Q, family="projection_product",
        params={"P": P.tolist(), "Q": Q.tolist()},
        exact=True,
    )


def composition_operator(psi, xi, N: int) -> OperatorModel:
    """Weighted composition operator ``(Tf)(x) = xi(x) f(psi(x))`` on counting
    measure over {0, .., N-1}; exactly representable on C^N."""
    psi = [int(p) for p in psi]
    xi = np.asarray(list(xi), dtype=complex)
    if len(psi) != N or xi.shape != (N,):
        raise ValueError("psi and xi must both have length N")
    if any(not 0 <= p < N for p in psi):
        raise IndexOutOfRange("psi must map {0..N-1} into itself")
    m = np.zeros((N, N), dtype=complex)
    for x in range(N):
        m[x, psi[x]] += xi[x]
    return OperatorModel(
        matrix=m, family="composition",
        params={"psi": psi, "xi": xi.tolist()},
        exact=True,
    )


def default_aq_margin(q: float) -> float:
    # row-sum bound on ||A_q|| is 2/(1-q); +1 gives a unit positivity margin
    return 2.0 / (1.0 - q) + 1.0


def aq_matrix(q: float, N: int) -> np.ndarray:
    """Tridiagonal matrix with super/sub-diagonal entries q^k at row k."""
    A = np.zeros((N, N), dtype=complex)
    ks = np.arange(N - 1)
    A[ks, ks + 1] = q ** ks
    A[ks + 1, ks] = q ** ks
    return A


def aq_operator(q: float, r: float | None = None, N: int = 32,
                rank_tol: float = 1e-10) -> OperatorModel:
    """The conjugated-shift family ``T = (A_q + rI)^{1/2} S (A_q + rI)^{-1/2}``.

    ``S`` is the unweighted shift and ``A_q`` the tridiagonal matrix with
    geometrically decaying couplings.  The conjugation is dense, but the
    coupling decay confines the truncation error to the trailing indices;
    window validity is certified at construction via the intertwining
    residual ``S* A_q S - q A_q`` on the interior block.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if r is None:
        r = default_aq_margin(q)
    A = aq_matrix(q, N)
    evals = np.linalg.eigvalsh(A.real)
    if evals[0] + r <= rank_tol:
        raise NotPositive(f"A_q + rI has eigenvalue {evals[0] + r:.3e} <= tolerance")
    shifted = A + r * np.eye(N)
    half = positive_sqrt(shifted)
    inv_half = np.linalg.inv(half)
    S = np.zeros((N, N), dtype=complex)
    S[np.arange(1, N), np.arange(N - 1)] = 1.0
    T = half @ S @ inv_half
    # certify the window: the q-intertwining relation must hold exactly on
    # the interior of the truncated A_q
    w = N - 1
    certify = (S.conj().T @ A @ S - q * A)[:w, :w]
    resid = float(np.linalg.norm(certify))
    if resid > 1e-12 * max(1.0, np.linalg.norm(A)):
        raise NotPositive(f"truncated A_q violates the shift intertwining: {resid:.3e}")
    return OperatorModel(
        matrix=T, family="aq",
        params={"q": q, "r": r, "intertwining_residual": resid},
        bandwidth=None, exact=False, window_step=1,
        companion=A,
    )


def cauchy_dual(model: OperatorModel, rank_tol: float = 1e-10) -> OperatorModel:
    """Dual ``T' = T (T*T)^{-1}``, computed on the effective window.

    The gram matrix of a truncation is singular in its trailing corrupted
    block, so the inverse is taken on the leading ``window(1)`` block and the
    remaining columns of the dual are left zero, mirroring how a fresh
    truncation of the infinite dual would look.
    """
    T = model.matrix
    N = model.dim
    w = model.window(1)
    if w < 1:
        raise NotLeftInvertible("window exhausted")
    G = (T.conj().T @ T)[:w, :w]
    smin, _ = smallest_singular_triplet(G)
    if smin <= rank_tol * max(1.0, np.linalg.norm(G, 2)):
        raise NotLeftInvertible(f"T*T has sigma_min {smin:.3e} on the window")
    dual = np.zeros((N, N), dtype=complex)
    dual[:, :w] = T[:, :w] @ np.linalg.inv(G)
    return OperatorModel(
        matrix=dual, family=f"cauchy_dual({model.family})",
        params={"of": model.describe()},
        bandwidth=None, exact=False,
        window_step=max(model.window_step, 1),
    )


def from_matrix(m, exact: bool = True) -> OperatorModel:
    return OperatorModel(matrix=as_complex_matrix(m), family="matrix", exact=exact,
                         window_step=0 if exact else 1)


# -- operator spec files ------------------------------------------------------

def _parse_scalar(value) -> complex:
    if isinstance(value, str):
        return parse_complex(value)
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        return complex(value.get("re", 0.0), value.get("im", 0.0))
    raise SpecParseError(f"cannot interpret {value!r} as a complex scalar")


def _parse_int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise SpecParseError(f"expected an integer, got {value!r}")
    return int(value)


def _parse_bool(value) -> bool:
    if not isinstance(value, bool):
        raise SpecParseError(f"expected true or false, got {value!r}")
    return value


def _parse_list(values, parse_item=_parse_scalar) -> list:
    if not isinstance(values, (list, tuple)):
        raise SpecParseError(f"expected a list, got {values!r}")
    return [parse_item(v) for v in values]


def _field(spec: dict, key: str, parse=_parse_list):
    """``parse(spec[key])``; a missing, null or malformed field names itself."""
    if spec.get(key) is None:
        raise SpecParseError(f"operator spec is missing field {key!r}")
    try:
        return parse(spec[key])
    except (SpecParseError, TypeError, ValueError, AttributeError) as exc:
        raise SpecParseError(f"operator spec field {key!r}: {exc}") from exc


def load_operator_spec(spec) -> OperatorModel:
    """Build a model from a JSON operator spec (dict, JSON text, or path).

    Schema: ``{"family": <name>, "N": <int>, ...family parameters...}``.
    The ``matrix`` family embeds a raw matrix in the plain-text format.
    """
    if isinstance(spec, str):
        try:
            if spec.lstrip().startswith("{"):
                spec = json.loads(spec)
            else:
                with open(spec, "r", encoding="utf-8") as fh:
                    spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecParseError(f"cannot read operator spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecParseError("operator spec must be a JSON object")
    family = spec.get("family")
    if family == "weighted_shift":
        N = _field(spec, "N", _parse_int)
        return weighted_shift(_field(spec, "weights"), N)
    if family == "shift_plus_rank_one":
        N = _field(spec, "N", _parse_int)
        return shift_plus_rank_one(_field(spec, "weights"), _field(spec, "a", _parse_scalar),
                                   _field(spec, "n", _parse_int), N)
    if family == "projection_product":
        rows = partial(_parse_list, parse_item=_parse_list)
        return projection_product(_field(spec, "P", rows), _field(spec, "Q", rows))
    if family == "composition":
        N = _field(spec, "N", _parse_int)
        psi = _field(spec, "psi", partial(_parse_list, parse_item=_parse_int))
        return composition_operator(psi, _field(spec, "xi"), N)
    if family == "aq":
        N = _field(spec, "N", _parse_int)
        r = None if spec.get("r") is None else _field(spec, "r", float)
        return aq_operator(_field(spec, "q", float), r, N)
    if family == "matrix":
        m = _field(spec, "matrix", loads_matrix)
        exact = True if spec.get("exact") is None else _field(spec, "exact", _parse_bool)
        return from_matrix(m, exact=exact)
    raise SpecParseError(f"unknown operator family {family!r}")
