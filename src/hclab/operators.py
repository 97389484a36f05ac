"""Constructors for the operator families under study.

Each constructor returns an :class:`OperatorModel`: an N x N matrix plus
window metadata describing for which power depth k the entries of
``T*^k T^k`` still agree with the infinite operator the matrix truncates.
For a band-``b`` truncation, each power corrupts ``b`` further trailing
indices, so statements at depth ``k`` are asserted on the leading
``N - k*b`` block only.  Genuinely finite operators carry ``window_step = 0``,
a full window at every depth, and so are ``exact``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from functools import partial, wraps

import numpy as np

from .errors import (
    IndexOutOfRange,
    NotPositive,
    NotProjection,
    SpecParseError,
    ZeroWeight,
)
from .linalg import DEFAULT_RANK_TOL, PROJECTION_TOL, _eig_sqrt, as_matrix, hermitian_eig
from .matio import loads_matrix, parse_complex

__all__ = [
    "ToleranceConfig",
    "OperatorModel",
    "weighted_shift",
    "shift_plus_rank_one",
    "projection_product",
    "composition_operator",
    "aq_operator",
    "from_matrix",
    "real_gauge",
    "load_operator_spec",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances, analysis depth and seed shared across the laboratory."""

    rank_tol: float = DEFAULT_RANK_TOL
    commutator_tol: float = 1e-9
    relation_tol: float = 1e-8
    spectral_match_tol: float = 1e-7
    depth: int = 6
    seed: int = 7

    def __post_init__(self):
        for name in ("rank_tol", "commutator_tol", "relation_tol", "spectral_match_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name, low in (("depth", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be at least {low}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OperatorModel:
    """A finite matrix model of an operator plus truncation metadata.

    ``matrix`` follows the dtype rule of ``linalg.as_matrix``: float64 when no
    entry has an imaginary part, complex128 otherwise.

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
    window_step: int = 0
    companion: np.ndarray | None = None
    window_frame: np.ndarray | None = None
    # values derived by _memoized functions; a new model starts empty
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m is self.matrix:  # never freeze the caller's array
            m = m.copy()
        if m.shape[0] != m.shape[1]:
            raise ValueError("operator models must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.bandwidth is not None:
            self._check_band()

    def _check_band(self):
        rows, cols = _nonzeros(self)
        off = np.abs(rows - cols) > self.bandwidth
        for (i, j) in self.exceptions:
            off &= (rows != i) | (cols != j)
        stray = np.max(np.abs(self.matrix[rows[off], cols[off]])) if off.any() else 0.0
        if stray > 0:
            raise ValueError(
                f"declared bandwidth {self.bandwidth} inconsistent with entries "
                f"(largest off-band magnitude {stray:.3e})"
            )

    @property
    def exact(self) -> bool:
        """A genuinely finite operator: no power corrupts any index."""
        return self.window_step == 0

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def window(self, k: int) -> int:
        """Leading block size where depth-k statements are reliable."""
        return max(self.dim - k * self.window_step, 0)

    def window_cols(self, w: int) -> np.ndarray:
        """Orthonormal basis of the leading-w window subspace."""
        if self.window_frame is not None:
            return self.window_frame[:, :w]
        return np.eye(self.dim, dtype=self.matrix.dtype)[:, :w]

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
        u = as_matrix(u)
        n = self.dim
        if u.shape != (n, n) or np.linalg.norm(u.conj().T @ u - np.eye(n)) > 1e-10 * n:
            raise ValueError("conjugation requires a unitary of matching size")
        frame = self.window_frame if self.window_frame is not None else np.eye(n)
        return OperatorModel(
            matrix=u.conj().T @ self.matrix @ u,
            family=self.family, params=dict(self.params),
            bandwidth=None, exceptions=(), window_step=self.window_step,
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
    goes stale; every caller shares it, and every array it holds is made
    read-only (``_freeze``)."""
    @wraps(fn)
    def derived(model, *args):
        key = (fn, args)
        if key not in model._memo:
            model._memo[key] = _freeze(fn(model, *args))
        return model._memo[key]
    return derived


@_memoized
def _nonzeros(model: OperatorModel) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns of T's nonzero entries, in row-major order."""
    return np.nonzero(model.matrix)


def _freeze(value):
    """``value``, with every array in it, through tuples, lists and dataclasses, read-only."""
    if isinstance(value, np.ndarray):
        if value.flags.writeable:  # views of frozen tables are already read-only
            value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    elif hasattr(value, "__dataclass_fields__"):  # is_dataclass, at a fraction of its cost
        for item in vars(value).values():
            _freeze(item)
    return value


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
    is not exact: each power loses one trailing index.  The matrix is real
    when every weight is.
    """
    m, w = _shift_matrix(weights, N)
    return OperatorModel(
        matrix=m, family="weighted_shift", params={"weights": w.tolist()},
        bandwidth=1, window_step=1,
    )


def _shift_matrix(weights, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The complex N x N matrix of ``J e_k = w_k e_{k+1}``, and the weights."""
    w = np.asarray(list(weights), dtype=complex)
    if w.shape != (N - 1,):
        raise ValueError(f"need exactly N-1={N - 1} weights, got {w.shape}")
    if np.any(np.abs(w) == 0):
        raise ZeroWeight("shift weights must be nonzero")
    m = np.zeros((N, N), dtype=complex)
    m[np.arange(1, N), np.arange(N - 1)] = w
    return m, w


def shift_plus_rank_one(weights, a: complex, n: int, N: int) -> OperatorModel:
    """Weighted shift plus the rank-one term ``a * (e_0 (x) e_n*)``.

    The sum is formed in complex arithmetic, so a complex ``a`` on real
    weights keeps its imaginary part; the model then applies the dtype rule.
    """
    if not 0 <= n < N:
        raise IndexOutOfRange(f"rank-one index {n} outside 0..{N - 1}")
    m, w = _shift_matrix(weights, N)
    m[0, n] += a
    return OperatorModel(
        matrix=m, family="shift_plus_rank_one",
        params={"weights": w.tolist(), "a": complex(a), "n": n},
        bandwidth=1, exceptions=((0, n),), window_step=1,
    )


def projection_product(P, Q) -> OperatorModel:
    """Product ``P @ Q`` of two orthogonal projections; a genuine C^N operator."""
    P = as_matrix(P)
    Q = as_matrix(Q)
    for name, X in (("P", P), ("Q", Q)):
        tol = PROJECTION_TOL * max(1.0, np.linalg.norm(X))
        if np.linalg.norm(X @ X - X) > tol or np.linalg.norm(X - X.conj().T) > tol:
            raise NotProjection(f"{name} is not an orthogonal projection")
    return OperatorModel(
        matrix=P @ Q, family="projection_product",
        params={"P": P.astype(complex).tolist(), "Q": Q.astype(complex).tolist()},
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
    )


def default_aq_margin(q: float) -> float:
    # row-sum bound on ||A_q|| is 2/(1-q); +1 gives a unit positivity margin
    return 2.0 / (1.0 - q) + 1.0


def aq_matrix(q: float, N: int) -> np.ndarray:
    """Tridiagonal matrix with super/sub-diagonal entries q^k at row k."""
    A = np.zeros((N, N))
    ks = np.arange(N - 1)
    A[ks, ks + 1] = q ** ks
    A[ks + 1, ks] = q ** ks
    return A


def aq_operator(q: float, r: float | None = None, N: int = 32) -> OperatorModel:
    """The conjugated-shift family ``T = (A_q + rI)^{1/2} S (A_q + rI)^{-1/2}``.

    ``S`` is the unweighted shift and ``A_q`` the tridiagonal matrix with
    geometrically decaying couplings.  The conjugation is dense, but the
    coupling decay confines the truncation error to the trailing indices;
    window validity is certified at construction via the intertwining
    residual ``S* A_q S - q A_q`` on the interior block.  Every factor is
    real, and so is the model.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if r is None:
        r = default_aq_margin(q)
    if not np.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    A = aq_matrix(q, N)
    evals, vecs = hermitian_eig(A + r * np.eye(N))
    if evals[0] <= DEFAULT_RANK_TOL:
        raise NotPositive(f"A_q + rI has eigenvalue {evals[0]:.3e} <= tolerance")
    half = _eig_sqrt(evals, vecs)
    inv_half = np.linalg.inv(half)
    # X S is X's columns shifted left by one and S* A S is A's trailing
    # block: what the products with the shift S give, exactly
    T = np.hstack([half[:, 1:], np.zeros((N, 1))]) @ inv_half
    # certify the window: the q-intertwining relation must hold exactly on
    # the interior of the truncated A_q
    certify = A[1:, 1:] - q * A[:-1, :-1]
    resid = float(np.linalg.norm(certify))
    if resid > 1e-12 * max(1.0, np.linalg.norm(A)):
        raise NotPositive(f"truncated A_q violates the shift intertwining: {resid:.3e}")
    return OperatorModel(
        matrix=T, family="aq",
        params={"q": q, "r": r, "intertwining_residual": resid},
        bandwidth=None, window_step=1, companion=A,
    )


def from_matrix(m, exact: bool = True) -> OperatorModel:
    return OperatorModel(matrix=m, family="matrix", window_step=0 if exact else 1)


def real_gauge(model: OperatorModel) -> OperatorModel:
    """The twin of a complex model with matrix ``|T|``, when a diagonal
    unitary D and a unimodular λ give ``λ D* T D = |T|``; else the model.

    The certificate is combinatorial.  Read the nonzero pattern as an
    undirected graph, one edge per nonzero T_ij (self-loops included);
    entry (i, j) asks the depth h_i = h_j + 1.  Along a spanning forest every
    phase can be moved into D, and a closing edge (i, j) leaves a cycle of
    winding 1 − (h_i − h_j), whose phase λ absorbs when the winding is
    nonzero.  So a forest, or one cycle of nonzero winding, gauges: a
    weighted shift is a path, a shift plus rank one at index n closes a
    cycle of winding n + 1, and a (0, 0) corner is a loop of winding 1.
    Grams, co-grams, ker T*, the chain and the tower all map by D, the
    leading-column windows are kept, and every norm, dimension and residual
    is the same.  A model with a ``window_frame`` is left as it is.
    """
    T = model.matrix
    if not np.iscomplexobj(T) or model.window_frame is not None:
        return model
    rows, cols = _nonzeros(model)
    if len(rows) > model.dim:  # at most one cycle needs edges <= vertices
        return model
    edges = [[] for _ in range(model.dim)]
    for e, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        edges[i].append((e, j, 1))
        edges[j].append((e, i, -1))
    depth = [None] * model.dim
    seen, windings = set(), []
    for root in range(model.dim):
        if depth[root] is not None:
            continue
        depth[root], stack = 0, [root]
        while stack:
            u = stack.pop()
            for e, v, step in edges[u]:
                if e in seen:
                    continue
                seen.add(e)
                if depth[v] is None:
                    depth[v] = depth[u] - step
                    stack.append(v)
                else:
                    windings.append(step - depth[u] + depth[v])
    if len(windings) > 1 or 0 in windings:
        return model
    return replace(model, matrix=np.abs(T))


# -- operator spec files ------------------------------------------------------

def _is_number(value) -> bool:
    """A JSON number: int or float, and not a bool (JSON true is no number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_scalar(value) -> complex:
    if isinstance(value, str):
        return parse_complex(value)
    if _is_number(value):
        return complex(value)
    if (isinstance(value, dict) and set(value) <= {"re", "im"}
            and all(map(_is_number, value.values()))):
        return complex(value.get("re", 0.0), value.get("im", 0.0))
    raise SpecParseError(f"cannot interpret {value!r} as a complex scalar")


def _parse_real(value) -> float:
    if isinstance(value, bool):
        raise SpecParseError(f"expected a real number, got {value!r}")
    return float(value)


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
        r = None if spec.get("r") is None else _field(spec, "r", _parse_real)
        return aq_operator(_field(spec, "q", _parse_real), r, N)
    if family == "matrix":
        m = _field(spec, "matrix", loads_matrix)
        exact = True if spec.get("exact") is None else _field(spec, "exact", _parse_bool)
        return from_matrix(m, exact=exact)
    raise SpecParseError(f"unknown operator family {family!r}")
