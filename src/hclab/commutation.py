"""Gram powers T*^k T^k and the commutation verdicts built from them.

An operator is half-centered when its gram powers pairwise commute, and
centered when the doubly infinite family including the co-grams T^k T*^k
commutes as well.  On a truncation, the commutator of a pair (j, k) is only
meaningful on the leading ``window(j + k)`` block, so every residual here is
computed on that block and scaled by the product of the factors' norms.
Grams are Hermitian PSD, so their norms and commutators go through the
``_split_*`` kernels of ``linalg``, and every power T^k of one model is one
running product T^(k-1) T (``_matrix_power``), shared by its gram and co-gram.
The band route is T's row map, ``_band_rows``: a real model of at least
``BAND_MIN_DIM`` rows that declares a band and holds one nonzero per row at
most forms them through it.  A column of T with one nonzero T_ij makes column
j of T^k column i of T^(k-1) times T_ij, a gram column with one nonzero in a
row no other column uses is its square on the diagonal, and the other columns
take one product; T's SVD is ``_lone_svd``, and ``classifier``'s Krylov
closures apply the map as T.  Every other model takes the dense route.
A gram compressed to a subspace of a window (the tower's theta* G_1 theta,
the families on M_E and on each V_n) has one rule, ``_gram_on``: C* C with C
the window columns of T^k times the subspace's frame.

Each gram (co-gram) has one table per model, ``_window_table``: the gram on
all N window columns, exactly Hermitian.  In the model's own basis it is the
gram itself; in a rotated basis (``window_frame`` set) it is compressed and
symmetrized once.  Every window gram is a leading block of that table, read
with the mask of its coupled rows (those with a nonzero off the diagonal) by
every pair, norm and stage.  A pair's commutator is formed on the union of
its two masks, which is exact (see ``linalg``): the gram-gram pairs of
weighted shifts and of a shift plus rank one take no product, their co-gram
pairs a product on a few rows, aq's a product on the rows its windows couple.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonFinite, NotHalfCentered, WindowExhausted
from .linalg import (_hermitian_part, _lone_svd, _split_commutator_norm, _split_norm,
                     numerical_rank)
from .operators import OperatorModel, ToleranceConfig, _memoized, _nonzeros
from .subspaces import Subspace, orthonormalize

__all__ = [
    "MIN_WINDOW",
    "analysis_depth",
    "effective_depth",
    "gram_power",
    "half_centered_check",
    "require_half_centered",
    "centered_check",
    "centered_criterion",
    "kernel_of_adjoint",
]


def analysis_depth(model: OperatorModel, cfg: ToleranceConfig) -> int:
    """The configured depth K, capped at the largest K with window(2K) >= 1.

    That is (N - 1) // (2 * window_step) for a banded truncation.  Exact
    models keep the configured depth, and so does a truncation too small
    for depth 1, whose checks then raise WindowExhausted.
    """
    if model.window_step == 0:
        return cfg.depth
    feasible = (model.dim - 1) // (2 * model.window_step)
    return min(cfg.depth, feasible) if feasible >= 1 else cfg.depth


MIN_WINDOW = 8


def effective_depth(model: OperatorModel, cfg: ToleranceConfig) -> int:
    """Depth of the analysis block on this truncation.

    Starts from ``analysis_depth``; banded truncations lose ``window_step``
    indices per power, so the depth is lowered further to keep at least
    ``MIN_WINDOW`` uncorrupted indices (falling back to a single index for
    very small models).
    """
    K = analysis_depth(model, cfg)
    if model.window_step == 0:
        return K
    for floor in (MIN_WINDOW, 1):
        k = min(K, (model.dim - floor) // model.window_step)
        if k >= 1:
            return k
    raise WindowExhausted(f"dimension {model.dim} leaves no usable window")


# Weighted shifts, best of 5, one BLAS thread, dense -> band: the power and the
# gram win at 96 rows (31 -> 23 us, 55 -> 46 us) and 128 (86 -> 33, 146 -> 65) and
# lose at 64 (12 -> 15, 26 -> 33); the lone-entry SVD wins from 48 (109 -> 69 us).
BAND_MIN_DIM = 96


class RowMap(NamedTuple):
    """A matrix with at most one nonzero per row, as an operator: row i holds
    ``val[i]`` in column ``col[i]`` (0.0 in column 0 when the row is empty);
    ``inv[j]`` is the row of column j's nonzero (-1 when the column is empty or
    fuller), ``multi`` the fuller columns."""

    col: np.ndarray
    val: np.ndarray
    inv: np.ndarray
    multi: np.ndarray
    ndim = 2
    dtype = property(lambda self: self.val.dtype)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The matrix times ``x``: one term per row, so the bits of the dense product."""
        return x[self.col] * (self.val if x.ndim == 1 else self.val[:, None])


@_memoized
def _band_rows(model: OperatorModel, w: int) -> RowMap | None:
    """The band route: T's leading w x w block as a ``RowMap``.  None unless the
    model declares a ``bandwidth`` (no ``conjugated`` model has one), has at
    least ``BAND_MIN_DIM`` rows and is float64, all read before any nonzero (no
    zero pattern alone picks the route: aq has zeros, and a split moves its
    dims), and the block holds one nonzero per row at most."""
    if model.bandwidth is None or model.dim < BAND_MIN_DIM or model.matrix.dtype != np.float64:
        return None
    rows, cols = _nonzeros(model)
    inside = (rows < w) & (cols < w)
    rows, cols = rows[inside], cols[inside]
    if np.any(np.diff(rows) == 0):
        return None
    col, val, inv = np.zeros(w, dtype=np.intp), np.zeros(w), np.full(w, -1, dtype=np.intp)
    col[rows], val[rows] = cols, model.matrix[rows, cols]
    count = np.bincount(cols, minlength=w)
    lone = count[cols] == 1
    inv[cols[lone]] = rows[lone]
    return RowMap(col, val, inv, np.flatnonzero(count > 1))


def _svd(model: OperatorModel, a: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd(a)`` of T or its window columns, by ``_lone_svd`` on the band route."""
    dense = _band_rows(model, model.dim) is None
    return (np.linalg.svd if dense else _lone_svd)(a, compute_uv=compute_uv)


@_memoized
def _matrix_power(model: OperatorModel, k: int) -> np.ndarray:
    """T^k as a running product, T^(k-1) T, shared by grams and co-grams; T^1
    is the model's matrix itself.  The band route gives the same bits: column j
    of T with one nonzero T_ij makes column j of T^k column i of T^(k-1) times T_ij."""
    if k == 1:
        return model.matrix
    prev, rows = _matrix_power(model, k - 1), _band_rows(model, model.dim)
    if rows is None:
        return np.matmul(prev, model.matrix)
    src = np.maximum(rows.inv, 0)
    p = np.take(prev, src, axis=1)
    p *= np.where(rows.inv < 0, 0.0, rows.val[src])
    p[:, rows.multi] = np.matmul(prev, model.matrix[:, rows.multi])
    return p


def _lone_columns(model: OperatorModel, k: int, outer: bool) -> tuple:
    """For each column of T^k (of its transpose when ``outer``) on the band
    route: whether it is alone (at most one nonzero, in a row no other column
    uses) and its first nonzero's row (0 when it has none).  Read off T's row
    map, where row i of T^k holds its one nonzero in column ``col`` applied k times."""
    p, col = _matrix_power(model, k), _band_rows(model, model.dim).col
    at = col
    for _ in range(k - 1):
        at = col[at]
    live = p[np.arange(model.dim), at] != 0
    count = np.bincount(at[live], minlength=model.dim)  # nonzeros per column of T^k
    if outer:  # column i of the transpose is row i of T^k
        return ~live | (count[at] == 1), np.where(live, at, 0)
    first = np.zeros(model.dim, dtype=np.intp)
    first[at[live]] = np.flatnonzero(live)
    return count <= 1, first


def _band_gram(p: np.ndarray, alone: np.ndarray, first: np.ndarray) -> np.ndarray:
    """p.T p of a real p, exactly symmetric: a column ``alone`` gives its square
    (its entry in row ``first``) on the diagonal; the rest take one product,
    symmetrized."""
    g, lone, rest = np.zeros((p.shape[1],) * 2), np.flatnonzero(alone), np.flatnonzero(~alone)
    g[lone, lone] = np.square(p[first[lone], lone])
    c = p[:, rest]
    g[rest[:, None], rest] = _hermitian_part(c.T @ c)
    return g


@_memoized
def _power_product(model: OperatorModel, k: int, outer: bool) -> np.ndarray:
    """T*^k T^k, or T^k T*^k when ``outer``; the identity for k = 0."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if model.window(k) < 1:
        raise WindowExhausted(f"window({k}) = {model.window(k)} < 1")
    if k == 0:
        return np.eye(model.dim, dtype=model.matrix.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        p = _matrix_power(model, k)
        if _band_rows(model, model.dim) is None:
            g = _hermitian_part(p @ p.conj().T if outer else p.conj().T @ p)
        else:
            g = _band_gram(p.T if outer else p, *_lone_columns(model, k, outer))
    if not np.all(np.isfinite(g)):
        name = f"T^{k} T*^{k}" if outer else f"T*^{k} T^{k}"
        raise NonFinite(f"{name} overflows: an entry is not finite")
    return g


@_memoized
def _window_power(model: OperatorModel, k: int, w: int) -> np.ndarray:
    """The window-w columns of T^k: a slice in the model's own basis, one
    N x N x w product in a rotated one, formed once for every frame."""
    return model.window_restrict(_matrix_power(model, k), w)


def _gram_on(model: OperatorModel, k: int, w: int, frame: np.ndarray) -> np.ndarray:
    """frame* G_k frame for the window-w gram G_k, as C* C with C the window
    columns of T^k times ``frame``: PSD by construction, exactly symmetric in
    real arithmetic, with an error on the scale of ||C||^2, not of ||G_k||."""
    C = _window_power(model, k, w) @ frame
    return C.conj().T @ C


def gram_power(model: OperatorModel, k: int) -> np.ndarray:
    """The positive matrix T*^k T^k; the identity for k = 0."""
    return _power_product(model, k, False)


@_memoized
def _window_table(model: OperatorModel, k: int, outer: bool) -> np.ndarray:
    """T*^k T^k (T^k T*^k when ``outer``) on all N window columns, exactly
    Hermitian: the gram itself in the model's own basis, compressed and
    symmetrized once in a rotated one.  Every window gram is a leading block."""
    g = _power_product(model, k, outer)
    if model.window_frame is None:
        return g
    return _hermitian_part(model.window_compress(g, model.dim))


@_memoized
def _first_coupling(model: OperatorModel, k: int, outer: bool) -> np.ndarray:
    """For each row of ``_window_table(model, k, outer)``, the first column off
    the diagonal that holds a nonzero; ``dim`` when there is none.  Row i of
    the window-w gram is coupled exactly when its entry is < w."""
    nonzero = _window_table(model, k, outer) != 0
    nonzero.flat[::model.dim + 1] = False
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), model.dim)


@_memoized
def _window_view(model: OperatorModel, k: int, outer: bool,
                 w: int) -> tuple[np.ndarray, np.ndarray]:
    """The leading-w window gram (co-gram when ``outer``), the leading block
    of ``_window_table`` and so exactly Hermitian in every basis, and the
    exact mask of its coupled rows (those with a nonzero off the diagonal)."""
    return _window_table(model, k, outer)[:w, :w], _first_coupling(model, k, outer)[:w] < w


@_memoized
def _window_gram_norm(model: OperatorModel, k: int, outer: bool, w: int) -> float:
    """The operator norm of the window gram ``_window_view(model, k, outer, w)``,
    ``_split_norm`` of it bit for bit; windows with the same coupled rows share
    the ``eigvalsh`` of that block, which gets the same array from each."""
    a, coupled = _window_view(model, k, outer, w)
    if coupled.all() or not coupled.any():
        return _split_norm(a, coupled)
    block = _coupled_norm(model, k, outer, tuple(np.flatnonzero(coupled).tolist()))
    return float(np.max(np.abs(np.diagonal(a)[~coupled].real), initial=block))


@_memoized
def _coupled_norm(model: OperatorModel, k: int, outer: bool, rows: tuple) -> float:
    """The largest |eigenvalue| of the block of ``_window_table`` on ``rows``."""
    idx = np.array(rows)
    block = _window_table(model, k, outer)[idx[:, None], idx]
    return float(np.max(np.abs(np.linalg.eigvalsh(block))))


@_memoized
def _gram_frobenius(model: OperatorModel, k: int, outer: bool) -> float:
    """The Frobenius norm of the full gram (co-gram when ``outer``)."""
    return float(np.linalg.norm(_power_product(model, k, outer)))


@_memoized
def _window_gram_is_zero(model: OperatorModel, k: int, outer: bool, w: int) -> bool:
    """Whether the window gram ``_window_view(model, k, outer, w)`` is zero up to
    the roundoff of compressing the full gram: Frobenius norm at most w * eps
    times the full gram's.  A co-gram T^k T*^k vanishes on the indices T*^k
    kills, exactly in the model's own basis and to roundoff in a rotated one."""
    cut = w * np.finfo(float).eps * _gram_frobenius(model, k, outer)
    return bool(np.linalg.norm(_window_view(model, k, outer, w)[0]) <= cut)


@_memoized
def _pair_residuals(model: OperatorModel, K: int, left: bool, right: bool) -> np.ndarray:
    """Rows (j, k, residual) of the family ``left`` at power j against ``right``
    at power k (True: co-grams, False: grams) for 1 <= j, k <= K, each on the
    window(j + k) block; j < k when both sides are the same family.

    A pair that commutes exactly, or has a numerically zero member, has
    residual 0 whatever the norms, so the two operator norms are taken only
    for a nonzero commutator of two grams that are not zero.
    """
    pairs = []
    for j in range(1, K + 1):
        for k in range(j + 1 if left == right else 1, K + 1):
            w = model.window(j + k)
            comm = _split_commutator_norm(*_window_view(model, j, left, w),
                                          *_window_view(model, k, right, w))
            res = 0.0
            if comm and not (_window_gram_is_zero(model, j, left, w)
                             or _window_gram_is_zero(model, k, right, w)):
                res = comm / (_window_gram_norm(model, j, left, w)
                              * _window_gram_norm(model, k, right, w))
            pairs.append((j, k, res))
    return np.array(pairs)


def _pair_table(model: OperatorModel, K: int, kind: str, left: bool, right: bool) -> list:
    """The report rows of ``_pair_residuals``, fresh on every call."""
    return [{"j": int(j), "k": int(k), "kind": kind, "residual": res}
            for j, k, res in _pair_residuals(model, K, left, right).tolist()]


def half_centered_check(model: OperatorModel, cfg: ToleranceConfig) -> dict:
    """Pairwise commutation of the gram powers up to ``analysis_depth``: the
    report row, with ``full_residual`` and the ``centered`` verdict None,
    built afresh on each call from the residuals memoized on the model."""
    K = analysis_depth(model, cfg)
    if model.window(2 * K) < 1:
        raise WindowExhausted(f"window(2K) = {model.window(2 * K)} < 1 at depth {K}")
    pairs = _pair_table(model, K, "gram-gram", False, False)
    worst = max([0.0] + [p["residual"] for p in pairs])
    return {"depth": K, "half_residual": worst, "full_residual": None,
            "verdict": {"half_centered": bool(worst <= cfg.commutator_tol), "centered": None},
            "pairs": pairs}


def require_half_centered(model: OperatorModel, cfg: ToleranceConfig) -> dict:
    """``half_centered_check``, raising NotHalfCentered when the verdict is
    false: the one gate of every stage whose theory needs a half-centered T."""
    report = half_centered_check(model, cfg)
    if not report["verdict"]["half_centered"]:
        raise NotHalfCentered(
            f"half-centered residual {report['half_residual']:.3e} exceeds tolerance"
        )
    return report


def centered_check(model: OperatorModel, cfg: ToleranceConfig) -> dict:
    """Commutation of the full family {T^j T*^j} u {T*^k T^k}: the report row
    of ``half_centered_check`` with every pair and both verdicts."""
    half = half_centered_check(model, cfg)
    K = half["depth"]
    pairs = (half["pairs"]
             + _pair_table(model, K, "cogram-cogram", True, True)
             + _pair_table(model, K, "gram-cogram", False, True))
    worst = max([0.0] + [p["residual"] for p in pairs])
    return {**half, "full_residual": worst, "pairs": pairs,
            "verdict": {**half["verdict"], "centered": bool(worst <= cfg.commutator_tol)}}


@_memoized
def _singular_pairs(model: OperatorModel) -> tuple[np.ndarray, np.ndarray]:
    """The left singular vectors and the singular values of T, from one SVD."""
    u, s, _ = _svd(model, model.matrix)
    return u, s


@_memoized
def kernel_of_adjoint(model: OperatorModel, cfg: ToleranceConfig) -> Subspace:
    """ker T* = (T H)^perp, found from the singular directions of T."""
    u, s = _singular_pairs(model)
    rank = numerical_rank(s, cfg.rank_tol, s[0] if s.size else 0.0)
    return orthonormalize([u[:, rank:]], rank_tol=cfg.rank_tol)


def centered_criterion(model: OperatorModel, cfg: ToleranceConfig) -> dict:
    """Invariance criterion: T is centered iff every gram power maps the
    kernel line of T* into itself.  Returns the report row ``verdict``,
    ``residual``, ``vacuous`` and ``per_power``.

    An empty kernel makes the criterion vacuously true (reported, not
    failed): an injective adjoint means dense range, and dense range already
    forces a half-centered operator to be centered.
    """
    E = kernel_of_adjoint(model, cfg)
    if E.dim == 0:
        return {"verdict": True, "residual": 0.0, "vacuous": True, "per_power": []}
    per_power = []
    worst = 0.0
    for k in range(1, analysis_depth(model, cfg) + 1):
        image = gram_power(model, k) @ E.frame
        leak = image - E.frame @ (E.frame.conj().T @ image)
        scale = _window_gram_norm(model, k, False, model.dim)
        res = float(np.linalg.norm(leak) / max(scale, 1e-300))
        per_power.append({"k": k, "residual": res})
        worst = max(worst, res)
    return {"verdict": bool(worst <= cfg.commutator_tol), "residual": worst,
            "vacuous": False, "per_power": per_power}
