"""Subspaces of C^n (of R^n, for real frames) represented by orthonormal frames.

Every rank here is a tolerance decision, made when the frame is built
(``orthonormalize``, ``extend_frame``): the infinite picture works with exact
closures, the finite model cannot.  A ``Subspace`` holds only the checked frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .linalg import DEFAULT_RANK_TOL, as_matrix, numerical_rank

__all__ = ["Subspace", "orthonormalize", "extend_frame"]


@dataclass(frozen=True)
class Subspace:
    """An orthonormal frame (n x d); it follows the dtype rule of
    ``linalg.as_matrix``."""

    frame: np.ndarray

    def __post_init__(self):
        f = as_matrix(self.frame)
        object.__setattr__(self, "frame", f)
        d = f.shape[1]
        if d > f.shape[0]:
            raise ValueError("frame has more columns than ambient dimension")
        gram = f.conj().T @ f
        if d and np.linalg.norm(gram - np.eye(d)) > 10 * np.finfo(float).eps * f.shape[0] * max(1, d):
            raise ValueError("frame columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T


def orthonormalize(vectors, rank_tol: float = DEFAULT_RANK_TOL,
                   scale: float | None = None) -> Subspace:
    """Orthonormal frame for the numerically significant span of ``vectors``.

    ``vectors`` is a sequence of ambient vectors or (n, k) column blocks.
    Directions whose singular value falls below ``rank_tol * scale`` are
    dropped; the default scale is the largest column norm.  Pass an explicit
    scale when the inputs may consist entirely of numerical dust (e.g.
    projection residuals), which must not be renormalized into directions.
    """
    cols = []
    n = None
    for v in vectors:
        a = np.asarray(v)
        a = a.reshape(-1, 1) if a.ndim == 1 else a
        if n is None:
            n = a.shape[0]
        elif a.shape[0] != n:
            raise ValueError("vectors have mismatched ambient dimensions")
        cols.append(a)
    if not cols:
        raise EmptyInput("no vectors given")
    m = np.hstack(cols)
    if m.shape[1] == 0:
        return Subspace(frame=np.zeros((n, 0), dtype=m.dtype))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if scale is None:
        scale = float(np.max(np.linalg.norm(m, axis=0))) if m.size else 0.0
    return Subspace(frame=u[:, :numerical_rank(s, rank_tol, scale)])


def extend_frame(frame: np.ndarray, block: np.ndarray,
                 rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal columns that extend ``frame`` by the new directions of ``block``.

    ``frame`` (n x d) must be orthonormal.  The rank decision is the one
    ``orthonormalize([frame, block], rank_tol)`` makes, at the same scale
    (the largest column norm of the stack), but only the n x m residual is
    factored and the directions of ``frame`` are never dropped.

    With C = frame* block and R = block - frame C (two Gram-Schmidt passes,
    coefficients summed), the stack's Gram matrix is [[I, C], [C*, C*C + R*R]].
    By inertia of its Schur complement, the stack has as many singular
    values below tau as R W^-1 has, where W*W = I + C*C (the exact factor
    is I + C*C / (1 - tau^2), equal to it in floating point for the tau of a
    rank tolerance).  A cut on R alone would ignore how much of each new
    direction ``block`` already spends along ``frame``.
    """
    n, d = frame.shape
    m = block.shape[1]
    if m == 0 or d >= n:
        return np.zeros((n, 0), dtype=np.result_type(frame, block))
    scale = float(np.max(np.linalg.norm(block, axis=0)))
    if d:
        scale = max(scale, 1.0)
    frame_h = frame.conj().T
    coef = frame_h @ block
    resid = block - frame @ coef
    again = frame_h @ resid
    resid -= frame @ again
    coef += again
    chol = np.linalg.cholesky(np.eye(m) + coef.conj().T @ coef)
    u, s, _ = np.linalg.svd(np.linalg.solve(chol, resid.conj().T).conj().T,
                            full_matrices=False)
    # the residual has rank at most n - d; a rank_tol below roundoff could
    # count dust beyond that
    r = min(numerical_rank(s, rank_tol, scale), n - d)
    # u comes from a residual that may be tiny, so it is only roughly
    # orthogonal to frame: project once more and re-orthonormalize
    fresh = u[:, :r] - frame @ (frame_h @ u[:, :r])
    return np.linalg.qr(fresh)[0]

