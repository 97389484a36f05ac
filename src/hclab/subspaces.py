"""Subspaces of C^n (of R^n, for real frames) represented by orthonormal frames.

Every rank here is a tolerance decision, made when the frame is built
(``orthonormalize`` here, ``chains.krylov_closure`` for every closure): the
infinite picture works with exact closures, the finite model cannot.  A
``Subspace`` holds only the checked frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .linalg import DEFAULT_RANK_TOL, as_matrix, numerical_rank

__all__ = ["Subspace", "orthonormalize"]


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

