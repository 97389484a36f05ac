"""Dense matrix primitives: the dtype rule, Hermitian eigen, positive square
roots and polar decompositions with partial isometries.

The dtype rule (``as_matrix``): a finite 2-D input with no imaginary part is
float64, anything else complex128.  Operator models and subspace frames apply
it once, when they are built; every other routine takes its dtype from its
operands, so a real operator is analysed in real arithmetic end to end and a
complex one in complex arithmetic.  Routines treat their inputs as immutable
and return freshly allocated arrays.  Every rank decision is the tolerance
cut ``numerical_rank``, by default at ``DEFAULT_RANK_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotHermitian, NotPSD

DEFAULT_RANK_TOL = 1e-10
HERMITIAN_TOL = 1e-9     # relative asymmetry or negative eigenvalue taken as roundoff
PROJECTION_TOL = 1e-9    # relative ||P^2 - P|| and ||P - P*|| of an orthogonal projection
CONTAINMENT_TOL = 1e-8   # how far the subspace removed by subspace_ominus may stick out

__all__ = [
    "DEFAULT_RANK_TOL",
    "PolarPair",
    "as_matrix",
    "hermitian_eig",
    "numerical_rank",
    "positive_sqrt",
    "polar",
]


def _finite_matrix(m) -> np.ndarray:
    """``m`` as a finite 2-D array of float64 (real input) or complex128."""
    a = np.asarray(m)
    a = a.astype(float if a.dtype.kind in "biuf" else complex, copy=False)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains NaN or Inf entries")
    return a


def as_matrix(m) -> np.ndarray:
    """The dtype rule: ``m`` as a finite 2-D array, float64 when no entry has
    an imaginary part and complex128 otherwise."""
    a = _finite_matrix(m)
    if a.dtype.kind == "c" and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def numerical_rank(s, rank_tol: float, scale: float) -> int:
    """How many singular values ``s`` lie strictly above ``rank_tol * scale``."""
    return int(np.sum(np.asarray(s) > rank_tol * max(scale, 1e-300)))


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Square matrix with ``||h - h*|| <= HERMITIAN_TOL * ||h||``.  A sub-tolerance
        asymmetry is allowed because accumulated products of the form
        ``T*^k T^k`` drift slightly; the matrix is symmetrized before the
        decomposition.

    Returns
    -------
    eigenvalues : (n,) ndarray of float
        Sorted ascending.
    eigenvectors : (n, n) ndarray, real for a real ``h``
        Orthonormal columns, ``h @ v[:, i] == eigenvalues[i] * v[:, i]``.

    Raises
    ------
    NotHermitian
        If the symmetry residual exceeds the tolerance.
    NonFinite
        On NaN/Inf input.
    """
    a = _finite_matrix(h)
    _require_square(a)
    scale = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.conj().T)
    if asym > HERMITIAN_TOL * max(scale, 1e-300):
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds {HERMITIAN_TOL:.1e} * {scale:.3e}")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w, v


def positive_sqrt(h) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[-HERMITIAN_TOL * ||h||, 0)`` are clamped to zero; a materially
    negative eigenvalue raises ``NotPSD``.

    Returns
    -------
    (n, n) ndarray, Hermitian PSD, whose square reproduces ``h``.
    """
    w, v = hermitian_eig(h)
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] < -HERMITIAN_TOL * scale:
        raise NotPSD(f"eigenvalue {w[0]:.3e} is materially negative")
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) / 2.0


@dataclass(frozen=True)
class PolarPair:
    """Factors ``m = isometry_part @ positive_part``.

    ``isometry_part`` is a partial isometry: it maps the range of
    ``positive_part`` isometrically and is zero on the orthogonal
    complement, so ``(theta* theta)^2 = theta* theta``.
    """

    isometry_part: np.ndarray
    positive_part: np.ndarray


def polar(m, rank_tol: float = DEFAULT_RANK_TOL) -> PolarPair:
    """Polar decomposition ``m = theta p`` with a partial-isometry factor.

    Parameters
    ----------
    m : array_like
        Square matrix, real or complex.
    rank_tol : float
        Relative singular-value cutoff deciding the rank of ``m``.  Singular
        directions below the cutoff are annihilated by ``theta`` instead of
        being completed to a unitary, which is the convention needed for
        operators with a kernel, e.g. truncated shifts.

    Returns
    -------
    PolarPair
        ``positive_part`` equals the positive square root of ``m* m`` and
        ``theta = m @ pinv(positive_part)``.
    """
    a = _finite_matrix(m)
    _require_square(a)
    u, s, vh = np.linalg.svd(a)
    r = numerical_rank(s, rank_tol, s[0] if s.size else 0.0)
    theta = u[:, :r] @ vh[:r, :]
    p = (vh.conj().T * s) @ vh
    return PolarPair(isometry_part=theta, positive_part=(p + p.conj().T) / 2.0)

