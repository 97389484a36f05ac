"""Dense matrix primitives: the dtype rule, Hermitian eigen, norms and
commutators, positive square roots, the partial-isometry factor of a polar
decomposition, and running powers.

The dtype rule (``as_matrix``): a finite 2-D input with no imaginary part is
float64, anything else complex128.  Operator models and subspace frames apply
it once, when they are built; every other routine takes its dtype from its
operands, so a real operator is analysed in real arithmetic end to end and a
complex one in complex arithmetic.  Routines treat their inputs as immutable
and return freshly allocated arrays.  Every rank decision is the tolerance
cut ``numerical_rank``, by default at ``DEFAULT_RANK_TOL``.

The gram layer runs on two kernels and a running product:

- ``_split_norm``: the operator norm as the largest |eigenvalue|, from
  ``_split_eigvals`` (``eigvalsh`` on the coupled rows only) instead of a
  singular value decomposition;
- ``_split_commutator_norm``: ``||ab - ba||_F`` from the single product
  P = ab, as ``||P - P*||_F``, formed on the coupled rows only;
- ``power_table(a, K)``: a^0..a^K as the running product a^k = a^(k-1) a
  (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3 and 18).

The two kernels take each operand h as ``_hermitian_view(h)``: its Hermitian
part (h + h*)/2, equal to an exactly Hermitian h bit for bit, and the mask of
its coupled rows.  So h need be Hermitian only up to roundoff, as the window
compressions of gram powers in a rotated basis are.

The coupled split.  A row of a Hermitian matrix is coupled when it holds a
nonzero off the diagonal.  An uncoupled index i is an eigenvector with
eigenvalue h_ii, exactly, so the eigenvalues are those diagonal entries and
the eigenvalues of the coupled block.  An index uncoupled in both a and b
gives a zero row and a zero column of ab - ba (both are a_ii b_ii there), and
no coupled index reaches it in either product, so ``||ab - ba||_F`` is the
same norm of the blocks on the union of the two coupled sets: an empty union
is 0 with no product, a full one the dense product.  The grams of weighted
shifts are diagonal, and those of a shift plus a rank-one term couple a few
rows, so most of their norms and commutators take no factorization and no
product.  A caller that reads one matrix in several pairs (the pair tables
of ``commutation``, ``joint_diagonalize``) takes its view once.

The lone-entry split (``_lone_svd``).  A nonzero alone in its row and its
column is a singular triple with unit vectors, exactly; the rest, the core,
takes one SVD.  A weighted shift's core is one zero and a shift plus a
rank-one term's two rows, so their SVD of T factors a few rows, not N.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NotHermitian, NotPSD

DEFAULT_RANK_TOL = 1e-10
HERMITIAN_TOL = 1e-9     # relative asymmetry or negative eigenvalue taken as roundoff
PROJECTION_TOL = 1e-9    # relative ||P^2 - P|| and ||P - P*|| of an orthogonal projection
CONTAINMENT_TOL = 1e-8   # how far T X_{k-1} may stick out of X_k in the structural suite

__all__ = [
    "DEFAULT_RANK_TOL",
    "as_matrix",
    "hermitian_eig",
    "numerical_rank",
    "positive_sqrt",
    "polar",
    "power_table",
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
    cutoff = rank_tol * max(scale, 1e-300)
    return int(s > cutoff) if isinstance(s, float) else int(np.sum(np.asarray(s) > cutoff))


def _adjoint(h) -> np.ndarray:
    """h*, without the copy that conj() makes of a real array."""
    return h.conj().T if h.dtype.kind == "c" else h.T


def _hermitian_part(h) -> np.ndarray:
    """(h + h*) / 2, equal to ``h`` bit for bit when ``h`` is exactly Hermitian."""
    h = np.asarray(h)
    return (h + _adjoint(h)) / 2.0


def _coupled_rows(a) -> np.ndarray:
    """The mask of the rows of a Hermitian ``a`` that hold a nonzero off the
    diagonal."""
    off = a != 0
    off.flat[::a.shape[0] + 1] = False
    return off.any(axis=1)


def _hermitian_view(h) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian part of ``h`` and the mask of its coupled rows: the
    operands of the split kernels below."""
    a = _hermitian_part(h)
    return a, _coupled_rows(a)


def _split_eigvals(a, coupled) -> np.ndarray:
    """The eigenvalues, unsorted, of an exactly Hermitian ``a`` whose
    ``coupled`` mask marks its coupled rows: each other row gives its
    diagonal entry, and ``eigvalsh`` factors the block of the coupled ones."""
    if coupled.all():
        return np.linalg.eigvalsh(a)
    lone = np.diagonal(a)[~coupled].real
    if not coupled.any():
        return lone
    rows = np.flatnonzero(coupled)
    return np.concatenate([lone, np.linalg.eigvalsh(a[rows[:, None], rows])])


def _split_norm(a, coupled) -> float:
    """The largest |eigenvalue| of ``_split_eigvals(a, coupled)``."""
    return float(np.max(np.abs(_split_eigvals(a, coupled)), initial=0.0))


def _split_commutator_norm(a, a_coupled, b, b_coupled) -> float:
    """``||ab - ba||_F`` for exactly Hermitian ``a`` and ``b`` with the masks
    of their coupled rows, from one product on the union of the masks.

    An index coupled in neither gives a zero row and a zero column of
    ab - ba, and no coupled index reaches it, so the commutator is that of
    the blocks on the union: an empty union is 0 with no product, a full one
    is the dense product with no gather.
    """
    rows = np.flatnonzero(a_coupled | b_coupled)
    if rows.size == 0:
        return 0.0
    if rows.size < a_coupled.size:
        a, b = a[rows[:, None], rows], b[rows[:, None], rows]
    p = np.matmul(a, b)
    return float(np.linalg.norm(p - _adjoint(p)))


def _lone_svd(a, compute_uv: bool = True):
    """``np.linalg.svd(a)`` (full u and vh; s alone unless ``compute_uv``) from
    the lone entries a_ij of ``a``, each s = |a_ij|, u = e_i, vh = e_j a_ij / |a_ij|,
    and the SVD of its core in the core's rows and columns.  s descends (ties:
    the lone entries in row order, then the core's); vectors past min(m, n)
    are the core's."""
    nz = a != 0
    lone = nz & (nz.sum(axis=1) == 1)[:, None] & (nz.sum(axis=0) == 1)
    rows, cols = np.nonzero(lone)
    core_rows, core_cols = np.flatnonzero(~lone.any(axis=1)), np.flatnonzero(~lone.any(axis=0))
    core, vals = a[core_rows[:, None], core_cols], a[rows, cols]
    zero = not core.any()  # a zero core, or none, is singular on any basis: no factorization
    if not compute_uv:
        sc = np.zeros(min(core.shape)) if zero else np.linalg.svd(core, compute_uv=False)
        return np.sort(np.concatenate([np.abs(vals), sc]))[::-1]
    uc, sc, vhc = ((np.eye(core.shape[0]), np.zeros(min(core.shape)), np.eye(core.shape[1]))
                   if zero else np.linalg.svd(core))
    s = np.concatenate([np.abs(vals), sc])
    (m, n), lead = a.shape, rows.size
    u = np.zeros((m, m), dtype=a.dtype)
    u[rows, np.arange(lead)] = 1.0
    u[core_rows[:, None], np.arange(lead, m)] = uc
    vh = np.zeros((n, n), dtype=a.dtype)
    vh[np.arange(lead), cols] = vals / np.abs(vals)
    vh[np.arange(lead, n)[:, None], core_cols] = vhc
    order = np.argsort(-s, kind="stable")
    return (u[:, np.concatenate([order, np.arange(s.size, m)])], s[order],
            vh[np.concatenate([order, np.arange(s.size, n)])])


def power_table(a, K: int) -> list:
    """The powers a^0..a^K as a running product, a^k = a^(k-1) a through
    ``np.matmul``.  a^1 is ``a`` itself, so treat the entries as read-only."""
    table = [np.eye(a.shape[0], dtype=a.dtype), a][:K + 1]
    for _ in range(K - 1):
        table.append(np.matmul(table[-1], a))
    return table


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
    w, v = np.linalg.eigh(_hermitian_part(a))
    return w, v


def positive_sqrt(h) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[-HERMITIAN_TOL * ||h||, 0)`` are clamped to zero; a materially
    negative eigenvalue raises ``NotPSD``.

    Returns
    -------
    (n, n) ndarray, Hermitian PSD, whose square reproduces ``h``.
    """
    return _eig_sqrt(*hermitian_eig(h))


def _eig_sqrt(w, v) -> np.ndarray:
    """``positive_sqrt`` of the matrix whose ``hermitian_eig`` is ``(w, v)``."""
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] < -HERMITIAN_TOL * scale:
        raise NotPSD(f"eigenvalue {w[0]:.3e} is materially negative")
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return _hermitian_part(root)


def polar(m, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The partial-isometry factor theta of the polar decomposition ``m = theta p``.

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
    (n, n) ndarray
        ``theta = u_r vh_r`` from the singular triplets above the cutoff: it
        maps the range of p = (m* m)^{1/2} isometrically and is zero on its
        orthogonal complement, so ``(theta* theta)^2 = theta* theta``.
    """
    a = _finite_matrix(m)
    _require_square(a)
    u, s, vh = np.linalg.svd(a)
    r = numerical_rank(s, rank_tol, s[0] if s.size else 0.0)
    return u[:, :r] @ vh[:r, :]
