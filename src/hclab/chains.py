"""Moduli subspace, the chain decomposition X_n / V_n, and the tower
of partial isometries carried by the polar decompositions of operator powers.

Truncated shifts are nilpotent, so everything that needs an injective
operator runs on the window block the chain holds: the leading ``window(K)``
indices, where the truncation still agrees with the infinite operator.  The
gram family on the block is the model's window compression of the full-size
grams (exact where the window promises), not the grams of the compressed
matrix, whose own boundary would corrupt them.  Every stage reads the chain
and its ranges in block coordinates, which makes residual tables invariant
under basis rotations of the model; ambient frames are window-column lifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .commutation import (RowMap, _gram_on, _singular_pairs, _svd, _window_gram_norm,
                          _window_view, effective_depth, kernel_of_adjoint,
                          require_half_centered)
from .errors import NotContained, NotInjectiveOnWindow, WindowExhausted
from .linalg import CONTAINMENT_TOL, numerical_rank, polar, positive_sqrt, power_table
from .operators import OperatorModel, ToleranceConfig, _memoized
from .subspaces import Subspace, orthonormalize

__all__ = [
    "ChainDecomposition",
    "TowerLevel",
    "krylov_closure",
    "chain_decomposition",
    "isometry_tower",
    "verify_chain_structure",
]

def _moduli_on_block(grams: tuple, scales: tuple, E: Subspace,
                     cfg: ToleranceConfig) -> tuple[Subspace, str]:
    """M_E in block coordinates, the smallest subspace containing E that the
    grams G_1..G_K (norms ``scales``) leave invariant: one ``krylov_closure`` of
    their stack after E's frame, its first column.  Status: ``"capped"`` (the
    frame fills the block), ``"stable"`` (max_j ||(I-P) G_j P|| / ||G_j|| is at
    roundoff: certified invariant), ``"tolerance"`` (the rank cut set the
    dimension) or ``"empty"``."""
    if E.dim == 0:
        return E, "empty"
    stack = np.stack(grams[1:])
    frame, status = krylov_closure(stack, np.hstack(stack @ E.frame), max(scales[1:]),
                                   cfg.rank_tol, frame=E.frame)
    if status == "capped":
        return Subspace(frame), status
    # invariance certificate: max_j ||(I - P) G_j P||_2 / ||G_j||_2, P the frame's projector
    images = stack @ frame
    leaks = np.linalg.svd(images - frame @ (frame.conj().T @ images), compute_uv=False)[:, 0]
    leak = np.max(leaks / np.maximum(scales[1:], 1e-300))
    status = "stable" if leak <= 100 * frame.shape[0] * np.finfo(float).eps else "tolerance"
    return Subspace(frame), status


def _project_out(done: np.ndarray, done_h: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x - done @ (done_h @ x)  # one Gram-Schmidt pass


_KEEP = math.sqrt(0.5)  # a pass that leaves less of a column's norm cancelled


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a vector, bit for bit."""
    return math.sqrt(x @ x) if x.dtype.kind == "f" else float(np.linalg.norm(x))


def _walk(rows: RowMap, i: int, x: float, scale: float, rank_tol: float,
          limit: int) -> tuple[np.ndarray, str]:
    """``krylov_closure`` from an empty frame of the seed x e_i, x = +-1, under a
    weighted partial permutation (``rows`` with no ``multi`` column): Arnoldi's scalar
    arithmetic along the path i -> inv[i] -> ..., the frame assembled once.

    Step k's image is one entry at the path's k-th index, so every projection
    is exactly 0 (the frame holds nothing there) until the path meets an empty
    column (the image is 0) or returns to i (the image is a multiple of e_i,
    which the seed's +-1 removes exactly): either step adds nothing.  The rank
    cut and the edge drop are those of the loop."""
    val, inv = rows.val.tolist(), rows.inv.tolist()  # Python floats: the same IEEE arithmetic
    path, entries, low, edge, d = [], [], 0.0, None, 0
    while True:
        s = math.sqrt(x * x)
        if min(numerical_rank(s, rank_tol, scale), limit - d) == 0:
            break
        edge = (edge or d) if s <= 1e-3 * low else None
        path.append(i)
        entries.append(x / s)
        low, d = s if d else 0.0, d + 1  # the seed step sets no floor
        i = inv[i]
        if d >= limit or i < 0 or i == path[0]:
            break
        x = val[i] * entries[-1]
    d = edge or d
    frame = np.zeros((len(val), d), order="F")
    frame[path[:d], np.arange(d)] = entries[:d]
    return frame, "capped" if d >= limit else "stable"


def krylov_closure(matrix: np.ndarray | RowMap, seed: np.ndarray, scale: float,
                   rank_tol: float, frame: np.ndarray | None = None,
                   limit: int | None = None) -> tuple[np.ndarray, str]:
    """Orthonormal frame of the closure of span(frame, seed) under ``matrix``.

    Arnoldi on fresh directions (Saad, Numerical Methods for Large Eigenvalue
    Problems, 2nd ed., ch. 6), after the orthonormal ``frame``.  Step 0 adds
    the seed's directions outside it; step k applies ``matrix`` only to the
    directions step k - 1 added.  Every step cuts at ``rank_tol * scale``
    (``scale`` = ||matrix||_2).  A step projects the frame out once,
    and again while a pass removed more than 1 - 1/sqrt(2) of a column's norm
    (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976; Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 2005), three passes at most.  A
    one-wide step runs on a vector and divides by the norm it has; a wider
    one takes one SVD, a pass on its kept block and a QR.  Steps that fall
    1e3 or more below the one before and end the closure come from the
    truncation's boundary and are dropped.  Status: ``"capped"`` at ``limit``
    columns (default n), else ``"stable"``.  ``matrix`` may also be a (K, n, n)
    stack: a step then applies every member and sets the K images side by
    side, cut at the ``scale`` given (the members' largest norm), or T's
    ``RowMap`` (``commutation._band_rows``), applied by its one nonzero per
    row: an empty frame and a seed +-e_i under a map with no ``multi`` column
    then walk its path (``_walk``).
    """
    n = seed.shape[0]
    limit = n if limit is None else min(limit, n)
    frame = np.zeros((n, 0)) if frame is None else frame
    d = frame.shape[1]
    x = np.ascontiguousarray(seed[:, 0]) if seed.shape[1] == 1 else seed  # one wide: a vector
    if (isinstance(matrix, RowMap) and matrix.multi.size == 0 and d == 0 and x.ndim == 1
            and x.dtype.kind == "f"):
        at = np.flatnonzero(x)
        if at.size == 1 and abs(x[at[0]]) == 1.0:  # the seed is +-e_i
            return _walk(matrix, int(at[0]), float(x[at[0]]), scale, rank_tol, limit)
    buf = np.empty((n, n), dtype=np.result_type(matrix.dtype, seed, frame), order="F")
    buf_h = np.empty((n, n), dtype=buf.dtype)  # buf's adjoint, kept row by row
    buf[:, :d], buf_h[:d] = frame, frame.conj().T
    low, edge = 0.0, None
    while True:
        done, done_h, vector = buf[:, :d], buf_h[:d], x.ndim == 1
        if vector:
            resid, s = x, _norm(x)
            for _ in range(3):
                resid, before = _project_out(done, done_h, resid), s
                s = _norm(resid)
                if s >= _KEEP * before:  # nothing cancelled: no repeat
                    break
        else:
            resid, s = x, np.linalg.norm(x, axis=0)
            for _ in range(2):  # the third pass is on the kept block
                resid, before = _project_out(done, done_h, resid), s
                s = np.linalg.norm(resid, axis=0)
                if (s >= _KEEP * before).all():
                    break
            u, s = np.linalg.svd(resid, full_matrices=False)[:2]
        r = min(numerical_rank(s, rank_tol, scale), limit - d)
        if r == 0:
            break
        top, bottom = (s, s) if vector else (s[0], s[r - 1])
        edge = (edge or d) if top <= 1e-3 * low else None  # the width before the drops
        buf[:, d:d + r] = (resid[:, None] / s if vector
                           else np.linalg.qr(_project_out(done, done_h, u[:, :r]))[0])
        buf_h[d:d + r] = buf[:, d:d + r].conj().T
        low = bottom if d > frame.shape[1] else 0.0  # the seed step sets no floor
        d += r
        if d >= limit:
            break
        new = buf[:, d - r:d]
        if matrix.ndim == 3:
            x = np.hstack(matrix @ new)
            x = x[:, 0] if x.shape[1] == 1 else x
        else:
            x = matrix @ (new[:, 0] if r == 1 else new)
    d = edge or d
    return buf[:, :d], "capped" if d >= limit else "stable"


def _range_space(chain: ChainDecomposition, n: int) -> Subspace:
    """H_n: numerically significant range of the window columns of T^n.

    Only the uncorrupted leading columns of the power enter, so trailing
    nilpotent columns of a truncated shift cannot pollute the range rank.
    """
    wn = chain.model.window(chain.depth + n)
    if wn < 1:
        raise WindowExhausted(f"block window({n}) < 1")
    if n == 0:
        return Subspace(np.eye(chain.w, dtype=chain.matrix.dtype))
    return orthonormalize([chain.powers[n][:, :wn]], rank_tol=chain.cfg.rank_tol)


@dataclass(eq=False)  # compared, and memoized on, by identity
class ChainDecomposition:
    """E, M_E and the chain X_n = X_{n-1} (+) V_n of one model, on its window block.

    The block is the leading window, w = window(depth), and block window n is
    ``model.window(depth + n)``.  ``matrix`` is T_b, the w x w compression of
    T, and ``grams`` and ``scales`` are the model's memoized window views of
    G_0..G_depth and their norms.  ``chain_decomposition`` builds these, E,
    ``M_E_block`` and ``moduli_status``; ``powers`` T_b^0..T_b^depth, the chain
    (``X_block``, ``V_block``, ``layers_block``, ``notes``), the ranges ``H``
    and ``dims`` are built on first read, once per chain.
    ``dims["defects"]`` holds dim H_n - dim H_{n+1} (at least 0) for n < depth.
    Nothing here is ambient: a block frame F lifts to ``model.window_cols(w) @ F``.
    Every later stage takes the chain alone and reads ``model`` and ``cfg`` off it.
    """

    model: OperatorModel
    cfg: ToleranceConfig
    depth: int
    w: int
    matrix: np.ndarray          # T_b
    E: Subspace                 # kernel line of T* in block coordinates
    grams: tuple                # window views of the full grams, 0..depth
    scales: tuple               # operator norm of each gram
    moduli_status: str
    M_E_block: Subspace
    _memo: dict = field(default_factory=dict, init=False, repr=False)  # for _memoized

    @cached_property
    def powers(self) -> list:
        """T_b^0..T_b^depth, formed on first read: the ranges, the tower and
        the structural suite read them, ``classify`` and ``spectral`` never."""
        return power_table(self.matrix, self.depth)

    @cached_property
    def _chain(self) -> tuple:
        tol = self.cfg.rank_tol
        # layers[n] spans T^n M_E inside the block
        X, V, layers = [self.M_E_block], [self.M_E_block], [self.M_E_block]
        for n in range(1, self.depth + 1):
            layer = orthonormalize([self.matrix @ layers[-1].frame], rank_tol=tol)
            layers.append(layer)
            prev = X[-1]
            fresh = layer.frame - prev.frame @ (prev.frame.conj().T @ layer.frame)
            # frames have unit columns: judge new directions on that scale,
            # never on the residual's own (possibly dust) magnitude
            Vn = orthonormalize([fresh], rank_tol=tol, scale=1.0)
            V.append(Vn)
            X.append(orthonormalize([prev.frame, Vn.frame], rank_tol=tol) if Vn.dim else prev)
        notes = {"v_dims_weakly_decreasing": all(b.dim <= a.dim for a, b in zip(V, V[1:]))}
        # each V_n must be invariant under every gram power
        worst = 0.0
        for Vn in V:
            if Vn.dim == 0:
                continue
            for g, scale in zip(self.grams[1:], self.scales[1:]):
                image = g @ Vn.frame
                leak = image - Vn.frame @ (Vn.frame.conj().T @ image)
                worst = max(worst, float(np.linalg.norm(leak) / max(scale, 1e-300)))
        notes["gram_invariance_residual"] = worst
        return X, V, layers, notes

    X_block = property(lambda self: self._chain[0])
    V_block = property(lambda self: self._chain[1])
    layers_block = property(lambda self: self._chain[2])
    notes = property(lambda self: self._chain[3])

    @cached_property
    def H(self) -> list:
        """Ranges H_0..H_depth, in block coordinates."""
        return [_range_space(self, n) for n in range(self.depth + 1)]

    @cached_property
    def dims(self) -> dict:
        return {"E": self.E.dim, "M_E": self.M_E_block.dim,
                "X": [x.dim for x in self.X_block], "V": [v.dim for v in self.V_block],
                "defects": [max(a.dim - b.dim, 0) for a, b in zip(self.H, self.H[1:])]}

    def as_dict(self) -> dict:
        return {
            "depth": self.depth,
            "moduli_status": self.moduli_status,
            "dims": dict(self.dims),
            "notes": dict(self.notes),
        }


def chain_decomposition(model: OperatorModel, cfg: ToleranceConfig) -> ChainDecomposition:
    """E, M_E and, on first read, the chain X_n = X_{n-1} (+) V_n up to the
    usable depth (see ``ChainDecomposition`` for what is built when).

    Raises, in this order: WindowExhausted when window(1) is empty,
    NotInjectiveOnWindow when the operator fails to act injectively on it
    (for a truncation: on the leading window columns; for an exact model: on
    the whole space), and WindowExhausted when window(depth) is empty or the
    kernel of T* loses mass outside it.
    """
    w = model.window(1)
    if w < 1:
        raise WindowExhausted("window(1) < 1")
    top = _singular_pairs(model)[1][0]
    s = _svd(model, model.window_restrict(model.matrix, w), compute_uv=False)
    if numerical_rank(s, cfg.rank_tol, top) < s.size:
        raise NotInjectiveOnWindow(f"sigma_min {s[-1]:.3e} on the effective window is not above "
                                   f"the cutoff {cfg.rank_tol * max(top, 1e-300):.3e} "
                                   "(rank_tol * ||T||_2)")
    K = effective_depth(model, cfg)
    w = model.window(K)
    if w < 1:
        raise WindowExhausted(f"window({K}) < 1")
    E_full = kernel_of_adjoint(model, cfg)
    coords = model.window_cols(w).conj().T @ E_full.frame
    if E_full.dim:
        mass = float(np.min(np.linalg.norm(coords, axis=0)))
        if mass < 1.0 - 1e-8:
            raise WindowExhausted(
                f"kernel of T* loses {1.0 - mass:.1e} of its mass outside the window (limit 1e-08)"
            )
    E = orthonormalize([coords], rank_tol=cfg.rank_tol)
    grams = tuple(_window_view(model, k, False, w)[0] for k in range(K + 1))
    scales = tuple(_window_gram_norm(model, k, False, w) for k in range(K + 1))
    M_E, status = _moduli_on_block(grams, scales, E, cfg)
    return ChainDecomposition(model, cfg, K, w, model.window_compress(model.matrix, w), E,
                              grams, scales, status, M_E)


@dataclass
class TowerLevel:
    n: int
    theta: np.ndarray
    residuals: dict


def _corner_residual(diff: np.ndarray, wn: int, whole: np.ndarray) -> float:
    """||diff[:wn, :wn]||_F / ||whole||_F: a claim read on the corner the
    window certifies, on the scale of its whole factor.  The corner's own
    norm is no scale: at the levels with wn <= n it holds almost none of
    T_b^n, and for a shift exactly none."""
    return float(np.linalg.norm(diff[:wn, :wn]) / max(np.linalg.norm(whole), 1e-300))


@_memoized
def isometry_tower(chain: ChainDecomposition) -> list[TowerLevel]:
    """The levels n = 1..depth of the chain's tower: theta_n = polar(T_b^n) and
    r_n = (T_b*^n T_b^n)^{1/2}, the positive square root of the block gram.

    Each level records two claims, each read on the corner
    ``[:wn, :wn]`` that window(n) certifies and divided by the Frobenius
    norm of its whole factor: ``reconstruct``, theta_n r_n = T_b^n over
    ||T_b^n||_F, and ``r_two_routes``, r_n against the descending product of
    the square roots of theta_{k-1}* G_1 theta_{k-1}, k = 1..n, over
    ||r_n||_F.  That r_n squares to the gram and theta_n is a partial
    isometry hold by construction and are tested in ``linalg``.  The
    identities are only claimed for half-centered operators, so the verdict
    is enforced first.  Built once per chain; ``verify_chain_structure``
    reads the same levels.
    """
    require_half_centered(chain.model, chain.cfg)
    prev_theta = product = np.eye(chain.w, dtype=chain.matrix.dtype)
    levels = []
    for n in range(1, chain.depth + 1):
        Tn = chain.powers[n]
        theta = polar(Tn, rank_tol=chain.cfg.rank_tol)
        r = positive_sqrt(chain.grams[n])
        product = positive_sqrt(_gram_on(chain.model, 1, chain.w, prev_theta)) @ product
        wn = chain.model.window(chain.depth + n)
        residuals = {"reconstruct": _corner_residual(theta @ r - Tn, wn, Tn),
                     "r_two_routes": _corner_residual(product - r, wn, r)}
        levels.append(TowerLevel(n=n, theta=theta, residuals=residuals))
        prev_theta = theta
    return levels


def verify_chain_structure(chain: ChainDecomposition) -> dict:
    """Residuals for the structural claims about the chain and its tower,
    built first (so the tower's gate comes before any claim).

    Keys of the returned table:

    - ``space1``: containment of T V_k in V_{k+1} (+) (X_k (-) T X_{k-1}),
      and ``space1_direct_sum``: the layers reconstruct the chain span.
      Raises ``NotContained`` when T X_{k-1} sticks out of X_k beyond
      ``CONTAINMENT_TOL``.
    - ``isisis``: the compressed maps P_{V_m} T^{m-n} : V_n -> V_m are onto.
      A map of numerical rank r leaves sqrt((dim V_m - r) / dim V_m) of V_m
      outside its image (0.0 when every map is onto); ``isisis_sigma_min``
      is the smallest-singular-value certificate.
    - ``jups``: sampled v in V_m with T v orthogonal to M_E land in V_{m+1}.
    - ``saknar``: the defect space E_n = H_n (-) H_{n+1} sits inside T^n M_E:
      ||(I - P_{T^n M_E}) (P_{H_n} - P_{H_{n+1}})||_F / sqrt(dim H_n - dim H_{n+1}).
    - ``labann``: the largest tower residual of ``isometry_tower``
      (``reconstruct`` and ``r_two_routes``), each read on the corner
      ``[:wn, :wn]`` that window(n) certifies, over the Frobenius norm of
      its whole factor, T_b^n or r_n.
    - ``key``: theta_n against the composed isometries polar(P_{H_{k-1}} T_b
      P_{H_{k-1}}), k = 1..n, read on the same corner, over ||theta_n||_F.
    - ``fuio`` / ``fukth``: layer projections commute with the gram family;
      grams agree with range-compressed grams on deep layers.  For Hermitian
      G and P = V V*, ||P G - G P||_F = sqrt(2) ||(I - P) G V||_F (Stewart &
      Sun, Matrix Perturbation Theory, ch. V), so ``fuio`` is sqrt(2) times
      the chain's ``gram_invariance_residual``.
    """
    tower = isometry_tower(chain)
    cfg, Tb, K = chain.cfg, chain.matrix, chain.depth
    V, X, M_E = chain.V_block, chain.X_block, chain.M_E_block
    out: dict = {"depth": K, "dims": dict(chain.dims)}

    # V_{k+1} is orthogonal to X_k, so V_{k+1} (+) (X_k (-) T X_{k-1}) is
    # X_{k+1} (-) T X_{k-1}, with projector P_{X_{k+1}} - P_{T X_{k-1}}
    worst = 0.0
    complement_dims = [X[0].dim]
    TXprev = np.zeros((chain.w, 0), dtype=Tb.dtype)  # T X_{-1} = 0
    for k in range(K):
        if k:
            TXprev = orthonormalize([Tb @ X[k - 1].frame], rank_tol=cfg.rank_tol).frame
            leak = np.linalg.norm(TXprev - X[k].frame @ (X[k].frame.conj().T @ TXprev))
            limit = CONTAINMENT_TOL * max(1.0, np.sqrt(TXprev.shape[1]))
            if leak > limit:
                raise NotContained(f"T X_{k - 1} leaks out of X_{k} by {leak:.3e} "
                                   f"(limit {limit:.1e})")
            complement_dims.append(max(X[k].dim - TXprev.shape[1], 0))
        if V[k].dim == 0:
            continue
        image = Tb @ V[k].frame
        Xn = X[k + 1].frame
        leak = image - Xn @ (Xn.conj().T @ image) + TXprev @ (TXprev.conj().T @ image)
        worst = max(worst, float(np.linalg.norm(leak) / max(np.linalg.norm(image), 1e-300)))
    out["space1"] = worst
    # the complement X_k (-) T X_{k-1} carries no interpretation here; its
    # dimension is reported as-is
    out["space1_complement_dims"] = complement_dims

    P_sum = sum((v.projector() for v in V), np.zeros((chain.w, chain.w), Tb.dtype))
    out["space1_direct_sum"] = float(np.linalg.norm(P_sum - X[-1].projector()))

    power_norms = {d: float(np.linalg.norm(chain.powers[d], 2)) for d in range(1, K + 1)}
    defect = 0.0
    certificate = np.inf
    for n in range(K + 1):
        for m in range(n + 1, K + 1):
            Vn, Vm = V[n], V[m]
            if Vn.dim == 0 or Vm.dim == 0:
                continue
            map_block = Vm.frame.conj().T @ chain.powers[m - n] @ Vn.frame
            s = np.linalg.svd(map_block, compute_uv=False)
            r = numerical_rank(s, cfg.rank_tol, power_norms[m - n])
            defect = max(defect, float(np.sqrt((Vm.dim - r) / Vm.dim)))
            if Vm.dim <= Vn.dim and s[0] > 0:
                certificate = min(certificate, float(s[-1] / s[0]))
    out["isisis"] = defect
    out["isisis_sigma_min"] = None if certificate is np.inf else certificate

    worst = 0.0
    sampled = 0
    for m in range(K):
        Vm = V[m]
        if Vm.dim == 0 or V[m + 1].dim == 0:
            continue
        # directions count as "T v orthogonal to M_E" relative to ||T||; V_m and
        # M_E, which it grows from, are nonempty, so the product is too
        _, s, vh = np.linalg.svd(M_E.frame.conj().T @ (Tb @ Vm.frame))
        null = vh[numerical_rank(s, cfg.rank_tol, power_norms[1]):].conj().T
        if null.shape[1] == 0:
            continue
        candidates = Tb @ (Vm.frame @ null)
        keep = np.linalg.norm(candidates, axis=0) > cfg.rank_tol * power_norms[1]
        candidates = candidates[:, keep]
        if candidates.shape[1] == 0:
            continue
        leak = candidates - V[m + 1].frame @ (V[m + 1].frame.conj().T @ candidates)
        worst = max(worst, float(np.linalg.norm(leak) / max(np.linalg.norm(candidates), 1e-300)))
        sampled += candidates.shape[1]
    out["jups"] = worst
    out["jups_samples"] = sampled

    out["labann"] = max((max(lvl.residuals["reconstruct"], lvl.residuals["r_two_routes"])
                         for lvl in tower), default=0.0)

    # one projector per range: the defect E_n = H_n (-) H_{n+1} has projector
    # P_{H_n} - P_{H_{n+1}}, and P_{H_n} T P_{H_n} feeds key and fukth
    P_H = [h.projector() for h in chain.H]
    worst = 0.0
    for n, d in enumerate(chain.dims["defects"]):
        if d:
            P_E, L = P_H[n] - P_H[n + 1], chain.layers_block[n].frame
            leak = P_E - L @ (L.conj().T @ P_E)
            worst = max(worst, float(np.linalg.norm(leak) / np.sqrt(d)))
    out["saknar"] = worst

    compressions = [P @ Tb @ P for P in P_H]
    worst = 0.0
    composed = np.eye(chain.w, dtype=Tb.dtype)
    for lvl in tower:
        composed = polar(compressions[lvl.n - 1], rank_tol=cfg.rank_tol) @ composed
        wn = chain.model.window(K + lvl.n)
        worst = max(worst, _corner_residual(composed - lvl.theta, wn, lvl.theta))
    out["key"] = worst

    # for Hermitian G and P = V V*, ||P G - G P||_F = sqrt(2) ||(I - P) G V||_F
    out["fuio"] = float(np.sqrt(2.0) * chain.notes["gram_invariance_residual"])

    worst = 0.0
    for n in range(1, K + 1):
        for j, cj in enumerate(power_table(compressions[n], K - n)[1:], start=1):
            gj = cj.conj().T @ cj
            for m in range(n, K + 1):
                Vm = V[m]
                if Vm.dim == 0:
                    continue
                diff = (chain.grams[j] - gj) @ Vm.frame
                worst = max(worst, float(np.linalg.norm(diff) / max(chain.scales[j], 1e-300)))
    out["fukth"] = worst
    out["v_dims_weakly_decreasing"] = chain.notes["v_dims_weakly_decreasing"]
    out["gram_invariance_residual"] = chain.notes["gram_invariance_residual"]
    return out
