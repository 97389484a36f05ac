"""Moduli subspace, the chain decomposition X_n / V_n / E_n, and the tower
of partial isometries carried by the polar decompositions of operator powers.

Truncated shifts are nilpotent, so everything that needs an injective
operator runs on the compressed window block: the leading ``window(K)``
indices, where the truncation still agrees with the infinite operator.  The
gram family used on the block is the window compression of the full-size
grams (exact where the window promises), not the grams of the compressed
matrix, whose own boundary would corrupt them.  Frames are reported in the
ambient space; residual tables are computed in block coordinates, which
makes them invariant under basis rotations of the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .commutation import _window_gram, analysis_depth, half_centered_check, kernel_of_adjoint
from .errors import NotHalfCentered, NotInjectiveOnWindow, WindowExhausted
from .linalg import numerical_rank, polar, positive_sqrt
from .operators import OperatorModel, ToleranceConfig, _memoized
from .subspaces import Subspace, extend_frame, orthonormalize, subspace_ominus, subspace_sum

__all__ = [
    "AnalysisBlock",
    "ChainDecomposition",
    "IsometryTower",
    "TowerLevel",
    "effective_depth",
    "analysis_block",
    "moduli_subspace",
    "span_closure",
    "wandering_span",
    "chain_decomposition",
    "isometry_tower",
    "verify_chain_structure",
]

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


@_memoized
def _ensure_injective_on_window(model: OperatorModel, cfg: ToleranceConfig) -> None:
    T = model.matrix
    top = np.linalg.norm(T, 2)
    if model.window_step > 0:
        block = model.window_restrict(T, model.window(1))
    else:
        block = T
    s = np.linalg.svd(block, compute_uv=False)
    smin = s[-1] if s.size else 0.0
    if smin <= cfg.rank_tol * max(top, 1e-300):
        raise NotInjectiveOnWindow(f"sigma_min {smin:.3e} on the effective window")


@dataclass
class AnalysisBlock:
    """The window-compressed stage on which injective-operator theory runs."""

    w: int
    step: int
    depth: int
    matrix: np.ndarray          # w x w compression of the operator
    powers: list                # matrix^0..depth
    grams: tuple                # window compressions of the full grams, 0..depth
    scales: tuple               # operator norm of each gram
    E: Subspace                 # kernel line in block coordinates
    embed: np.ndarray           # ambient_dim x w window basis

    def window(self, k: int) -> int:
        return max(self.w - k * self.step, 0)

    def lift(self, sub: Subspace) -> Subspace:
        """Express a block subspace in ambient coordinates."""
        return Subspace(self.embed @ sub.frame, sub.rank_tol)


@_memoized
def analysis_block(model: OperatorModel, cfg: ToleranceConfig) -> AnalysisBlock:
    """Build the compressed stage: operator block and its powers, exact gram
    compressions and their norms, and the kernel line restricted to the
    window.  Shared by every caller."""
    K = effective_depth(model, cfg)
    w = model.window(K)
    if w < 1:
        raise WindowExhausted(f"window({K}) < 1")
    embed = model.window_cols(w)
    Tb = model.window_compress(model.matrix, w)
    powers = [np.linalg.matrix_power(Tb, k) for k in range(K + 1)]
    grams, scales = zip(*(_window_gram(model, k, False, w) for k in range(K + 1)))

    E_full = kernel_of_adjoint(model, cfg)
    coords = embed.conj().T @ E_full.frame
    if E_full.dim:
        mass = float(np.min(np.linalg.norm(coords, axis=0)))
        if mass < 1.0 - 1e-8:
            raise WindowExhausted(
                f"kernel of T* loses {1.0 - mass:.1e} of its mass outside the window (limit 1e-08)"
            )
    E_blk = orthonormalize([coords], rank_tol=cfg.rank_tol)
    return AnalysisBlock(w=w, step=model.window_step, depth=K, matrix=Tb, powers=powers,
                         grams=grams, scales=scales, E=E_blk, embed=embed)


def _moduli_on_block(block: AnalysisBlock, cfg: ToleranceConfig) -> tuple[Subspace, str]:
    if block.E.dim == 0:
        return block.E, "empty"
    grams = block.grams[1:block.depth + 1]
    frame = fresh = block.E.frame
    while fresh.shape[1] and frame.shape[1] < block.w:
        fresh = extend_frame(frame, np.hstack([g @ fresh for g in grams]), cfg.rank_tol)
        frame = np.hstack([frame, fresh])
    if frame.shape[1] >= block.w:
        return Subspace(frame, cfg.rank_tol), "capped"
    # invariance certificate: max_j ||(I - P) G_j P||_2 / ||G_j||_2, P the frame's projector
    images = [g @ frame for g in grams]
    leak = max(np.linalg.svd(x - frame @ (frame.conj().T @ x), compute_uv=False)[0]
               / max(s, 1e-300) for x, s in zip(images, block.scales[1:]))
    status = "stable" if leak <= 100 * block.w * np.finfo(float).eps else "tolerance"
    return Subspace(frame, cfg.rank_tol), status


def moduli_subspace(model: OperatorModel, cfg: ToleranceConfig) -> tuple[Subspace, str]:
    """Smallest gram-invariant subspace containing ker T*, by block Krylov steps.

    Each step applies G_1..G_K on the window block to the directions the last
    one added, cut by ``extend_frame``, until a step adds nothing.  Status:
    ``"capped"`` (the frame fills the block), ``"stable"`` (max_j ||(I-P) G_j P||
    / ||G_j|| is at roundoff: certified invariant) or ``"tolerance"`` (the rank
    cut set the dimension).  The frame comes back in ambient coordinates.
    """
    block = analysis_block(model, cfg)
    sub, status = _moduli_on_block(block, cfg)
    return block.lift(sub), status


def span_closure(model: OperatorModel, cfg: ToleranceConfig,
                 seed_space: Subspace) -> tuple[Subspace, str]:
    """Closure of an ambient subspace under repeated application of T.

    Step k adds the directions of the layer T^k(seed) that the frame built
    so far lacks: one residual block per power, factored on its own (see
    ``extend_frame``).  A step costs O(N^2 m) for an m-dimensional seed and
    at most N steps add directions, so the closure of a seed of bounded
    dimension costs O(N^3).  The cut is where an SVD of the stacked
    [frame, layer] would cut, at ``cfg.rank_tol`` times the largest column
    norm of that stack; directions already in the frame are never dropped.
    The status is ``"capped"`` once the frame fills the ambient space and
    ``"stable"`` once a layer adds nothing.

    A ``"stable"`` closure below the ambient dimension is not always an
    invariant subspace: when the layers decay geometrically (or grow until
    the scale dwarfs the new directions) they fall below the cut and the
    closure stops at a dimension set by the tolerance, not by T.
    """
    frame = seed_space.frame
    layer = frame
    status = "stable"
    for _ in range(model.dim + 1):
        layer = model.matrix @ layer
        fresh = extend_frame(frame, layer, cfg.rank_tol)
        if fresh.shape[1] == 0:
            break
        frame = np.hstack([frame, fresh])
        if frame.shape[1] >= model.dim:
            status = "capped"
            break
    return Subspace(frame, cfg.rank_tol), status


def wandering_span(model: OperatorModel, cfg: ToleranceConfig) -> tuple[Subspace, str]:
    """Finite-window wandering check: the closure of ker T* under T.

    When the spans of T^k(ker T*) exhaust the space the kernel line is a
    wandering subspace for T; a closure that stalls below the ambient
    dimension exhibits the failure (the missing directions are vectors
    lying in every range T^k H, e.g. eigenvectors of T).
    """
    return span_closure(model, cfg, kernel_of_adjoint(model, cfg))


def _range_space(block: AnalysisBlock, n: int, cfg: ToleranceConfig) -> Subspace:
    """H_n: numerically significant range of the window columns of T^n.

    Only the uncorrupted leading columns of the power enter, so trailing
    nilpotent columns of a truncated shift cannot pollute the range rank.
    """
    wn = block.window(n)
    if wn < 1:
        raise WindowExhausted(f"block window({n}) < 1")
    if n == 0:
        return Subspace(np.eye(block.w, dtype=complex), cfg.rank_tol)
    return orthonormalize([block.powers[n][:, :wn]], rank_tol=cfg.rank_tol)


@dataclass(eq=False)  # compared, and memoized on, by identity
class ChainDecomposition:
    """E, M_E and the chain X_n = X_{n-1} (+) V_n of one model.

    ``chain_decomposition`` builds E, M_E, ``moduli_status``, the depth and the
    block up front.  The chain (``X``, ``V``, ``layers`` and its two ``notes``),
    the ranges ``H``, the ``defects`` and ``dims`` are built on first read,
    once per chain, and an error raised while building one of them (e.g.
    ``NotContained`` from a defect) is raised at that first read.
    """

    E: Subspace
    M_E: Subspace
    moduli_status: str
    depth: int
    block: AnalysisBlock
    cfg: ToleranceConfig
    M_E_block: Subspace         # M_E in the coordinates of block

    @cached_property
    def _chain(self) -> tuple:
        block, tol = self.block, self.cfg.rank_tol
        # layers[n] spans T^n M_E inside the block
        X, V, layers = [self.M_E_block], [self.M_E_block], [self.M_E_block]
        for n in range(1, self.depth + 1):
            layer = orthonormalize([block.matrix @ layers[-1].frame], rank_tol=tol)
            layers.append(layer)
            prev = X[-1]
            fresh = layer.frame - prev.frame @ (prev.frame.conj().T @ layer.frame)
            # frames have unit columns: judge new directions on that scale,
            # never on the residual's own (possibly dust) magnitude
            Vn = orthonormalize([fresh], rank_tol=tol, scale=1.0)
            V.append(Vn)
            X.append(subspace_sum(prev, Vn))
        vdims = [v.dim for v in V]
        notes = {"v_dims_weakly_decreasing": all(
            vdims[m] <= vdims[n] for n in range(len(vdims)) for m in range(n, len(vdims))
        )}
        # each V_n must be invariant under every gram power
        worst = 0.0
        for Vn in V:
            if Vn.dim == 0:
                continue
            for g, scale in zip(block.grams[1:], block.scales[1:]):
                image = g @ Vn.frame
                leak = image - Vn.frame @ (Vn.frame.conj().T @ image)
                worst = max(worst, float(np.linalg.norm(leak) / max(scale, 1e-300)))
        notes["gram_invariance_residual"] = worst
        lift = block.lift
        return [lift(x) for x in X], [lift(v) for v in V], [lift(s) for s in layers], notes

    X = property(lambda self: self._chain[0])
    V = property(lambda self: self._chain[1])
    layers = property(lambda self: self._chain[2])
    notes = property(lambda self: self._chain[3])

    @cached_property
    def H(self) -> list:
        """Ranges H_0..H_depth, in the coordinates of block."""
        return [_range_space(self.block, n, self.cfg) for n in range(self.depth + 1)]

    @cached_property
    def defects(self) -> list:
        """E_n = H_n (-) H_{n+1}, n < depth, in ambient coordinates."""
        H = self.H
        return [self.block.lift(subspace_ominus(H[n], H[n + 1])) for n in range(self.depth)]

    @cached_property
    def dims(self) -> dict:
        return {"E": self.E.dim, "M_E": self.M_E.dim, "X": [x.dim for x in self.X],
                "V": [v.dim for v in self.V], "defects": [d.dim for d in self.defects]}

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

    Raises NotInjectiveOnWindow when the operator fails to act injectively
    on the window (for a truncation: on the leading window columns; for an
    exact model: on the whole space).
    """
    _ensure_injective_on_window(model, cfg)
    block = analysis_block(model, cfg)
    M_E_blk, status = _moduli_on_block(block, cfg)
    return ChainDecomposition(
        E=block.lift(block.E), M_E=block.lift(M_E_blk), moduli_status=status,
        depth=block.depth, block=block, cfg=cfg, M_E_block=M_E_blk,
    )


@dataclass
class TowerLevel:
    n: int
    theta: np.ndarray
    r: np.ndarray
    residuals: dict


@dataclass
class IsometryTower:
    levels: list
    block: AnalysisBlock

    def as_dict(self) -> dict:
        return {
            "levels": [
                {"n": lvl.n, "residuals": dict(lvl.residuals)} for lvl in self.levels
            ]
        }


def isometry_tower(model: OperatorModel, cfg: ToleranceConfig) -> IsometryTower:
    """Partial isometries theta_n = polar(T^n) and their positive factors.

    Each r_n is computed twice: as the positive square root of the gram
    power, and as the descending product of conjugated square roots of the
    first gram; their disagreement is recorded per level.  The identity
    between the two routes (and between theta_n and the polar factor of
    T^n) is only claimed for half-centered operators, so the verdict is
    enforced first.
    """
    report = half_centered_check(model, cfg)
    if not report.half_centered:
        raise NotHalfCentered(
            f"half-centered residual {report.max_half_residual:.3e} exceeds tolerance"
        )
    _ensure_injective_on_window(model, cfg)
    block = analysis_block(model, cfg)
    K = block.depth
    G1 = block.grams[1]
    prev_theta = np.eye(block.w, dtype=complex)
    product = np.eye(block.w, dtype=complex)
    levels = []
    for n in range(1, K + 1):
        Tn = block.powers[n]
        theta = polar(Tn, rank_tol=cfg.rank_tol).isometry_part
        gram_n = block.grams[n]
        r_sqrt = positive_sqrt(gram_n)
        factor = positive_sqrt(prev_theta.conj().T @ G1 @ prev_theta)
        product = factor @ product
        wn = block.window(n)
        scale = max(np.linalg.norm(Tn[:wn, :wn]), 1e-300)
        proj = theta @ theta.conj().T
        residuals = {
            "reconstruct": float(np.linalg.norm((theta @ r_sqrt - Tn)[:wn, :wn]) / scale),
            "r_two_routes": float(
                np.linalg.norm((product - r_sqrt)[:wn, :wn])
                / max(np.linalg.norm(r_sqrt[:wn, :wn]), 1e-300)
            ),
            "rstar_r_vs_gram": float(
                np.linalg.norm((r_sqrt.conj().T @ r_sqrt - gram_n)[:wn, :wn])
                / max(np.linalg.norm(gram_n[:wn, :wn]), 1e-300)
            ),
            "theta_partial_isometry": float(np.linalg.norm(proj @ proj - proj)),
        }
        levels.append(TowerLevel(n=n, theta=theta, r=r_sqrt, residuals=residuals))
        prev_theta = theta
    return IsometryTower(levels=levels, block=block)


def _containment_residual(vectors: np.ndarray, space: Subspace) -> float:
    if vectors.size == 0:
        return 0.0
    leak = vectors - space.frame @ (space.frame.conj().T @ vectors)
    scale = max(np.linalg.norm(vectors), 1e-300)
    return float(np.linalg.norm(leak) / scale)


def verify_chain_structure(
    model: OperatorModel,
    chain: ChainDecomposition,
    tower: IsometryTower,
    cfg: ToleranceConfig,
) -> dict:
    """Residuals for the structural claims about the chain and the tower.

    Keys of the returned table:

    - ``space1``: containment of T V_k in V_{k+1} (+) (X_k (-) T X_{k-1}),
      and ``space1_direct_sum``: the layers reconstruct the chain span.
    - ``isisis``: the compressed maps P_{V_m} T^{m-n} : V_n -> V_m are onto
      (projection defect, plus the smallest-singular-value certificate).
    - ``jups``: sampled v in V_m with T v orthogonal to M_E land in V_{m+1}.
    - ``saknar``: the defect space E_n sits inside T^n M_E.
    - ``labann`` / ``key``: the tower factor identities, and agreement of
      polar(T^n) with the composed level-wise isometries.
    - ``fuio`` / ``fukth``: layer projections commute with the gram family;
      grams agree with range-compressed grams on deep layers.
    """
    block = chain.block
    Tb = block.matrix
    K = chain.depth
    # work with block-coordinate frames throughout
    V = [Subspace(block.embed.conj().T @ v.frame, v.rank_tol) for v in chain.V]
    X = [Subspace(block.embed.conj().T @ x.frame, x.rank_tol) for x in chain.X]
    layers = [Subspace(block.embed.conj().T @ s.frame, s.rank_tol) for s in chain.layers]
    defects = [Subspace(block.embed.conj().T @ d.frame, d.rank_tol) for d in chain.defects]
    M_E = Subspace(block.embed.conj().T @ chain.M_E.frame, chain.M_E.rank_tol)
    out: dict = {"depth": K, "dims": dict(chain.dims)}

    worst = 0.0
    complement_dims = []
    for k in range(K):
        if k == 0:
            complement = X[0]
        else:
            TXprev = orthonormalize([Tb @ X[k - 1].frame], rank_tol=cfg.rank_tol)
            complement = subspace_ominus(X[k], TXprev)
        complement_dims.append(complement.dim)
        if V[k].dim == 0:
            continue
        allowed = subspace_sum(V[k + 1], complement)
        worst = max(worst, _containment_residual(Tb @ V[k].frame, allowed))
    out["space1"] = worst
    # the complement X_k (-) T X_{k-1} carries no interpretation here; its
    # dimension is reported as-is
    out["space1_complement_dims"] = complement_dims

    P_V = [v.projector() for v in V]
    P_sum = sum(P_V, np.zeros((block.w, block.w), complex))
    out["space1_direct_sum"] = float(np.linalg.norm(P_sum - X[-1].projector()))

    power_norms = {d: float(np.linalg.norm(block.powers[d], 2)) for d in range(1, K + 1)}
    defect = 0.0
    certificate = np.inf
    for n in range(K + 1):
        for m in range(n + 1, K + 1):
            Vn, Vm = V[n], V[m]
            if Vn.dim == 0 or Vm.dim == 0:
                continue
            map_block = Vm.frame.conj().T @ block.powers[m - n] @ Vn.frame
            image_span = orthonormalize([Vm.frame @ map_block], rank_tol=cfg.rank_tol,
                                        scale=power_norms[m - n])
            defect = max(defect, _containment_residual(Vm.frame, image_span))
            s = np.linalg.svd(map_block, compute_uv=False)
            if Vm.dim <= Vn.dim and s.size and s[0] > 0:
                certificate = min(certificate, float(s[min(map_block.shape) - 1] / s[0]))
    out["isisis"] = defect
    out["isisis_sigma_min"] = None if certificate is np.inf else certificate

    worst = 0.0
    sampled = 0
    for m in range(K):
        Vm = V[m]
        if Vm.dim == 0 or V[m + 1].dim == 0:
            continue
        cross = M_E.frame.conj().T @ (Tb @ Vm.frame)
        if cross.size:
            # directions count as "T v orthogonal to M_E" relative to ||T||
            _, s, vh = np.linalg.svd(cross)
            null = vh[numerical_rank(s, cfg.rank_tol, power_norms[1]):].conj().T
        else:
            null = np.eye(Vm.dim, dtype=complex)
        if null.shape[1] == 0:
            continue
        candidates = Tb @ (Vm.frame @ null)
        keep = np.linalg.norm(candidates, axis=0) > cfg.rank_tol * power_norms[1]
        candidates = candidates[:, keep]
        if candidates.shape[1] == 0:
            continue
        worst = max(worst, _containment_residual(candidates, V[m + 1]))
        sampled += candidates.shape[1]
    out["jups"] = worst
    out["jups_samples"] = sampled

    worst = 0.0
    for n, En in enumerate(defects):
        if En.dim == 0:
            continue
        worst = max(worst, _containment_residual(En.frame, layers[n]))
    out["saknar"] = worst

    out["labann"] = max(
        (max(lvl.residuals["reconstruct"], lvl.residuals["r_two_routes"],
             lvl.residuals["rstar_r_vs_gram"]) for lvl in tower.levels),
        default=0.0,
    )

    # the compression P_{H_n} T P_{H_n} of each range, for key and fukth
    compressions = [P @ Tb @ P for P in (h.projector() for h in chain.H)]
    worst = 0.0
    composed = np.eye(block.w, dtype=complex)
    for lvl in tower.levels:
        n = lvl.n
        composed = polar(compressions[n - 1], rank_tol=cfg.rank_tol).isometry_part @ composed
        wn = block.window(n)
        scale = max(np.linalg.norm(lvl.theta[:wn, :wn]), 1e-300)
        worst = max(worst, float(np.linalg.norm((composed - lvl.theta)[:wn, :wn]) / scale))
    out["key"] = worst

    worst = 0.0
    for Vm, P in zip(V, P_V):
        if Vm.dim == 0:
            continue
        for g, scale in zip(block.grams[1:], block.scales[1:]):
            worst = max(worst, float(np.linalg.norm(P @ g - g @ P) / max(scale, 1e-300)))
    out["fuio"] = worst

    worst = 0.0
    for n in range(1, K + 1):
        for j in range(1, K - n + 1):
            cj = np.linalg.matrix_power(compressions[n], j)
            gj = cj.conj().T @ cj
            for m in range(n, K + 1):
                Vm = V[m]
                if Vm.dim == 0:
                    continue
                diff = (block.grams[j] - gj) @ Vm.frame
                worst = max(worst, float(np.linalg.norm(diff) / max(block.scales[j], 1e-300)))
    out["fukth"] = worst
    out["v_dims_weakly_decreasing"] = chain.notes["v_dims_weakly_decreasing"]
    out["gram_invariance_residual"] = chain.notes["gram_invariance_residual"]
    return out
