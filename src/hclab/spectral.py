"""Joint spectra of the commuting gram family and the structure data they
carry: the tau and beta sequences, the affine structure operator on the
moduli subspace, and the triple set linking moduli characters to characters
of the range-compressed family.

Each family holds grams compressed by ``commutation._gram_on`` (to M_E, to
each V_n); tau and the family on M_E (-) E are slices of M_E's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import ChainDecomposition
from .commutation import _gram_on
from .errors import ModuliTooSmall, NotCommuting, PreconditionViolated
from .linalg import _hermitian_part, _hermitian_view, _split_commutator_norm, _split_norm
from .operators import ToleranceConfig, _memoized
from .subspaces import orthonormalize

__all__ = [
    "JointSpectrum",
    "StructureData",
    "joint_diagonalize",
    "structure_extract",
    "enumerate_triples",
    "spectral_correspondence_check",
]


@dataclass
class JointSpectrum:
    """Characters in sorted order: row c of ``table`` holds character c's value
    on each member, and ``frames[c]`` spans its joint eigenspace."""

    table: np.ndarray
    frames: list

    def zero_tol(self, cfg: ToleranceConfig) -> float:
        """Character values at most this far from zero count as zero."""
        return cfg.rank_tol * float(np.max(np.abs(self.table), initial=1.0))


def _split_block(mats, frame, cfg, member, scale=None):
    """Recursively split an eigenvector block against remaining members.

    Eigenvalues closer than the gap cluster into one block.  The gap is set
    once, by the spectrum of the first member split (``scale`` None), and
    holds for every member after it.
    """
    if member >= len(mats) or frame.shape[1] <= 1:
        return [frame]
    comp = frame.conj().T @ mats[member] @ frame
    w, v = np.linalg.eigh(_hermitian_part(comp))
    if scale is None:
        scale = max(np.abs(w[0]), np.abs(w[-1]), 1e-300)
    refined = frame @ v
    blocks = []
    i = 0
    gap = max(cfg.rank_tol * scale, 1e4 * np.finfo(float).eps * scale)
    while i < len(w):
        j = i + 1
        while j < len(w) and w[j] - w[j - 1] <= gap:
            j += 1
        blocks.extend(_split_block(mats, refined[:, i:j], cfg, member + 1, scale))
        i = j
    return blocks


def _merge_characters(table: np.ndarray, tol_vec: np.ndarray):
    """Greedy merge of numerically identical characters.

    Row i of ``table`` joins the first earlier survivor whose own values lie
    within ``tol_vec`` of it in every column, and survives when there is
    none.  Returns the survivors' indices and the owner of every row (a
    survivor owns itself).
    """
    n = len(table)
    close = np.all(np.abs(table[:, None] - table[None]) <= tol_vec, axis=-1)
    owner, alive = np.arange(n), np.ones(n, dtype=bool)
    # only a row close to an earlier one can join; rows are settled in order
    for i in np.flatnonzero(np.tril(close, -1).any(axis=1)):
        hits = np.flatnonzero(close[i, :i] & alive[:i])
        if hits.size:
            owner[i], alive[i] = hits[0], False
    return np.flatnonzero(alive), owner


def joint_diagonalize(family, cfg: ToleranceConfig) -> JointSpectrum:
    """Simultaneous eigenstructure of a commuting Hermitian family.

    A seeded random real combination of the family is diagonalized first;
    clusters are then refined against each member in turn.  The blocks are
    stacked into one unitary frame F, and each member M gives the values of
    every block at once: the diagonal of F* M F from one product, summed per
    block and divided by its width.  One table of closeness over all pairs
    of blocks then merges characters whose value vectors coincide within the
    rank tolerance (``_merge_characters``), and the surviving characters are
    sorted by value vector for deterministic downstream reports.
    """
    mats = [np.asarray(m) for m in family]
    if not mats:
        raise ValueError("empty family")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("family members must share one square shape")
    if d == 0:
        return JointSpectrum(table=np.zeros((0, len(mats))), frames=[])
    views = [_hermitian_view(m) for m in mats]   # one symmetrization per member
    scales = [max(_split_norm(*v), 1e-300) for v in views]
    for i, a in enumerate(mats):
        if np.linalg.norm(a - a.conj().T) > cfg.commutator_tol * scales[i] * 10:
            raise NotCommuting(f"family member {i} is not Hermitian")
        for j in range(i):
            res = _split_commutator_norm(*views[i], *views[j]) / (scales[i] * scales[j])
            if res > cfg.commutator_tol * 100:
                raise NotCommuting(f"members {j} and {i} fail to commute ({res:.3e})")

    rng = np.random.default_rng(cfg.seed)
    coeffs = rng.standard_normal(len(mats))
    combo = sum(c * m for c, m in zip(coeffs, mats))
    blocks = _split_block([combo] + mats, np.eye(d, dtype=combo.dtype), cfg, 0)

    F = np.hstack(blocks)
    widths = np.array([b.shape[1] for b in blocks])
    starts = np.concatenate([[0], np.cumsum(widths[:-1])])
    diag = np.real(np.sum(F.conj() * (np.stack(mats) @ F), axis=1))  # diag(F* M F) per member
    raw = (np.add.reduceat(diag, starts, axis=1) / widths).T  # rows: blocks, cols: members

    survivors, owner = _merge_characters(raw, cfg.rank_tol * np.array(scales))
    survivors = sorted(survivors.tolist(), key=raw.tolist().__getitem__)
    frames = []
    for s in survivors:
        owned = [blocks[i] for i in np.flatnonzero(owner == s).tolist()]
        # one eigh frame is orthonormal already; a merge of several is re-spanned
        frames.append(owned[0] if len(owned) == 1 else orthonormalize(
            owned, rank_tol=cfg.rank_tol).frame)
    return JointSpectrum(table=raw[survivors], frames=frames)


@dataclass
class StructureData:
    tau: np.ndarray
    beta: np.ndarray
    beta_normalized: np.ndarray
    A_values: np.ndarray        # the affine coordinate of each M_E character
    C_values: np.ndarray        # and of each M_E (-) E character
    me_spectrum: JointSpectrum
    compressed_spectrum: JointSpectrum
    no_nonzero_beta: bool
    residuals: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "tau": self.tau.tolist(),
            "beta": self.beta.tolist(),
            "beta_normalized": self.beta_normalized.tolist(),
            "A_values": {str(k): v for k, v in enumerate(self.A_values.tolist())},
            "C_values": {str(k): v for k, v in enumerate(self.C_values.tolist())},
            "characters": self.me_spectrum.table.tolist(),
            "compressed_characters": self.compressed_spectrum.table.tolist(),
            "no_nonzero_beta": self.no_nonzero_beta,
            "residuals": dict(self.residuals),
        }


@_memoized
def _moduli_spectrum(chain: ChainDecomposition):
    """tau (None without a kernel vector), the grams 1..K on M_E by ``_gram_on``
    and their joint spectrum, kept on the chain; M_E's frame starts with E's
    column e, so tau_k = e* G_k e is the corner [0, 0] of the k-th gram."""
    me_mats = [_gram_on(chain.model, k, chain.w, chain.M_E_block.frame)
               for k in range(1, chain.depth + 1)]
    tau = np.array([1.0] + [float(np.real(m[0, 0])) for m in me_mats]) if chain.E.dim else None
    return tau, me_mats, joint_diagonalize(me_mats, chain.cfg)


def structure_extract(chain: ChainDecomposition) -> StructureData:
    """Extract tau, beta, and the affine structure of the grams on M_E of the
    chain, at its depth and tolerances.

    tau_k = e* G_k e is the corner M_k[0, 0] of the M_E family M_1..M_K of
    ``_moduli_spectrum``, and the family on M_E (-) E its trailing blocks
    M_k[1:, 1:].  beta is the difference of the two extreme characters, the
    canonical choice of the pair that the theory fixes only up to a
    constant.  The structure operator A is solved from the first power with
    a significant beta and residual-checked against all the others (``bt1``:
    the largest norm of R_k = M_k - tau_k I - beta_k A; ``wwraw``: of its
    trailing block, with A[1:, 1:]), so the affine law is an independent
    check rather than a fit artifact.
    """
    E, M_E = chain.E, chain.M_E_block
    if E.dim != 1:
        raise PreconditionViolated(f"kernel of T* has dimension {E.dim}, need 1")
    if M_E.dim < 2:
        raise ModuliTooSmall(f"dim M_E = {M_E.dim} < 2: beta is undefined")
    K, cfg = chain.depth, chain.cfg
    tau, me_mats, me_spec = _moduli_spectrum(chain)
    comp_spec = joint_diagonalize([m[E.dim:, E.dim:] for m in me_mats], cfg)

    table = me_spec.table  # rows: characters, cols: k = 1..K
    tau_vec = tau[1:]
    # affine coordinates along the character line
    devs = table - tau_vec
    _, s, vh = np.linalg.svd(devs)
    coords = devs @ (vh[0] if s[0] > 0 else np.zeros(K))
    lam_idx = int(np.argmax(coords))
    mu_idx = int(np.argmin(coords))
    beta = np.zeros(K + 1)
    beta[1:] = table[lam_idx] - table[mu_idx]

    scale = max(float(np.max(np.abs(table))), 1.0)
    sig = np.abs(beta[1:]) > cfg.spectral_match_tol * scale
    no_nonzero_beta = not bool(np.any(sig))

    beta_normalized = beta.copy()
    if not no_nonzero_beta:
        first = 1 + int(np.argmax(sig))
        beta_normalized = beta / beta[first]

    d = M_E.dim
    if no_nonzero_beta:
        A = np.zeros((d, d), dtype=me_mats[0].dtype)
    else:
        k0 = int(np.argmax(sig))  # me_mats[k0] is the depth-(k0+1) gram
        A = (me_mats[k0] - tau[k0 + 1] * np.eye(d)) / beta[k0 + 1]
        A = _hermitian_part(A)
    R = [me_mats[k] - tau[k + 1] * np.eye(d) - beta[k + 1] * A for k in range(K)]
    residuals = {"bt1": max(float(np.linalg.norm(r)) for r in R) / scale,
                 "wwraw": max(float(np.linalg.norm(r[E.dim:, E.dim:])) for r in R) / scale}

    # least-squares coefficients c with values ~= tau + c * beta, one per character
    denom = float(beta[1:] @ beta[1:])
    A_values, C_values = ((t - tau_vec) @ beta[1:] / denom if denom else np.zeros(len(t))
                          for t in (table, comp_spec.table))
    residuals["hemma1"] = float(np.max(np.abs(devs - np.outer(A_values, beta[1:]))))
    return StructureData(
        tau=tau, beta=beta, beta_normalized=beta_normalized,
        A_values=A_values, C_values=C_values,
        me_spectrum=me_spec, compressed_spectrum=comp_spec,
        no_nonzero_beta=no_nonzero_beta, residuals=residuals,
    )


def _ratio_table(spectrum: JointSpectrum, tau: np.ndarray, zero_tol: float,
                 K: int) -> np.ndarray:
    """R[c, m, k - 1]: value of character c on the k-th gram conjugated m
    tower levels down, for m = 0..K-1 (m = 0 is the gram itself).

    The ratio c_{m+k} / c_m of character values stands where |c_m| exceeds
    ``zero_tol``; a zero there forces the tau ratio tau_{m+k} / tau_m.
    Cells with m + k > K lie outside the window and are NaN.
    """
    values = np.hstack([np.ones((len(spectrum.table), 1)), spectrum.table])
    m = np.arange(K)[:, None]
    top = m + np.arange(1, K + 1)  # m + k
    inside = top <= K
    top = np.where(inside, top, 0)
    low = values[:, :K, None]  # c_m
    use_char = (m == 0) | (np.abs(low) > zero_tol)
    ratio = np.where(use_char, values[:, top] / np.where(use_char, low, 1.0),
                     tau[top] / tau[:K, None])
    return np.where(inside, ratio, np.nan)


def _match_residual(lhs: np.ndarray, rhs: np.ndarray, axis) -> np.ndarray:
    """Largest |lhs - rhs| / max(1, |rhs|) over ``axis``, skipping the NaN
    cells outside the window (0 when every cell is outside)."""
    return np.fmax.reduce(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)),
                          axis=axis, initial=0.0)


def enumerate_triples(chain: ChainDecomposition, structure: StructureData) -> list:
    """All triples (lambda, gamma, m) of ``structure_extract(chain)`` certified
    within the chain's match tolerance, in (gamma, m, lambda) order, each as
    its report row {"lambda", "gamma", "m", "residual"}.

    For each character gamma of the compressed family and each tower depth
    m, a moduli character lambda qualifies when the compressed values agree
    with the depth-shifted ratio values of lambda for every power still
    inside the window.  An empty result is a valid outcome.
    """
    me, cfg = structure.me_spectrum, chain.cfg
    ratios = _ratio_table(me, structure.tau, me.zero_tol(cfg), chain.depth)
    gammas = structure.compressed_spectrum.table
    # residual[gamma, m - 1, lambda] for m = 1..K-1
    residual = _match_residual(gammas[:, None, None, :],
                               ratios[:, 1:].transpose(1, 0, 2)[None], axis=-1)
    hits = np.argwhere(residual <= cfg.spectral_match_tol)
    return [{"lambda": li, "gamma": gi, "m": mi + 1, "residual": r}
            for (gi, mi, li), r in zip(hits.tolist(), residual[tuple(hits.T)].tolist())]


def spectral_correspondence_check(chain: ChainDecomposition) -> dict:
    """Match characters on each chain layer V_n to moduli characters.

    Both sides are evaluated through the ratio formulas: a character gamma
    on V_n should equal some moduli character lambda shifted down n tower
    levels, i.e. gamma-ratios at depth k agree with lambda-ratios at depth
    k + n.  Reports the worst best-match residual per layer.
    """
    if chain.E.dim == 0:  # then M_E and every V_n are empty
        return {"per_layer": {}, "worst": 0.0}
    K, cfg = chain.depth, chain.cfg
    tau, _, me_spec = _moduli_spectrum(chain)
    zero_tol = me_spec.zero_tol(cfg)
    lam_ratios = _ratio_table(me_spec, tau, zero_tol, K)

    layers = {}
    for n, Vn in enumerate(chain.V_block):
        if Vn.dim == 0:
            continue
        # V_0 is M_E, whose spectrum and ratios are already at hand
        gam_ratios = lam_ratios if n == 0 else _ratio_table(
            joint_diagonalize([_gram_on(chain.model, k, chain.w, Vn.frame)
                               for k in range(1, K + 1)], cfg),
            tau, zero_tol, K)
        # residual[gamma, lambda] over depths k = 0..K-1-n and powers j
        residual = _match_residual(gam_ratios[:, None, :K - n],
                                   lam_ratios[None, :, n:], axis=(2, 3))
        layers[n] = residual.min(axis=1).max()
    return {"per_layer": layers, "worst": max(layers.values(), default=0.0)}
