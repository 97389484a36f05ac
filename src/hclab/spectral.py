"""Joint spectra of the commuting gram family and the structure data they
carry: the tau and beta sequences, the affine structure operator on the
moduli subspace, and the triple set linking moduli characters to characters
of the range-compressed family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import ChainDecomposition
from .commutation import gram_power
from .errors import ModuliTooSmall, NotCommuting, PreconditionViolated
from .operators import OperatorModel, ToleranceConfig
from .subspaces import orthonormalize, subspace_ominus

__all__ = [
    "Character",
    "JointSpectrum",
    "StructureData",
    "TripleRecord",
    "joint_diagonalize",
    "structure_extract",
    "enumerate_triples",
    "spectral_correspondence_check",
]


@dataclass
class Character:
    """A joint eigenvalue functional: one value per family member."""

    values: np.ndarray
    frame: np.ndarray
    multiplicity: int

    def value(self, k: int) -> float:
        """Value on the k-th member, with k = 0 meaning the identity."""
        if k == 0:
            return 1.0
        return float(self.values[k - 1])


@dataclass
class JointSpectrum:
    characters: list
    dim: int

    def value_table(self) -> np.ndarray:
        return np.array([c.values for c in self.characters])

    def zero_tol(self, cfg: ToleranceConfig) -> float:
        """Character values at most this far from zero count as zero."""
        return cfg.rank_tol * max(
            float(np.max(np.abs(self.value_table()))) if self.characters else 1.0, 1.0
        )


def _split_block(mats, frame, cfg, member, scale=None):
    """Recursively split an eigenvector block against remaining members.

    Eigenvalues closer than the gap cluster into one block.  The gap is set
    once, by the spectrum of the first member split (``scale`` None), and
    holds for every member after it.
    """
    if member >= len(mats) or frame.shape[1] <= 1:
        return [frame]
    comp = frame.conj().T @ mats[member] @ frame
    w, v = np.linalg.eigh((comp + comp.conj().T) / 2.0)
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


def joint_diagonalize(family, cfg: ToleranceConfig) -> JointSpectrum:
    """Simultaneous eigenstructure of a commuting Hermitian family.

    A seeded random real combination of the family is diagonalized first;
    clusters are then refined against each member in turn.  Characters whose
    value vectors coincide within the rank tolerance are merged, and the
    surviving characters are sorted by value vector for deterministic
    downstream reports.
    """
    mats = [np.asarray(m, dtype=complex) for m in family]
    if not mats:
        raise ValueError("empty family")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("family members must share one square shape")
    if d == 0:
        return JointSpectrum(characters=[], dim=0)
    scales = [max(np.linalg.norm(m, 2), 1e-300) for m in mats]
    for i, a in enumerate(mats):
        if np.linalg.norm(a - a.conj().T) > cfg.commutator_tol * scales[i] * 10:
            raise NotCommuting(f"family member {i} is not Hermitian")
        for j in range(i):
            b = mats[j]
            res = np.linalg.norm(a @ b - b @ a) / (scales[i] * scales[j])
            if res > cfg.commutator_tol * 100:
                raise NotCommuting(f"members {j} and {i} fail to commute ({res:.3e})")

    rng = np.random.default_rng(cfg.seed)
    coeffs = rng.standard_normal(len(mats))
    combo = sum(c * m for c, m in zip(coeffs, mats))
    blocks = _split_block([combo] + mats, np.eye(d, dtype=complex), cfg, 0)

    raw = []
    for frame in blocks:
        vals = np.array([
            float(np.real(np.trace(frame.conj().T @ m @ frame)) / frame.shape[1])
            for m in mats
        ])
        raw.append((vals, frame))

    # merge numerically identical characters
    merged: list[list] = []
    tol_vec = np.array([cfg.rank_tol * s for s in scales])
    for vals, frame in raw:
        for entry in merged:
            if np.all(np.abs(entry[0] - vals) <= tol_vec):
                entry[1].append(frame)
                break
        else:
            merged.append([vals, [frame]])

    characters = []
    for vals, frames in merged:
        stacked = orthonormalize(frames, rank_tol=cfg.rank_tol)
        characters.append(Character(values=vals, frame=stacked.frame,
                                    multiplicity=stacked.dim))
    characters.sort(key=lambda c: tuple(c.values))
    return JointSpectrum(characters=characters, dim=d)


@dataclass
class StructureData:
    tau: np.ndarray
    beta: np.ndarray
    beta_normalized: np.ndarray
    A: np.ndarray
    C: np.ndarray
    A_values: dict
    C_values: dict
    me_spectrum: JointSpectrum
    compressed_spectrum: JointSpectrum
    lambda_index: int
    mu_index: int
    no_nonzero_beta: bool
    residuals: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "tau": self.tau.tolist(),
            "beta": self.beta.tolist(),
            "beta_normalized": self.beta_normalized.tolist(),
            "A_values": {str(k): v for k, v in self.A_values.items()},
            "C_values": {str(k): v for k, v in self.C_values.items()},
            "characters": [c.values.tolist() for c in self.me_spectrum.characters],
            "compressed_characters": [c.values.tolist() for c in self.compressed_spectrum.characters],
            "no_nonzero_beta": self.no_nonzero_beta,
            "residuals": dict(self.residuals),
        }


def _affine_fit(values: np.ndarray, tau: np.ndarray, beta: np.ndarray) -> float:
    """Least-squares coefficient c with values ~= tau + c * beta."""
    denom = float(beta @ beta)
    if denom == 0:
        return 0.0
    return float(beta @ (values - tau)) / denom


def _moduli_spectrum(model: OperatorModel, chain: ChainDecomposition, cfg: ToleranceConfig):
    """Grams 1..K, tau (None without a kernel vector), the grams compressed
    to M_E and their joint spectrum."""
    grams = [gram_power(model, k) for k in range(1, chain.depth + 1)]
    tau = None
    if chain.E.dim:
        e = chain.E.frame[:, 0]
        tau = np.array([1.0] + [float(np.real(e.conj() @ g @ e)) for g in grams])
    ME = chain.M_E.frame
    me_mats = [ME.conj().T @ g @ ME for g in grams]
    return grams, tau, me_mats, joint_diagonalize(me_mats, cfg)


def structure_extract(model: OperatorModel, chain: ChainDecomposition,
                      cfg: ToleranceConfig) -> StructureData:
    """Extract tau, beta, and the affine structure of the grams on M_E.

    tau_k is the diagonal matrix element of the k-th gram at the unit kernel
    vector.  beta is the difference of the two extreme characters, the
    canonical choice of the pair that the theory fixes only up to a
    constant.  The structure operator A is solved from the first power with
    a significant beta and residual-checked against all the others, so the
    affine law is an independent check rather than a fit artifact.
    """
    if chain.E.dim != 1:
        raise PreconditionViolated(f"kernel of T* has dimension {chain.E.dim}, need 1")
    if chain.M_E.dim < 2:
        raise ModuliTooSmall(f"dim M_E = {chain.M_E.dim} < 2: beta is undefined")
    K = chain.depth
    grams, tau, me_mats, me_spec = _moduli_spectrum(model, chain, cfg)

    MEoE = subspace_ominus(chain.M_E, chain.E)
    F = MEoE.frame
    comp_mats = [F.conj().T @ g @ F for g in grams]
    comp_spec = joint_diagonalize(comp_mats, cfg)

    table = me_spec.value_table()  # rows: characters, cols: k = 1..K
    tau_vec = tau[1:]
    # affine coordinates along the character line
    devs = table - tau_vec
    if devs.size:
        _, s, vh = np.linalg.svd(devs)
        direction = vh[0] if s[0] > 0 else np.zeros(K)
        coords = devs @ direction
    else:
        coords = np.zeros(len(me_spec.characters))
    lam_idx = int(np.argmax(coords))
    mu_idx = int(np.argmin(coords))
    beta = np.zeros(K + 1)
    beta[1:] = table[lam_idx] - table[mu_idx]

    scale = float(np.max(np.abs(table))) if table.size else 1.0
    sig = np.abs(beta[1:]) > cfg.spectral_match_tol * max(scale, 1.0)
    no_nonzero_beta = not bool(np.any(sig))

    beta_normalized = beta.copy()
    if not no_nonzero_beta:
        first = 1 + int(np.argmax(sig))
        beta_normalized = beta / beta[first]

    d = chain.M_E.dim
    residuals = {}
    if no_nonzero_beta:
        A = np.zeros((d, d), dtype=complex)
    else:
        k0 = int(np.argmax(sig))  # me_mats[k0] is the depth-(k0+1) gram
        A = (me_mats[k0] - tau[k0 + 1] * np.eye(d)) / beta[k0 + 1]
        A = (A + A.conj().T) / 2.0
    residuals["bt1"] = max(
        float(
            np.linalg.norm(me_mats[k] - tau[k + 1] * np.eye(d) - beta[k + 1] * A)
            / max(scale, 1.0)
        )
        for k in range(K)
    )

    # compression of A to M_E (-) E, in the coordinates of that subspace
    coords_F = chain.M_E.frame.conj().T @ F
    C = coords_F.conj().T @ A @ coords_F
    C = (C + C.conj().T) / 2.0
    if comp_mats:
        dC = F.shape[1]
        residuals["wwraw"] = max(
            float(
                np.linalg.norm(comp_mats[k] - tau[k + 1] * np.eye(dC) - beta[k + 1] * C)
                / max(scale, 1.0)
            )
            for k in range(K)
        ) if dC else 0.0

    A_values = {
        i: _affine_fit(c.values, tau_vec, beta[1:]) for i, c in enumerate(me_spec.characters)
    }
    C_values = {
        i: _affine_fit(c.values, tau_vec, beta[1:]) for i, c in enumerate(comp_spec.characters)
    }
    residuals["hemma1"] = max(
        (
            float(np.max(np.abs(c.values - tau_vec - A_values[i] * beta[1:])))
            for i, c in enumerate(me_spec.characters)
        ),
        default=0.0,
    )
    return StructureData(
        tau=tau, beta=beta, beta_normalized=beta_normalized, A=A, C=C,
        A_values=A_values, C_values=C_values,
        me_spectrum=me_spec, compressed_spectrum=comp_spec,
        lambda_index=lam_idx, mu_index=mu_idx,
        no_nonzero_beta=no_nonzero_beta, residuals=residuals,
    )


@dataclass
class TripleRecord:
    lambda_char: int
    gamma_char: int
    m: int
    match_residual: float

    def as_dict(self) -> dict:
        return {
            "lambda": self.lambda_char,
            "gamma": self.gamma_char,
            "m": self.m,
            "residual": self.match_residual,
        }


def _tower_ratio(char_values, tau, m, k, zero_tol):
    """Character value of the m-th tower conjugate on the k-th gram, with
    m = 0 meaning the gram itself.

    Uses the ratio of character values when the depth-m value is away from
    zero; a zero there forces the tau-ratio form instead (0 without tau).
    """
    if m == 0:
        return char_values[k - 1]
    lm = char_values[m - 1]
    if abs(lm) > zero_tol:
        return char_values[m + k - 1] / lm
    return 0.0 if tau is None else tau[m + k] / tau[m]


def enumerate_triples(model: OperatorModel, chain: ChainDecomposition,
                      structure: StructureData, cfg: ToleranceConfig) -> list:
    """All triples (lambda, gamma, m) certified within the match tolerance.

    For each character gamma of the compressed family and each tower depth
    m, a moduli character lambda qualifies when the compressed values agree
    with the depth-shifted ratio values of lambda for every power still
    inside the window.  An empty result is a valid outcome.
    """
    K = chain.depth
    tau = structure.tau
    zero_tol = structure.me_spectrum.zero_tol(cfg)
    triples = []
    for gi, gamma in enumerate(structure.compressed_spectrum.characters):
        for m in range(1, K):
            for li, lam in enumerate(structure.me_spectrum.characters):
                residual = 0.0
                for k in range(1, K - m + 1):
                    lhs = gamma.values[k - 1]
                    rhs = _tower_ratio(lam.values, tau, m, k, zero_tol)
                    residual = max(residual, abs(lhs - rhs) / max(1.0, abs(rhs)))
                if residual <= cfg.spectral_match_tol:
                    triples.append(TripleRecord(
                        lambda_char=li, gamma_char=gi, m=m, match_residual=residual,
                    ))
    triples.sort(key=lambda t: (t.gamma_char, t.m, t.lambda_char))
    return triples


def spectral_correspondence_check(model: OperatorModel, chain: ChainDecomposition,
                                  cfg: ToleranceConfig) -> dict:
    """Match characters on each chain layer V_n to moduli characters.

    Both sides are evaluated through the ratio formulas: a character gamma
    on V_n should equal some moduli character lambda shifted down n tower
    levels, i.e. gamma-ratios at depth k agree with lambda-ratios at depth
    k + n.  Reports the worst best-match residual per layer.
    """
    K = chain.depth
    grams, tau, _, me_spec = _moduli_spectrum(model, chain, cfg)
    zero_tol = me_spec.zero_tol(cfg)

    layers = {}
    worst = 0.0
    for n in range(min(K, len(chain.V) - 1) + 1):
        Vn = chain.V[n]
        if Vn.dim == 0:
            continue
        # V_0 is M_E, whose spectrum is already at hand
        spec_n = me_spec if n == 0 else \
            joint_diagonalize([Vn.frame.conj().T @ g @ Vn.frame for g in grams], cfg)
        layer_worst = 0.0
        for gamma in spec_n.characters:
            best = np.inf
            for lam in me_spec.characters:
                res = 0.0
                for k in range(0, K):
                    for j in range(1, K - k - n + 1):
                        lhs = _tower_ratio(gamma.values, tau, k, j, zero_tol)
                        rhs = _tower_ratio(lam.values, tau, k + n, j, zero_tol)
                        res = max(res, abs(lhs - rhs) / max(1.0, abs(rhs)))
                best = min(best, res)
            layer_worst = max(layer_worst, best)
        layers[n] = layer_worst
        worst = max(worst, layer_worst)
    return {"per_layer": layers, "worst": worst}
