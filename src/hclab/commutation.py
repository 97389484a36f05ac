"""Gram powers T*^k T^k and the commutation verdicts built from them.

An operator is half-centered when its gram powers pairwise commute, and
centered when the doubly infinite family including the co-grams T^k T*^k
commutes as well.  On a truncation, the commutator of a pair (j, k) is only
meaningful on the leading ``window(j + k)`` block, so every residual here is
computed on that block and scaled by the product of the factors' norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WindowExhausted
from .operators import OperatorModel, ToleranceConfig, _memoized
from .subspaces import Subspace, orthonormalize

__all__ = [
    "CommutationReport",
    "CriterionReport",
    "analysis_depth",
    "gram_power",
    "co_gram_power",
    "half_centered_check",
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


@_memoized
def _power_product(model: OperatorModel, k: int, outer: bool) -> np.ndarray:
    """T*^k T^k, or T^k T*^k when ``outer``; the identity for k = 0."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if model.window(k) < 1:
        raise WindowExhausted(f"window({k}) = {model.window(k)} < 1")
    if k == 0:
        return np.eye(model.dim, dtype=complex)
    p = model.power(k)
    g = p @ p.conj().T if outer else p.conj().T @ p
    return (g + g.conj().T) / 2.0


def gram_power(model: OperatorModel, k: int) -> np.ndarray:
    """The positive matrix T*^k T^k; the identity for k = 0."""
    return _power_product(model, k, False)


def co_gram_power(model: OperatorModel, k: int) -> np.ndarray:
    """The positive matrix T^k T*^k."""
    return _power_product(model, k, True)


@dataclass
class CommutationReport:
    depth: int
    max_half_residual: float
    max_full_residual: float | None
    half_centered: bool
    centered: bool | None
    pairs: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "depth": self.depth,
            "half_residual": self.max_half_residual,
            "full_residual": self.max_full_residual,
            "verdict": {"half_centered": self.half_centered, "centered": self.centered},
            "pairs": list(self.pairs),
        }


@_memoized
def _window_gram(model: OperatorModel, k: int, outer: bool, w: int) -> tuple:
    """The leading-w window compression of T*^k T^k (of T^k T*^k when
    ``outer``) and its operator norm."""
    g = model.window_compress(_power_product(model, k, outer), w)
    return g, np.linalg.norm(g, 2)


def _pair_table(model: OperatorModel, K: int, kind: str, left: bool, right: bool) -> list:
    """Residuals of the family ``left`` at power j against ``right`` at power k
    (True: co-grams, False: grams) for 1 <= j, k <= K, each on the
    window(j + k) block; j < k when both sides are the same family."""
    pairs = []
    for j in range(1, K + 1):
        for k in range(j + 1 if left == right else 1, K + 1):
            w = model.window(j + k)
            a, a_norm = _window_gram(model, j, left, w)
            b, b_norm = _window_gram(model, k, right, w)
            den = a_norm * b_norm
            res = float(np.linalg.norm(a @ b - b @ a) / den) if den > 0 else 0.0
            pairs.append({"j": j, "k": k, "kind": kind, "residual": res})
    return pairs


@_memoized
def half_centered_check(model: OperatorModel, cfg: ToleranceConfig) -> CommutationReport:
    """Pairwise commutation of the gram powers up to ``analysis_depth``."""
    K = analysis_depth(model, cfg)
    if model.window(2 * K) < 1:
        raise WindowExhausted(f"window(2K) = {model.window(2 * K)} < 1 at depth {K}")
    pairs = _pair_table(model, K, "gram-gram", False, False)
    worst = max([0.0] + [p["residual"] for p in pairs])
    return CommutationReport(
        depth=K, max_half_residual=worst, max_full_residual=None,
        half_centered=bool(worst <= cfg.commutator_tol), centered=None, pairs=pairs,
    )


def centered_check(model: OperatorModel, cfg: ToleranceConfig) -> CommutationReport:
    """Commutation of the full family {T^j T*^j} u {T*^k T^k}."""
    half = half_centered_check(model, cfg)
    K = half.depth
    pairs = (half.pairs
             + _pair_table(model, K, "cogram-cogram", True, True)
             + _pair_table(model, K, "gram-cogram", False, True))
    worst = max([0.0] + [p["residual"] for p in pairs])
    return CommutationReport(
        depth=K, max_half_residual=half.max_half_residual, max_full_residual=worst,
        half_centered=half.half_centered, centered=bool(worst <= cfg.commutator_tol),
        pairs=pairs,
    )


@_memoized
def kernel_of_adjoint(model: OperatorModel, cfg: ToleranceConfig) -> Subspace:
    """ker T* = (T H)^perp, found from the singular directions of T."""
    u, s, _ = np.linalg.svd(model.matrix)
    cutoff = cfg.rank_tol * s[0] if s.size and s[0] > 0 else 0.0
    return orthonormalize([u[:, s <= cutoff]], rank_tol=cfg.rank_tol)


@dataclass
class CriterionReport:
    verdict: bool
    residual: float
    vacuous: bool
    per_power: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "residual": self.residual,
            "vacuous": self.vacuous,
            "per_power": list(self.per_power),
        }


def centered_criterion(model: OperatorModel, cfg: ToleranceConfig) -> CriterionReport:
    """Invariance criterion: T is centered iff every gram power maps the
    kernel line of T* into itself.

    An empty kernel makes the criterion vacuously true (reported, not
    failed): an injective adjoint means dense range, and dense range already
    forces a half-centered operator to be centered.
    """
    E = kernel_of_adjoint(model, cfg)
    if E.dim == 0:
        return CriterionReport(verdict=True, residual=0.0, vacuous=True)
    per_power = []
    worst = 0.0
    for k in range(1, analysis_depth(model, cfg) + 1):
        g = gram_power(model, k)
        image = g @ E.frame
        leak = image - E.frame @ (E.frame.conj().T @ image)
        res = float(np.linalg.norm(leak) / max(np.linalg.norm(g, 2), 1e-300))
        per_power.append({"k": k, "residual": res})
        worst = max(worst, res)
    return CriterionReport(
        verdict=bool(worst <= cfg.commutator_tol), residual=worst,
        vacuous=False, per_power=per_power,
    )
