"""Verdict machinery: detect a four-term power relation, or reconstruct the
shift-plus-rank-one normal form, and combine both into a classification.

Each certificate has one route.  The relation comes from a
smallest-singular-value scan over stacked gram powers, and
``recurrence_residual`` checks it as a recurrence on the tau and beta
sequences.  The normal form is rebuilt from the single triple's chain basis.
Condition II is read off that basis when it fills the space, and is the
closure of M_E under the chain's block matrix T_b otherwise.  Only the
normal form, which rebuilds the user's T, works in ambient coordinates.
"""

from __future__ import annotations

import numpy as np

from .chains import ChainDecomposition, chain_decomposition, krylov_closure
from .commutation import (_band_rows, _singular_pairs, _window_view, centered_check,
                          effective_depth, kernel_of_adjoint, require_half_centered)
from .errors import (
    HclabError,
    InconclusiveError,
    NoRelationFound,
    NotSingleTriple,
    PatternResidualTooLarge,
    PreconditionError,
    PreconditionViolated,
)
from .linalg import _split_eigvals, numerical_rank
from .operators import OperatorModel, ToleranceConfig
from .spectral import StructureData, enumerate_triples, structure_extract

__all__ = [
    "relation_detect",
    "recurrence_residual",
    "shift_rank_one_reconstruct",
    "classify",
]

# reference used to pick a canonical relation inside a degenerate null space;
# it is the pattern (1 - z^n)(1 - z^m), the relation every isometry satisfies
_REFERENCE_4 = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0
_REFERENCE_3 = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)


def _canonical_null_vector(stack: np.ndarray, reference: np.ndarray,
                           tol: float) -> np.ndarray:
    """Real unit null-ish vector of the stacked system, canonically chosen.

    When several singular values sit below tolerance the null space is a
    genuine subspace (maximally degenerate inputs such as isometries); the
    returned vector is then the normalized projection of the reference
    pattern, which is basis independent, instead of an arbitrary SVD column.
    """
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = numerical_rank(s, max(tol, 1e2 * np.finfo(float).eps), s[0])
    null_dim = len(s) - rank
    if null_dim >= 2:
        basis = vh[len(s) - null_dim:].conj().T
        cand = basis @ (basis.conj().T @ reference)
        if np.linalg.norm(cand) > 0.1:
            vec = cand
        else:
            vec = vh[-1].conj()
    else:
        vec = vh[-1].conj()
    # the stacked columns are Hermitian matrices, so the null vector is real
    # up to a global phase; rotate it there and drop the residual imag part.
    # The null space is accurate to eps * s[0] / gap, the gap being the
    # smallest singular value kept, so the imag part may reach that much; a
    # vector known no better than ``tol`` certifies no relation, and keeps
    # the floor 1e-10.
    pivot = vec[int(np.argmax(np.abs(vec)))]
    if abs(pivot) > 0:
        vec = vec * (pivot.conjugate() / abs(pivot))
    accuracy = np.finfo(float).eps * s[0] / s[rank - 1] if rank else 0.0
    cut = max(1e-10, accuracy if accuracy <= tol else 0.0)
    imag, norm = np.max(np.abs(vec.imag)), np.linalg.norm(vec)
    if imag > cut * norm:
        raise HclabError(f"relation null vector unresolved: accuracy {accuracy:.3e} "
                         f"(eps * s[0] / s_gap) exceeds the tolerance {tol:.3e}, "
                         f"imaginary part {imag / norm:.3e}" if accuracy > tol
                         else "relation coefficients failed to be real")
    vec = vec.real
    vec /= np.linalg.norm(vec)
    sig = np.abs(vec) > 1e-8
    if np.any(sig) and vec[int(np.argmax(sig))] < 0:
        vec = -vec
    return vec


def recurrence_residual(coefficients, n: int, m: int, seq) -> float | None:
    """Residual of a coefficient 4-vector as a linear recurrence on ``seq``.

    Checks a s_k + b s_{k+n} + c s_{k+m} + d s_{k+n+m} = 0 for every k the
    sequence covers; None when the sequence is too short to test.
    """
    a, b, c, d = coefficients
    seq = np.asarray(seq, dtype=float)
    top = len(seq) - 1 - (n + m)
    if top < 0:
        return None
    scale = max(float(np.max(np.abs(seq))), 1e-300)
    worst = 0.0
    for k in range(top + 1):
        val = a * seq[k] + b * seq[k + n] + c * seq[k + m] + d * seq[k + n + m]
        worst = max(worst, abs(val) / scale)
    return worst


def _relation_columns(model: OperatorModel, powers: tuple, w: int) -> list:
    """The window-w grams of ``powers`` as vectors of the entries any of them
    can hold: the diagonal of the rows none of them couples, then the block
    of the rows some of them couple (the union of their masks).

    Every other entry is exactly zero, in every basis: each window is a
    leading block of an exactly Hermitian table, and a row no gram couples
    has no nonzero off the diagonal, in its row or (by symmetry) its column.
    So the stack has the singular values and right singular vectors of the
    full one.
    """
    grams, masks = zip(*(_window_view(model, k, False, w) for k in powers))
    rows = np.logical_or.reduce(masks)
    lone, block = ~rows, np.ix_(rows, rows)
    return [np.concatenate([np.diagonal(g)[lone], g[block].ravel()]) for g in grams]


def relation_detect(model: OperatorModel, cfg: ToleranceConfig) -> dict:
    """Smallest-degree four-term relation a I + b T_n + c T_m + d T_{n+m} = 0.

    Stacks the window grams of the four powers as vectors of the entries
    they can hold (``_relation_columns``) and reads the coefficients off the
    smallest singular direction.  The exponent pairs are tried in the
    canonical order of (n + m, n), and the first whose residual clears the
    tolerance is the relation.  The coincidence n = m collapses the system
    to three terms, stored as (a, b+c, 0, d) with the degenerate flag set.
    The report row holds a, b, c, d, n, m, ``residual``, ``degenerate``, and
    ``tau_residual`` and ``beta_residual``, None until ``classify`` fills them.
    """
    K = effective_depth(model, cfg)
    best = None  # (residual, n, m) of the smallest residual tried
    for n, m in ((n, s - n) for s in range(2, K + 1) for n in range(1, s // 2 + 1)):
        w = model.window(n + m)
        if w < 2:
            continue
        powers = (0, n, 2 * n) if n == m else (0, n, m, n + m)
        reference = _REFERENCE_3 if n == m else _REFERENCE_4
        blocks = _relation_columns(model, powers, w)
        stack = np.column_stack(blocks)
        coeffs = _canonical_null_vector(stack, reference, cfg.relation_tol)
        combo = sum(ci * blk for ci, blk in zip(coeffs, blocks))
        term = max(np.linalg.norm(ci * blk) for ci, blk in zip(coeffs, blocks))
        residual = float(np.linalg.norm(combo) / max(term, 1e-300))
        if residual <= cfg.relation_tol:
            break
        if best is None or residual < best[0]:
            best = (residual, n, m)
    else:
        if best is None:
            raise NoRelationFound("no exponent pair fits inside the window")
        raise NoRelationFound(f"best residual {best[0]:.3e} at (n, m) = ({best[1]}, {best[2]}) "
                              f"exceeds {cfg.relation_tol:.1e}")
    stored = (coeffs[0], coeffs[1], 0.0, coeffs[2]) if n == m else tuple(coeffs)
    return {**dict(zip("abcd", map(float, stored))), "n": n, "m": m, "residual": residual,
            "degenerate": n == m, "tau_residual": None, "beta_residual": None}


def shift_rank_one_reconstruct(chain: ChainDecomposition, structure: StructureData,
                               triples: list) -> tuple[dict, np.ndarray]:
    """Recover the basis in which the chain's T is a weighted shift plus one
    rank-one term, from ``structure_extract(chain)`` and its triples: the
    report row (n, ``a_abs``, ``weights_abs``, ``residual`` and
    ``joint_eigenvector_residual``) and the basis, ambient columns.

    With a single triple (lambda, gamma, m) and a two-dimensional moduli
    subspace, the basis is the Krylov basis of w under T up to the triple
    depth m (x_k ~ T^k w), then that of v (x_k ~ T^{k-m} v), where w is the
    lambda eigenvector and v the other one; both come from ``krylov_closure``.
    In that basis T must show a subdiagonal plus a single entry in row 0 at
    column m - 1; everything off that pattern is the reconstruction residual.
    """
    if len(triples) != 1:
        raise NotSingleTriple(f"expected exactly one triple, found {len(triples)}")
    M_E = chain.M_E_block
    if M_E.dim != 2:
        raise PreconditionViolated(f"dim M_E = {M_E.dim}, reconstruction needs 2")
    m, lam = triples[0]["m"], triples[0]["lambda"]
    frames = structure.me_spectrum.frames
    if len(frames) != 2:
        raise PreconditionViolated("moduli characters are degenerate")
    # T is ambient: lift M_E first, as (window_cols @ M_E) @ c (the other order moves bits)
    lifted = chain.model.window_cols(chain.w) @ M_E.frame
    w, v = (lifted @ frames[j][:, :1] for j in (lam, 1 - lam))

    model, cfg = chain.model, chain.cfg
    N, scale = model.dim, _singular_pairs(model)[1][0]
    T = _band_rows(model, N) or model.matrix
    X = krylov_closure(T, w, scale, cfg.rank_tol, limit=m)[0]
    if X.shape[1] < min(m, N):
        raise PatternResidualTooLarge("lambda chain collapsed before depth m")
    X = krylov_closure(T, v, scale, cfg.rank_tol, frame=X)[0]
    B = X.shape[1]

    Tt = X.conj().T @ (T @ X)
    pattern = np.zeros((B, B), dtype=bool)
    pattern[np.arange(1, B), np.arange(B - 1)] = True
    pattern[0, m - 1] = True
    off = Tt.copy()
    off[pattern] = 0.0
    residual = float(np.linalg.norm(off) / max(np.linalg.norm(Tt), 1e-300))
    if residual > cfg.relation_tol:
        raise PatternResidualTooLarge(f"off-pattern mass {residual:.3e}")

    # ||G_k X - X diag(X* G_k X)||_F / max|diag|, G_k in window coordinates: a row
    # G_k does not couple is its diagonal entry, a coupled one stays on the coupled block
    Xw = X if model.window_frame is None else model.window_cols(N).conj().T @ X
    joint_res = 0.0
    for k in range(1, chain.depth + 1):
        g, coupled = _window_view(model, k, False, N)
        gx = np.diagonal(g)[:, None] * Xw
        gx[coupled] = g[np.ix_(coupled, coupled)] @ Xw[coupled]
        diag = np.einsum("ij,ij->j", Xw.conj(), gx)
        joint_res = max(joint_res, float(np.linalg.norm(gx - Xw * diag)
                                         / max(np.max(np.abs(diag)), 1e-300)))

    return {"n": m - 1, "a_abs": abs(complex(Tt[0, m - 1])),
            "weights_abs": np.abs(np.diagonal(Tt, -1)).tolist(), "residual": residual,
            "joint_eigenvector_residual": joint_res}, X


def _closed_range_flag(model: OperatorModel, cfg: ToleranceConfig) -> bool:
    # the gram is Hermitian PSD: its singular values are its |eigenvalues|
    s = np.abs(_split_eigvals(*_window_view(model, 1, False, model.window(1))))
    return numerical_rank(s, cfg.rank_tol, s.max()) == s.size


def _condition_II(chain: ChainDecomposition, basis_width: int, diagnostics: dict) -> bool:
    """Condition II: the closure of T^k M_E fills the space.  An M_E that fills
    the block, and a normal-form basis of N columns (w and v lie in M_E, and
    ``krylov_closure`` on T builds every column), are frames of that closure,
    read as capped; otherwise M_E is closed under the block's T_b.  A closure F
    below the block width leaves an exact projector I - F F* of rank >= 1
    outside it, so ``span_defect`` = ||I - F F*||_2 is 1, and 0 when capped.
    ``basis_width`` is the normal-form basis's column count, 0 without one."""
    model = chain.model
    status = "capped"
    if chain.M_E_block.dim < chain.w and basis_width < model.dim:
        status = krylov_closure(_band_rows(model, chain.w) or chain.matrix,
                                chain.M_E_block.frame, _singular_pairs(model)[1][0],
                                chain.cfg.rank_tol)[1]
    diagnostics["span_defect"] = 0.0 if status == "capped" else 1.0
    diagnostics["span_status"] = status
    return status == "capped"


def classify(model: OperatorModel, cfg: ToleranceConfig) -> dict:
    """Main dichotomy: weighted shift, shift plus rank one, four-term
    relation, both, or inconclusive with diagnostics.  Returns the report row:
    ``verdict``, ``dim_E``, ``dim_M_E``, ``triples`` (a count, None for a
    weighted shift), ``closed_range``, ``condition_II_ok``, ``moduli_status``,
    the ``relation`` and ``reconstruction`` rows (or None) and ``diagnostics``.

    Preconditions: half-centered within tolerance, a one-dimensional kernel
    of T*, and a chain on the window; a failed one raises the
    PreconditionViolated subtype that names it (NotHalfCentered,
    WindowExhausted, NotInjectiveOnWindow).  The span condition (the chain
    must exhaust the analysis block) is reported but does not abort the run;
    it is read off the normal-form basis when that fills the space, and is
    the closure of M_E on the block otherwise (``_condition_II``).
    """
    diagnostics: dict = {"half_residual": require_half_centered(model, cfg)["half_residual"]}

    E = kernel_of_adjoint(model, cfg)
    if E.dim != 1:
        raise PreconditionViolated(f"dim ker T* = {E.dim}, the analysis needs 1")

    chain = chain_decomposition(model, cfg)
    report = {"dim_E": E.dim, "dim_M_E": chain.M_E_block.dim,
              "closed_range": _closed_range_flag(model, cfg),
              "moduli_status": chain.moduli_status, "diagnostics": diagnostics}

    if chain.M_E_block.dim == 1:
        condition_II_ok = _condition_II(chain, 0, diagnostics)
        diagnostics["centered_residual"] = centered_check(model, cfg)["full_residual"]
        return {**report, "verdict": "centered_weighted_shift", "triples": None,
                "condition_II_ok": condition_II_ok, "relation": None, "reconstruction": None}

    structure = structure_extract(chain)
    triples = enumerate_triples(chain, structure)
    diagnostics["no_nonzero_beta"] = structure.no_nonzero_beta
    diagnostics["bt1_residual"] = structure.residuals.get("bt1")

    relation = None
    try:
        relation = relation_detect(model, cfg)
    except NoRelationFound as exc:
        diagnostics["relation"] = str(exc)
    else:
        coeffs, n, m = [relation[key] for key in "abcd"], relation["n"], relation["m"]
        relation["tau_residual"] = recurrence_residual(coeffs, n, m, structure.tau)
        relation["beta_residual"] = 0.0 if structure.no_nonzero_beta else recurrence_residual(
            coeffs, n, m, structure.beta / max(np.max(np.abs(structure.beta)), 1e-300))

    reconstruction, basis_width = None, 0
    if len(triples) == 1:
        try:
            reconstruction, basis = shift_rank_one_reconstruct(chain, structure, triples)
            basis_width = basis.shape[1]
        except (PreconditionError, InconclusiveError) as exc:
            diagnostics["reconstruction"] = str(exc)
    condition_II_ok = _condition_II(chain, basis_width, diagnostics)

    if chain.M_E_block.dim >= 3 and relation is not None:
        if abs(relation["a"]) <= 1e3 * cfg.relation_tol:
            diagnostics["constant_term"] = relation["a"]
            relation = None
            diagnostics["relation"] = "constant term vanishes although dim M_E >= 3"
        elif not report["closed_range"]:
            diagnostics["relation"] = "relation found but the range is not closed"
            relation = None

    if relation is not None and reconstruction is not None:
        verdict = "both"
    elif reconstruction is not None:
        verdict = "shift_plus_rank_one"
    elif relation is not None:
        verdict = "four_term_relation"
        if len(triples) < 2:
            diagnostics["triples_note"] = (
                f"relation certified with only {len(triples)} triple(s) resolved"
            )
    else:
        verdict = "inconclusive"

    return {**report, "verdict": verdict, "triples": len(triples),
            "condition_II_ok": condition_II_ok, "relation": relation,
            "reconstruction": reconstruction}
