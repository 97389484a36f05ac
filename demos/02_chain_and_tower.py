"""The moduli subspace, the chain decomposition and the isometry tower.

Starting from the kernel line E = ker T*, the moduli subspace M_E is the
smallest subspace containing E that every gram power maps into itself.
Applying T over and over produces the chain X_n and its orthogonal layers
V_n = X_n (-) X_{n-1}; the polar decompositions of the powers T^n supply a
tower of partial isometries theta_n with positive factors r_n = (T*^n T^n)^{1/2}.

Every structural claim about these objects is re-checked numerically and
reported as a residual.
"""

import numpy as np

from hclab import (
    ToleranceConfig,
    chain_decomposition,
    from_matrix,
    isometry_tower,
    kernel_of_adjoint,
    shift_plus_rank_one,
    spectral_correspondence_check,
    verify_chain_structure,
)
from hclab.chains import krylov_closure

cfg = ToleranceConfig(depth=5)
rng = np.random.default_rng(7)
N = 24

T = shift_plus_rank_one(rng.uniform(0.6, 1.4, N - 1), 0.3 + 0.4j, 2, N)

chain = chain_decomposition(T, cfg)
print("kernel line dimension:     ", chain.dims["E"])
print("moduli subspace dimension: ", chain.dims["M_E"], f"({chain.moduli_status})")
print("chain dims X_0..X_K:       ", chain.dims["X"])
print("layer dims V_0..V_K:       ", chain.dims["V"])
print("defect dims E_0..E_{K-1}:  ", chain.dims["defects"])
print()
print("The layer dims drop from 2 to 1 exactly at the tower depth of the")
print("rank-one perturbation: the chain sees where the corner term acts.")
print()

tower = isometry_tower(chain)
print("isometry tower residuals per level (certified corner over the whole factor):")
for lvl in tower:
    print(f"  n={lvl.n}:  theta r = T^n: {lvl.residuals['reconstruct']:.1e}   "
          f"product route: {lvl.residuals['r_two_routes']:.1e}")
print()

table = verify_chain_structure(chain)
print("structural residual table:")
for tag in ("space1", "space1_direct_sum", "isisis", "jups", "saknar",
            "labann", "key", "fuio", "fukth"):
    print(f"  {tag:18s} {table[tag]:.2e}")
print(f"  layer dims weakly decreasing: {table['v_dims_weakly_decreasing']}")
print(f"  surjectivity certificate (smallest sigma): {table['isisis_sigma_min']:.3f}")
print()

cor = spectral_correspondence_check(chain)
print("layer-to-moduli spectral correspondence, worst best-match residual:")
for n, r in cor["per_layer"].items():
    print(f"  V_{n}: {r:.2e}")

print()
print("Wandering subspaces, checked on the finite window: for the corner")
print("perturbation with constant weights, the spans of T^k(ker T*) exhaust")
print("the space, but the spans for its Cauchy dual stall one dimension")
print("short -- the missing direction is the geometric eigenvector of T,")
print("which lies in every range T^k H.")


def cauchy_dual(model):
    """T (T*T)^{-1}, formed on the window(1) columns B as B (B*B)^{-1} and
    zero off them, as a fresh truncation of the infinite dual would be."""
    w = model.window(1)
    B = model.matrix[:, :w]
    dual = np.zeros_like(model.matrix)
    dual[:, :w] = B @ np.linalg.inv(B.conj().T @ B)
    return from_matrix(dual, exact=False)


def wandering_span(model):
    """The closure of ker T* under T, cut at rank_tol * ||T||_2, and its
    status: "capped" when it fills the space, "stable" when it stalls."""
    return krylov_closure(model.matrix, kernel_of_adjoint(model, cfg).frame,
                          np.linalg.norm(model.matrix, 2), cfg.rank_tol)


a = 0.5
Th = shift_plus_rank_one([a] * (N - 1), 1.0, 0, N)
span_t, status_t = wandering_span(Th)
span_d, status_d = wandering_span(cauchy_dual(Th))
print(f"  corner shift:  span dim {span_t.shape[1]} of {N}  ({status_t})")
print(f"  its dual:      span dim {span_d.shape[1]} of {N}  ({status_d})")
geo = np.array([a ** j for j in range(N)], dtype=complex)
geo /= np.linalg.norm(geo)
gap = np.linalg.norm(geo - span_d @ (span_d.conj().T @ geo))
print(f"  geometric direction orthogonal to the dual span: {gap:.6f}")
