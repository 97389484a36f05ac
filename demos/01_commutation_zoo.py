"""Tour of the operator zoo and the commutation verdicts.

An operator is *half-centered* when its gram powers T*^k T^k all commute
with one another, and *centered* when the two-sided family including the
co-grams T^k T*^k commutes as well.  This script builds one member of each
family the lab knows and prints where it lands.
"""

import numpy as np

from hclab import (
    ToleranceConfig,
    aq_operator,
    centered_check,
    centered_criterion,
    composition_operator,
    from_matrix,
    projection_product,
    shift_plus_rank_one,
    weighted_shift,
)

cfg = ToleranceConfig()
rng = np.random.default_rng(7)
N = 24

print("=" * 72)
print("half-centered vs centered across the zoo")
print("=" * 72)

zoo = {}

# A weighted shift: J e_k = w_k e_{k+1}.  Shifts are the model citizens:
# every gram power is diagonal, so the whole two-sided family commutes.
zoo["weighted shift"] = weighted_shift(rng.uniform(0.6, 1.4, N - 1), N)

# Shift plus a rank-one corner term a * (e_0 (x) e_2*): still half-centered
# (it is a weighted composition operator in disguise) but no longer
# centered, because the grams move the kernel line of T* around.
zoo["shift + rank-one"] = shift_plus_rank_one(
    rng.uniform(0.6, 1.4, N - 1), 0.3 + 0.4j, 2, N
)

# The product of two orthogonal projections.  Here T*^k T^k = Q T^(2k-1),
# which makes the commutation immediate, while (TT*)(T*T) = T^3 and
# (T*T)(TT*) = T*^3 differ: half-centered, not centered.
P = np.array([[0.5, -0.5], [-0.5, 0.5]])
Q = np.array([[1.0, 0.0], [0.0, 0.0]])
zoo["projection product"] = projection_product(P, Q)

# A weighted composition operator f(x) -> xi(x) f(psi(x)) on counting
# measure.  Its grams are multiplication operators, hence diagonal.
psi = [(k + 1) % N for k in range(N)]
zoo["composition (cycle)"] = composition_operator(psi, rng.uniform(0.5, 1.5, N), N)

# The conjugated-shift family built from the tridiagonal coupling matrix
# with geometrically decaying entries; satisfies a three-term relation
# among I, T*T and T*^2 T^2.
zoo["conjugated shift (aq)"] = aq_operator(0.5, 5.0, N)

# And one genuine negative: a Jordan block is not half-centered.
zoo["jordan block"] = from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

for name, model in zoo.items():
    rep = centered_check(model, cfg)
    crit = centered_criterion(model, cfg)
    verdict = rep["verdict"]
    print(f"{name:22s} half-centered: {str(verdict['half_centered']):5s} "
          f"(residual {rep['half_residual']:.1e})   "
          f"centered: {str(verdict['centered']):5s} "
          f"criterion: {crit['verdict']}{' (vacuous)' if crit['vacuous'] else ''}")

print()
print("For half-centered operators the invariance criterion (grams map")
print("ker T* into itself) is equivalent to being centered; the rows above")
print("agree wherever the half-centered verdict holds.  When ker T* is")
print("trivial the criterion is vacuous: dense range already forces a")
print("half-centered operator to be centered.")
