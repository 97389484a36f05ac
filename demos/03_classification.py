"""The classification dichotomy.

For an injective half-centered operator with a one-dimensional kernel of
T* whose chain exhausts the space, exactly one of two things happens
(possibly both): the operator is a weighted shift plus at most one rank-one
corner term in a basis of joint eigenvectors, or the gram powers satisfy a
four-term relation  a I + b T_n + c T_m + d T_{n+m} = 0.

The classifier certifies whichever branch it finds: the normal form comes
with the recovered basis and weights, the relation with unit-norm
coefficients that also annihilate the tau and beta sequences as linear
recurrences.
"""

import numpy as np

from hclab import (
    ToleranceConfig,
    aq_operator,
    classify,
    shift_plus_rank_one,
    weighted_shift,
)

cfg = ToleranceConfig()
rng = np.random.default_rng(7)


def show(title, report):
    print("-" * 72)
    print(title)
    print(f"  verdict: {report['verdict']}   dim M_E = {report['dim_M_E']}   "
          f"triples: {report['triples']}   closed range: {report['closed_range']}")
    if report["reconstruction"] is not None:
        c = report["reconstruction"]
        print(f"  normal form: rank-one column {c['n']}, |a| = {c['a_abs']:.6f}, "
              f"residual {c['residual']:.1e}")
    if report["relation"] is not None:
        r = report["relation"]
        a, b, c_, d, n, m = (r[key] for key in "abcdnm")
        if r["degenerate"]:  # n = m: the terms of T_n and T_m are one
            terms = f"{a:+.4f} I {b + c_:+.4f} T_{n} {d:+.4f} T_{2 * n}"
        else:
            terms = f"{a:+.4f} I {b:+.4f} T_{n} {c_:+.4f} T_{m} {d:+.4f} T_{n + m}"
        print(f"  relation: {terms} = 0   (residual {r['residual']:.1e})")
        print(f"  recurrence residuals: tau {r['tau_residual']:.1e}, "
              f"beta {r['beta_residual']:.1e}")

N = 32

# Case 0: a plain weighted shift.  The moduli subspace is the kernel line
# itself, which already forces the operator to be centered.
show("weighted shift (random weights)",
     classify(weighted_shift(rng.uniform(0.6, 1.4, N - 1), N), cfg))

# Case 1: shift plus rank-one with generic weights.  A single triple of
# spectral data survives, and the reconstruction recovers the corner index
# and the weight magnitudes from spectral data alone.
w = rng.uniform(0.6, 1.4, N - 1) * np.exp(2j * np.pi * rng.uniform(size=N - 1))
show("shift + rank-one at column 2 (generic weights)",
     classify(shift_plus_rank_one(w, 0.3 + 0.4j, 2, N), cfg))

# Both cases at once: constant weights make the grams scalar + rank-one,
# which satisfies a three-term relation on top of the normal form.
show("shift + rank-one corner, constant weights 1/2",
     classify(shift_plus_rank_one([0.5] * (N - 1), 1.0, 0, N), cfg))

# Case 2: the conjugated-shift family.  The moduli subspace is the whole
# window, there is no normal form, and the relation
# I - (1 + 1/q) T_1 + (1/q) T_2 = 0 is recovered with a nonzero constant
# term, which certifies closed range.
show("conjugated shift (q = 1/2, r = 5, N = 48)",
     classify(aq_operator(0.5, 5.0, 48), cfg))
print("-" * 72)
print("expected relation for q = 1/2: (1, -3, 2)/sqrt(14) on (I, T_1, T_2)")
expected = np.array([1.0, -3.0, 2.0]) / np.sqrt(14)
print(f"                               = ({expected[0]:+.4f}, {expected[1]:+.4f}, {expected[2]:+.4f})")
