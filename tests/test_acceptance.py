"""Acceptance gate: one test per criterion, pinned tolerances, one summary
line each.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hclab import (
    ToleranceConfig,
    aq_operator,
    centered_check,
    chain_decomposition,
    classify,
    composition_operator,
    enumerate_triples,
    gram_power,
    half_centered_check,
    joint_diagonalize,
    kernel_of_adjoint,
    projection_product,
    relation_detect,
    shift_plus_rank_one,
    shift_rank_one_reconstruct,
    spectral_correspondence_check,
    structure_extract,
    verify_chain_structure,
    weighted_shift,
)

from conftest import (character_value, lift, moduli_subspace, random_unitary, random_weights,
                      three_term)

PQ_P = np.array([[0.5, -0.5], [-0.5, 0.5]])
PQ_Q = np.array([[1.0, 0.0], [0.0, 0.0]])


def report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS - {text}")


def test_criterion_01_projection_product_example():
    cfg = ToleranceConfig()
    t = projection_product(PQ_P, PQ_Q)
    half = half_centered_check(t, cfg)
    assert half["verdict"]["half_centered"] and half["half_residual"] <= 1e-14
    full = centered_check(t, cfg)
    assert full["verdict"]["centered"] is False
    t3 = np.linalg.matrix_power(t.matrix, 3)
    gap = np.linalg.norm(t3 - t3.conj().T)
    assert abs(gap - np.sqrt(2) / 8) <= 1e-14
    report(1, f"projection product: half residual {half['half_residual']:.1e}, "
              f"not centered, ||T^3 - T*^3|| = sqrt(2)/8 +- {abs(gap - np.sqrt(2)/8):.1e}")


def test_criterion_02_isometry_relation():
    cfg = ToleranceConfig()
    cert = relation_detect(weighted_shift([1.0] * 31, 32), cfg)
    expect = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
    assert_allclose(three_term(cert), expect, atol=1e-14)
    assert cert["residual"] <= 1e-14
    report(2, f"isometry relation (1,-2,1)/sqrt(6), residual {cert['residual']:.1e}")


def test_criterion_03_aq_operator():
    cfg = ToleranceConfig()
    q, r, big_n = 0.5, 5.0, 48
    t = aq_operator(q, r, big_n)
    A = t.companion.real
    evals, vecs = np.linalg.eigh(A)
    inv_half = vecs @ np.diag((evals + r) ** -0.5) @ vecs.T
    worst = 0.0
    for n in range(1, 5):
        formula = inv_half @ (q ** n * A + r * np.eye(big_n)) @ inv_half
        w = t.window(n)
        worst = max(worst, np.linalg.norm((gram_power(t, n) - formula)[:w, :w]))
    assert worst <= 1e-8
    cert = relation_detect(t, cfg)
    assert_allclose(three_term(cert), np.array([1.0, -3.0, 2.0]) / np.sqrt(14), atol=1e-6)
    rep = classify(t, cfg)
    assert rep["verdict"] == "four_term_relation"
    assert abs(rep["relation"]["a"]) > 1e-5
    assert rep["closed_range"]
    report(3, f"aq operator: gram formula residual {worst:.1e}, coefficients "
              f"(1,-3,2)/sqrt(14), verdict {rep['verdict']} with nonzero constant "
              f"term and closed range")


def test_criterion_04_aq_joint_eigenvalues():
    cfg = ToleranceConfig()
    q, r, big_n = 0.5, 5.0, 48
    t = aq_operator(q, r, big_n)
    chain = chain_decomposition(t, cfg)
    M_E = lift(chain, chain.M_E_block).frame
    mats = [M_E.conj().T @ gram_power(t, k) @ M_E for k in range(1, cfg.depth + 1)]
    spec = joint_diagonalize(mats, cfg)
    values = np.concatenate([[row[0]] * f.shape[1] for row, f in zip(spec.table, spec.frames)])
    lam = np.linalg.eigvalsh(t.companion.real)
    worst = max(np.min(np.abs(values - (q * lk + r) / (lk + r))) for lk in lam)
    assert worst <= 1e-8
    report(4, f"aq characters match (q l + r)/(l + r) to {worst:.1e}")


def test_criterion_05_weighted_shift():
    cfg = ToleranceConfig()
    rng = np.random.default_rng(7)
    big_n = 32
    w = random_weights(rng, big_n - 1)
    t = weighted_shift(w, big_n)
    chain = chain_decomposition(t, cfg)
    assert lift(chain, chain.M_E_block).dim == 1
    worst_proj = 0.0
    for k, v in enumerate(chain.V_block):
        v = lift(chain, v)
        ek = np.zeros(big_n)
        ek[k] = 1.0
        worst_proj = max(worst_proj, np.linalg.norm(v.projector() - np.outer(ek, ek)))
    assert worst_proj <= 1e-10
    rep = classify(t, cfg)
    assert rep["verdict"] == "centered_weighted_shift"
    cor = spectral_correspondence_check(chain)
    assert cor["worst"] <= 1e-10
    # the layer character values are exactly the weight-product ratios
    lam = np.concatenate([[1.0], np.cumprod(np.abs(w) ** 2)])
    for m in range(1, chain.depth):
        vm = lift(chain, chain.V_block[m]).frame[:, 0]
        for j in range(1, chain.depth - m + 1):
            val = np.real(vm.conj() @ gram_power(t, j) @ vm)
            assert abs(val - lam[m + j] / lam[m]) <= 1e-10 * max(1.0, lam[m + j] / lam[m])
    report(5, f"weighted shift: dim M_E = 1, layer projectors within {worst_proj:.1e}, "
              f"verdict {rep['verdict']}, layer correspondence {cor['worst']:.1e} "
              f"(ratio formula exact)")


def test_criterion_06_shift_plus_rank_one():
    cfg = ToleranceConfig()
    rng = np.random.default_rng(7)
    big_n, n, a = 32, 2, 0.3 + 0.4j
    w = random_weights(rng, big_n - 1)
    t = shift_plus_rank_one(w, a, n, big_n)
    chain = chain_decomposition(t, cfg)
    assert lift(chain, chain.M_E_block).dim == 2
    st = structure_extract(chain)
    triples = enumerate_triples(chain, st)
    assert len(triples) == 1
    # frozen from the exhaustive-scan oracle: the unique triple's tower
    # depth sits one above the rank-one column index, and the normal form
    # reads the rank-one entry back off at column m - 1
    assert triples[0]["m"] == n + 1
    cert = shift_rank_one_reconstruct(chain, st, triples)[0]
    assert cert["residual"] <= 1e-8
    assert cert["n"] == n
    assert cert["a_abs"] == pytest.approx(abs(a), abs=1e-8)
    assert_allclose(cert["weights_abs"], np.abs(w)[: len(cert["weights_abs"])], atol=1e-8)
    report(6, f"rank-one family: one triple (depth {triples[0]['m']}), reconstruction "
              f"residual {cert['residual']:.1e}, recovered "
              f"(n, |a|) = ({cert['n']}, {cert['a_abs']:.6f})")


def test_criterion_07_hardy_example():
    cfg = ToleranceConfig()
    a, big_n = 0.5, 24
    t = shift_plus_rank_one([a] * (big_n - 1), 1.0, 0, big_n)
    sub, _ = moduli_subspace(t, cfg)
    assert sub.dim == 2
    expect = np.zeros((big_n, big_n))
    expect[0, 0] = expect[1, 1] = 1.0
    frame_gap = np.linalg.norm(sub.projector() - expect)
    assert frame_gap <= 1e-10
    chain = chain_decomposition(t, cfg)
    st = structure_extract(chain)
    assert abs(st.tau[1] - 0.45) <= 1e-12
    kernel = kernel_of_adjoint(t, cfg)
    ref = np.zeros(big_n, dtype=complex)
    ref[0], ref[1] = a, -1.0
    ref /= np.linalg.norm(ref)
    overlap = abs(np.vdot(ref, kernel.frame[:, 0]))
    assert overlap >= 1 - 1e-12
    report(7, f"hardy example: M_E = span(e0, e1) within {frame_gap:.1e}, "
              f"tau_1 = {st.tau[1]:.15f}, kernel line matches (a e0 - e1)")


def test_criterion_08_structural_suite():
    cfg = ToleranceConfig(depth=5)
    rng = np.random.default_rng(7)
    big_n = 24
    instances = {
        "weighted_shift": weighted_shift(random_weights(rng, big_n - 1), big_n),
        "rank_one": shift_plus_rank_one(random_weights(rng, big_n - 1), 0.3 + 0.4j, 2, big_n),
        "hardy": shift_plus_rank_one([0.5] * (big_n - 1), 1.0, 0, big_n),
        "aq": aq_operator(0.5, 5.0, big_n),
        "composition_cycle": composition_operator(
            [(k + 1) % big_n for k in range(big_n)], random_weights(rng, big_n), big_n),
    }
    worst = {}
    for name, model in instances.items():
        table = verify_chain_structure(chain_decomposition(model, cfg))
        assert table["key"] <= 1e-9, name
        assert table["labann"] <= 1e-9, name
        assert table["v_dims_weakly_decreasing"], name
        for tag in ("space1", "isisis", "jups", "saknar"):
            assert table[tag] <= 1e-8, (name, tag, table[tag])
        worst[name] = max(table[tag] for tag in
                          ("space1", "isisis", "jups", "saknar", "key", "labann"))
    report(8, "structural suite on " + ", ".join(
        f"{k} ({v:.1e})" for k, v in worst.items()))


def test_criterion_09_recurrence_property():
    cfg = ToleranceConfig()
    accepted = []
    for t in [aq_operator(0.5, 5.0, 48),
              shift_plus_rank_one([0.5] * 23, 1.0, 0, 24)]:
        rel = classify(t, cfg)["relation"]
        assert rel is not None
        assert rel["tau_residual"] is not None
        assert rel["tau_residual"] <= 1e-8
        assert rel["beta_residual"] <= 1e-8
        accepted.append((t.family, rel["tau_residual"], rel["beta_residual"]))
    report(9, "recurrence residuals " + ", ".join(
        f"{f}: tau {tr:.1e} beta {br:.1e}" for f, tr, br in accepted))


def test_criterion_10_property_suite():
    cfg = ToleranceConfig()
    rng = np.random.default_rng(7)
    big_n = 20

    analyzed = [
        shift_plus_rank_one(random_weights(rng, big_n - 1), 0.3 + 0.4j, 2, big_n),
        shift_plus_rank_one([0.5] * (big_n - 1), 1.0, 0, big_n),
        aq_operator(0.5, 5.0, big_n),
    ]
    for t in analyzed:
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        assert np.all(st.tau > 0)
        assert st.beta[0] == 0.0
        # shared extreme values force the kernel line to be an eigenvector
        # (the extreme characters sit at the ends of the affine coordinate)
        li, mi = int(np.argmax(st.A_values)), int(np.argmin(st.A_values))
        e = lift(chain, chain.E).frame[:, 0]
        scale = max(1.0, float(np.abs(st.me_spectrum.table[li]).max()))
        for m in range(1, chain.depth + 1):
            if abs(character_value(st.me_spectrum, li, m)
                   - character_value(st.me_spectrum, mi, m)) <= 1e-9 * scale:
                g = gram_power(t, m)
                assert np.linalg.norm(g @ e - st.tau[m] * e) <= 1e-8 * scale

    # zero propagation along the gram sequence of the projection product
    pq = projection_product(PQ_P, PQ_Q)
    sub, _ = moduli_subspace(pq, cfg)
    mats = [sub.frame.conj().T @ gram_power(pq, k) @ sub.frame
            for k in range(1, cfg.depth + 1)]
    spec = joint_diagonalize(mats, cfg)
    zero_seen = False
    for values in spec.table:
        hit = np.abs(values) <= 1e-12
        if hit.any():
            zero_seen = True
            assert np.all(np.abs(values[int(np.argmax(hit)):]) <= 1e-10)
    assert zero_seen

    # verdict stability under ten seeded unitaries per instance
    stable = 0
    for t in analyzed + [weighted_shift(random_weights(rng, big_n - 1), big_n)]:
        base = classify(t, cfg)
        for _ in range(10):
            u = random_unitary(rng, big_n)
            rot = classify(t.conjugated(u), cfg)
            assert rot["verdict"] == base["verdict"]
            if base["relation"] is not None:
                assert abs(rot["relation"]["residual"]) <= \
                    10 * max(base["relation"]["residual"], cfg.relation_tol)
            stable += 1
    report(10, f"tau > 0, beta_0 = 0, zero propagation, eigenvector implication, "
               f"{stable} conjugated verdicts stable")
