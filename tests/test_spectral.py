from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hclab import (
    OperatorModel,
    ToleranceConfig,
    aq_operator,
    chain_decomposition,
    enumerate_triples,
    from_matrix,
    gram_power,
    joint_diagonalize,
    projection_product,
    shift_plus_rank_one,
    spectral_correspondence_check,
    structure_extract,
    weighted_shift,
)
from hclab import spectral
from hclab.commutation import _matrix_power
from hclab.linalg import _hermitian_view, _split_norm
from hclab.errors import ModuliTooSmall, NotCommuting

from conftest import (character_value, family_model, lift, moduli_subspace, random_unitary,
                      random_weights)

PQ_P = np.array([[0.5, -0.5], [-0.5, 0.5]])
PQ_Q = np.array([[1.0, 0.0], [0.0, 0.0]])


class TestJointDiagonalize:
    def test_two_diagonal_matrices(self, cfg):
        spec = joint_diagonalize([np.diag([1.0, 2.0]), np.diag([3.0, 3.0])], cfg)
        assert [tuple(row) for row in spec.table] == [(1.0, 3.0), (2.0, 3.0)]

    def test_identity_has_one_fat_character(self, cfg):
        spec = joint_diagonalize([np.eye(5)], cfg)
        assert len(spec.table) == 1
        assert spec.frames[0].shape[1] == 5

    def test_hardy_moduli_family(self, cfg):
        # oracle: restrict the first gram to span{e0, e1} and diagonalize
        a = 0.5
        t = shift_plus_rank_one([a] * 15, 1.0, 0, 16)
        sub, _ = moduli_subspace(t, cfg)
        mats = [sub.frame.conj().T @ gram_power(t, k) @ sub.frame for k in (1, 2)]
        spec = joint_diagonalize(mats, cfg)
        direct = np.sort(np.linalg.eigvalsh(mats[0]))
        values = np.sort(spec.table[:, 0])
        assert_allclose(values, direct, atol=1e-12)
        assert len(spec.table) == 2

    def test_eigenvector_property(self, rng, cfg):
        d = np.diag(rng.uniform(0, 1, 8))
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        fam = [q @ np.diag(rng.uniform(0, 1, 8)) @ q.conj().T for _ in range(3)]
        spec = joint_diagonalize(fam, cfg)
        for values, v in zip(spec.table, spec.frames):
            for k, m in enumerate(fam):
                resid = np.linalg.norm(m @ v - values[k] * v)
                assert resid <= 1e-7 * max(1, np.linalg.norm(m, 2))

    def test_merges_identical_blocks(self, cfg):
        fam = [np.diag([1.0, 1.0, 2.0]), np.diag([5.0, 5.0, 6.0])]
        spec = joint_diagonalize(fam, cfg)
        assert sorted(f.shape[1] for f in spec.frames) == [1, 2]

    def test_rejects_non_commuting(self, cfg):
        with pytest.raises(NotCommuting):
            joint_diagonalize([np.diag([1.0, 2.0]), np.array([[0.0, 1], [1, 0.0]])], cfg)

    def test_value_table_holds_the_character_values(self, cfg):
        spec = joint_diagonalize([np.diag([2.0, 1.0, 1.0]), np.diag([3.0, 5.0, 5.0])], cfg)
        table = spec.table
        assert table.tolist() == [[1.0, 5.0], [2.0, 3.0]]
        assert [f.shape[1] for f in spec.frames] == [2, 1]
        empty = joint_diagonalize([np.zeros((0, 0))], cfg)
        assert empty.table.shape == (0, 1) and empty.frames == []

    @pytest.mark.parametrize("table, owner", [
        # a ~ b and b ~ c, but a !~ c: c is compared with the survivor a, not
        # with b or with a running mean of a and b (0.3, which c is close to)
        ([[0.0, 0.0], [0.6, 0.1], [1.2, 0.2]], [0, 0, 2]),
        # c is close to both survivors and joins the first
        ([[0.0, 0.0], [1.5, 0.0], [0.8, 0.0]], [0, 1, 0]),
        # one column out of tolerance keeps a row apart
        ([[0.0, 0.0], [0.5, 1.5], [0.5, 0.5]], [0, 1, 0]),
    ])
    def test_merge_joins_the_first_close_survivor(self, table, owner):
        survivors, got = spectral._merge_characters(np.array(table), np.array([1.0, 1.0]))
        assert got.tolist() == owner
        assert survivors.tolist() == sorted(set(owner))


def _per_block_spectrum(family, cfg):
    """Oracle: the characters as (values, frame) from one trace per (block,
    member) and a quadratic greedy merge, over the blocks of
    ``spectral._split_block`` on the same seeded combination."""
    mats = [np.asarray(m) for m in family]
    scales = [max(_split_norm(*_hermitian_view(m)), 1e-300) for m in mats]
    coeffs = np.random.default_rng(cfg.seed).standard_normal(len(mats))
    combo = sum(c * m for c, m in zip(coeffs, mats))
    blocks = spectral._split_block([combo] + mats, np.eye(len(combo), dtype=combo.dtype), cfg, 0)
    merged = []
    tol_vec = np.array([cfg.rank_tol * s for s in scales])
    for frame in blocks:
        vals = np.array([
            float(np.real(np.trace(frame.conj().T @ m @ frame)) / frame.shape[1])
            for m in mats
        ])
        for entry in merged:
            if np.all(np.abs(entry[0] - vals) <= tol_vec):
                entry[1].append(frame)
                break
        else:
            merged.append([vals, [frame]])
    merged.sort(key=lambda entry: tuple(entry[0]))
    return [(vals, np.hstack(frames)) for vals, frames in merged]


def _assert_matches_per_block_oracle(family, cfg):
    # the batched values differ from the per-block traces by roundoff only,
    # and the merge and the order are the same
    spec = joint_diagonalize(family, cfg)
    oracle = _per_block_spectrum(family, cfg)
    assert [f.shape[1] for f in spec.frames] == [f.shape[1] for _, f in oracle]
    scales = np.array([np.linalg.norm(m, 2) for m in family])
    for values, got, (vals, frame) in zip(spec.table, spec.frames, oracle):
        assert np.all(np.abs(values - vals) <= 1e-13 * scales)
        gap = got @ got.conj().T - frame @ frame.conj().T
        assert np.linalg.norm(gap, 2) <= 1e-12
    return spec


@pytest.mark.parametrize("q", [0.3, 0.7])
@pytest.mark.parametrize("n", [32, 48])
def test_joint_diagonalize_matches_the_per_block_oracle_on_aq(cfg, q, n):
    # the moduli family and the family of M_E (-) E
    chain = chain_decomposition(aq_operator(q, None, n), cfg)
    _, me_mats, _ = spectral._moduli_spectrum(chain)
    _assert_matches_per_block_oracle(me_mats, cfg)
    _assert_matches_per_block_oracle([m[1:, 1:] for m in me_mats], cfg)


def test_joint_diagonalize_matches_the_per_block_oracle_where_blocks_merge(cfg):
    # the default seed's coefficients nearly cancel on three equal members, so
    # its gap passes the eigenvalues 1, 1 + 1.2e-10 and 1 + 2.4e-10 as one
    # cluster that the first member splits into three blocks; with tolerance
    # 2e-10 the first two merge, and the third stays apart
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((6, 6)))
    m = q @ np.diag([1.0, 1.0 + 1.2e-10, 1.0 + 2.4e-10, 1.5, 1.5, 2.0]) @ q.T
    m = (m + m.T) / 2
    spec = _assert_matches_per_block_oracle([m, m, m], cfg)
    assert [f.shape[1] for f in spec.frames] == [2, 1, 2, 1]


class TestStructureExtract:
    def test_weighted_shift_moduli_too_small(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 23), 24)
        chain = chain_decomposition(t, cfg)
        with pytest.raises(ModuliTooSmall):
            structure_extract(chain)

    def test_hardy_tau(self, cfg):
        # tau_1 = |a|^2 (2 + |a|^2) / (1 + |a|^2) = 0.45 at a = 1/2
        t = shift_plus_rank_one([0.5] * 15, 1.0, 0, 16)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        assert st.tau[0] == 1.0
        assert st.tau[1] == pytest.approx(0.45, abs=1e-12)

    def test_tau_positive_beta_zero_start(self, rng, cfg):
        for t in [
            shift_plus_rank_one(random_weights(rng, 23), 0.3 + 0.4j, 2, 24),
            shift_plus_rank_one([0.5] * 23, 1.0, 0, 24),
            aq_operator(0.5, 5.0, 24),
        ]:
            chain = chain_decomposition(t, cfg)
            st = structure_extract(chain)
            assert np.all(st.tau > 0), t.family
            assert st.beta[0] == 0.0

    def test_affine_law(self, rng, cfg):
        # every moduli character satisfies values = tau + A_char * beta
        t = shift_plus_rank_one(random_weights(rng, 23), 0.3 + 0.4j, 2, 24)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        assert st.residuals["hemma1"] <= 1e-8
        assert st.residuals["bt1"] <= 1e-9
        assert st.residuals["wwraw"] <= 1e-9

    def test_beta_pair_choice_collinear(self, cfg):
        # any distinct character pair gives the same beta up to one constant
        t = aq_operator(0.5, 5.0, 24)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        table = st.me_spectrum.table
        tau = st.tau[1:]
        base = st.beta[1:]
        rng = np.random.default_rng(0)
        for _ in range(6):
            i, j = rng.integers(0, len(table), 2)
            if i == j:
                continue
            alt = table[i] - table[j]
            # collinearity: alt x base = 0 as vectors
            cross = np.linalg.norm(alt) * np.linalg.norm(base) - abs(alt @ base)
            assert cross <= 1e-8 * max(1.0, np.linalg.norm(alt) * np.linalg.norm(base))

    def test_normalized_beta_leads_with_one(self, rng, cfg):
        t = shift_plus_rank_one(random_weights(rng, 23), 0.3 + 0.4j, 2, 24)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        sig = np.abs(st.beta_normalized) > 1e-9
        first = np.argmax(sig)
        assert st.beta_normalized[first] == pytest.approx(1.0)

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("family", ["sro", "hardy", "aq0.3"])
    def test_tau_and_the_compressed_family_are_slices_of_the_moduli_family(
            self, family, conj, cfg):
        # M_E's frame is [e, F]: tau_k = e* G_k e and the family on M_E (-) E,
        # F* G_k F, are the corner and the trailing block of M_E's k-th member
        rng = np.random.default_rng(11)
        model = family_model(family, 32, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, 32))
        chain = chain_decomposition(model, cfg)
        st = structure_extract(chain)
        _, me_mats, _ = spectral._moduli_spectrum(chain)
        e, F = chain.E.frame[:, 0], chain.M_E_block.frame[:, 1:]
        for k in range(1, chain.depth + 1):
            G = chain.grams[k]
            bound = 8 * chain.w * np.finfo(float).eps * chain.scales[k]
            assert abs(st.tau[k] - np.real(e.conj() @ G @ e)) <= bound
            assert np.linalg.norm(me_mats[k - 1][1:, 1:] - F.conj().T @ G @ F, 2) <= bound
        # wwraw is the trailing block of the residuals whose whole is bt1
        assert st.residuals["wwraw"] <= st.residuals["bt1"]

    def test_rotated_window_columns_of_each_power_form_once(self, cfg, monkeypatch):
        # the families on M_E and on each V_n read the window columns of T^k
        # from one memo per (k, w): in a rotated basis each is an N x N x w product
        rng = np.random.default_rng(11)
        model = family_model("sro", 32, rng).conjugated(random_unitary(rng, 32))
        chain = chain_decomposition(model, cfg)
        assert sum(V.dim > 0 for V in chain.V_block) > 1
        restricted = []
        restrict = OperatorModel.window_restrict

        def counting(self, m, w):
            restricted.append(w)
            return restrict(self, m, w)
        monkeypatch.setattr(OperatorModel, "window_restrict", counting)
        structure_extract(chain)
        spectral_correspondence_check(chain)
        assert restricted == [chain.w] * chain.depth

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64 here")
    def test_ill_conditioned_moduli_family_is_psd_to_roundoff(self, cfg):
        # G_k reaches 1e9 on this input (condition number about 1e20) while the
        # family on M_E (-) E stays near 2; a compression F* G_k F carried an
        # error of 4e-8 of that norm, C* C with C = T^k F one below 1e-12
        model = aq_operator(0.5, 1.123915264854093, 32)
        chain = chain_decomposition(model, cfg)
        w = chain.w
        F = chain.M_E_block.frame[:, 1:].astype(np.longdouble)
        _, me_mats, _ = spectral._moduli_spectrum(chain)
        for k, m in enumerate(me_mats, start=1):
            norm = np.linalg.norm(m, 2)
            assert np.array_equal(m, m.T)
            assert np.linalg.eigvalsh(m)[0] >= -1e-14 * norm
            C = model.window_restrict(_matrix_power(model, k), w).astype(np.longdouble) @ F
            tail = m[1:, 1:]
            gap = (tail - C.T @ C).astype(float)
            assert np.linalg.norm(gap, 2) <= 1e-11 * np.linalg.norm(tail, 2)


class TestEnumerateTriples:
    def test_rank_one_has_single_triple_above_its_index(self, rng, cfg):
        # oracle (exhaustive scan, frozen): the unique triple of the n = 2
        # family sits at tower depth m = 3 = n + 1
        t = shift_plus_rank_one(random_weights(rng, 31), 0.3 + 0.4j, 2, 32)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        triples = enumerate_triples(chain, st)
        assert len(triples) == 1
        assert triples[0]["m"] == 3
        assert triples[0]["residual"] <= 1e-10

    def test_hardy_triple_at_depth_one(self, cfg):
        t = shift_plus_rank_one([0.5] * 23, 1.0, 0, 24)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        triples = enumerate_triples(chain, st)
        assert len(triples) == 1
        assert triples[0]["m"] == 1

    def test_aq_has_many_triples(self, cfg):
        t = aq_operator(0.5, 5.0, 32)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        triples = enumerate_triples(chain, st)
        assert len(triples) >= 2
        keys = [(tr["gamma"], tr["m"], tr["lambda"]) for tr in triples]
        assert keys == sorted(keys)
        assert all(tr["residual"] <= cfg.spectral_match_tol for tr in triples)

    def test_product_identity_on_triples(self, rng):
        # lambda(T_m) gamma(P T_k P) = lambda(T_{m+k}) for every match; the
        # match tolerance is tightened so only true matches are accepted
        # (the default would also admit cluster-blurred pseudo-matches at
        # 1e-7, weaker than the 1e-8 identity asserted here)
        cfg = ToleranceConfig(spectral_match_tol=1e-9)
        for t in [
            shift_plus_rank_one(random_weights(rng, 31), 0.3 + 0.4j, 2, 32),
            aq_operator(0.5, 5.0, 32),
        ]:
            chain = chain_decomposition(t, cfg)
            st = structure_extract(chain)
            triples = enumerate_triples(chain, st)
            assert triples
            for tr in triples:
                m = tr["m"]
                lam = partial(character_value, st.me_spectrum, tr["lambda"])
                gam = partial(character_value, st.compressed_spectrum, tr["gamma"])
                for k in range(1, chain.depth - m + 1):
                    lhs = lam(m) * gam(k)
                    rhs = lam(m + k)
                    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestSpectralCorrespondence:
    def test_weighted_shift_exact(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 31), 32)
        chain = chain_decomposition(t, cfg)
        report = spectral_correspondence_check(chain)
        assert report["worst"] <= 1e-10
        assert report["per_layer"][0] == 0.0

    def test_hardy(self, cfg):
        t = shift_plus_rank_one([0.5] * 23, 1.0, 0, 24)
        chain = chain_decomposition(t, cfg)
        report = spectral_correspondence_check(chain)
        assert report["worst"] <= 1e-8

    def test_no_kernel_has_no_layers(self, cfg):
        # a unitary has ker T* = 0, so M_E and every layer V_n are empty
        t = from_matrix(np.diag(np.exp(1j * np.arange(5))))
        chain = chain_decomposition(t, cfg)
        assert spectral_correspondence_check(chain) == {"per_layer": {}, "worst": 0.0}

    def test_vanishing_characters_use_the_tau_ratio(self, cfg):
        # tau_m = 1e-4m falls below the zero tolerance from m = 3 on, so the
        # ratios there come from tau instead of the character values
        t = weighted_shift([0.01] * 15, 16)
        chain = chain_decomposition(t, cfg)
        assert gram_power(t, 3)[0, 0].real < cfg.rank_tol
        assert spectral_correspondence_check(chain)["worst"] <= 1e-10

    def test_each_family_is_diagonalized_once(self, monkeypatch, cfg):
        # structure, triples and correspondence share one M_E spectrum
        seen = []
        diagonalize = spectral.joint_diagonalize

        def recording(family, cfg):
            seen.append(b"".join(np.ascontiguousarray(m).tobytes() for m in family))
            return diagonalize(family, cfg)

        monkeypatch.setattr(spectral, "joint_diagonalize", recording)
        t = aq_operator(0.5, 5.0, 32)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        enumerate_triples(chain, st)
        spectral_correspondence_check(chain)
        assert len(seen) >= 2
        assert len(set(seen)) == len(seen)

    def test_shift_ratio_formula(self, rng, cfg):
        # the layer-n character value on T_j is the weight-product ratio
        w = rng.uniform(0.6, 1.4, 31)
        t = weighted_shift(w, 32)
        chain = chain_decomposition(t, cfg)
        lam = np.concatenate([[1.0], np.cumprod(w ** 2)])
        for m in range(1, chain.depth):
            vm = lift(chain, chain.V_block[m]).frame[:, 0]
            for j in range(1, chain.depth - m):
                g = gram_power(t, j)
                val = np.real(vm.conj() @ g @ vm)
                assert val == pytest.approx(lam[m + j] / lam[m], rel=1e-10)


class TestSpectralSideConditions:
    def test_shared_value_forces_eigenvector(self, rng, cfg):
        # distinct extreme characters sharing a value at m would force the
        # kernel vector to be an eigenvector of that gram power
        t = shift_plus_rank_one(random_weights(rng, 23), 0.3 + 0.4j, 2, 24)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        # the extreme characters sit at the ends of the affine coordinate
        lam, mu = (partial(character_value, st.me_spectrum, int(c))
                   for c in (np.argmax(st.A_values), np.argmin(st.A_values)))
        e = lift(chain, chain.E).frame[:, 0]
        scale = max(np.abs(st.me_spectrum.table[np.argmax(st.A_values)]).max(), 1.0)
        for m in range(1, chain.depth + 1):
            if abs(lam(m) - mu(m)) <= 1e-9 * scale:
                g = gram_power(t, m)
                resid = np.linalg.norm(g @ e - st.tau[m] * e)
                assert resid <= 1e-8 * max(1.0, np.linalg.norm(g, 2))

    def test_zero_propagation(self, cfg):
        # PQ example: one moduli character vanishes at every depth
        t = projection_product(PQ_P, PQ_Q)
        sub, _ = moduli_subspace(t, cfg)
        mats = [sub.frame.conj().T @ gram_power(t, k) @ sub.frame
                for k in range(1, cfg.depth + 1)]
        spec = joint_diagonalize(mats, cfg)
        scale = max(np.linalg.norm(m, 2) for m in mats)
        for values in spec.table:
            hit = np.abs(values) <= 1e-12 * scale
            if hit.any():
                first = int(np.argmax(hit))
                assert np.all(np.abs(values[first:]) <= 1e-10 * scale)

    def test_compressed_family_has_two_characters_when_moduli_big(self, cfg):
        # dim M_E >= 3 forces at least two characters downstairs
        t = aq_operator(0.5, 5.0, 24)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        assert lift(chain, chain.M_E_block).dim >= 3
        assert len(st.compressed_spectrum.table) >= 2

    def test_affine_coefficients_differ_when_moduli_is_a_plane(self, rng, cfg):
        # dim M_E = 2: the affine coefficient of a triple's moduli character
        # can never match the coefficient of its compressed partner
        for t in [
            shift_plus_rank_one(random_weights(rng, 31), 0.3 + 0.4j, 2, 32),
            shift_plus_rank_one([0.5] * 23, 1.0, 0, 24),
        ]:
            chain = chain_decomposition(t, cfg)
            st = structure_extract(chain)
            assert lift(chain, chain.M_E_block).dim == 2
            triples = enumerate_triples(chain, st)
            assert triples
            for tr in triples:
                gap = abs(st.A_values[tr["lambda"]] - st.C_values[tr["gamma"]])
                assert gap > 1e-6, (t.family, tr)
