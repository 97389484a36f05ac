import numpy as np
import pytest
from numpy.testing import assert_allclose

import hclab.classifier
from hclab import (
    OperatorModel,
    aq_operator,
    chain_decomposition,
    classify,
    enumerate_triples,
    from_matrix,
    gram_power,
    projection_product,
    recurrence_residual,
    relation_detect,
    shift_plus_rank_one,
    shift_rank_one_reconstruct,
    structure_extract,
    weighted_shift,
)
from hclab.chains import krylov_closure
from hclab.commutation import RowMap, _singular_pairs, _window_view, effective_depth
from hclab.classifier import (_REFERENCE_3, _REFERENCE_4, _canonical_null_vector,
                              _closed_range_flag, _relation_columns)
from hclab.errors import (
    HclabError,
    NoRelationFound,
    NotSingleTriple,
    PatternResidualTooLarge,
    PreconditionViolated,
)
from hclab.linalg import _hermitian_view, _split_norm

from conftest import coefficients, family_model, lift, random_unitary, random_weights, three_term

PQ_P = np.array([[0.5, -0.5], [-0.5, 0.5]])
PQ_Q = np.array([[1.0, 0.0], [0.0, 0.0]])


class TestRelationDetect:
    def test_aq_recovers_q_relation(self, cfg):
        # I - (1 + 1/q) T_1 + (1/q) T_2 = 0, normalized: (1, -3, 2)/sqrt(14)
        t = aq_operator(0.5, 5.0, 48)
        cert = relation_detect(t, cfg)
        assert cert["degenerate"] and (cert["n"], cert["m"]) == (1, 1)
        assert_allclose(three_term(cert), np.array([1.0, -3.0, 2.0]) / np.sqrt(14),
                        atol=1e-6)
        assert cert["residual"] <= 1e-10

    def test_isometry_second_difference(self, cfg):
        t = weighted_shift([1.0] * 31, 32)
        cert = relation_detect(t, cfg)
        assert_allclose(three_term(cert), np.array([1.0, -2.0, 1.0]) / np.sqrt(6),
                        atol=1e-12)
        assert cert["residual"] <= 1e-14

    def test_generic_rank_one_has_no_relation(self, rng, cfg):
        t = shift_plus_rank_one(random_weights(rng, 31), 0.3 + 0.4j, 2, 32)
        with pytest.raises(NoRelationFound):
            relation_detect(t, cfg)

    def test_hardy_satisfies_relation(self, cfg):
        # constant weights collapse the grams to scalar + rank-one, which
        # does satisfy a three-term relation: (|a|^2, -(1+|a|^2), 1)
        a = 0.5
        t = shift_plus_rank_one([a] * 23, 1.0, 0, 24)
        cert = relation_detect(t, cfg)
        expect = np.array([a * a, -(1 + a * a), 1.0])
        expect /= np.linalg.norm(expect)
        assert_allclose(three_term(cert), expect, atol=1e-10)

    def test_coefficient_conventions(self, cfg):
        cert = relation_detect(aq_operator(0.5, 5.0, 32), cfg)
        coeffs = np.asarray(coefficients(cert))
        assert np.linalg.norm(coeffs) == pytest.approx(1.0)
        sig = np.abs(coeffs) > 1e-8
        assert coeffs[np.argmax(sig)] > 0

    def test_recurrence_residual_helper(self):
        tau = np.array([2.0 ** (-2 * k) for k in range(7)])
        # tau_k satisfies tau_{k+1} = tau_k / 4: (1, -4, 0, 0) on (k, k+1, ..)
        res = recurrence_residual((1.0, -4.0, 0.0, 0.0), 1, 1, tau)
        assert res <= 1e-15

    def test_dirichlet_type_shift(self, cfg):
        # weights sqrt((k+2)/(k+1)) satisfy I - 2 T_1 + T_2 = 0 exactly but
        # are not an isometry: the null space is one-dimensional here, so
        # the canonical answer arrives without any degenerate tie-breaking
        n = 32
        w = np.sqrt((np.arange(n - 1) + 2) / (np.arange(n - 1) + 1))
        t = weighted_shift(w, n)
        cert = relation_detect(t, cfg)
        assert_allclose(three_term(cert), np.array([1.0, -2.0, 1.0]) / np.sqrt(6),
                        atol=1e-12)
        # and as a centered weighted shift it lands in the first verdict
        assert classify(t, cfg)["verdict"] == "centered_weighted_shift"


def _nonzero_entries(grams):
    """Each gram as the vector of the entries any of them can hold: the
    diagonal of the indices whose row and column are zero off the diagonal
    in every gram, then the block of the other indices."""
    off = np.zeros(grams[0].shape, dtype=bool)
    for g in grams:
        off |= g != 0
    np.fill_diagonal(off, False)
    rows = off.any(axis=0) | off.any(axis=1)
    return [np.concatenate([np.diagonal(g)[~rows], g[np.ix_(rows, rows)].ravel()])
            for g in grams]


def _exhaustive_relation_detect(model, cfg):
    """Reference search: certify every exponent pair, each on the stack of
    ``_nonzero_entries``, then take the smallest (n + m, n) among those that
    clear the tolerance."""
    K = effective_depth(model, cfg)
    candidates = []
    for n in range(1, K // 2 + 1):
        for m in range(n, K - n + 1):
            w = model.window(n + m)
            if w < 2:
                continue
            powers = (0, n, 2 * n) if n == m else (0, n, m, n + m)
            reference = _REFERENCE_3 if n == m else _REFERENCE_4
            blocks = _nonzero_entries([_window_view(model, k, False, w)[0] for k in powers])
            stack = np.column_stack(blocks)
            coeffs = _canonical_null_vector(stack, reference, cfg.relation_tol)
            combo = sum(ci * blk for ci, blk in zip(coeffs, blocks))
            term = max(np.linalg.norm(ci * blk) for ci, blk in zip(coeffs, blocks))
            residual = float(np.linalg.norm(combo) / max(term, 1e-300))
            stored = (coeffs[0], coeffs[1], 0.0, coeffs[2]) if n == m else tuple(coeffs)
            candidates.append((residual, n + m, n, m, stored))
    if not candidates:
        raise NoRelationFound("no exponent pair fits inside the window")
    accepted = [c for c in candidates if c[0] <= cfg.relation_tol]
    if not accepted:
        best = min(candidates)
        raise NoRelationFound(
            f"best residual {best[0]:.3e} at (n, m) = ({best[2]}, {best[3]}) "
            f"exceeds {cfg.relation_tol:.1e}"
        )
    residual, _, n, m, stored = min(accepted, key=lambda c: (c[1], c[2]))
    return {**dict(zip("abcd", map(float, stored))), "n": n, "m": m, "residual": residual,
            "degenerate": n == m, "tau_residual": None, "beta_residual": None}


def _outcome(search, model, cfg):
    """The certificate of ``search``, or the type and message of its error."""
    try:
        return search(model, cfg)
    except HclabError as exc:
        return type(exc).__name__, str(exc)


def _relation_model(family, n, rng):
    if family == "ws":
        return weighted_shift(random_weights(rng, n - 1), n)
    if family == "sro":
        return shift_plus_rank_one(random_weights(rng, n - 1), 0.3 + 0.4j, 2, n)
    if family == "hardy":
        return shift_plus_rank_one([0.5] * (n - 1), 1.0, 0, n)
    return aq_operator(float(family[2:]), None, n)


class TestRelationSearchParity:
    """The first pair to clear the tolerance in canonical order is the pair the
    exhaustive search picks, with a bit-identical certificate."""

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.5", "aq0.7"])
    def test_same_answer_as_the_exhaustive_search(self, family, n, conj, cfg):
        rng = np.random.default_rng(n)
        model = _relation_model(family, n, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, n))
        expected = _outcome(_exhaustive_relation_detect, model, cfg)
        assert _outcome(relation_detect, model, cfg) == expected

    def test_pairs_after_the_relation_are_not_tried(self, cfg, monkeypatch):
        # aq q = 0.66 at N = 16 in a rotated basis: (1, 2) clears the tolerance
        # after (1, 1), so the search factors two stacks where the exhaustive
        # one factors all nine, and both pick the same pair
        rng = np.random.default_rng(16)
        model = aq_operator(0.66, None, 16).conjugated(random_unitary(rng, 16))
        expected = _exhaustive_relation_detect(model, cfg)
        calls = []

        def counting(*args):
            calls.append(args)
            return _canonical_null_vector(*args)
        monkeypatch.setattr("hclab.classifier._canonical_null_vector", counting)
        cert = relation_detect(model, cfg)
        assert (cert["n"], cert["m"]) == (expected["n"], expected["m"]) == (1, 2)
        assert len(calls) == 2
        assert cert["residual"] <= cfg.relation_tol

    def test_rotated_null_vector_is_real_within_its_accuracy(self, cfg):
        # aq (q = 0.5, r = 5, N = 12) under 20 Haar unitaries, pair (1, 3) on
        # window 8: the imaginary parts reach 1.7e-10, within the null
        # vector's accuracy eps * s[0] / s[-2] = 4.1e-9
        eps = np.finfo(float).eps
        for seed in range(20240600, 20240620):
            u = random_unitary(np.random.default_rng(seed), 12)
            model = aq_operator(0.5, 5.0, 12).conjugated(u)
            w = model.window(4)
            blocks = [_window_view(model, k, False, w)[0] for k in (0, 1, 3, 4)]
            stack = np.column_stack([blk.ravel() for blk in blocks])
            s = np.linalg.svd(stack, compute_uv=False)
            assert 1e-10 < eps * s[0] / s[-2] < cfg.relation_tol
            vec = _canonical_null_vector(stack, _REFERENCE_4, cfg.relation_tol)
            assert vec.dtype == float and abs(np.linalg.norm(vec) - 1.0) <= 4 * eps
            assert np.linalg.norm(stack @ vec) <= 1e-13 * s[0]

    def test_complex_null_vector_is_rejected(self, rng):
        # c1 + i c2 = 0: the null vector (1, i) / sqrt(2) is complex at any cut
        c = rng.standard_normal(16)
        with pytest.raises(HclabError, match="failed to be real"):
            _canonical_null_vector(np.column_stack([c, 1j * c]), np.ones(2), 1e-8)

    def test_aq_takes_one_null_vector(self, cfg, monkeypatch):
        # (1, 1) clears the tolerance; the exhaustive search takes all 9 pairs of K = 6
        calls = []

        def counting(*args):
            calls.append(args)
            return _canonical_null_vector(*args)
        monkeypatch.setattr("hclab.classifier._canonical_null_vector", counting)
        cert = relation_detect(aq_operator(0.5, None, 64), cfg)
        assert (cert["n"], cert["m"]) == (1, 1)
        assert len(calls) == 1

    @pytest.mark.parametrize("stage", [relation_detect, _closed_range_flag],
                             ids=["relation_detect", "closed_range_flag"])
    def test_second_call_compresses_no_gram(self, stage, cfg, monkeypatch):
        model = aq_operator(0.5, 5.0, 32)
        stage(model, cfg)
        calls = []
        compress = OperatorModel.window_compress

        def counting(self, m, w):
            calls.append(w)
            return compress(self, m, w)
        monkeypatch.setattr(OperatorModel, "window_compress", counting)
        stage(model, cfg)
        assert calls == []


def _full_columns(model, powers, w):
    """Every entry of each window gram, the stack before it was reduced."""
    return [_window_view(model, k, False, w)[0].ravel() for k in powers]


def _pair_and_flag(outcome):
    """(n, m, degenerate) of a certificate, or the class of the error."""
    if isinstance(outcome, dict):
        return outcome["n"], outcome["m"], outcome["degenerate"]
    return outcome[0]


def _assert_keeps_every_nonzero(reduced, full):
    """Each column of ``reduced`` holds exactly the nonzero entries of the
    same column of ``full``, and zeros beside them."""
    for r, f in zip(reduced.T, full.T):
        assert np.array_equal(np.sort_complex(r[r != 0]), np.sort_complex(f[f != 0]))


class TestReducedRelationStack:
    """The stack of the entries the grams can hold has the full stack's
    singular values, and the search stops where the full stack's does."""

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.5", "aq0.7"])
    def test_same_spectrum_and_pair_as_the_full_stack(self, family, n, conj, cfg,
                                                      monkeypatch):
        rng = np.random.default_rng(n)
        model = _relation_model(family, n, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, n))
        K = effective_depth(model, cfg)
        for total in range(2, K + 1):
            w = model.window(total)
            for k in range(1, total // 2 + 1):
                powers = (0, k, total) if 2 * k == total else (0, k, total - k, total)
                reduced = np.column_stack(_relation_columns(model, powers, w))
                full = np.column_stack(_full_columns(model, powers, w))
                if conj:  # a rotated window couples every row: stacked whole
                    assert np.array_equal(reduced, full)
                _assert_keeps_every_nonzero(reduced, full)
                s_full = np.linalg.svd(full, compute_uv=False)
                s_reduced = np.linalg.svd(reduced, compute_uv=False)
                assert np.max(np.abs(s_reduced - s_full)) <= 10 * np.finfo(float).eps * s_full[0]
        found = _outcome(relation_detect, model, cfg)
        monkeypatch.setattr("hclab.classifier._relation_columns", _full_columns)
        assert _pair_and_flag(found) == _pair_and_flag(_outcome(relation_detect, model, cfg))

    def test_union_of_the_masks(self):
        # a shift with a second path e_1 -> e_7: G_1 couples rows 1 and 6,
        # G_2 rows 0 and 5, and G_3 none, so no one gram's mask holds the
        # entries of all four
        a = np.diag(np.linspace(0.6, 1.4, 7), -1)
        a[7, 1] = 0.4
        model = from_matrix(a)
        powers = (0, 1, 2, 3)
        masks = [_window_view(model, k, False, 8)[1] for k in powers]
        assert [np.flatnonzero(m).tolist() for m in masks] == [[], [1, 6], [0, 5], []]
        reduced = np.column_stack(_relation_columns(model, powers, 8))
        full = np.column_stack(_full_columns(model, powers, 8))
        assert reduced.shape == (4 + 4 * 4, 4)
        _assert_keeps_every_nonzero(reduced, full)

    def test_shift_plus_rank_one_stacks_a_few_rows(self, rng, cfg):
        model = _relation_model("sro", 160, rng)
        K = effective_depth(model, cfg)
        kept = entries = 0
        for total in range(2, K + 1):
            w = model.window(total)
            for k in range(1, total // 2 + 1):
                powers = (0, k, total) if 2 * k == total else (0, k, total - k, total)
                kept += _relation_columns(model, powers, w)[0].size
                entries += w * w
        assert kept < 0.01 * entries


def _normal_form(model, cfg):
    """The (row, basis) pair of ``shift_rank_one_reconstruct`` on the chain of
    ``model``: the basis the classify row does not report."""
    chain = chain_decomposition(model, cfg)
    structure = structure_extract(chain)
    return shift_rank_one_reconstruct(chain, structure, enumerate_triples(chain, structure))


class TestShiftRankOneReconstruct:
    def test_recovers_constructor_data(self, rng, cfg):
        n, N = 2, 32
        w = random_weights(rng, N - 1)
        a = 0.3 + 0.4j
        t = shift_plus_rank_one(w, a, n, N)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        triples = enumerate_triples(chain, st)
        cert = shift_rank_one_reconstruct(chain, st, triples)[0]
        assert cert["n"] == n
        assert cert["a_abs"] == pytest.approx(abs(a), abs=1e-10)
        assert_allclose(cert["weights_abs"], np.abs(w)[: len(cert["weights_abs"])], atol=1e-10)
        assert cert["residual"] <= 1e-8
        assert cert["joint_eigenvector_residual"] <= 1e-8

    @pytest.mark.parametrize("conj", [False, True])
    def test_basis_is_orthonormal(self, rng, cfg, conj):
        t = shift_plus_rank_one(random_weights(rng, 47), 0.3 + 0.4j, 2, 48)
        if conj:
            t = t.conjugated(random_unitary(rng, 48))
        X = _normal_form(t, cfg)[1]
        assert X.shape == (48, 48)
        assert np.linalg.norm(X.conj().T @ X - np.eye(48)) <= 1e-12

    def test_hardy_recovers_corner_form(self, cfg):
        t = shift_plus_rank_one([0.5] * 23, 1.0, 0, 24)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        triples = enumerate_triples(chain, st)
        cert = shift_rank_one_reconstruct(chain, st, triples)[0]
        assert cert["n"] == 0
        assert cert["a_abs"] == pytest.approx(1.0, abs=1e-10)
        assert_allclose(cert["weights_abs"], 0.5, atol=1e-10)

    @pytest.mark.parametrize("N", [64, 128, 256])
    def test_hardy_basis_fills_the_space(self, N, cfg):
        # T^k w decays like 0.5^k: an absolute cut on it stopped the basis at 35
        t = shift_plus_rank_one([0.5] * (N - 1), 1.0, 0, N)
        cert, basis = _normal_form(t, cfg)
        assert classify(t, cfg)["reconstruction"] == cert
        assert basis.shape == (N, N)
        assert cert["n"] == 0 and cert["a_abs"] == pytest.approx(1.0, abs=1e-10)
        assert_allclose(cert["weights_abs"], 0.5, atol=1e-10)
        assert cert["residual"] <= 1e-12 and cert["joint_eigenvector_residual"] <= 1e-12

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("N", [48, 128])
    @pytest.mark.parametrize("family", ["sro", "hardy"])
    def test_joint_residual_matches_the_compressed_grams(self, family, N, conj, rng, cfg):
        # on a square basis ||G X - X diag||_F = ||offdiag(X* G X)||_F, which
        # needs the columns of X to stay orthonormal down a chain of N;
        # the sro weights are the command-line grid's (real, alternating sign)
        weights = [(-1) ** (k + 1) * (0.6 + 0.1 * (k % 5)) for k in range(N - 1)]
        t = (shift_plus_rank_one(weights, 0.3 + 0.4j, 2, N) if family == "sro"
             else shift_plus_rank_one([0.5] * (N - 1), 1.0, 0, N))
        if conj:
            t = t.conjugated(random_unitary(rng, N))
        chain = chain_decomposition(t, cfg)
        cert, X = _normal_form(t, cfg)
        assert classify(t, cfg)["reconstruction"] == cert
        assert X.shape == (N, N)
        old = 0.0
        for k in range(1, chain.depth + 1):
            g = X.conj().T @ gram_power(t, k) @ X
            offd = g - np.diag(np.diag(g))
            old = max(old, np.linalg.norm(offd) / _split_norm(*_hermitian_view(g)))
        assert abs(cert["joint_eigenvector_residual"] - old) <= 1e-14

    def test_requires_single_triple(self, cfg):
        t = aq_operator(0.5, 5.0, 32)
        chain = chain_decomposition(t, cfg)
        st = structure_extract(chain)
        triples = enumerate_triples(chain, st)
        with pytest.raises((NotSingleTriple, PreconditionViolated)):
            shift_rank_one_reconstruct(chain, st, triples)


class TestClassify:
    def test_weighted_shift(self, rng, cfg):
        rep = classify(weighted_shift(random_weights(rng, 31), 32), cfg)
        assert rep["verdict"] == "centered_weighted_shift"
        assert rep["dim_M_E"] == 1 and rep["condition_II_ok"]

    def test_generic_rank_one(self, rng, cfg):
        rep = classify(shift_plus_rank_one(random_weights(rng, 31), 0.3 + 0.4j, 2, 32), cfg)
        assert rep["verdict"] == "shift_plus_rank_one"
        assert rep["reconstruction"]["n"] == 2
        assert rep["relation"] is None

    def test_aq(self, cfg):
        rep = classify(aq_operator(0.5, 5.0, 48), cfg)
        assert rep["verdict"] == "four_term_relation"
        assert rep["dim_M_E"] >= 3
        assert abs(rep["relation"]["a"]) > 1e-5
        assert rep["closed_range"]

    def test_hardy_both(self, cfg):
        rep = classify(shift_plus_rank_one([0.5] * 23, 1.0, 0, 24), cfg)
        assert rep["verdict"] == "both"
        assert rep["reconstruction"] is not None and rep["relation"] is not None

    def test_zero_coefficient_degenerates_to_shift(self, rng, cfg):
        # a = 0 collapses the moduli subspace back to the kernel line, so
        # the verdict lands upstream of the reconstruction branch
        t = shift_plus_rank_one(random_weights(rng, 31), 0.0, 2, 32)
        rep = classify(t, cfg)
        assert rep["verdict"] == "centered_weighted_shift"
        assert rep["dim_M_E"] == 1

    def test_rejects_non_half_centered(self, cfg):
        with pytest.raises(PreconditionViolated):
            classify(from_matrix([[1.0, 1.0], [0.0, 1.0]]), cfg)

    def test_rejects_wrong_kernel_dimension(self, rng, cfg):
        # invertible operator: the kernel of T* is zero-dimensional
        t = from_matrix(np.diag(rng.uniform(1, 2, 16)))
        with pytest.raises(PreconditionViolated):
            classify(t, cfg)

    def test_rejects_non_injective(self, cfg):
        with pytest.raises(PreconditionViolated):
            classify(projection_product(PQ_P, PQ_Q), cfg)


def _scalar_plus_shift(conj):
    """0.9 I_2 (+) a weighted shift with weights linspace(0.8, 1.2, 21), N = 24,
    not exact: ker T* is the shift's first index, M_E is that line, and its
    closure under T never reaches the eigenvectors of the scalar part."""
    T = np.zeros((24, 24))
    T[0, 0] = T[1, 1] = 0.9
    T[np.arange(3, 24), np.arange(2, 23)] = np.linspace(0.8, 1.2, 21)
    model = from_matrix(T, exact=False)
    return model.conjugated(random_unitary(np.random.default_rng(24), 24)) if conj else model


class TestConditionII:
    """classify reads condition II off a normal-form basis of N columns, and
    closes M_E under the chain's block matrix T_b only when there is none."""

    @pytest.fixture
    def closures(self, monkeypatch):
        """The matrices classify's ``krylov_closure`` calls close under; the
        chain classify builds goes to ``self.chain``."""
        calls = []
        build = hclab.classifier.chain_decomposition

        def counting(matrix, *args, **kwargs):
            calls.append(matrix)
            return krylov_closure(matrix, *args, **kwargs)

        def keep(*args):
            self.chain = build(*args)
            return self.chain

        monkeypatch.setattr(hclab.classifier, "krylov_closure", counting)
        monkeypatch.setattr(hclab.classifier, "chain_decomposition", keep)
        return calls

    def block_closures(self, closures):
        """The closures under classify's block matrix T_b, or its row map on the band route."""
        return [matrix for matrix in closures if matrix is self.chain.matrix
                or (isinstance(matrix, RowMap) and matrix.col.size == self.chain.w)]

    @staticmethod
    def direct(model, cfg):
        """(span_status, span_defect, condition_II_ok) of the closure of M_E
        under T_b, whose probe, the block's columns, is the identity."""
        chain = chain_decomposition(model, cfg)
        frame, status = krylov_closure(chain.matrix, chain.M_E_block.frame,
                                       _singular_pairs(model)[1][0], cfg.rank_tol)
        defect = 0.0
        if status != "capped":
            defect = float(np.linalg.norm(np.eye(chain.w) - frame @ frame.conj().T, 2))
        return status, defect, defect <= 1e-8

    @staticmethod
    def ambient(model, cfg):
        """(span_status, condition_II_ok) of the closure of M_E, lifted, under
        the N x N matrix, probed on the window columns of the chain's depth."""
        chain = chain_decomposition(model, cfg)
        seed = model.window_cols(chain.w) @ chain.M_E_block.frame
        frame, status = krylov_closure(model.matrix, seed, _singular_pairs(model)[1][0],
                                       cfg.rank_tol)
        if status == "capped":
            return status, True
        probe = model.window_cols(model.window(chain.depth))
        leak = probe - frame @ (frame.conj().T @ probe)
        return status, float(np.linalg.norm(leak, 2)) <= 1e-8

    @staticmethod
    def reported(rep):
        diagnostics = rep["diagnostics"]
        return diagnostics["span_status"], diagnostics["span_defect"], rep["condition_II_ok"]

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("N", [16, 64, 128])
    @pytest.mark.parametrize("family", ["sro", "hardy"])
    def test_normal_form_basis_is_the_closure(self, family, N, conj, rng, cfg, closures):
        model = family_model(family, N, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, N))
        rep = classify(model, cfg)
        assert rep["reconstruction"] is not None
        assert self.block_closures(closures) == []
        assert _normal_form(model, cfg)[1].shape == (N, N)
        assert self.reported(rep) == self.direct(model, cfg) == ("capped", 0.0, True)

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("N", [32, 64])
    def test_M_E_filling_the_block_is_its_own_closure(self, N, conj, rng, cfg, closures):
        model = family_model("aq0.7", N, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, N))
        rep = classify(model, cfg)
        chain = chain_decomposition(model, cfg)
        assert rep["reconstruction"] is None and chain.M_E_block.dim == chain.w
        assert self.block_closures(closures) == []
        assert self.reported(rep) == self.direct(model, cfg) == ("capped", 0.0, True)

    @pytest.mark.parametrize("family, N", [("ws", 32), ("aq0.5r5", 48)])
    def test_other_families_build_the_closure_once(self, family, N, rng, cfg, closures):
        model = family_model(family, N, rng)
        rep = classify(model, cfg)
        assert rep["reconstruction"] is None
        assert len(self.block_closures(closures)) == len(closures) == 1
        assert self.reported(rep) == self.direct(model, cfg)

    @pytest.mark.parametrize("outcome", ["raises", "narrow"])
    def test_falls_back_without_a_full_basis(self, outcome, rng, cfg, closures, monkeypatch):
        reconstruct = hclab.classifier.shift_rank_one_reconstruct

        def patched(*args):
            if outcome == "raises":
                raise PatternResidualTooLarge("off-pattern mass 1.000e+00")
            cert, basis = reconstruct(*args)
            return cert, basis[:, :-1]

        monkeypatch.setattr(hclab.classifier, "shift_rank_one_reconstruct", patched)
        model = family_model("sro", 32, rng)
        rep = classify(model, cfg)
        assert (rep["reconstruction"] is None) == (outcome == "raises")
        assert len(self.block_closures(closures)) == 1
        assert self.reported(rep) == self.direct(model, cfg) == ("capped", 0.0, True)

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    def test_fails_when_an_eigenspace_lies_outside_the_shift(self, conj, cfg, closures):
        model = _scalar_plus_shift(conj)
        rep = classify(model, cfg)
        assert rep["verdict"] == "centered_weighted_shift"
        assert len(self.block_closures(closures)) == 1
        assert self.reported(rep) == ("stable", pytest.approx(1.0, abs=1e-12), False)
        # the report reads the defect off the status; the oracle's SVD is 1 to roundoff
        (status, defect, ok), (ref_status, ref_defect, ref_ok) = (self.reported(rep),
                                                                  self.direct(model, cfg))
        assert (status, ok) == (ref_status, ref_ok)
        assert abs(defect - ref_defect) <= 4 * np.finfo(float).eps
        assert self.ambient(model, cfg) == ("stable", False)

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.3", "aq0.5r5", "aq0.7"])
    def test_block_closure_matches_ambient_oracle(self, family, n, conj, cfg):
        rng = np.random.default_rng(n)
        model = family_model(family, n, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, n))
        diagnostics = {}
        ok = hclab.classifier._condition_II(chain_decomposition(model, cfg), 0, diagnostics)
        assert (diagnostics["span_status"], ok) == self.ambient(model, cfg)


class TestCertificateInvariants:
    def test_recurrences_for_accepted_relations(self, cfg):
        for t in [aq_operator(0.5, 5.0, 48), shift_plus_rank_one([0.5] * 23, 1.0, 0, 24)]:
            rep = classify(t, cfg)
            assert rep["relation"] is not None
            assert rep["relation"]["tau_residual"] <= 1e-8
            assert rep["relation"]["beta_residual"] <= 1e-8

    def test_relation_restricted_to_layers(self, cfg):
        # an accepted relation also annihilates each chain layer
        t = aq_operator(0.5, 5.0, 32)
        rep = classify(t, cfg)
        a, b, c, d = coefficients(rep["relation"])
        n, m = rep["relation"]["n"], rep["relation"]["m"]
        chain = chain_decomposition(t, cfg)
        from hclab import gram_power

        combo = (a * np.eye(t.dim) + b * gram_power(t, n) + c * gram_power(t, m)
                 + d * gram_power(t, n + m))
        for v in chain.V_block:
            if v.dim == 0:
                continue
            assert np.linalg.norm(combo @ lift(chain, v).frame) <= 1e-8

    def test_closed_range_under_relation(self, cfg):
        t = aq_operator(0.5, 5.0, 48)
        rep = classify(t, cfg)
        assert rep["dim_M_E"] >= 3
        assert rep["closed_range"]
        from hclab import gram_power

        g1 = gram_power(t, 1)
        w = t.window(1)
        smin = np.linalg.svd(g1[:w, :w], compute_uv=False)[-1]
        assert smin > cfg.rank_tol

    def test_reconstruction_roundtrip_seeded(self, cfg):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(0, 4))
            w = random_weights(rng, 27)
            a = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.5, 0.5))
            t = shift_plus_rank_one(w, a, n, 28)
            rep = classify(t, cfg)
            assert rep["reconstruction"] is not None, (seed, n, rep["verdict"])
            cert = rep["reconstruction"]
            assert cert["n"] == n
            assert cert["a_abs"] == pytest.approx(abs(a), abs=1e-8)
            assert_allclose(cert["weights_abs"], np.abs(w)[: len(cert["weights_abs"])],
                            atol=1e-8)


class TestSeedStability:
    def test_verdicts_do_not_depend_on_the_seed(self, rng):
        t = shift_plus_rank_one(random_weights(rng, 23), 0.3 + 0.4j, 2, 24)
        verdicts = set()
        for seed in (1, 7, 1234):
            from hclab import ToleranceConfig

            rep = classify(t, ToleranceConfig(seed=seed))
            verdicts.add((rep["verdict"], rep["triples"], rep["reconstruction"]["n"]))
        assert len(verdicts) == 1


class TestUnitaryStability:
    @pytest.mark.parametrize("family", ["shift", "rank_one", "hardy", "aq"])
    def test_verdicts_stable(self, family, cfg):
        rng = np.random.default_rng(42)
        n = 24
        model = {
            "shift": lambda: weighted_shift(random_weights(rng, n - 1), n),
            "rank_one": lambda: shift_plus_rank_one(random_weights(rng, n - 1),
                                                    0.3 + 0.4j, 2, n),
            "hardy": lambda: shift_plus_rank_one([0.5] * (n - 1), 1.0, 0, n),
            "aq": lambda: aq_operator(0.5, 5.0, n),
        }[family]()
        base = classify(model, cfg)
        for _ in range(3):
            u = random_unitary(rng, n)
            rot = classify(model.conjugated(u), cfg)
            assert rot["verdict"] == base["verdict"]
            if base["relation"] is not None:
                assert_allclose(coefficients(rot["relation"]), coefficients(base["relation"]),
                                atol=1e-7)
            if base["reconstruction"] is not None:
                assert rot["reconstruction"]["n"] == base["reconstruction"]["n"]
                assert rot["reconstruction"]["a_abs"] == pytest.approx(
                    base["reconstruction"]["a_abs"], abs=1e-8)
