import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hclab import (
    ToleranceConfig,
    aq_operator,
    cauchy_dual,
    composition_operator,
    gram_power,
    half_centered_check,
    load_operator_spec,
    projection_product,
    shift_plus_rank_one,
    weighted_shift,
)
from hclab.errors import (
    IndexOutOfRange,
    NotLeftInvertible,
    NotPositive,
    NotProjection,
    SpecParseError,
    ZeroWeight,
)
from hclab.matio import dumps_matrix
from hclab.operators import _jsonable, aq_matrix

from conftest import random_weights

PQ_P = np.array([[0.5, -0.5], [-0.5, 0.5]])
PQ_Q = np.array([[1.0, 0.0], [0.0, 0.0]])


class TestWeightedShift:
    def test_unit_weights(self):
        t = weighted_shift([1, 1, 1], 4)
        assert_allclose(np.diag(gram_power(t, 1)).real, [1, 1, 1, 0])

    def test_gram_diagonal(self, rng):
        w = random_weights(rng, 7)
        t = weighted_shift(w, 8)
        g = gram_power(t, 1)
        assert_allclose(np.diag(g).real, np.append(np.abs(w) ** 2, 0.0))
        assert_allclose(g - np.diag(np.diag(g)), 0, atol=1e-15)

    def test_second_gram_power(self):
        t = weighted_shift([1, 2, 3], 4)
        assert_allclose(gram_power(t, 2), np.diag([4.0, 36.0, 0.0, 0.0]), atol=1e-14)

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            weighted_shift([1, 0, 1], 4)

    def test_window(self):
        t = weighted_shift([1, 2, 3], 4)
        assert [t.window(k) for k in range(4)] == [4, 3, 2, 1]


class TestShiftPlusRankOne:
    def test_zero_coefficient_is_plain_shift(self, rng):
        w = random_weights(rng, 5)
        assert_allclose(shift_plus_rank_one(w, 0.0, 2, 6).matrix,
                        weighted_shift(w, 6).matrix)

    def test_hardy_layout(self):
        # constant weights a with coefficient 1 at the corner: first row
        # (1, 0, 0, ...), subdiagonal a
        a = 0.5
        t = shift_plus_rank_one([a] * 3, 1.0, 0, 4)
        expect = np.array([
            [1.0, 0, 0, 0],
            [a, 0, 0, 0],
            [0, a, 0, 0],
            [0, 0, a, 0],
        ])
        assert_allclose(t.matrix, expect)

    def test_half_centered(self, rng, cfg):
        t = shift_plus_rank_one(random_weights(rng, 15), 0.7 - 0.2j, 3, 16)
        assert half_centered_check(t, cfg).half_centered

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            shift_plus_rank_one([1, 1, 1], 1.0, 4, 4)


class TestProjectionProduct:
    def test_identity_projections(self):
        t = projection_product(np.eye(2), np.eye(2))
        assert_allclose(t.matrix, np.eye(2))

    def test_paper_matrices(self):
        t = projection_product(PQ_P, PQ_Q)
        assert_allclose(t.matrix, [[0.5, 0.0], [-0.5, 0.0]])

    def test_power_three_differs_from_adjoint_power(self):
        t = projection_product(PQ_P, PQ_Q)
        t3 = np.linalg.matrix_power(t.matrix, 3)
        assert_allclose(t3, [[0.125, 0.0], [-0.125, 0.0]])
        t3_adj = t3.conj().T
        assert np.linalg.norm(t3 - t3_adj) > 0.1

    def test_gram_equals_q_times_odd_power(self):
        # T*^k T^k = Q T^(2k-1) for the projection product, exactly
        t = projection_product(PQ_P, PQ_Q)
        for k in range(1, 5):
            lhs = gram_power(t, k)
            rhs = PQ_Q @ np.linalg.matrix_power(t.matrix, 2 * k - 1)
            assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_rejects_non_projection(self):
        with pytest.raises(NotProjection):
            projection_product(np.array([[1.0, 0.1], [0.0, 0.0]]), PQ_Q)


class TestCompositionOperator:
    def test_identity_map(self):
        t = composition_operator(range(4), [1.0] * 4, 4)
        assert_allclose(t.matrix, np.eye(4))

    def test_matches_shift_plus_rank_one(self, rng):
        # psi(k) = k-1 for k >= 1, psi(0) = n reproduces the rank-one family
        n, N = 2, 8
        w = random_weights(rng, N - 1)
        a = 0.3 + 0.4j
        psi = [n] + list(range(N - 1))
        xi = np.concatenate([[a], w])
        t = composition_operator(psi, xi, N)
        assert_allclose(t.matrix, shift_plus_rank_one(w, a, n, N).matrix)

    def test_half_centered_and_diagonal_grams(self, rng, cfg):
        psi = [3, 0, 0, 1, 2, 4, 5, 5]
        xi = random_weights(rng, 8)
        t = composition_operator(psi, xi, 8)
        assert half_centered_check(t, cfg).half_centered
        for k in range(1, 5):
            g = gram_power(t, k)
            assert np.linalg.norm(g - np.diag(np.diag(g))) <= 1e-14 * max(1, np.linalg.norm(g))

    def test_psi_range_checked(self):
        with pytest.raises(IndexOutOfRange):
            composition_operator([0, 5], [1.0, 1.0], 2)


class TestAqOperator:
    def test_superdiagonal_entries(self):
        a = aq_matrix(0.5, 6)
        assert_allclose(np.diag(a, 1).real, [1, 0.5, 0.25, 0.125, 0.0625])
        assert_allclose(a, a.conj().T)

    def test_shift_intertwining_on_interior(self):
        n = 16
        a = aq_matrix(0.5, n)
        s = np.zeros((n, n))
        s[np.arange(1, n), np.arange(n - 1)] = 1.0
        interior = (s.T @ a @ s - 0.5 * a)[: n - 1, : n - 1]
        assert np.linalg.norm(interior) == 0.0

    @pytest.mark.parametrize("n_pow", [1, 2, 3, 4])
    def test_gram_power_formula(self, n_pow):
        q, r, N = 0.5, 5.0, 48
        model = aq_operator(q, r, N)
        A = model.companion
        evals, vecs = np.linalg.eigh(A.real)
        inv_half = vecs @ np.diag((evals + r) ** -0.5) @ vecs.T
        formula = inv_half @ (q ** n_pow * A.real + r * np.eye(N)) @ inv_half
        w = model.window(n_pow)
        diff = (gram_power(model, n_pow) - formula)[:w, :w]
        assert np.linalg.norm(diff) <= 1e-8

    def test_three_term_identity(self):
        # I - (1 + 1/q) T_1 + (1/q) T_2 = 0 on the window
        q, N = 0.5, 32
        model = aq_operator(q, None, N)
        combo = (
            np.eye(N)
            - (1 + 1 / q) * gram_power(model, 1)
            + (1 / q) * gram_power(model, 2)
        )
        w = model.window(2)
        assert np.linalg.norm(combo[:w, :w]) <= 1e-10

    def test_default_margin(self):
        model = aq_operator(0.5, None, 8)
        assert model.params["r"] == pytest.approx(5.0)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            aq_operator(1.5, None, 8)
        with pytest.raises(NotPositive):
            aq_operator(0.5, -10.0, 8)


class TestIsometryFamily:
    def test_two_isometry_identity(self):
        # I - 2 T_1 + T_2 = 0 holds exactly on the window of an isometry
        t = weighted_shift([1.0] * 15, 16)
        combo = np.eye(16) - 2 * gram_power(t, 1) + gram_power(t, 2)
        w = t.window(2)
        assert np.linalg.norm(combo[:w, :w]) == 0.0


class TestCauchyDual:
    def test_isometry_is_self_dual(self):
        t = weighted_shift([1.0] * 7, 8)
        d = cauchy_dual(t)
        w = t.window(1)
        assert_allclose(d.matrix[:, :w], t.matrix[:, :w], atol=1e-14)

    def test_hardy_dual_entries(self):
        a = 0.5
        t = shift_plus_rank_one([a] * 7, 1.0, 0, 8)
        d = cauchy_dual(t).matrix
        assert d[0, 0] == pytest.approx(1 / (1 + a * a))
        assert d[1, 0] == pytest.approx(a / (1 + a * a))
        for j in range(1, 6):
            assert d[j + 1, j] == pytest.approx(a / a ** 2)

    def test_double_dual_roundtrip(self, rng):
        t = shift_plus_rank_one(random_weights(rng, 11), 0.25 - 0.1j, 1, 12)
        dd = cauchy_dual(cauchy_dual(t))
        w = t.window(2)
        assert np.linalg.norm(dd.matrix[:w, :w] - t.matrix[:w, :w]) <= 1e-10

    def test_left_inverse_property(self, rng):
        t = weighted_shift(random_weights(rng, 9), 10)
        d = cauchy_dual(t)
        w = t.window(1)
        prod = (t.matrix.conj().T @ d.matrix)[:w, :w]
        assert_allclose(prod, np.eye(w), atol=1e-12)

    def test_non_invertible_rejected(self):
        t = projection_product(PQ_P, PQ_Q)
        with pytest.raises(NotLeftInvertible):
            cauchy_dual(t)


class TestZooHalfCentered:
    """Every family the lab constructs must pass the half-centered check."""

    @pytest.mark.parametrize("depth", [5])
    def test_all_families(self, rng, depth):
        cfg = ToleranceConfig(depth=depth)
        N = 24
        instances = [
            weighted_shift(random_weights(rng, N - 1), N),
            shift_plus_rank_one(random_weights(rng, N - 1), 0.3 + 0.4j, 2, N),
            shift_plus_rank_one([0.5] * (N - 1), 1.0, 0, N),
            projection_product(PQ_P, PQ_Q),
            composition_operator([(k + 1) % N for k in range(N)],
                                 random_weights(rng, N), N),
            aq_operator(0.5, 5.0, N),
        ]
        for model in instances:
            report = half_centered_check(model, cfg)
            assert report.half_centered, (model.family, report.max_half_residual)


class TestModelMetadata:
    def test_conjugation_requires_unitary(self, rng):
        t = weighted_shift([1.0, 2.0, 3.0], 4)
        with pytest.raises(ValueError):
            t.conjugated(np.ones((4, 4)))
        with pytest.raises(ValueError):
            t.conjugated(np.eye(3))

    def test_conjugated_window_compressions_match(self, rng):
        from conftest import random_unitary

        t = weighted_shift(random_weights(rng, 7), 8)
        u = random_unitary(rng, 8)
        rot = t.conjugated(u)
        g = gram_power(t, 2)
        g_rot = gram_power(rot, 2)
        w = t.window(2)
        assert np.linalg.norm(t.window_compress(g, w) - rot.window_compress(g_rot, w)) <= 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_tol=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(depth=0)
        for bad in (float("nan"), float("inf")):
            for name in ("rank_tol", "commutator_tol", "relation_tol", "spectral_match_tol"):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    ToleranceConfig(**{name: bad})


class TestOperatorSpecs:
    def test_weighted_shift_spec(self):
        model = load_operator_spec(
            {"family": "weighted_shift", "weights": [1, 2, 3], "N": 4}
        )
        assert model.dim == 4 and model.family == "weighted_shift"

    def test_complex_tokens(self):
        model = load_operator_spec(
            {"family": "shift_plus_rank_one", "weights": ["1+1j", 2],
             "a": "0.3+0.4j", "n": 1, "N": 3}
        )
        assert model.matrix[0, 1] == pytest.approx(0.3 + 0.4j)

    def test_matrix_family_embeds_text(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = load_operator_spec({"family": "matrix", "matrix": dumps_matrix(m)})
        assert_allclose(model.matrix, m)
        assert model.exact

    @pytest.mark.parametrize("exact", [None, True, False])
    def test_matrix_family_exact_flag(self, exact):
        # null means "missing": the default, an exact model
        model = load_operator_spec({"family": "matrix", "matrix": "1 1 1", "exact": exact})
        assert model.exact is (exact is not False)

    def test_integral_float_dimension_is_an_integer(self):
        model = load_operator_spec({"family": "aq", "q": 0.5, "N": 12.0})
        assert model.dim == 12

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(
            {"family": "aq", "q": 0.5, "r": 5.0, "N": 12}
        ))
        model = load_operator_spec(str(path))
        assert model.family == "aq" and model.dim == 12

    @pytest.mark.parametrize("bad", [
        {"family": "nope", "N": 4},
        {"family": "weighted_shift", "N": 4},
        "not json at all {",
        42,
    ])
    def test_bad_specs_rejected(self, bad, tmp_path):
        if isinstance(bad, str):
            path = tmp_path / "bad.json"
            path.write_text(bad)
            bad = str(path)
        with pytest.raises((SpecParseError, TypeError)):
            load_operator_spec(bad)

    def test_jsonable(self):
        data = {1: np.float64(0.5), "z": 1 + 2j, "w": np.complex128(3j),
                "flag": np.bool_(True), "rows": (np.arange(2), [np.int64(4)])}
        assert _jsonable(data) == {
            "1": 0.5, "z": {"re": 1.0, "im": 2.0}, "w": {"re": 0.0, "im": 3.0},
            "flag": True, "rows": [[0, 1], [4]],
        }
        assert json.loads(json.dumps(_jsonable(data))) == _jsonable(data)
