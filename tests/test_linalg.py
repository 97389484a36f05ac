import numpy as np
import pytest
from numpy.testing import assert_allclose

from hclab import ToleranceConfig, hermitian_eig, polar, positive_sqrt
from hclab.chains import chain_decomposition
from hclab.errors import NonFinite, NotHermitian, NotPSD
from hclab.linalg import (_coupled_rows, _hermitian_view, _lone_svd, _split_commutator_norm,
                          _split_eigvals, _split_norm, numerical_rank, power_table)
from hclab.operators import real_gauge

from conftest import family_model, random_unitary


def _norm(h):
    return _split_norm(*_hermitian_view(h))


def _commutator_norm(a, b):
    return _split_commutator_norm(*_hermitian_view(a), *_hermitian_view(b))


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_psd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T


class TestHermitianEig:
    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([2.0, 1.0]))
        assert_allclose(w, [1.0, 2.0])
        assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-15)

    def test_identity(self):
        w, _ = hermitian_eig(np.eye(3))
        assert_allclose(w, [1, 1, 1])

    def test_swap_matrix(self):
        w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(w, [-1.0, 1.0])
        assert_allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            hermitian_eig([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [2, 8, 33])
    def test_reconstruction(self, rng, n):
        h = random_hermitian(rng, n)
        w, v = hermitian_eig(h)
        assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-12 * max(1, np.abs(w).max()))
        assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-13)
        assert np.all(np.diff(w) >= 0)


class TestPositiveSqrt:
    def test_identity(self):
        assert_allclose(positive_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert_allclose(positive_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_pq_gram(self):
        # gram matrix of the 2x2 projection-product example
        root = positive_sqrt([[0.5, 0.0], [0.0, 0.0]])
        assert_allclose(root, [[1 / np.sqrt(2), 0.0], [0.0, 0.0]], atol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            positive_sqrt(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_square_reproduces(self, rng, n):
        h = random_psd(rng, n)
        root = positive_sqrt(h)
        assert np.linalg.norm(root @ root - h) <= 1e-10 * (1 + np.linalg.norm(h))
        assert np.linalg.norm(root - root.conj().T) <= 1e-12 * (1 + np.linalg.norm(h))


class TestPolar:
    # polar returns theta alone; the positive factor p = (m* m)^{1/2} is formed here
    def test_unitary_input(self, rng):
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q, _ = np.linalg.qr(z)
        assert_allclose(polar(q), q, atol=1e-13)

    def test_partial_isometry_on_singular_input(self):
        m = np.diag([3.0, 0.0])
        theta = polar(m)
        assert_allclose(theta, np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(theta @ positive_sqrt(m.T @ m), m, atol=1e-15)

    def test_pq_example(self):
        t = np.array([[0.5, 0.0], [-0.5, 0.0]])
        theta = polar(t)
        s = 1 / np.sqrt(2)
        assert_allclose(theta, [[s, 0.0], [-s, 0.0]], atol=1e-15)
        assert_allclose(theta @ positive_sqrt(t.T @ t), t, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_reconstruction_and_projection(self, rng, n):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = n
        if n == 12:  # exercise a rank-deficient case too
            m[:, 0] = m[:, 1]
            r = n - 1
        theta = polar(m)
        p = positive_sqrt(m.conj().T @ m)
        assert np.linalg.norm(theta @ p - m) <= 1e-10 * np.linalg.norm(m)
        gram = theta.conj().T @ theta
        assert np.linalg.norm(gram @ gram - gram) <= 1e-10
        assert np.linalg.norm(gram - gram.conj().T) <= 1e-12
        assert round(float(np.real(np.trace(gram)))) == r

    def test_zero_matrix_gives_zero(self):
        assert np.all(polar(np.zeros((4, 4), dtype=complex)) == 0)


class TestTowerFactors:
    """The identities the isometry tower's factors hold by construction, on
    the block grams and block powers it factors: r_n = positive_sqrt(G_n)
    squares to G_n, and theta_n = polar(T_b^n) makes theta theta* and
    theta* theta orthogonal projections."""

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.3", "aq0.5r5", "aq0.7"])
    def test_square_root_and_partial_isometry(self, family, n, conj):
        cfg = ToleranceConfig()
        rng = np.random.default_rng(n)
        model = family_model(family, n, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, n))
        chain = chain_decomposition(model, cfg)
        for k in range(1, chain.depth + 1):
            g = chain.grams[k]
            r = positive_sqrt(g)
            assert np.linalg.norm(r @ r - g) <= 1e-12 * np.linalg.norm(g), k
            theta = polar(chain.powers[k], rank_tol=cfg.rank_tol)
            for p in (theta @ theta.conj().T, theta.conj().T @ theta):
                assert np.linalg.norm(p @ p - p) <= 1e-12, k
                assert np.linalg.norm(p - p.conj().T) <= 1e-12, k


class TestNumericalRank:
    def test_counts_values_above_the_cut(self):
        assert numerical_rank(np.array([4.0, 1.0, 1e-3, 0.0]), 1e-2, 4.0) == 2

    def test_value_at_the_cut_is_dropped(self):
        assert numerical_rank(np.array([1.0, 0.5]), 0.5, 1.0) == 1
        assert numerical_rank(np.array([1.0, np.nextafter(0.5, 1.0)]), 0.5, 1.0) == 2

    def test_empty_has_rank_zero(self):
        assert numerical_rank(np.zeros(0), 1e-10, 1.0) == 0

    def test_all_zero_at_scale_zero_has_rank_zero(self):
        assert numerical_rank(np.zeros(3), 1e-10, 0.0) == 0

    def test_scale_is_floored(self):
        # below 1e-300 the scale no longer shrinks the cut
        s = np.array([2e-310, 1e-320])
        assert numerical_rank(s, 1.0, 0.0) == 0
        assert numerical_rank(s, 1.0, 1e-320) == 0
        assert numerical_rank(np.array([2e-300]), 1.0, 0.0) == 1

    def test_returns_a_python_int(self):
        assert type(numerical_rank([3.0, 2.0], 1e-10, 3.0)) is int

    def test_polar_of_zero_has_zero_isometric_part(self):
        assert np.all(polar(np.zeros((3, 3))) == 0)



def random_matrix(rng, n, dtype):
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    return a / np.sqrt(n)


@pytest.fixture
def matmul_calls(monkeypatch):
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    return calls


def running_powers(a, K):
    """a^0..a^K from a plain np.matmul loop."""
    powers = [np.eye(a.shape[0], dtype=a.dtype), a]
    for _ in range(K - 1):
        powers.append(np.matmul(powers[-1], a))
    return powers


class TestPowerTable:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_for_bit_running_product(self, rng, dtype):
        a = random_matrix(rng, 9, dtype)
        table = power_table(a, 12)
        assert len(table) == 13
        for k, (p, q) in enumerate(zip(table, running_powers(a, 12))):
            assert p.dtype == a.dtype
            assert np.array_equal(p, q), k

    def test_bit_for_bit_on_a_view(self, rng):
        # the analysis block takes the powers of a leading-block view
        a = random_matrix(rng, 12, complex)[:9, :9]
        for k, (p, q) in enumerate(zip(power_table(a, 12), running_powers(a, 12))):
            assert p.dtype == a.dtype
            assert np.array_equal(p, q), k

    @pytest.mark.parametrize("K", [0, 1])
    def test_no_product_below_two(self, rng, matmul_calls, K):
        a = random_matrix(rng, 6, float)
        table = power_table(a, K)
        assert len(table) == K + 1 and not matmul_calls
        assert np.array_equal(table[0], np.eye(6)) and (K == 0 or table[1] is a)

    def test_depth_six_takes_five_products(self, rng, matmul_calls):
        power_table(random_matrix(rng, 6, float), 6)
        assert len(matmul_calls) == 5


class TestHermitianKernels:
    eps = np.finfo(float).eps

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_norm_is_the_largest_singular_value(self, rng, dtype):
        for h in (random_psd(rng, 12), random_hermitian(rng, 12), np.diag([0.5, -3.0, 1.0])):
            h = h.real if dtype is float else h
            assert _norm(h) == pytest.approx(np.linalg.norm(h, 2), rel=4 * h.shape[0] * self.eps)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_isolated_rows_split_off_exactly(self, rng, dtype, monkeypatch):
        # rows 0, 3 and 5 are zero off the diagonal; the rest is one dense block
        h = random_psd(rng, 8) / 100.0   # block eigenvalues below 1
        h = h.real if dtype is float else h
        for i in (0, 3, 5):
            h[i, :] = h[:, i] = 0.0
            h[i, i] = 10.0 + i
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        w = _split_eigvals(*_hermitian_view(h))
        assert shapes == [(5, 5)]
        assert_allclose(np.sort(w), eigvalsh(h), rtol=0, atol=8 * self.eps * 15.0)
        assert _norm(h) == 15.0
        shapes.clear()
        assert _norm(np.diag([1.0, -4.0, 2.0]) + 0j) == 4.0
        assert not shapes

    def test_norm_of_empty_and_zero(self):
        assert _norm(np.zeros((0, 0))) == 0.0
        assert _norm(np.zeros((3, 3))) == 0.0

    def test_norm_takes_the_hermitian_part(self, rng):
        u = np.linalg.qr(random_matrix(rng, 10, complex))[0]
        h = u @ np.diag(np.arange(1.0, 11.0)) @ u.conj().T   # Hermitian to roundoff only
        assert not np.array_equal(h, h.conj().T)
        assert abs(_norm(h) - 10.0) <= 4 * 10 * self.eps * 10.0

    def _assert_commutator(self, a, b):
        n = a.shape[0]
        expect = np.linalg.norm(a @ b - b @ a)
        bound = n * self.eps * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
        assert abs(_commutator_norm(a, b) - expect) <= bound

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_commutator_agrees_with_two_products(self, rng, dtype):
        for _ in range(5):
            a, b = random_hermitian(rng, 16), random_psd(rng, 16)
            if dtype is float:
                a, b = a.real, b.real
            self._assert_commutator(a, b)

    def test_commutator_of_rotated_commuting_pair(self, rng):
        # U* D U and U* D' U commute, and are Hermitian only to roundoff
        u = np.linalg.qr(random_matrix(rng, 20, complex))[0]
        d1, d2 = rng.uniform(0.1, 2.0, 20), rng.uniform(0.1, 2.0, 20)
        a = u.conj().T @ np.diag(d1) @ u
        b = u.conj().T @ np.diag(d2) @ u
        assert not np.array_equal(a, a.conj().T)
        self._assert_commutator(a, b)
        assert _commutator_norm(a, b) <= 20 * self.eps * 4.0

    def test_commutator_of_diagonal_pair_is_exactly_zero(self, rng):
        a, b = np.diag(rng.uniform(size=8)), np.diag(rng.uniform(size=8) + 0j)
        assert _commutator_norm(a, b) == 0.0


def _plant_uncoupled(h, rows, rng):
    """``h`` with each of ``rows`` zero off the diagonal, keeping it Hermitian."""
    h = h.copy()
    for i in rows:
        h[i, :] = h[:, i] = 0.0
        h[i, i] = rng.uniform(0.5, 2.0)
    return h


class TestCoupledSplit:
    """The commutator taken on the rows either operand couples equals the
    dense ||ab - ba||_F."""

    eps = np.finfo(float).eps

    @pytest.fixture
    def products(self, monkeypatch):
        shapes = []
        matmul = np.matmul

        def counting(a, b, *args, **kwargs):
            shapes.append(np.shape(a))
            return matmul(a, b, *args, **kwargs)
        monkeypatch.setattr(np, "matmul", counting)
        return shapes

    def _assert_dense(self, a, b, value):
        n = a.shape[0]
        expect = np.linalg.norm(a @ b - b @ a)
        assert abs(value - expect) <= n * self.eps * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)

    def test_coupled_rows_are_the_rows_with_an_off_diagonal_nonzero(self, rng):
        h = _plant_uncoupled(random_hermitian(rng, 9), (0, 4, 8), rng)
        h[2, 2] = 0.0   # a zero diagonal entry leaves its row coupled
        assert _coupled_rows(h).tolist() == [i not in (0, 4, 8) for i in range(9)]
        assert not _coupled_rows(np.diag([1.0, 0.0, 3.0])).any()
        assert _coupled_rows(np.zeros((0, 0))).shape == (0,)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_planted_uncoupled_rows(self, rng, dtype, products):
        # a couples all but 0..5, b all but 3..8: the union leaves out 3, 4, 5
        for _ in range(5):
            a = _plant_uncoupled(random_hermitian(rng, 16), range(0, 6), rng)
            b = _plant_uncoupled(random_psd(rng, 16), range(3, 9), rng)
            if dtype is float:
                a, b = a.real, b.real
            products.clear()
            self._assert_dense(a, b, _commutator_norm(a, b))
            assert products == [(13, 13)]
            value = _split_commutator_norm(a, _coupled_rows(a), b, _coupled_rows(b))
            self._assert_dense(a, b, value)

    def test_fully_coupled_pair_takes_the_dense_product(self, rng, products):
        a, b = random_hermitian(rng, 12), random_psd(rng, 12)
        self._assert_dense(a, b, _commutator_norm(a, b))
        assert products == [(12, 12)]

    def test_rotated_blocks_hermitian_to_roundoff(self, rng):
        # a rotated commuting pair on the leading 10 indices, uncoupled rows after
        u = np.linalg.qr(random_matrix(rng, 10, complex))[0]
        a, b = np.zeros((14, 14), complex), np.zeros((14, 14), complex)
        a[:10, :10] = u.conj().T @ np.diag(rng.uniform(0.1, 2.0, 10)) @ u
        b[:10, :10] = u.conj().T @ np.diag(rng.uniform(0.1, 2.0, 10)) @ u
        a[10:, 10:] = np.diag(rng.uniform(0.1, 2.0, 4))
        b[10:, 10:] = np.diag(rng.uniform(0.1, 2.0, 4))
        assert not np.array_equal(a, a.conj().T)
        self._assert_dense(a, b, _commutator_norm(a, b))
        assert _commutator_norm(a, b) <= 14 * self.eps * 4.0
        b[:10, :10] = random_psd(rng, 10)   # no longer commuting
        self._assert_dense(a, b, _commutator_norm(a, b))

    def test_diagonal_pair_takes_no_product(self, rng, products):
        a, b = np.diag(rng.uniform(size=8)), np.diag(rng.uniform(size=8) + 0j)
        assert _commutator_norm(a, b) == 0.0
        assert _split_commutator_norm(a, _coupled_rows(a), b, _coupled_rows(b)) == 0.0
        assert products == []


class TestLoneSvd:
    """``_lone_svd`` keeps ``np.linalg.svd``'s contract: u s vh rebuilds the
    input, u and vh are orthogonal, s descends; on the shift families its s
    is numpy's bit for bit."""

    eps = np.finfo(float).eps

    def check_factors(self, a):
        u, s, vh = _lone_svd(a)
        m, n = a.shape
        assert u.shape == (m, m) and s.shape == (min(m, n),) and vh.shape == (n, n)
        assert np.all(np.diff(s) <= 0)
        scale = max(float(s[0]), 1.0)
        assert np.linalg.norm(u[:, :s.size] * s @ vh[:s.size] - a) <= 4 * self.eps * scale
        assert np.linalg.norm(u.T @ u - np.eye(m)) <= 4 * self.eps * np.sqrt(m)
        assert np.linalg.norm(vh @ vh.T - np.eye(n)) <= 4 * self.eps * np.sqrt(n)
        assert_allclose(_lone_svd(a, compute_uv=False), s, rtol=0, atol=4 * self.eps * scale)
        return s

    @pytest.mark.parametrize("n", [96, 128, 160])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy"])
    def test_shift_families_match_numpy_bit_for_bit(self, family, n):
        t = real_gauge(family_model(family, n, np.random.default_rng(n))).matrix
        for a in (t, t[:, :n - 1]):  # T, and its window(1) columns
            dense = np.linalg.svd(a, compute_uv=False)
            assert np.array_equal(self.check_factors(a), dense)
            assert np.array_equal(_lone_svd(a, compute_uv=False), dense)

    def test_zero_row_and_zero_column(self):
        a = np.zeros((6, 6))
        a[1, 0], a[3, 2], a[5, 4] = -2.0, 0.5, 3.0   # lone entries
        a[4, 1], a[4, 3] = 1.0, 1.0                  # a row of two: the core
        # row 0, row 2 and column 5 are zero
        s = self.check_factors(a)
        assert_allclose(s, np.linalg.svd(a, compute_uv=False), atol=4 * self.eps * s[0])

    def test_core_with_its_own_null_direction(self):
        a = np.zeros((5, 4))
        a[1, 0], a[4, 3] = 0.7, -1.1                 # lone entries
        a[0, 1], a[2, 1], a[0, 2], a[2, 2] = 1.0, 2.0, 2.0, 4.0   # rank-one core
        s = self.check_factors(a)
        assert_allclose(s, np.linalg.svd(a, compute_uv=False), atol=4 * self.eps * s[0])
        u = _lone_svd(a)[0]
        # the core's null direction of a* lies in the core's rows 0 and 2
        assert s[-1] < 4 * self.eps * s[0]
        null = u[:, 3]
        assert_allclose(np.abs(null[[0, 2]]), [2, 1] / np.sqrt(5), atol=4 * self.eps)
        assert_allclose(null[[1, 3, 4]], 0.0, atol=0)
