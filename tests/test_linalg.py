import numpy as np
import pytest
from numpy.testing import assert_allclose

from hclab import hermitian_eig, polar, positive_sqrt
from hclab.errors import NonFinite, NotHermitian, NotPSD
from hclab.linalg import numerical_rank


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
    def test_unitary_input(self, rng):
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q, _ = np.linalg.qr(z)
        pair = polar(q)
        assert_allclose(pair.isometry_part, q, atol=1e-13)
        assert_allclose(pair.positive_part, np.eye(5), atol=1e-13)

    def test_partial_isometry_on_singular_input(self):
        pair = polar(np.diag([3.0, 0.0]))
        assert_allclose(pair.isometry_part, np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(pair.positive_part, np.diag([3.0, 0.0]), atol=1e-15)

    def test_pq_example(self):
        t = np.array([[0.5, 0.0], [-0.5, 0.0]])
        pair = polar(t)
        s = 1 / np.sqrt(2)
        assert_allclose(pair.isometry_part, [[s, 0.0], [-s, 0.0]], atol=1e-15)
        assert_allclose(pair.positive_part, [[s, 0.0], [0.0, 0.0]], atol=1e-15)
        assert_allclose(pair.isometry_part @ pair.positive_part, t, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_reconstruction_and_projection(self, rng, n):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if n == 12:  # exercise a rank-deficient case too
            m[:, 0] = m[:, 1]
        pair = polar(m)
        theta = pair.isometry_part
        assert np.linalg.norm(theta @ pair.positive_part - m) <= 1e-10 * np.linalg.norm(m)
        gram = theta.conj().T @ theta
        assert np.linalg.norm(gram @ gram - gram) <= 1e-10


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
        pair = polar(np.zeros((3, 3)))
        assert np.all(pair.isometry_part == 0)
        assert np.all(pair.positive_part == 0)

