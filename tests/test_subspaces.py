import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hclab import Subspace, orthonormalize
from hclab.errors import EmptyInput, SpecParseError
from hclab.matio import dumps_matrix, format_complex, loads_matrix, parse_complex


def e(i, n=4):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


class TestOrthonormalize:
    def test_duplicate_vector_collapses(self):
        sub = orthonormalize([e(0), e(0)])
        assert sub.dim == 1

    def test_independent_vectors(self):
        assert orthonormalize([e(0), e(1)]).dim == 2

    def test_tolerance_forced_collapse(self):
        sub = orthonormalize([e(0), e(0) + 1e-14 * e(1)], rank_tol=1e-10)
        assert sub.dim == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            orthonormalize([])

    def test_frame_is_orthonormal(self, rng):
        cols = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        sub = orthonormalize([cols])
        assert sub.dim == 6
        assert_allclose(sub.frame.conj().T @ sub.frame, np.eye(6), atol=1e-13)

    def test_explicit_scale_drops_dust(self):
        dust = 1e-13 * np.ones((4, 2))
        assert orthonormalize([dust], scale=1.0).dim == 0
        # without the scale, dust would be normalized into directions
        assert orthonormalize([dust]).dim >= 1


class TestSumOminusProject:
    # a sum is orthonormalize of the two frames, as the chain grows X_n from X_{n-1} and V_n
    def test_sum(self):
        a, b = orthonormalize([e(0)]), orthonormalize([e(1)])
        assert orthonormalize([a.frame, b.frame]).dim == 2

    @pytest.mark.parametrize("trial", range(5))
    def test_ominus_then_sum_recovers(self, rng, trial):
        n = 12
        a = orthonormalize([rng.standard_normal((n, 7)) + 1j * rng.standard_normal((n, 7))])
        b = orthonormalize([a.frame[:, :3]])
        # a (-) b from a frame that starts with b's span, as structure_extract takes M_E (-) E
        diff = Subspace(a.frame[:, 3:])
        back = orthonormalize([diff.frame, b.frame])
        assert back.dim == a.dim
        assert np.linalg.norm(back.projector() - a.projector()) <= 1e-10


class TestMatrixTextFormat:
    def test_round_trip_simple(self):
        m = np.array([[1.0, 2.5 + 1j], [-3e-7, 0.0]])
        again = loads_matrix(dumps_matrix(m))
        assert again.shape == m.shape
        assert np.array_equal(again, m)

    def test_round_trip_bit_stable(self, rng):
        m = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-200, 200, (5, 3))
        m = m + 1j * rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-200, 200, (5, 3))
        once = loads_matrix(dumps_matrix(m))
        twice = loads_matrix(dumps_matrix(once))
        assert np.array_equal(once, m)
        assert dumps_matrix(once) == dumps_matrix(twice)

    def test_header(self):
        text = dumps_matrix(np.zeros((2, 3)))
        assert text.splitlines()[0] == "2 3"

    def test_token_format(self):
        assert parse_complex(format_complex(1 / 3 - 7j / 11)) == 1 / 3 - 7j / 11

    @pytest.mark.parametrize("bad", ["", "2", "2 2 1 2 3", "1 1 nonsense"])
    def test_parse_errors(self, bad):
        with pytest.raises(SpecParseError):
            loads_matrix(bad)

    @pytest.mark.parametrize("token", ["inf", "1+nanj", "-infj", "1e400+0j"])
    def test_non_finite_token_names_itself(self, token):
        from hclab.errors import NonFinite

        with pytest.raises(NonFinite, match=f"^{re.escape(f'non-finite entry {token!r}')}$"):
            parse_complex(token)

    def test_rejects_nan_token(self):
        from hclab.errors import NonFinite

        with pytest.raises(NonFinite):
            loads_matrix("1 1 nan+0j")
