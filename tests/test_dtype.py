"""The dtype rule: real operators are analysed in float64, complex ones in
complex128, and both give the same answers on the same operator."""

import numpy as np
import pytest

from hclab import (
    ToleranceConfig,
    aq_operator,
    classify,
    from_matrix,
    orthonormalize,
    shift_plus_rank_one,
    weighted_shift,
)
from hclab.cli import cmd_verify
from hclab.errors import HclabError
from hclab.linalg import as_matrix


def _weights(n):
    return np.random.default_rng(11).uniform(0.6, 1.4, n)


def _phases(n):
    """A seeded diagonal unitary."""
    return np.diag(np.exp(2j * np.pi * np.random.default_rng(5).uniform(size=n)))


FAMILIES = {
    "ws": lambda n: weighted_shift(_weights(n - 1), n),
    "sro": lambda n: shift_plus_rank_one(_weights(n - 1), 0.3 + 0.4j, 2, n),
    "hardy": lambda n: shift_plus_rank_one([0.5] * (n - 1), 1.0, 0, n),
    "aq": lambda n: aq_operator(0.5, 5.0, n),
}


class TestDtypeRule:
    def test_rule(self):
        assert as_matrix([[1, 2], [3, 4]]).dtype == np.float64
        assert as_matrix(np.eye(2, dtype=complex)).dtype == np.float64
        assert as_matrix([[1, 1j], [0, 1]]).dtype == np.complex128
        real = as_matrix(np.array([[1 + 0j, 2], [3, 4]]))
        assert real.flags.c_contiguous and real.tolist() == [[1, 2], [3, 4]]

    def test_real_families_are_float64(self):
        assert aq_operator(0.5, None, 24).matrix.dtype == np.float64
        assert aq_operator(0.5, None, 24).companion.dtype == np.float64
        assert shift_plus_rank_one([0.5] * 23, 1, 0, 24).matrix.dtype == np.float64
        assert weighted_shift([1.0, 2.0, 3.0], 4).matrix.dtype == np.float64

    def test_complex_models_are_complex128(self):
        sro = shift_plus_rank_one(_weights(23), 0.3 + 0.4j, 2, 24)
        assert sro.matrix.dtype == np.complex128
        # a complex a on real weights keeps its imaginary part
        assert sro.matrix[0, 2] == 0.3 + 0.4j
        for model in (sro, FAMILIES["hardy"](24), FAMILIES["aq"](24)):
            assert model.conjugated(_phases(24)).matrix.dtype == np.complex128

    def test_params_echo_keeps_complex_weights(self):
        params = weighted_shift([1.0, 2.0], 3).describe()["params"]
        assert params["weights"] == [{"re": 1.0, "im": 0.0}, {"re": 2.0, "im": 0.0}]

    def test_model_does_not_freeze_the_callers_array(self):
        m = np.array([[0.0, 0.0], [1.0, 0.0]])
        model = from_matrix(m)
        m[0, 0] = 5.0
        assert model.matrix[0, 0] == 0.0 and not model.matrix.flags.writeable

    def test_orthonormalize_keeps_real_vectors_real(self):
        v = np.random.default_rng(2).standard_normal((8, 3))
        assert orthonormalize([v]).frame.dtype == np.float64
        assert orthonormalize([v[:, :1] + 1j * v[:, 1:2]]).frame.dtype == np.complex128


def _summary(model, cfg):
    """The classify fields and the verify exit code that must not depend on
    the basis, from the parsed config as the command line runs it."""
    report = classify(model, cfg)
    try:
        code = cmd_verify(model, cfg)[1]
    except HclabError as exc:
        code = exc.exit_code
    return (report["verdict"], report["dim_E"], report["dim_M_E"], report["moduli_status"],
            report["triples"], report["condition_II_ok"], code)


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_real_and_phase_conjugated_models_agree(family, n):
    """T and D T D* (D seeded diagonal phases) give the same summary; for a
    real T the first runs in float64 and the second in complex128."""
    model = FAMILIES[family](n)
    rotated = model.conjugated(_phases(n))
    assert rotated.matrix.dtype == np.complex128
    cfg = ToleranceConfig()
    assert _summary(model, cfg) == _summary(rotated, cfg)
