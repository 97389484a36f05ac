"""The exact phase gauge: a complex model whose nonzero pattern is a forest or
has one cycle of nonzero winding is analysed as |T|, with the same answers."""

import json

import numpy as np
import pytest

from hclab import (
    ToleranceConfig,
    aq_operator,
    composition_operator,
    from_matrix,
    real_gauge,
    shift_plus_rank_one,
    weighted_shift,
)
from hclab import cli
from hclab.errors import HclabError
from hclab.operators import _jsonable


def _phased(n, seed=11):
    """Moduli in [0.6, 1.4] with generic phases, as the benchmark draws them."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.6, 1.4, n) * np.exp(2j * np.pi * rng.uniform(size=n))


GAUGED = {
    "ws": lambda n: weighted_shift(_phased(n - 1), n),
    "sro": lambda n: shift_plus_rank_one(_phased(n - 1), 0.3 + 0.4j, 2, n),
    "hardy": lambda n: shift_plus_rank_one([0.5 * np.exp(0.7j)] * (n - 1), 1.0, 0, n),
}


@pytest.mark.parametrize("family", sorted(GAUGED))
def test_gauged_twin_is_the_modulus(family):
    model = GAUGED[family](24)
    assert model.matrix.dtype == np.complex128
    twin = real_gauge(model)
    assert twin.matrix.dtype == np.float64
    assert np.array_equal(twin.matrix, np.abs(model.matrix))
    assert twin.describe() == model.describe()
    assert (twin.exceptions, twin.companion) == (model.exceptions, model.companion)


def _two_cycles():
    """A complex matrix whose pattern has two independent cycles: the loops
    at 0 and at 2 on the path 0 - 1 - 2."""
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0], m[1, 0], m[2, 1], m[2, 2] = 1j, 1.0, 1.0, 1.0
    return from_matrix(m)


UNGAUGED = {
    "aq": lambda: aq_operator(0.5, None, 16),
    "hardy": lambda: shift_plus_rank_one([0.5] * 15, 1.0, 0, 16),
    "real ws": lambda: weighted_shift(np.linspace(0.6, 1.4, 15), 16),
    "conjugated": lambda: GAUGED["sro"](16).conjugated(
        np.diag(np.exp(1j * np.arange(16.0)))),
    "two cycles": _two_cycles,
    # psi has the cycles 0 <-> 1 and 2 <-> 3
    "composition": lambda: composition_operator([1, 0, 3, 2], [1j, 1, 0.5, 2], 4),
}


@pytest.mark.parametrize("name", sorted(UNGAUGED))
def test_no_gauge_returns_the_model_itself(name):
    model = UNGAUGED[name]()
    assert real_gauge(model) is model


def test_zero_winding_cycle_keeps_its_phase():
    # entries (1, 0), (2, 1), (2, 3), (3, 0) close a cycle of winding 0: the
    # product of its phases is fixed by every gauge
    m = np.zeros((4, 4), dtype=complex)
    m[1, 0], m[2, 1], m[2, 3], m[3, 0] = 1j, 1.0, 1.0, 1.0
    model = from_matrix(m)
    assert real_gauge(model) is model
    m[3, 0], m[0, 3] = 0.0, 1.0  # winding 3
    assert real_gauge(from_matrix(m)).matrix.dtype == np.float64


_WEIGHTS = [f"{w.real:.17g}{w.imag:+.17g}j" for w in _phased(15)]
_SPECS = {
    "ws": {"family": "weighted_shift", "N": 16, "weights": _WEIGHTS},
    "sro": {"family": "shift_plus_rank_one", "N": 16, "a": "0.3+0.4j", "n": 2,
            "weights": _WEIGHTS},
}


@pytest.mark.parametrize("family", sorted(_SPECS))
@pytest.mark.parametrize("command", ["check", "decompose", "spectral", "classify", "verify",
                                     "zoo"])
def test_cli_analyses_float64(monkeypatch, capsys, tmp_path, family, command):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_SPECS[family]))
    seen = []
    run = getattr(cli, f"cmd_{command}")

    def spy(model, cfg):
        seen.append(model.matrix.dtype)
        return run(model, cfg)
    monkeypatch.setattr(cli, f"cmd_{command}", spy)
    cli.main([command, "--file", str(spec)])
    out = capsys.readouterr().out
    expected = np.complex128 if command == "zoo" else np.float64
    assert seen == [expected]
    if command == "zoo":
        assert "j" in json.loads(out)["matrix"]


def _run(command, model, cfg):
    try:
        return _jsonable(getattr(cli, f"cmd_{command}")(model, cfg))
    except HclabError as exc:
        return type(exc).__name__


def _assert_close(a, b, path="report"):
    """Equal structure and non-float leaves; floats within 1e-13 absolute."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b), path
        for key in a:
            _assert_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{path}.{i}")
    elif isinstance(a, float) and not isinstance(b, bool):
        assert isinstance(b, (int, float)) and abs(a - b) <= 1e-13, (path, a, b)
    else:
        assert a == b and type(a) is type(b), (path, a, b)


@pytest.mark.parametrize("family", ["ws", "sro"])
@pytest.mark.parametrize("command", ["check", "spectral", "classify", "verify"])
def test_reports_agree_on_t_and_its_gauge(family, command):
    model = GAUGED[family](48)
    cfg = ToleranceConfig()
    _assert_close(_run(command, model, cfg), _run(command, real_gauge(model), cfg))
