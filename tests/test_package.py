import importlib
import pkgutil

import hclab

REMOVED = ("polynomial_machinery", "PolynomialData", "DegenerateTriples", "project",
           "subspace_sum", "PolarPair", "IsometryTower")


def test_exports_resolve_and_removed_names_are_gone():
    for info in pkgutil.iter_modules(hclab.__path__):
        module = importlib.import_module(f"hclab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"hclab.{info.name}.__all__ names missing {name!r}"
        assert not [name for name in REMOVED if hasattr(module, name)], info.name
    for name in hclab.__all__:
        assert hasattr(hclab, name)
    assert not [name for name in REMOVED if hasattr(hclab, name)]
    assert not hasattr(hclab.OperatorModel, "power")


def test_config_and_subspace_hold_only_what_stages_read():
    assert not hasattr(hclab.ToleranceConfig(), "with_depth")
    sub = hclab.orthonormalize([[1.0, 0.0]])
    assert not [name for name in ("rank_tol", "ambient_dim") if hasattr(sub, name)]
