import importlib
import pkgutil

import hclab

REMOVED = ("polynomial_machinery", "PolynomialData", "DegenerateTriples", "project")


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
