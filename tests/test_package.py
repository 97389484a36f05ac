import importlib
import inspect
import pkgutil

import hclab

REMOVED = ("polynomial_machinery", "PolynomialData", "DegenerateTriples", "project",
           "subspace_sum", "PolarPair", "IsometryTower", "span_closure")


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


def test_stages_after_the_chain_take_the_chain_alone():
    # the chain carries its model, config and depth: a stage that took them
    # again could be handed ones that disagree with it
    for stage in (hclab.isometry_tower, hclab.verify_chain_structure, hclab.structure_extract,
                  hclab.enumerate_triples, hclab.spectral_correspondence_check,
                  hclab.shift_rank_one_reconstruct):
        params = list(inspect.signature(stage).parameters)
        assert params[0] == "chain", stage.__name__
        assert not {"model", "cfg"} & set(params), stage.__name__
