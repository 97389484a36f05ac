import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import hclab

REMOVED = ("polynomial_machinery", "PolynomialData", "DegenerateTriples", "project",
           "subspace_sum", "PolarPair", "IsometryTower", "span_closure", "hermitian_eigvals",
           "hermitian_norm", "hermitian_commutator_norm", "co_gram_power", "wandering_span",
           "cauchy_dual", "NotLeftInvertible", "TripleRecord", "Character", "moduli_subspace",
           "CommutationReport", "CriterionReport", "RelationCertificate",
           "ShiftRankOneCertificate", "ClassificationReport", "_band_columns",
           "AnalysisBlock", "analysis_block", "_ensure_injective_on_window")
# OperatorModel.conjugated is read by tests and tools alone: it is the
# rotated-basis oracle that the invariance tests and tools/invariance_grid.py
# check every answer against, so it stays beside the model it rotates
UNREAD_MEMBERS = ("OperatorModel.conjugated",)
SRC = Path(hclab.__file__).parent


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


def _exports(tree) -> list:
    """The names in a module's literal ``__all__`` (``__init__`` computes its own)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _loads(node) -> Counter:
    """The names and attributes that ``node`` loads, with their counts."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def test_every_public_function_runs_in_the_package():
    # a function in a module's __all__ that nothing in src/hclab reads outside
    # its own definition is library-only code: what a test or demo needs of it
    # belongs in that test or demo
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    loads = sum(map(_loads, trees), Counter())
    unread = [node.name for tree in trees for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in _exports(tree)
              and loads[node.name] == _loads(node)[node.name]]
    assert unread == []


def _members(cls) -> list:
    """The methods, properties and dataclass fields a class defines, dunders
    aside; a class whose ``as_dict`` is ``asdict(self)`` reads its fields there."""
    dataclass = any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
    reads_fields = any(isinstance(node, ast.FunctionDef) and node.name == "as_dict"
                       and ast.unparse(node.body[-1]) == "return asdict(self)"
                       for node in cls.body)
    names = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.AnnAssign) and dataclass and not reads_fields:
            names.append(node.target.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) in ("property", "cached_property")):
            names.extend(t.id for t in node.targets)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_member_is_read_in_the_package():
    # a member that nothing in src/hclab loads as an attribute is held for a
    # test or demo alone.  The check goes by name: a member named like some
    # other attribute that is read escapes it, as TowerLevel.r did beside args.r
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.name}.{name}" for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef) for name in _members(cls) if name not in read]
    assert sorted(unread) == sorted(UNREAD_MEMBERS)


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
