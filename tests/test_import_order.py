"""The package's modules import one way only, down the layer order

    rng -> lpp -> queueing -> multiclass -> (exact, stats) -> busemann
        -> verification -> cli

so a lower layer can share its code with every layer above it without an
import cycle.  A name a module needs only for annotations is imported
under `if TYPE_CHECKING:`, which never runs.  The package's __init__
sits above every layer.
"""

import ast
from pathlib import Path

import pytest

import cgmlab

ORDER = ["rng", "lpp", "queueing", "multiclass", ("exact", "stats"), "busemann",
         "verification", "cli", "__init__"]
LAYER = {name: i for i, names in enumerate(ORDER)
         for name in ((names,) if isinstance(names, str) else names)}
MODULES = sorted(Path(cgmlab.__file__).parent.glob("*.py"))


def _is_type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def runtime_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every import of a package module in source, the
    bodies of `if TYPE_CHECKING:` blocks skipped."""
    tree = ast.parse(source)
    skipped = {id(node) for block in ast.walk(tree)
               if isinstance(block, ast.If) and _is_type_checking(block.test)
               for stmt in block.body for node in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
            elif node.level == 0 and (node.module or "").startswith("cgmlab."):
                targets = [node.module.split(".")[1]]
            else:
                targets = []
        elif isinstance(node, ast.Import):
            targets = [a.name.split(".")[1] for a in node.names
                       if a.name.startswith("cgmlab.")]
        else:
            continue
        found += [(node.lineno, target.split(".")[0]) for target in targets]
    return sorted(found)


def test_every_module_has_a_layer():
    assert {path.stem for path in MODULES} == set(LAYER)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_runtime_imports_point_down_the_order(path):
    layer = LAYER[path.stem]
    wrong = [f"line {line}: {path.stem} -> {target}"
             for line, target in runtime_imports(path.read_text())
             if LAYER[target] >= layer]
    assert not wrong, "imports up or across the layer order: " + "; ".join(wrong)


def test_type_checking_imports_are_skipped():
    source = """
from .rng import WeightField
from typing import TYPE_CHECKING
import typing
if TYPE_CHECKING:
    from .multiclass import MultiConfig
else:
    from .queueing import lindley_iterate
if typing.TYPE_CHECKING:
    from . import busemann
def f():
    from cgmlab.stats import ks_distance
    import cgmlab.exact
"""
    assert runtime_imports(source) == [(2, "rng"), (8, "queueing"), (12, "stats"),
                                       (13, "exact")]
