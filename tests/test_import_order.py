"""The package's modules import one way only, down the layer order

    rng -> lpp -> queueing -> multiclass -> (exact, stats) -> busemann
        -> verification -> cli

so a lower layer can share its code with every layer above it without an
import cycle.  A name a module needs only for annotations is imported
under `if TYPE_CHECKING:`, which never runs.  The package's __init__
sits above every layer.

Each recursion also has one driver that the layers above call: tables
are stepped through lpp.CornerFill, and queues swept through
queueing's folds and chains, so the bare primitives have few callers.
"""

import ast
import importlib
import inspect
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


def called_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def callers(names, match=lambda call: True) -> set[str]:
    """module.function (module.Class.method for a method) of every call,
    in the package's modules, to a function or attribute named in names,
    for which match(call) holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and called_name(child) in names and match(child):
                found.add(".".join(scope))
            visit(child, scope)

    for path in MODULES:
        visit(ast.parse(path.read_text()), [path.stem])
    return found


def test_primitives_are_called_only_by_their_drivers():
    # CornerFill steps every table; competition_interface fills a shrinking
    # triangle only as far as its walk descends, and strip_lpp_H steps once
    # from a boundary row that is no table's first row.
    wrong = callers({"_row_step", "_prefix_sums"}) - {
        "lpp._row_step", "lpp.CornerFill.feed", "busemann.competition_interface",
        "queueing.strip_lpp_H"}
    # Outside queueing a sweep runs through its folds and unused-input
    # chain, except the coupled step's shared-service sweeps and the one
    # sweep wait_indicator_run reads.
    wrong |= {c for c in callers({"lindley_iterate"}) if not c.startswith("queueing.")} - {
        "multiclass.coupled_step", "busemann.wait_indicator_run"}
    assert not wrong, "private recursion loops: " + ", ".join(sorted(wrong))


def test_only_the_positioned_blocks_reposition_a_stream():
    # a stream is advanced to a row's position in one place, the helper
    # that the one block generator calls for a range read either way
    assert callers({"advance"}) == {"rng.ExpFieldRows._seek"}
    assert callers({"_seek"}) == {"rng.ExpFieldRows.blocks"}


def test_one_row_source_draws_the_positioned_blocks():
    # positioned blocks (a call that passes a row range or a direction:
    # any positional argument, or a keyword other than buf) are read
    # through lpp's window reader alone, so the estimates on a shared field
    # and the interface walk take their rows as every table fill does;
    # every other reader draws from row 0
    def positioned(call):
        return bool(call.args) or any(k.arg != "buf" for k in call.keywords)

    assert callers({"blocks"}, positioned) == {"lpp._field_rows"}


def test_busemann_imports_no_fill_rows():
    # the nested probe reads its field's blocks from rng itself, and the
    # estimates read a window through lpp's window reader, not _fill_rows
    tree = ast.parse((Path(cgmlab.__file__).parent / "busemann.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_fill_rows" not in imported and "_field_rows" in imported


def test_one_draw_turns_uniforms_into_exponentials():
    # log1p, the one transcendental of every exponential, has one call
    # site: the transform that the one draw, and nothing else, applies to
    # a generator's uniforms
    assert callers({"log1p"}) == {"rng._exp_in_place"}
    assert callers({"_exp_in_place"}) == {"rng._draw_exp"}


def test_only_the_cli_writer_writes_files():
    # every output file is written by one function, after the command's
    # used names are refused and its work is done
    wrong = callers({"open", "write_text", "write_bytes"}) - {"cli._write_outputs"}
    assert not wrong, "file writes outside the CLI writer: " + ", ".join(sorted(wrong))


def test_no_check_takes_a_tolerance_or_a_fraction():
    # Each identity check holds its identity to one fixed tolerance on one
    # fixed interior, and each statistical test its law to one fixed level;
    # a knob for any of them would let a caller loosen it.
    wrong = []
    for path in MODULES:
        module = importlib.import_module(f"cgmlab.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if path.stem == "stats" and callable(getattr(module, name)):
                knobs = ("alpha", "min_expected", "z_max")
            elif name.startswith("check_"):
                knobs = ("tolerance", "fraction")
            else:
                continue
            params = inspect.signature(getattr(module, name)).parameters
            wrong += [f"{path.stem}.{name}({p})" for p in params if p in knobs]
    assert not wrong, "checks with a knob: " + ", ".join(wrong)
