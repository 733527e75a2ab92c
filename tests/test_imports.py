"""Every module-level import of the package is used by its module, the
package's names are its modules' ``__all__`` lists, and each of those names
is read by the system that runs.

Each ``src/tetrot/*.py`` other than ``__init__.py`` (which exists to
re-export) is parsed with ``ast``; a name that a top-level ``import`` binds
must be read somewhere in the module or listed in its ``__all__``.  A name
in an ``__all__`` must be read by another module of the package (the CLI
included) or by the benchmark, ``bench/*.py`` other than its tests, unless
it is allowed below with its reason.  Every threshold of the four modules'
functions and methods comes in through a ``Tolerances``: a float keyword
default is allowed below with its reason, or not at all.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import tetrot
from tetrot import configspace, geom, rotation, solver

SRC = Path(__file__).resolve().parent.parent / "src" / "tetrot"
BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
SURFACE = {Path(module.__file__).name: module for module in (geom, rotation, configspace, solver)}

# (module, name): why the import stays although the module never reads it
ALLOWED = {
    ("cli.py", "sample_tetrahedron"): "bench/spans.py wraps cli.sample_tetrahedron, so the name must exist there",
}

# (module, name): why the name stays public although no other module and no benchmark reads it
ALLOWED_PUBLIC = {
    ("rotation.py", "AxisAngle"): "quat_to_axis_angle returns it",
    ("rotation.py", "quat_to_axis_angle"): "the inverse of quat_from_axis_angle, which configspace and instances read",
    ("rotation.py", "matrix_to_quat"): "the inverse of quat_to_matrix, and the only route from a matrix to a quaternion",
    ("solver.py", "DegenerateTetrahedronError"):
        "labeled_solve, unlabeled_solve and reconstruct_geometric raise it for a fault of the tetrahedron",
    ("solver.py", "DegenerateViewError"): "reconstruct_geometric raises it for a fault of the view",
}

# (module, function or Class.method, parameter): why a public float keyword default stays
# rather than reading a field of the Tolerances that every other threshold comes in through
ALLOWED_FLOAT_KEYWORDS = {
    ("geom.py", "Tetrahedron.full_dimensional", "rank_rel"):
        "bench/spans.py calls tetra.full_dimensional(tol.rank_rel) in every traced run",
}
# The settable values of the library: each Tolerances field and each float keyword default
SETTABLE_VALUES = 4


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_the_package_has_modules_to_check():
    assert {"cli.py", "configspace.py", "geom.py", "rotation.py", "solver.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    unused = imported_names(tree) - used_names(tree) - {name for mod, name in ALLOWED if mod == module}
    assert not unused, f"{module} imports {sorted(unused)} but never uses them"


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_each_allowed_import_is_still_imported_and_unused(module, name):
    # an entry the module no longer needs allowing is stale and goes
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    assert name in imported_names(tree)
    assert name not in used_names(tree)


def test_the_package_re_exports_each_module_all_and_nothing_else():
    modules = (geom, rotation, configspace, solver)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)), "two modules export one name"
    for module in modules:
        for name in module.__all__:
            assert getattr(tetrot, name) is getattr(module, name)
    # cli and instances appear on the package once something imports them, so modules are skipped
    public = {name for name, value in vars(tetrot).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(names)
    # the lists are the one declaration: __init__.py names none of them again
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [alias.name for node in imports for alias in node.names] == ["*"] * 4


def names_read(path: Path) -> set[str]:
    """Names a file reads: loaded names, attributes, imported names, and the name in a string
    "module.name" of one of the four modules, as bench/spans.py names the functions it wraps."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=path.name)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            dotted = re.fullmatch(r"(?:geom|rotation|configspace|solver)\.(\w+)", node.value)
            if dotted:
                read.add(dotted[1])
    return read


def read_elsewhere(module: str) -> set[str]:
    """Names read by every package module but `module`, and by the benchmark but its tests."""
    paths = [SRC / name for name in MODULES if name != module]
    paths += [path for path in BENCH.glob("*.py") if path.name != "test_bench.py"]
    return set().union(*(names_read(path) for path in paths))


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_every_public_name_is_read_by_the_system(module):
    allowed = {name for mod, name in ALLOWED_PUBLIC if mod == module}
    unread = set(SURFACE[module].__all__) - read_elsewhere(module) - allowed
    assert not unread, f"only tests read {sorted(unread)} of {module}'s __all__"


@pytest.mark.parametrize("module, name", sorted(ALLOWED_PUBLIC))
def test_each_allowed_public_name_is_still_public_and_unread(module, name):
    # an entry the system now reads, or a name no longer public, is stale and goes
    assert name in SURFACE[module].__all__
    assert name not in read_elsewhere(module)


def float_keywords(module) -> set[tuple[str, str]]:
    """(function or Class.method, parameter) of every float default of a public function, or of a
    public method of a public class, in the module's __all__, found with inspect."""
    routines = []
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isfunction(value):
            routines.append((name, value))
        elif inspect.isclass(value):
            routines += [(f"{name}.{attr}", getattr(value, attr)) for attr in vars(value)
                         if not attr.startswith("_") and inspect.isroutine(getattr(value, attr))]
    return {(qualname, parameter.name) for qualname, routine in routines
            for parameter in inspect.signature(routine).parameters.values() if isinstance(parameter.default, float)}


def test_every_public_float_keyword_is_allowed():
    found = {(module, *keyword) for module in SURFACE for keyword in float_keywords(SURFACE[module])}
    assert found <= set(ALLOWED_FLOAT_KEYWORDS), f"{sorted(found - set(ALLOWED_FLOAT_KEYWORDS))} take a float, not tol"
    assert len(dataclasses.fields(geom.Tolerances)) + len(found) == SETTABLE_VALUES


@pytest.mark.parametrize("module, routine, parameter", sorted(ALLOWED_FLOAT_KEYWORDS))
def test_each_allowed_float_keyword_is_still_one(module, routine, parameter):
    # an entry whose parameter now reads a Tolerances, or is gone, is stale and goes
    assert (routine, parameter) in float_keywords(SURFACE[module])
