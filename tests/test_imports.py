"""Every module-level import of the package is used by its module, and the
package's names are its modules' ``__all__`` lists.

Each ``src/tetrot/*.py`` other than ``__init__.py`` (which exists to
re-export) is parsed with ``ast``; a name that a top-level ``import`` binds
must be read somewhere in the module or listed in its ``__all__``.
"""

import ast
import inspect
from pathlib import Path

import pytest

import tetrot
from tetrot import configspace, geom, rotation, solver

SRC = Path(__file__).resolve().parent.parent / "src" / "tetrot"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")

# (module, name): why the import stays although the module never reads it
ALLOWED = {
    ("cli.py", "sample_tetrahedron"): "bench/spans.py wraps cli.sample_tetrahedron, so the name must exist there",
}


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
