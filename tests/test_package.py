import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vortexcage

MODULES = ["vortexcage"] + [f"vortexcage.{m.name}"
                            for m in pkgutil.iter_modules(vortexcage.__path__)]
SOURCES = sorted(Path(vortexcage.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def _loaded_names(node, inside=()):
    """Names read as a Name, an Attribute or a from-import under ``node``,
    except reads of a function or class inside its own definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside + (node.name,)
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        found.update(alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        found |= _loaded_names(child, inside)
    return found - set(inside)


def _public_api(module: str, tree: ast.Module):
    """``__all__`` names (every module-level public function when there is
    no ``__all__``) and the public methods of public classes."""
    api = []
    exported = None
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            exported = [elt.value for elt in stmt.value.elts]
    if exported is None:
        exported = [s.name for s in tree.body
                    if isinstance(s, ast.FunctionDef) and not s.name.startswith("_")]
    api += [f"{module}.{name}" for name in exported]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            api += [f"{module}.{cls.name}.{f.name}" for f in cls.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return api


def test_every_public_name_is_used_in_the_package():
    # an API that only tests call is code the pipeline never runs
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    loaded = set().union(*(_loaded_names(tree) for tree in trees.values()))
    unused = [qual for module, tree in trees.items()
              for qual in _public_api(module, tree)
              if qual.rpartition(".")[2] not in loaded]
    assert not unused
