import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_no_module_reads_another_modules_private_names():
    # a helper two modules share is public in the module that owns it
    reads = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("vortexcage")):
                for alias in node.names:
                    if node.module is None:         # from . import module
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        reads.append(f"{path.stem}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                reads.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert not reads


def _run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter that imports this
    checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(vortexcage.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_imports_no_test_dependency():
    # scipy, hypothesis and pytest are test extras in pyproject.toml: a
    # command must run without them and not pay for importing them
    code = ("import sys, vortexcage.cli; print(sorted({'scipy', 'hypothesis', "
            "'pytest'} & {name.partition('.')[0] for name in sys.modules}))")
    assert _run_fresh(code).strip() == "[]"


def test_commands_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call (numpy 2.x), ~14 ms in a
    # fresh process; every command builds a transition set
    code = ("import sys, vortexcage.cli\n"
            "from vortexcage import beam, coupling, numerics, structure\n"
            "from vortexcage.units import ev_to_hartree, nm_to_bohr\n"
            "basis = structure.build_basis()\n"
            "grid = numerics.build_grid(0.0, 26.8, 40, 26)\n"
            "pulse = beam.VortexPulse(a0=0.05, m_oam=1, "
            "omega=ev_to_hartree(8.0), delta=1.6e-5, waist=nm_to_bohr(50.0))\n"
            "coupling.build_transition_set(basis, grid, pulse)\n"
            "print('numpy.ma' in sys.modules)")
    assert _run_fresh(code).strip() == "False"
