"""numpy is the only runtime dependency: importing the package loads nothing else; every
private module-level helper and constant is still used; and every import is named again."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import photonsteer

PROBE = """
import json, sys
before = set(sys.modules)
import photonsteer
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_import_loads_only_numpy_and_the_standard_library():
    src = str(Path(photonsteer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    assert set(json.loads(done.stdout)) <= {"numpy", "photonsteer"}


def package_trees() -> dict[str, ast.Module]:
    package = Path(photonsteer.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in package.glob("*.py")}


def names_read(tree: ast.AST) -> set[str]:
    """Every name the code reads: a bare name, an attribute or an imported name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_is_referenced():
    """A module-level private function or class of the package is dead unless some code in
    the package names it again: a call, an attribute, an import or a bare reference."""
    trees = package_trees()
    defined = {(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and is_private(node.name)}
    referenced = set().union(*map(names_read, trees.values()))
    assert defined, "no private helpers found"
    assert sorted(f"{module}:{name}" for module, name in defined if name not in referenced) == []


def test_every_private_constant_is_referenced():
    """A module-level private constant (``_AMP_TOL = …``) is dead unless some code in the
    package reads it; its own assignment does not count."""
    trees = package_trees()
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined |= {(module, t.id) for t in targets
                        if isinstance(t, ast.Name) and is_private(t.id)}
    referenced = set().union(*map(names_read, trees.values()))
    assert defined, "no private constants found"
    assert sorted(f"{module}:{name}" for module, name in defined if name not in referenced) == []


def test_every_import_is_named_again_in_its_module():
    """An import that its module never reads is dead. ``__init__`` is exempt: what it
    imports is the package's public API."""
    unused = []
    for module, tree in package_trees().items():
        if module == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{module}:{bound}")
    assert unused == []
