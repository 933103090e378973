"""numpy is the only runtime dependency: importing the package loads nothing else; and
every private module-level helper is still used."""

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


def test_every_private_helper_is_referenced():
    """A module-level private function or class of the package is dead unless some code in
    the package names it again: a call, an attribute, an import or a bare reference."""
    package = Path(photonsteer.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    defined, referenced = set(), set()
    for module, tree in trees.items():
        defined |= {(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert defined, "no private helpers found"
    assert sorted(f"{module}:{name}" for module, name in defined if name not in referenced) == []
