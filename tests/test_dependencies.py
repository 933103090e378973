"""numpy is the only runtime dependency: importing the package loads nothing else."""

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
