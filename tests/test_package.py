import os
import subprocess
import sys
from pathlib import Path

import srlab

_SRC = str(Path(srlab.__file__).parent.parent)


def test_package_exposes_only_its_submodules():
    # every function has one home, its submodule; the package re-exports none.
    # A fresh interpreter: importing srlab.cli here would add the name cli.
    code = "import srlab; print(sorted(n for n in vars(srlab) if not n.startswith('_')))"
    env = {**os.environ, "PYTHONPATH": _SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "['bounds', 'dyadic', 'experiments', 'kernels', 'rounding', 'sr']\n"
