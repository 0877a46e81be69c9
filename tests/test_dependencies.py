import os
import subprocess
import sys

import bigrade


def test_package_imports_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(bigrade.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, bigrade, bigrade.cli; "
        "print(sorted({'numpy', 'numba'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert out.strip() == "[]"
