"""Start-up guard: importing the CLI loads no scipy subpackage beyond what
``import scipy.sparse`` itself loads.  Every command starts a fresh
interpreter, so each extra subpackage (scipy.integrate pulls in optimize,
special, linalg and more) is paid on every run.  Comparing against what
scipy.sparse loads keeps the test true across scipy versions: it tests
only what this package adds."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = ("import json, sys\n"
          "import {module}\n"
          "print(json.dumps(sorted({{k.split('.')[1] for k in sys.modules "
          "if k.startswith('scipy.')}})))\n")


def _scipy_subpackages(module):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(module=module)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_cli_imports_no_scipy_subpackage_beyond_sparse():
    floor = _scipy_subpackages("scipy.sparse")
    loaded = _scipy_subpackages("cavityfredkin.cli")
    extra = sorted(loaded - floor)
    assert not extra, f"import cavityfredkin.cli also loads scipy subpackages {extra}"
