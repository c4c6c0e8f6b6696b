import os
import subprocess
import sys
from pathlib import Path

import pytest

import delcap

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("args", [
    ["achievable_rates.py", "--L", "4"],
    ["auxiliary_tables.py", "--l-max", "4"],
    ["bound_curves.py", "--L", "4", "--step", "0.25"],
    ["consistency_and_limits.py"],
], ids=lambda args: args[0])
def test_demo_runs(tmp_path, args):
    # run outside the source tree with the package's absolute directory,
    # as a relative PYTHONPATH entry would not resolve from there
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(delcap.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / args[0]), *args[1:]],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
