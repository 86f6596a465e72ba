"""Each narrative demo runs to completion as a script."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_autodiff_substrate.py", "02_encoder_branches.py", "03_selective_fusion.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
