"""Each narrative demo runs to completion as a script, passes every
self-check it prints and leaves no temporary files behind."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # a demo prints each of its self-checks as "<claim>: True"
    assert "False" not in proc.stdout, proc.stdout
    assert os.listdir(tmp_path) == []
