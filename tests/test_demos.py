"""Every script under demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    temp_dir, work_dir = tmp_path / "tmp", tmp_path / "work"
    temp_dir.mkdir()
    work_dir.mkdir()
    env = dict(os.environ, TMPDIR=str(temp_dir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], cwd=work_dir, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, f"{demo.name} exited {run.returncode}:\n{run.stderr[-2000:]}"
    assert not any(temp_dir.iterdir()), f"{demo.name} left files in its temp directory"
