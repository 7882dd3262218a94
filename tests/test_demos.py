import os
import subprocess
import sys
from pathlib import Path

import pytest

import smwsim

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_three_demos_are_found():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_to_completion(demo, tmp_path):
    # each demo prints its tables and exits 0 with the package on the path
    src = str(Path(smwsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p])}
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
