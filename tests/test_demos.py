"""The narrative demos run to completion, each in its own interpreter."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_exits_zero(tmp_path):
    # limit_shapes.py writes its figure data beside itself, so run copies
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("*.csv", "*.png"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MPLBACKEND="Agg")
    scripts = sorted(demos.glob("*.py"))
    assert scripts
    for script in scripts:
        result = subprocess.run([sys.executable, str(script)], cwd=demos, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, f"{script.name} failed:\n{result.stderr}"
