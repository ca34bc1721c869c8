"""Every script in demos/ runs to completion, with numpy's warnings of
overflow and invalid values as errors, as in the rest of the suite."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # without its data files the benchmark demo says where to put them and stops
    env.pop("MLMKL_DATA_DIR", None)
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
