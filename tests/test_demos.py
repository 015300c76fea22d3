import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs(demo, tmp_path, src_env):
    proc = subprocess.run([sys.executable, str(DEMO_DIR / demo)], cwd=tmp_path, env=src_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
