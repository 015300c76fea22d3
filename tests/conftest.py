import os
from pathlib import Path

import pytest

from cryoctrl import Scenario, baseline_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"


@pytest.fixture
def baseline() -> Scenario:
    return baseline_scenario()


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def src_env() -> dict:
    """Environment for a child interpreter that imports cryoctrl from src/."""
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
