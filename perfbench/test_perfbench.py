"""Tests of the benchmark itself; not part of the package's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(l for l in lines if l.startswith("fingerprint "))
    return json.loads(lines[-1]), json.loads(fingerprint[len("fingerprint "):])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    def inputs(seed):
        w = workloads.WORKLOADS[name]()
        w.setup(seed)
        return w.inputs

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_metric_names_and_units():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_matches_untraced_run(name):
    plain, plain_fp = run_bench(name, 0)
    traced, traced_fp = run_bench(name, 1)
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert traced_fp == plain_fp
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |        350 |     scipy",
        "import time:        30 |         30 |     scipy.constants",
        "import time:        20 |        400 |   cryoctrl.noise",
        "import time:        10 |        410 | cryoctrl",
    ])
    got = tracing.parse_importtime(text)
    assert got == pytest.approx({"total_ms": 0.41, "scipy_ms": 0.38, "numpy_ms": 0.3,
                                 "cryoctrl_self_ms": 0.03})
