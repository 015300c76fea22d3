"""The benchmark wraps package functions by name (perfbench/tracing.py) and
reads traces through the public API (perfbench/workloads.py); a rename or an
API change that breaks either must fail here rather than in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable():
    targets = _load("tracing").layer_targets()
    assert targets
    for name, owner, attribute, _span in targets:
        assert callable(getattr(owner, attribute, None)), name


@pytest.mark.parametrize("name", ["design-sweep", "playback", "tuneup"])
def test_a_workload_runs_and_checks_its_first_input(name):
    workload = _load("workloads").WORKLOADS[name]()
    workload.setup(7)
    item = workload.inputs[0]
    _digest, failures = workload.check(item, workload.run(item))
    assert failures == []


@pytest.mark.parametrize("name, boundary, calls", [
    ("design-sweep", "report.sweep", 3),
    ("playback", "sim.engine.run", 1),
    ("tuneup", "sim.engine.run", 1),
], ids=["design-sweep", "playback", "tuneup"])
def test_a_traced_run_gives_the_untraced_output(name, boundary, calls):
    # What ``perfbench/run.py --trace 1`` does: the tracer's wrappers must
    # leave the estimator's and the simulator's output unchanged.
    tracer = _load("tracing").Tracer()
    workload = _load("workloads").WORKLOADS[name]()
    workload.setup(7)
    item = workload.inputs[0]
    untraced, failures = workload.check(item, workload.run(item))
    tracer.install()
    try:
        result = workload.run(item)
    finally:
        tracer.uninstall()
    traced, traced_failures = workload.check(item, result)
    assert failures == traced_failures == []
    assert traced == untraced
    assert tracer.calls(boundary) == calls
