"""The benchmark's tracer wraps package functions by name (perfbench/tracing.py);
renaming one of them must fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.layer_targets()
    assert targets
    for name, owner, attribute, _span in targets:
        assert callable(getattr(owner, attribute, None)), name
