"""Tracing from outside the package: wrap public functions, record spans.

The tracer replaces a function or method with a wrapper that times each
call. Boundary calls (an operation, a sweep, a simulation run) are kept as
spans ``(span id, parent span id, run id, name, start ns, end ns)``; hot
per-sample calls only add to an aggregate of calls, inclusive time and self
time. Self time is a call's duration minus the time covered by the traced
calls it made. Nothing under ``src/`` is edited: wrappers are installed on
the imported modules and classes and removed again by ``uninstall``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import subprocess
import sys
import time


def layer_targets():
    """``(name, owner, attribute, span)`` for every traced function."""
    # cli is imported first so that the names it imports get wrapped too
    from cryoctrl import analog, cli, config, dac, digital, noise, report  # noqa: F401
    from cryoctrl.sim import engine, memory, protocol

    targets = [
        ("config.load_scenario", config, "load_scenario", True),
        ("config.validate", config.Scenario, "validate", False),
        ("report.assemble", report, "assemble", False),
        ("report.sweep", report, "sweep", True),
        ("report.dac_sweep", report, "dac_sweep", True),
        ("report.temperature_adjust", report, "temperature_adjust", False),
        ("report.to_dict", report.Report, "to_dict", False),
        ("analog.derived_clocks", analog, "derived_clocks", False),
        ("analog.bias_gen_report", analog, "bias_gen_report", False),
        ("analog.rf_gen_report", analog, "rf_gen_report", False),
        ("digital.memory_report", digital, "memory_report", False),
        ("digital.managing_report", digital, "managing_report", False),
        ("sim.engine.parse_stimulus", engine, "parse_stimulus", True),
        ("sim.engine.run", engine.Simulator, "run", True),
        ("sim.engine.to_csv", engine.Trace, "to_csv", True),
        ("sim.engine.trace_emit", engine.Trace, "emit", False),
        ("sim.engine.sample_edge", engine.RfController, "sample_edge", False),
        ("sim.engine.command_received", engine.RfController, "command_received", False),
        ("sim.engine.conversion", engine.BiasController, "conversion", False),
        ("sim.engine.refresh_electrode", engine.Simulator, "refresh_electrode", False),
        ("sim.protocol.step", protocol.DataInputController, "step", False),
        ("sim.protocol.rf_feed", protocol.RfCommandReceiver, "feed", False),
        ("sim.memory.read_rf_dual", memory.MemoryBank, "read_rf_dual", False),
        ("sim.memory.read_rf", memory.MemoryBank, "read_rf", False),
        ("sim.memory.read_bias", memory.MemoryBank, "read_bias", False),
        ("sim.memory.shift_in_bias", memory.MemoryBank, "shift_in_bias", False),
        ("sim.memory.shift_in_rf", memory.MemoryBank, "shift_in_rf", False),
    ]
    for fn in ("design_dac", "component_counts", "dac_area", "dac_analog_power",
               "dac_switch_power", "dac_output_noise"):
        targets.append((f"dac.{fn}", dac, fn, False))
    for fn in ("ktc_rms", "johnson_rms", "min_unit_cap", "max_unit_res", "min_hold_cap"):
        targets.append((f"noise.{fn}", noise, fn, False))
    return targets


# Counters read from a call's result: a serialised trace has one CSV row per
# event, and a play command refused for backpressure leaves one marker row.
RESULT_COUNTERS = {
    "sim.engine.to_csv": lambda text: {
        "sim.engine.events": text.count("\n") - 1,
        "sim.engine.csv_bytes": len(text),
        "sim.engine.plays_refused": text.count(",rf_cmd_ignored,"),
    },
}


class Tracer:
    def __init__(self):
        self.agg: dict[str, list[int]] = {}   # name -> [calls, total ns, self ns]
        self.spans: list[tuple] = []
        self.tallies: dict[str, int] = {}     # counters taken from results
        self.span_names: set[str] = set()      # spans opened by the benchmark itself
        self.run_id = None
        self._stack: list[list[int]] = []    # [child ns, span id] per open call
        self._next_id = 0
        self._patches: list[tuple] = []

    # recording --------------------------------------------------------------

    def _enter(self, span: bool) -> list[int]:
        sid = 0
        if span:
            self._next_id += 1
            sid = self._next_id
        frame = [0, sid]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[int], t0: int, t1: int) -> None:
        stack = self._stack
        stack.pop()
        dt = t1 - t0
        if stack:
            stack[-1][0] += dt
        rec = self.agg.get(name)
        if rec is None:
            rec = self.agg[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[0]
        if frame[1]:
            parent = next((f[1] for f in reversed(stack) if f[1]), 0)
            self.spans.append((frame[1], parent, self.run_id, name, t0, t1))

    def wrap(self, name: str, fn, span: bool):
        clock = time.perf_counter_ns
        measure = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, t0, clock())
            if measure is not None:
                for key, n in measure(result).items():
                    self.tallies[key] = self.tallies.get(key, 0) + n
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        self.span_names.add(name)
        frame = self._enter(True)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(name, frame, t0, time.perf_counter_ns())

    # installing -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a module-level function is replaced in every
        ``cryoctrl`` module that imported it by name."""
        targets = layer_targets()   # imports the modules first
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cryoctrl" or n.startswith("cryoctrl.")) and m is not None]
        for name, owner, attr, span in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, span)
            owners = [owner] if isinstance(owner, type) else \
                [m for m in modules if any(v is original for v in vars(m).values())]
            for o in owners:
                for key, value in list(vars(o).items()):
                    if value is original:
                        self._patches.append((o, key, original))
                        setattr(o, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # reading ----------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Calls per traced function, and the result counters, where not 0."""
        calls = {n: rec[0] for n, rec in self.agg.items() if n not in self.span_names}
        return {n: c for n, c in {**calls, **self.tallies}.items() if c}

    def counts_since(self, before: dict[str, int]) -> dict[str, int]:
        now = self.counts()
        return {n: c - before.get(n, 0) for n, c in sorted(now.items())
                if c - before.get(n, 0)}

    def calls(self, *names: str) -> int:
        return sum(self.agg.get(n, (0,))[0] for n in names)

    def mean_ns(self, *names: str, self_time: bool = False) -> float:
        calls = self.calls(*names)
        total = sum(self.agg[n][2 if self_time else 1] for n in names if n in self.agg)
        return total / calls if calls else 0.0

    def total_ns(self, *names: str) -> int:
        return sum(self.agg[n][1] for n in names if n in self.agg)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, run, name, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "run": run, "name": name,
                                    "start_ns": t0, "end_ns": t1}) + "\n")
            for name, (calls, total, self_ns) in sorted(self.agg.items()):
                f.write(json.dumps({"aggregate": name, "calls": calls, "total_ns": total,
                                    "self_ns": self_ns}) + "\n")


# ---------------------------------------------------------------------------
# Import time of the package, from ``python -X importtime``

def parse_importtime(text: str) -> dict[str, float]:
    """Milliseconds of the whole ``import cryoctrl``, of the topmost scipy and
    numpy imports (children included) and of the package's own modules."""
    nodes = []      # (level, name, self us, cumulative us, children)
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        node = (level, name.strip(), int(self_us), int(cum_us), [])
        while nodes and nodes[-1][0] > level:
            node[4].append(nodes.pop())
        nodes.append(node)

    out = {"total_ms": 0.0, "scipy_ms": 0.0, "numpy_ms": 0.0, "cryoctrl_self_ms": 0.0}

    def visit(node, in_pkg):
        _, name, self_us, cum_us, children = node
        top = name.split(".")[0]
        if name == "cryoctrl":
            out["total_ms"] += cum_us / 1e3
        if top == "cryoctrl":
            out["cryoctrl_self_ms"] += self_us / 1e3
        if top in ("scipy", "numpy") and top not in in_pkg:
            out[f"{top}_ms"] += cum_us / 1e3
        for child in children:
            visit(child, in_pkg | {top})

    for node in nodes:
        visit(node, frozenset())
    return out


def import_times(env: dict, cwd, repeats: int = 3) -> dict[str, float]:
    """Median over ``repeats`` fresh interpreters of ``parse_importtime``."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cryoctrl"],
                              cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import cryoctrl failed: {proc.stderr.strip()[-300:]}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
