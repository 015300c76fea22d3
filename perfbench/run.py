"""cryoctrl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload playback --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. With ``--trace 0`` it runs the workload closed loop for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced pass, then traced passes until ``--seconds`` have passed, and reports the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the same figures for reading, the
seed, and the workload's exact-count fingerprint.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes per run, spread evenly over the run.
SETUP_REPEATS = 9
# Every input runs at least twice, and the cli workload's 20 calls per pass
# then give 40 samples, so that ten lie beyond the raw p75.
MIN_PASSES = 2
# A seed kept out of tuning, for confirming a claimed gain.
CONFIRM_SEED = 1009


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up the workload, print 'ready' and exit")
    return p.parse_args(argv)


def check_checkout() -> None:
    for path in (ROOT / "src" / "cryoctrl" / "__init__.py", ROOT / "scenarios"):
        if not path.exists():
            sys.exit(f"perfbench: {path.relative_to(ROOT)} not found; "
                     "run from the root of a cryoctrl source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time from starting a fresh benchmark process until it is set up
    and could start its first timed operation."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def peak_rss_mb(w) -> float:
    """Peak RSS of the process doing the work: this one, or the largest
    child on ``cli``. The set-up probes are children too, so ``cli`` takes
    each call's own figure."""
    if not w.in_process:
        return w.peak_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcomes:
    """Operations attempted, and the first failed check of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failures.append(fails[0])

    @property
    def failed(self) -> int:
        return len(self.failures)


def timed(w, item, counter):
    """Run one operation; return (seconds, digest). A raised exception is a
    failed operation."""
    t0 = time.perf_counter()
    try:
        result = w.run(item)
    except Exception as exc:  # an operation that raises is counted, not fatal
        counter.record([f"{type(exc).__name__}: {exc}"])
        return time.perf_counter() - t0, None
    dt = time.perf_counter() - t0
    d, fails = w.check(item, result)
    counter.record(fails)
    return dt, d


# ---------------------------------------------------------------------------
# --trace 0

def run_untraced(w, args, counter):
    """Whole passes over the inputs until ``--seconds`` have passed, at least
    ``MIN_PASSES``. Each input's time is the fastest of its repeats, or of
    its group's (a CLI subcommand with its options, over all scenario
    files): on a shared host the slower repeats measure the neighbours, not
    the program.
    ``SETUP_REPEATS`` set-up probes run between operations, spread evenly
    over the run; their time is not part of ``--seconds``."""
    times = [[] for _ in w.inputs]      # ms per repeat, per input
    digests = []
    setups = []
    probe_s = 0.0
    start = time.perf_counter()

    def probe():
        nonlocal probe_s
        t0 = time.perf_counter()
        setups.append(setup_seconds(args.workload, args.seed))
        probe_s += time.perf_counter() - t0

    def elapsed():
        return time.perf_counter() - start - probe_s

    passes = 0
    while passes < MIN_PASSES or elapsed() < args.seconds:
        for k, item in enumerate(w.inputs):
            if (len(setups) < SETUP_REPEATS
                    and elapsed() >= args.seconds * len(setups) / SETUP_REPEATS):
                probe()
            dt, d = timed(w, item, counter)
            times[k].append(dt * 1e3)
            if passes == 0:
                digests.append(d)
        passes += 1
    while len(setups) < SETUP_REPEATS:
        probe()
    rss = peak_rss_mb(w)

    calls = {}
    if w.in_process:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            counted = [timed(w, item, counter)[1] for item in w.inputs]
        finally:
            tracer.uninstall()
        calls = tracer.counts()
        if counted != digests:
            counter.record(["output with the tracer installed differs"])
    stats, fails = w.verify()
    counter.record(fails)

    fastest = {}
    for item, ts in zip(w.inputs, times):
        key = w.group(item)
        fastest[key] = min(fastest.get(key, math.inf), *ts)
    best = [fastest[w.group(item)] for item in w.inputs]
    work = sum(w.work_units(item) for item in w.inputs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_best_ms": (statistics.median(best), "ms"),
        "work_per_s": (work / (sum(best) / 1e3), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    every = [t for ts in times for t in ts]
    quartiles = statistics.quantiles(every, n=4)
    info = {"seed": args.seed, "confirm_seed": CONFIRM_SEED, "passes": passes,
            "ops": len(every), "work_unit": w.work_unit,
            "work_per_pass": work, "setup_runs": len(setups),
            "op_p50_ms": statistics.median(every), "op_p75_ms": quartiles[2]}
    return metrics, info, fingerprint(args, digests, stats, calls)


def fingerprint(args, digests, stats, calls) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "outputs_sha256": workloads.digest(*[d or "" for d in digests]),
            "stats": stats, "calls": calls}


# ---------------------------------------------------------------------------
# --trace 1

def run_traced(w, args, counter, tracer, setup_counts):
    def one_pass(span):
        pass_s, digests = 0.0, []
        for i, item in enumerate(w.inputs):
            tracer.run_id = i
            with span("op"):
                dt, d = timed(w, item, counter)
            pass_s += dt
            digests.append(d)
        return pass_s, digests

    start = time.perf_counter()
    untraced_s, digests = one_pass(lambda name: contextlib.nullcontext())

    census = getattr(w, "census", None)
    tracer.install()
    try:
        traced_s = []
        while not traced_s or time.perf_counter() - start < args.seconds:
            before = tracer.counts()
            pass_s, traced_digests = one_pass(tracer.span)
            if not traced_s:
                op_calls = tracer.counts_since(before)
                if traced_digests != digests:
                    counter.record(["traced pass output differs from the untraced pass"])
            if census is not None:
                tracer.run_id = "census"
                counter.record(census(tracer.span))
            if not traced_s:
                first = tracer.counts_since(before)
            traced_s.append(pass_s)
    finally:
        tracer.uninstall()

    stats, fails = w.verify()
    counter.record(fails)
    imports = tracing.import_times(workloads.cli_env(), ROOT)
    metrics = layer_metrics(tracer, first, setup_counts, len(traced_s), imports)
    events = stats.get("events", 0)   # trace events of one pass, sim workloads only
    metrics["sim.engine.host_ns_per_event"] = (
        untraced_s * 1e9 / events if events else 0.0, "ns")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / untraced_s - 1.0, "ratio")
    workloads.OUT_DIR.mkdir(exist_ok=True)
    tracer.write(workloads.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    info = {"traced_passes": len(traced_s), "untraced_pass_s": untraced_s,
            "traced_pass_s": statistics.median(traced_s), "spans": len(tracer.spans)}
    return metrics, info, fingerprint(args, digests, stats, op_calls)


def layer_metrics(tracer, first, setup_counts, passes, imports) -> dict:
    def count(*names):
        return sum(first.get(n, 0) + setup_counts.get(n, 0) for n in names)

    def mean(name, unit, self_time=False):
        scale = {"us": 1e3, "ms": 1e6}[unit]
        return tracer.mean_ns(name, self_time=self_time) / scale, unit

    def busy_ms(*names):
        return tracer.total_ns(*names) / passes / 1e6, "ms"

    dac = [n for n in tracer.agg if n.startswith("dac.")]
    noise = [n for n in tracer.agg if n.startswith("noise.")]
    m = {f"import.{k}": (v, "ms") for k, v in imports.items()}
    for cmd in ("bounds", "estimate", "capacity", "sweep"):
        m[f"cli.{cmd}_ms"] = mean(f"cli.{cmd}", "ms")
    m.update({
        "config.load_scenario_us": mean("config.load_scenario", "us"),
        "config.validate.calls": (count("config.validate"), "count"),
        "report.assemble_us": mean("report.assemble", "us"),
        "report.assemble.calls": (count("report.assemble"), "count"),
        "report.dac_sweep_ms": mean("report.dac_sweep", "ms"),
        "report.temperature_adjust_us": mean("report.temperature_adjust", "us"),
        "report.to_dict_us": mean("report.to_dict", "us"),
        "analog.derived_clocks.calls": (count("analog.derived_clocks"), "count"),
        "analog.derived_clocks_per_assemble": (
            count("analog.derived_clocks") / max(1, count("report.assemble")), "ratio"),
        "analog.bias_gen_report_us": mean("analog.bias_gen_report", "us"),
        "analog.rf_gen_report_us": mean("analog.rf_gen_report", "us"),
        "digital.memory_report_us": mean("digital.memory_report", "us"),
        "digital.managing_report_us": mean("digital.managing_report", "us"),
        "dac.design_dac.calls": (count("dac.design_dac"), "count"),
        "dac.component_counts.calls": (count("dac.component_counts"), "count"),
        "dac.self_us": (sum(tracer.agg[n][2] for n in dac)
                        / max(1, tracer.calls(*dac)) / 1e3, "us"),
        "noise.calls": (count(*noise), "count"),
        "noise.self_us": (sum(tracer.agg[n][2] for n in noise)
                          / max(1, tracer.calls(*noise)) / 1e3, "us"),
        "sim.engine.parse_stimulus_ms": mean("sim.engine.parse_stimulus", "ms"),
        "sim.engine.run_self_ms": mean("sim.engine.run", "ms", self_time=True),
        "sim.engine.events": (count("sim.engine.events"), "count"),
        "sim.engine.sample_edge.calls": (count("sim.engine.sample_edge"), "count"),
        "sim.engine.sample_edge_ms": busy_ms("sim.engine.sample_edge"),
        "sim.engine.trace_emit.calls": (count("sim.engine.trace_emit"), "count"),
        "sim.engine.trace_emit_ms": busy_ms("sim.engine.trace_emit"),
        "sim.engine.emit_kept_ratio": (
            count("sim.engine.events") / max(1, count("sim.engine.trace_emit")), "ratio"),
        "sim.engine.to_csv_ms": mean("sim.engine.to_csv", "ms"),
        "sim.engine.csv_bytes": (count("sim.engine.csv_bytes"), "bytes"),
        "sim.memory.read_rf.calls": (count("sim.memory.read_rf"), "count"),
        "sim.memory.read_rf_ms": busy_ms("sim.memory.read_rf"),
        "sim.engine.conversion.calls": (count("sim.engine.conversion"), "count"),
        "sim.engine.conversion_ms": busy_ms("sim.engine.conversion"),
        "sim.engine.refresh_electrode.calls": (count("sim.engine.refresh_electrode"), "count"),
        "sim.engine.refresh_electrode_ms": busy_ms("sim.engine.refresh_electrode"),
        "sim.protocol.step.calls": (count("sim.protocol.step"), "count"),
        "sim.protocol.step_ms": busy_ms("sim.protocol.step"),
        "sim.memory.read_bias.calls": (count("sim.memory.read_bias"), "count"),
        "sim.memory.shift_in.calls": (
            count("sim.memory.shift_in_bias", "sim.memory.shift_in_rf"), "count"),
        "sim.engine.play_accept_ratio": (
            1.0 - count("sim.engine.plays_refused")
            / max(1, count("sim.engine.command_received")), "ratio"),
        "sim.protocol.rf_feed.calls": (count("sim.protocol.rf_feed"), "count"),
    })
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(one of {', '.join(workloads.WORKLOADS)})")
    w = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        w.setup(args.seed)
        print("ready", flush=True)
        return 0

    counter = Outcomes()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.run_id = "setup"
        tracer.install()
        try:
            w.setup(args.seed)
        finally:
            tracer.uninstall()
        setup_counts = tracer.counts()
        metrics, info, fp = run_traced(w, args, counter, tracer, setup_counts)
    else:
        w.setup(args.seed)
        metrics, info, fp = run_untraced(w, args, counter)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        for alias, name in w.aliases.items():
            value, unit = metrics.get(name) or (info[name], "ms")
            print(f"  {alias} = {value:.6g} {unit}")
    print(f"  fail_ratio = {counter.failed}/{counter.attempted}")
    for f in counter.failures[:10]:
        print(f"  FAILED: {f}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps({
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
