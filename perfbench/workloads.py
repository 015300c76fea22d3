"""Seeded inputs, operations and correctness checks of the four workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished. A workload cycles through a fixed list
of seeded inputs (one *pass*); the amount of work per input does not depend
on the seed, only the values do, so runs with different seeds measure the
same work.

A workload object has ``setup(seed)``, which builds ``inputs``; ``run(item)``,
the timed operation; ``check(item, result)``, untimed, which returns
``(digest, failures)``: a SHA-256 of everything the operation produced and
the correctness checks it failed; ``work_units(item)``; ``group(item)``,
the inputs whose fastest repeat is pooled; and ``verify()``,
run once after the timed loop, which returns ``(stats, failures)``. The
``cli`` workload also has ``census(span)`` for the traced run.
Repeating an input must reproduce its digest byte for byte.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
OUT_DIR = Path(__file__).resolve().parent / "out"

CLI_TIMEOUT_S = 60.0
CAPACITY_BUDGET = "1e-3"
# Acceptance values of ``capacity --budget 1e-3`` per scenario file.
CAPACITY_EXPECTED = {"paper-defaults.json": "5\n", "14nm-sram-10mv.json": "1428\n"}

# Frozen totals of the bundled design points: (area um^2, rel tol, power W, rel tol).
REFERENCE_TOTALS = {
    "65nm-ff-1v": (3.3e4, 0.20, 1.9e-4, 0.20),
    "65nm-sram-1v": (7.2e3, 0.20, 8.1e-5, 0.20),
    "65nm-sram-100mv": (7.2e3, 0.20, 1.5e-6, 0.20),
    "14nm-sram-10mv": (3.0e2, 0.20, 7.0e-7, 0.20),
}

# Operations of a few tens of ms: on a shared host, short operations catch
# the brief fast spells, so their fastest repeats vary less between runs.
PLAYBACK_SEQUENCES = 4            # 16-word sequences loaded and played
PLAYBACK_PLAYS = 96
PLAYBACK_PACE_NS = 110.0          # > 32 samples * 3.33 ns: the buffer never overflows
PLAYBACK_START_NS = 20_000.0      # after the bias and RF words have been shifted in
TUNEUP_SIM_NS = 5e6               # 5 ms simulated per input
TUNEUP_BURST_EVERY_NS = 1e6
TUNEUP_RAMP_NS = 150_000.0
SAMPLES_PER_PLAY = 32             # two sets of one 16-sample sequence


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# cli: fresh-interpreter calls of the command-line tool

def cli_argvs(seed: int) -> list[list[str]]:
    """The calls of one pass: bounds, estimate, capacity and a 4-point v_dd
    sweep on every scenario file. The sweep points and the order are seeded."""
    rng = rng_for("cli", seed, 0)
    files = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))
    argvs = []
    for name in files:
        sc = f"scenarios/{name}"
        points = sorted({round(rng.uniform(0.01, 1.2), 4) for _ in range(4)})
        while len(points) < 4:
            points = sorted(set(points) | {round(rng.uniform(0.01, 1.2), 4)})
        argvs += [
            ["bounds", "--scenario", sc],
            ["estimate", "--scenario", sc],
            ["capacity", "--scenario", sc, "--budget", CAPACITY_BUDGET],
            ["sweep", "--scenario", sc, "--param", "v_dd",
             "--points", ",".join(repr(p) for p in points)],
        ]
    rng.shuffle(argvs)
    return argvs


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_call(argv: list[str], env: dict) -> tuple[int, str, str, float]:
    """One fresh-interpreter call; returns (exit code, stdout, stderr, peak RSS
    in MB). The child is reaped with ``os.wait4``, which gives its own peak
    RSS, so its output goes to files: with pipes, a child blocked on a full
    pipe would never exit. A child still running after ``CLI_TIMEOUT_S`` is
    killed."""
    with open(OUT_DIR / "cli-stdout.txt", "w+") as out, \
            open(OUT_DIR / "cli-stderr.txt", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cryoctrl.cli", *argv], cwd=ROOT,
                                env=env, stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0


def cli_inprocess(argv: list[str]) -> tuple[int, str]:
    """``cryoctrl.cli.main`` in this process, stdout captured."""
    from cryoctrl import cli

    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(old)
    return code, out.getvalue()


class CliWorkload:
    name = "cli"
    in_process = False
    work_unit = "call"
    # names of the figures as the roadmap gives them, printed for reading
    aliases = {"cli_best_ms": "op_best_ms", "cli_p50_ms": "op_p50_ms",
               "cli_p75_ms": "op_p75_ms"}

    def setup(self, seed: int):
        import cryoctrl

        for path in sorted(SCENARIO_DIR.glob("*.json")):
            cryoctrl.load_scenario(path)
        OUT_DIR.mkdir(exist_ok=True)
        self.seed = seed
        self.inputs = cli_argvs(seed)
        self.env = cli_env()
        self.stdout = {}
        self.peak_rss_mb = 0.0

    def run(self, argv):
        return cli_call(argv, self.env)

    def check(self, argv, result):
        code, out, err, rss_mb = result
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        fails = []
        if code != 0:
            fails.append(f"exit {code}: {' '.join(argv)}: {err.strip()[-200:]}")
        key = tuple(argv)
        if self.stdout.setdefault(key, out) != out:
            fails.append(f"output differs between repeated calls: {' '.join(argv)}")
        if argv[0] == "capacity":
            expected = CAPACITY_EXPECTED.get(Path(argv[2]).name)
            if expected is not None and out != expected:
                fails.append(f"capacity {argv[2]}: got {out.strip()!r}, "
                             f"expected {expected.strip()}")
        return digest(" ".join(argv), str(code), out), fails

    def work_units(self, argv) -> float:
        return 1.0

    def group(self, argv) -> tuple:
        """A subcommand with its options: calls that differ only in the
        scenario file and a sweep's seeded points do the same work."""
        points = argv[argv.index("--points") + 1] if "--points" in argv else None
        return tuple(a for a in argv if not a.startswith("scenarios/") and a != points)

    def verify(self):
        """Every child's output equals ``cli.main`` run in this process."""
        fails = []
        for argv in self.inputs:
            code, out = cli_inprocess(argv)
            child = self.stdout.get(tuple(argv))
            if code != 0 or (child is not None and child != out):
                fails.append(f"in-process output differs: {' '.join(argv)}")
        return {"calls_per_pass": len(self.inputs)}, fails

    def census(self, span) -> list[str]:
        """The pass's calls once more through ``cli.main`` in this process,
        each in a span named after its subcommand. The traced run times the
        cli layer this way, as the tracer cannot see into the children."""
        fails = []
        for argv in self.inputs:
            with span(f"cli.{argv[0]}"):
                code, _ = cli_inprocess(argv)
            if code != 0:
                fails.append(f"census: exit {code}: {' '.join(argv)}")
        return fails


# ---------------------------------------------------------------------------
# design-sweep: the estimator in process

def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class DesignSweepWorkload:
    name = "design-sweep"
    in_process = True
    work_unit = "design point"
    aliases = {"points_per_s": "work_per_s"}
    V_DD_POINTS = 96
    RES_POINTS = 12
    TEMPERATURES = 24

    def setup(self, seed: int):
        import cryoctrl

        self.seed = seed
        self.scenarios = {name: make() for name, make in cryoctrl.REFERENCE_SCENARIOS.items()}
        for sc in self.scenarios.values():
            sc.validate()
        self.inputs = [self._input(seed, i, name) for i, name in enumerate(self.scenarios)]
        self.digests = {}

    def _input(self, seed, index, name):
        rng = rng_for(self.name, seed, index)
        v_dd = sorted({round(_log_uniform(rng, 0.005, 1.2), 6)
                       for _ in range(self.V_DD_POINTS * 2)})
        v_dd = rng.sample(v_dd, self.V_DD_POINTS) + [0.0, -round(rng.uniform(0.01, 1), 6)]
        n_bias = rng.sample(range(2, 25), self.RES_POINTS) + [rng.choice([1, 25, 32])]
        n_rf = rng.sample(range(2, 25), self.RES_POINTS) + [rng.choice([1, 25, 32])]
        temps = [round(_log_uniform(rng, 0.05, 4.2), 6) for _ in range(self.TEMPERATURES)]
        return {"scenario": name, "index": index, "v_dd": v_dd, "n_bias": n_bias,
                "n_rf": n_rf, "temps": temps}

    @staticmethod
    def _valid(param, value):
        if param == "v_dd":
            return value > 0
        return 2 <= value <= 24

    def run(self, item):
        """Sweeps serialised as CSV, re-sized design points as JSON."""
        from cryoctrl import report

        sc = self.scenarios[item["scenario"]]
        sweeps = {p: report.sweep(sc, p, item[p]) for p in ("v_dd", "n_bias", "n_rf")}
        texts = [report.sweep_csv(rows) for rows in sweeps.values()]
        dacs = {c: report.dac_sweep(sc, condition=c) for c in ("bias", "rf")}
        texts += [report.dac_sweep_csv(rows) for rows in dacs.values()]
        temps = []
        for t in item["temps"]:
            adjusted = report.temperature_adjust(sc, t)
            rep = report.assemble(adjusted)
            temps.append((t, adjusted, rep))
            texts.append(json.dumps(rep.to_dict(), sort_keys=True))
        return sweeps, dacs, temps, texts

    def check(self, item, result):
        sweeps, dacs, temps, texts = result
        sc = self.scenarios[item["scenario"]]
        fails = []
        for param, monotone in (("v_dd", "total_power_w"), ("n_bias", "bias_gen"),
                                ("n_rf", "rf_gen")):
            fails += self._check_sweep(param, item[param], sweeps[param], monotone)
        for condition, rows in dacs.items():
            if len(rows) != 45 or not all(
                    math.isfinite(r[k]) and r[k] > 0 for r in rows
                    for k in ("area_um2", "p_analog_w", "p_switch_w", "noise_vrms")):
                fails.append(f"dac_sweep {condition}: bad rows")
        for t, adjusted, rep in temps:
            if not math.isclose(adjusted.c_h, sc.c_h * t / sc.op.t_el, rel_tol=1e-12):
                fails.append(f"temperature_adjust {t}: hold cap not scaled")
            if not (math.isfinite(rep.total_power_w) and rep.total_power_w > 0):
                fails.append(f"temperature {t}: power {rep.total_power_w}")
        d = digest(*texts)
        if self.digests.setdefault(item["index"], d) != d:
            fails.append(f"input {item['index']}: output differs from an earlier repeat")
        return d, fails

    def _check_sweep(self, param, values, rows, monotone):
        fails = []
        if [r.value for r in rows] != sorted(values):
            return [f"sweep {param}: rows {len(rows)} for {len(values)} values"]
        for r in rows:
            if (r.status == "ok") != self._valid(param, r.value):
                fails.append(f"sweep {param}={r.value}: status {r.status!r}")
        ok = [r.report for r in rows if r.report is not None]
        if monotone == "total_power_w":
            series = [rep.total_power_w for rep in ok]
        else:
            series = [getattr(rep, monotone).area_um2 for rep in ok]
        if any(b <= a for a, b in zip(series, series[1:])):
            fails.append(f"sweep {param}: {monotone} not increasing")
        return fails

    def group(self, item) -> int:
        return item["index"]

    def work_units(self, item) -> float:
        """System design points: sweep rows plus temperature points."""
        return float(len(item["v_dd"]) + len(item["n_bias"]) + len(item["n_rf"])
                     + len(item["temps"]))

    def verify(self):
        """The bundled design points reproduce the frozen totals."""
        from cryoctrl import report

        fails = []
        for name, (area, a_tol, power, p_tol) in REFERENCE_TOTALS.items():
            rep = report.assemble(self.scenarios[name])
            if not math.isclose(rep.total_area_um2, area, rel_tol=a_tol):
                fails.append(f"{name}: total area {rep.total_area_um2:.4g}")
            if not math.isclose(rep.total_power_w, power, rel_tol=p_tol):
                fails.append(f"{name}: total power {rep.total_power_w:.4g}")
        points = sum(self.work_units(i) for i in self.inputs)
        return {"points_per_pass": points, "invalid_rows_per_pass": 3 * len(self.inputs)}, fails


# ---------------------------------------------------------------------------
# playback and tuneup: the event-level simulator in process

def playback_stimulus(seed: int, index: int) -> dict:
    """Bias codes and ``PLAYBACK_SEQUENCES`` RF sequences loaded over the
    serial protocol, then back-to-back play commands of those sequences."""
    rng = rng_for("playback", seed, index)
    lines = [f"0 write-bias {e} {rng.randrange(1, 4096)}" for e in range(8)]
    lines.append(f"0 write-bias 8 {rng.randrange(8)}")
    rf = [rng.randrange(1024) for _ in range(16 * PLAYBACK_SEQUENCES)]
    lines += [f"0 write-rf {a} {code}" for a, code in enumerate(rf)]
    plays = []
    for i in range(PLAYBACK_PLAYS):
        ids = tuple(rng.randrange(PLAYBACK_SEQUENCES) for _ in range(4))
        plays.append(ids)
        lines.append(f"{PLAYBACK_START_NS + PLAYBACK_PACE_NS * i:.1f} play "
                     + " ".join(map(str, ids)))
    t_end = PLAYBACK_START_NS + PLAYBACK_PACE_NS * PLAYBACK_PLAYS + 2_000.0
    return {"text": "\n".join(lines) + "\n", "t_end": t_end, "plays": plays, "rf": rf}


def tuneup_stimulus(seed: int, index: int) -> dict:
    """Bursts of bias writes to all 9 registers alternating with ramp
    windows, a few RF reloads and sparse plays over 5 ms simulated."""
    rng = rng_for("tuneup", seed, index)
    lines = []
    plays = []
    n_bursts = int(TUNEUP_SIM_NS // TUNEUP_BURST_EVERY_NS)
    for b in range(n_bursts):
        t = b * TUNEUP_BURST_EVERY_NS + rng.uniform(0, 50_000.0)
        lines += [f"{t:.1f} write-bias {r} {rng.randrange(4096)}" for r in range(8)]
        lines.append(f"{t:.1f} write-bias 8 {rng.randrange(8)}")
        t_ramp = t + 300_000.0 + rng.uniform(0, 100_000.0)
        lines.append(f"{t_ramp:.1f} ramp-mode on")
        lines.append(f"{t_ramp + TUNEUP_RAMP_NS:.1f} ramp-mode off")
        t_rf = t + 700_000.0
        lines += [f"{t_rf:.1f} write-rf {rng.randrange(256)} {rng.randrange(1024)}"
                  for _ in range(4)]
        ids = tuple(rng.randrange(16) for _ in range(4))
        plays.append(ids)
        lines.append(f"{t_rf + 20_000.0:.1f} play " + " ".join(map(str, ids)))
    return {"text": "\n".join(lines) + "\n", "t_end": TUNEUP_SIM_NS, "plays": plays}


class SimWorkload:
    """``strict`` adds the checks that hold for steady playback only: no
    backpressure, droop within the pooled budget, and every sample equal to
    the stored code of the sequence being played."""

    in_process = True
    work_unit = "simulated us"
    aliases = {"sim_us_per_s": "work_per_s"}
    PASS_INPUTS = 4

    def __init__(self, name, make_stimulus, strict):
        self.name = name
        self.make_stimulus = make_stimulus
        self.strict = strict

    def setup(self, seed: int):
        import cryoctrl
        from cryoctrl.sim import engine

        self.seed = seed
        self.scenario = cryoctrl.load_scenario(SCENARIO_DIR / "paper-defaults.json")
        self.inputs = []
        for i in range(self.PASS_INPUTS):
            item = {"index": i, **self.make_stimulus(seed, i)}
            engine.parse_stimulus(item["text"])
            self.inputs.append(item)
        engine.Simulator(self.scenario)
        self.digests = {}
        self.stats = {}

    def run(self, item):
        """What ``cryoctrl simulate --trace`` does: build, parse and run,
        then serialise the trace."""
        from cryoctrl.sim import engine

        trace = engine.Simulator(self.scenario).run(item["text"], item["t_end"])
        return trace, trace.to_csv()

    def check(self, item, result):
        """Full checks on an input's first run, read from the CSV a user
        gets; later repeats must reproduce its bytes."""
        trace, csv = result
        i = item["index"]
        d = digest(csv)
        if i in self.digests:
            same = self.digests[i] == d
            return d, [] if same else [f"input {i}: trace differs from an earlier repeat"]
        self.digests[i] = d

        fails = []
        header, *lines = csv.splitlines()
        rows = [line.split(",") for line in lines]
        times = [float(r[0]) for r in rows]
        if header != "t_ns,signal,value" or len(rows) != len(trace.events):
            fails.append("CSV rows != events + 1")
        if any(b < a for a, b in zip(times, times[1:])):
            fails.append("trace not time-ordered")
        st = trace.stats
        plays = len(item["plays"])
        accepted = plays - st["backpressure_count"]
        if st["rf_samples_emitted"] != SAMPLES_PER_PLAY * accepted:
            fails.append(f"rf samples {st['rf_samples_emitted']} != 32 x {accepted}")
        droop = max(st["max_refresh_deviation_v"])
        if self.strict:
            fails += self._check_playback(item, rows, st, droop)
        self.stats[i] = {
            "events": len(rows),
            "rf_samples": st["rf_samples_emitted"],
            "backpressure": st["backpressure_count"],
            "max_droop_v": droop,
            "plays": plays,
            "csv_bytes": len(csv),
            "events_per_signal": dict(sorted(collections.Counter(r[1] for r in rows).items())),
        }
        return d, fails

    def _check_playback(self, item, rows, st, droop):
        spec = self.scenario.spec
        fails = []
        if st["backpressure_count"]:
            fails.append(f"backpressure {st['backpressure_count']}")
        bound = spec.n_bias_signals * spec.dv_bias
        if droop > bound:
            fails.append(f"droop {droop:.3e} V over {bound:.3e} V")
        lsb = spec.v_range_rf / (1 << spec.n_rf)
        rf, n = item["rf"], spec.l_pulse
        for channel, sets in (("rf_a", (0, 2)), ("rf_b", (1, 3))):
            expected = [rf[ids[s] * n + k] * lsb
                        for ids in item["plays"] for s in sets for k in range(n)]
            got = [float(r[2]) for r in rows if r[1] == channel]
            if len(got) != len(expected) or not all(
                    math.isclose(g, e, rel_tol=1e-12, abs_tol=1e-18)
                    for g, e in zip(got, expected)):
                fails.append(f"{channel}: samples differ from the stored sequences")
        return fails

    def group(self, item) -> int:
        """Each stimulus on its own."""
        return item["index"]

    def work_units(self, item) -> float:
        """Simulated microseconds."""
        return item["t_end"] / 1e3

    def verify(self):
        """Simulated statistics of one pass, summed over its inputs."""
        totals = {"max_droop_v": 0.0, "events_per_signal": collections.Counter()}
        for s in self.stats.values():
            for k, v in s.items():
                if k == "max_droop_v":
                    totals[k] = max(totals[k], v)
                elif k == "events_per_signal":
                    totals[k].update(v)
                else:
                    totals[k] = totals.get(k, 0) + v
        totals["events_per_signal"] = dict(sorted(totals["events_per_signal"].items()))
        return totals, []


WORKLOADS = {
    "cli": CliWorkload,
    "design-sweep": DesignSweepWorkload,
    "playback": lambda: SimWorkload("playback", playback_stimulus, strict=True),
    "tuneup": lambda: SimWorkload("tuneup", tuneup_stimulus, strict=False),
}
