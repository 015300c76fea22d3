import contextlib
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cryoctrl import (
    DacArchitecture, MemoryArch, Node, Scenario, baseline_scenario, cli, load_scenario,
    run_simulation, sim,
)
from cryoctrl.analog import derived_clocks
from cryoctrl.cli import main
from cryoctrl.report import qubit_capacity


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_arguments_prints_usage(capsys):
    code, out, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag(capsys, scenario_dir):
    code, _, err = run_cli(capsys, "estimate", "--scenario",
                           str(scenario_dir / "paper-defaults.json"), "--frobnicate")
    assert code == 1
    assert "error" in err.lower()


def test_missing_scenario_file(capsys):
    code, _, err = run_cli(capsys, "estimate", "--scenario", "/nonexistent.json")
    assert code == 1
    assert "not found" in err


def test_schema_violation_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"op": {"v_dd": -1}}')
    code, _, err = run_cli(capsys, "estimate", "--scenario", str(bad))
    assert code == 1
    assert "v_dd must be positive" in err


def test_estimate_matches_reference_totals(capsys, scenario_dir):
    code, out, _ = run_cli(capsys, "estimate", "--scenario",
                           str(scenario_dir / "paper-defaults.json"))
    assert code == 0
    report = json.loads(out)
    assert report["totals"]["area_um2"] == pytest.approx(3.3e4, rel=0.2)
    assert report["totals"]["power_w"] == pytest.approx(1.9e-4, rel=0.2)
    assert report["bias_gen"]["power_w"] == pytest.approx(7.0e-7, rel=0.1)


def test_estimate_formats_and_out_file(capsys, scenario_dir, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "estimate", "--scenario",
                           str(scenario_dir / "65nm-sram-1v.json"),
                           "--out", str(out_file))
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["memory"]["power_w"] == pytest.approx(5.0e-5, rel=0.15)

    code, out, _ = run_cli(capsys, "estimate", "--scenario",
                           str(scenario_dir / "65nm-sram-1v.json"), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "unit,area_um2,power_w"

    code, out, _ = run_cli(capsys, "estimate", "--scenario",
                           str(scenario_dir / "65nm-sram-1v.json"), "--format", "text")
    assert code == 0
    assert "total" in out


def test_capacity_reference_value(capsys, scenario_dir):
    code, out, _ = run_cli(capsys, "capacity", "--scenario",
                           str(scenario_dir / "14nm-sram-10mv.json"), "--budget", "1e-3")
    assert code == 0
    assert out.strip() == "1428"


@pytest.mark.parametrize("budget", ["inf", "nan", "0", "-1"])
def test_capacity_bad_budget_is_usage_error(capsys, scenario_dir, budget):
    with pytest.raises(ValueError, match="positive and finite"):
        qubit_capacity(1e-6, float(budget))
    code, out, err = run_cli(capsys, "capacity", "--budget", budget, "--scenario",
                             str(scenario_dir / "paper-defaults.json"))
    assert (code, out) == (1, "")
    assert "--budget" in err


def test_capacity_exact_flag(capsys, scenario_dir):
    code, out, _ = run_cli(capsys, "capacity", "--scenario",
                           str(scenario_dir / "14nm-sram-10mv.json"),
                           "--budget", "1e-3", "--exact", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n_qubits"] == pytest.approx(1428, rel=0.05)


def test_bounds_subcommand(capsys, scenario_dir):
    code, out, _ = run_cli(capsys, "bounds", "--scenario",
                           str(scenario_dir / "paper-defaults.json"), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bound,kind,value,binding"
    assert len(lines) == 8
    data = {l.split(",")[0]: float(l.split(",")[2]) for l in lines[1:]}
    assert data["bias_dac_min_unit_cap"] == pytest.approx(4.794e-15, rel=1e-3)
    assert data["sh_min_hold_cap"] == pytest.approx(3.835e-14, rel=1e-3)


def test_sweep_vdd_csv(capsys, scenario_dir, tmp_path):
    csv_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--scenario",
                           str(scenario_dir / "paper-defaults.json"),
                           "--param", "v_dd", "--points", "1,0.5,0.1,0.01",
                           "--csv", str(csv_file))
    assert code == 0
    lines = csv_file.read_text().splitlines()
    assert lines[0].startswith("param,value,")
    assert len(lines) == 5


def test_sweep_dac_unit(capsys, scenario_dir):
    code, out, _ = run_cli(capsys, "sweep", "--scenario",
                           str(scenario_dir / "paper-defaults.json"), "--unit", "dac")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "arch,n,area_um2,p_analog_w,p_switch_w,noise_vrms"
    assert len(lines) == 1 + 45


def test_sweep_requires_param_or_unit(capsys, scenario_dir):
    code, _, err = run_cli(capsys, "sweep", "--scenario",
                           str(scenario_dir / "paper-defaults.json"))
    assert code == 1


def test_simulate_writes_trace(capsys, scenario_dir, tmp_path):
    stim = tmp_path / "stim.txt"
    stim.write_text("0 write-bias 0 2048\n50000 play 0 0 0 0\n")
    trace_file = tmp_path / "trace.csv"
    code, out, err = run_cli(capsys, "simulate",
                             "--scenario", str(scenario_dir / "paper-defaults.json"),
                             "--stimulus", str(stim),
                             "--until", "200us", "--trace", str(trace_file))
    assert code == 0
    assert trace_file.read_text().splitlines()[0] == "t_ns,signal,value"
    summary = json.loads(err)
    assert summary["rf_samples_emitted"] == 32


def test_simulate_stimulus_error_exit_code(capsys, scenario_dir, tmp_path):
    stim = tmp_path / "stim.txt"
    stim.write_text("0 write-bias 0 99999\n")
    code, _, err = run_cli(capsys, "simulate",
                           "--scenario", str(scenario_dir / "paper-defaults.json"),
                           "--stimulus", str(stim), "--until", "1us")
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize("until", ["inf", "nan", "abc", "0"])
def test_simulate_bad_until_is_usage_error(capsys, scenario_dir, tmp_path, until):
    stim = tmp_path / "stim.txt"
    stim.write_text("0 write-bias 0 2048\n")
    code, _, err = run_cli(capsys, "simulate",
                           "--scenario", str(scenario_dir / "paper-defaults.json"),
                           "--stimulus", str(stim), "--until", until)
    assert code == 1
    assert "--until" in err


# the events end by 150 us; the quiet refresh rounds after them cost nothing
_EARLY_STIMULUS = "".join(f"0 write-bias {e} {511 * (e + 1)}\n" for e in range(8)) + (
    "0 write-rf 0 512\n20000 play 0 0 0 0\n150000 write-bias 3 100\n")


_LAZY_SIM_CHECK = """
import contextlib, io, sys
import cryoctrl, cryoctrl.cli
scenario = sys.argv[1]
for argv in (["bounds"], ["estimate"], ["capacity", "--budget", "1e-3"],
             ["sweep", "--param", "v_dd", "--points", "1,0.1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cryoctrl.cli.main([*argv, "--scenario", scenario]) == 0, argv
    assert "cryoctrl.sim" not in sys.modules, argv
assert {"sim", "Simulator", "Trace", "run_simulation"} <= set(dir(cryoctrl))
assert not hasattr(cryoctrl, "no_such_name")
assert "cryoctrl.sim" not in sys.modules
from cryoctrl import Trace, run_simulation
import cryoctrl.sim.engine as engine
assert cryoctrl.Simulator is engine.Simulator
assert (Trace, run_simulation) == (engine.Trace, engine.run_simulation)
names = {}
exec("from cryoctrl import *", names)
assert names["Simulator"] is engine.Simulator and names["sim"] is cryoctrl.sim
"""


def test_the_estimator_subcommands_do_not_import_the_simulator(scenario_dir, src_env):
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SIM_CHECK, str(scenario_dir / "paper-defaults.json")],
        capture_output=True, text=True, env=src_env, timeout=30)
    assert proc.returncode == 0, proc.stderr


_NO_RESOURCES_CHECK = """
import contextlib, io, sys
import cryoctrl.cli
assert "importlib.resources" not in sys.modules
for argv in (["bounds"], ["estimate"], ["estimate", "--include-data-input"],
             ["capacity", "--budget", "1e-3"],
             ["sweep", "--param", "v_dd", "--points", "1,0.1"], ["sweep", "--unit", "dac"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cryoctrl.cli.main([*argv, "--scenario", sys.argv[1]]) == 0, argv
    assert "importlib.resources" not in sys.modules, argv
"""


def test_no_estimator_subcommand_imports_importlib_resources(scenario_dir, src_env):
    # -S: no site module, whose .pth files may import importlib.resources first
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _NO_RESOURCES_CHECK,
         str(scenario_dir / "paper-defaults.json")],
        capture_output=True, text=True, env=src_env, timeout=30)
    assert proc.returncode == 0, proc.stderr


_NO_DATACLASSES_CHECK = """
import contextlib, io, sys

def loaded():
    return [name for name in ("dataclasses", "inspect") if name in sys.modules]

scenario, stimulus = sys.argv[1:]
import cryoctrl.cli
assert not loaded(), loaded()
for argv in (["bounds"], ["estimate"], ["capacity", "--budget", "1e-3"],
             ["sweep", "--param", "v_dd", "--points", "1,0.1"],
             ["simulate", "--stimulus", stimulus, "--until", "10us"]):
    if argv[0] == "simulate":
        import cryoctrl.sim
        assert not loaded(), loaded()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cryoctrl.cli.main([*argv, "--scenario", scenario]) == 0, argv
    assert not loaded(), (argv, loaded())
"""


def test_no_subcommand_imports_dataclasses_or_inspect(scenario_dir, tmp_path, src_env):
    # -S: no site module, whose .pth files may import either module first
    stim = tmp_path / "stim.txt"
    stim.write_text("0 write-bias 0 2048\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _NO_DATACLASSES_CHECK,
         str(scenario_dir / "paper-defaults.json"), str(stim)],
        capture_output=True, text=True, env=src_env, timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_simulate_far_past_the_events_finishes_fast(scenario_dir, tmp_path, src_env):
    stim = tmp_path / "stim.txt"
    stim.write_text(_EARLY_STIMULUS)
    argv = [sys.executable, "-m", "cryoctrl.cli", "simulate", "--scenario",
            str(scenario_dir / "paper-defaults.json"), "--stimulus", str(stim), "--until"]
    short = subprocess.run([*argv, "300us"], capture_output=True, text=True, env=src_env,
                           timeout=10)
    assert short.returncode == 0
    for until in ("1e30ns", "1.7e308ns"):
        t0 = time.perf_counter()
        proc = subprocess.run([*argv, until], capture_output=True, text=True, env=src_env,
                              timeout=10)
        assert time.perf_counter() - t0 < 1.0
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert (proc.stdout, proc.stderr) == (short.stdout, short.stderr)


def test_simulate_over_ramp_budget_fails_fast(scenario_dir, tmp_path, src_env):
    # ramp mode would step on every conversion of the 9 s
    stim = tmp_path / "stim.txt"
    stim.write_text("0 ramp-mode on\n")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cryoctrl.cli", "simulate", "--scenario",
         str(scenario_dir / "paper-defaults.json"), "--stimulus", str(stim),
         "--until", "9s"],
        capture_output=True, text=True, env=src_env, timeout=10)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "ramp steps" in proc.stderr


@pytest.mark.parametrize("call", [
    ("bounds", "--format", "csv"),
    ("estimate", "--format", "csv"),
    ("sweep", "--param", "n_bias", "--points", "0,1,8,12,25"),
    ("sweep", "--param", "v_dd", "--points", "1e308,1,-0.1"),
    ("sweep", "--unit", "dac"),
    ("simulate", "--until", "300us"),
], ids=" ".join)
def test_every_csv_parses_into_rows_as_wide_as_its_header(capsys, scenario_dir, tmp_path,
                                                          call):
    stim = tmp_path / "stim.txt"
    stim.write_text(_EARLY_STIMULUS)
    extra = ("--stimulus", str(stim)) if call[0] == "simulate" else ()
    code, out, _ = run_cli(capsys, call[0], "--scenario",
                           str(scenario_dir / "paper-defaults.json"), *call[1:], *extra)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert rows and all(len(row) == len(header) for row in rows)


def _scenario_file(tmp_path, data) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_clock_floor(capsys, tmp_path):
    # 1.5 MHz is below twice the derived refresh rate (2.17 MHz): the
    # estimate would call it cheaper, yet the hold capacitors droop past the
    # budget, so the file is refused
    code, out, err = run_cli(capsys, "estimate", "--scenario",
                             _scenario_file(tmp_path, {"op": {"f_clk_bias": 1.5e6}}))
    assert (code, out) == (1, "")
    assert "op.f_clk_bias" in err and "refresh rate" in err
    code, out, err = run_cli(capsys, "estimate", "--scenario",
                             _scenario_file(tmp_path, {"op": {"f_clk_rf": 5e8}}))
    assert (code, out) == (1, "")
    assert "op.f_clk_rf" in err and "f_sample_rf" in err
    # the derived clocks given explicitly pass and give the same report
    derived = derived_clocks(baseline_scenario())
    explicit = {"op": {"f_clk_bias": derived.f_clk_bias, "f_clk_rf": derived.f_clk_rf}}
    code, out, err = run_cli(capsys, "estimate", "--format", "csv", "--scenario",
                             _scenario_file(tmp_path, explicit))
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "estimate", "--format", "csv", "--scenario",
                          _scenario_file(tmp_path, {}))[1]


@pytest.mark.parametrize("command", [
    ("estimate",), ("capacity", "--budget", "1e-3"), ("sweep", "--param", "v_dd"),
    ("sweep", "--unit", "dac")])
def test_an_underflowing_capacitive_density_is_refused_when_loaded(capsys, tmp_path, command):
    # rho_c * cap_density_scale underflows to 0 F/um^2, which the area models
    # of the capacitive DAC and the hold capacitors divide by
    path = _scenario_file(tmp_path, {"tech": {"cap_density_scale": 1e-320}})
    code, out, err = run_cli(capsys, *command, "--scenario", path)
    assert (code, out) == (1, "")
    assert err == "error: tech.rho_c * cap_density_scale = 0 F/um^2 must be positive and finite\n"


@pytest.mark.parametrize("data, command, code", [
    # the refresh rate overflows to inf: a derived clock is not finite
    ({"tech": {"r_off": 1e-300}}, ("estimate",), 1),
    ({"tech": {"r_off": 1e-300}}, ("capacity", "--budget", "1e-3"), 1),
    ({"tech": {"r_off": 1e-300}}, ("simulate", "--until", "10us"), 1),
    # r_off * r_off_multiplier underflows to 0 ohm
    ({"tech": {"r_off": 1e-200, "r_off_multiplier": 1e-200}}, ("estimate",), 1),
    # finite clocks, but an infinite memory power
    ({"tech": {"c_ff_equiv": 1e300}}, ("capacity", "--budget", "1e-3"), 2),
    ({"tech": {"c_ff_equiv": 1e300}}, ("estimate",), 2),
    # an integer beyond the largest float
    ({"c_h": 10 ** 400}, ("estimate",), 1),
    ({"spec": {"n_bias_signals": 10 ** 400}}, ("capacity", "--budget", "1e-3"), 1),
    # valid fields whose product, 2^2000 pulse-memory bits, overflows a float
    ({"spec": {"n_pulses": 2 ** 1000, "l_pulse": 2 ** 1000}}, ("estimate",), 2),
    ({"spec": {"n_pulses": 2 ** 1000, "l_pulse": 2 ** 1000}},
     ("capacity", "--budget", "1e-3"), 2),
    # the hold-capacitor bound overflows (dv_bias^2 underflows) or underflows:
    # the scenario is refused when built
    ({"spec": {"dv_bias": 1e-200}}, ("estimate",), 1),
    ({"spec": {"dv_bias": 1e-200}}, ("bounds",), 1),
    ({"spec": {"dv_bias": 1e-200}}, ("capacity", "--budget", "1e-3"), 1),
    ({"spec": {"dv_bias": 1e300}}, ("bounds",), 1),
    # only the RF DAC's unit-capacitor bound overflows
    ({"spec": {"dv_rf": 1e-200}}, ("bounds",), 2),
    # the per-qubit power, rounded to 2 figures, overflows
    ({"tech": {"c_ff_equiv": 3.743481452510495e+297}}, ("capacity", "--budget", "1e300"), 2),
    # a clock period that rounds to 0 ticks of 1e-21 s
    ({"spec": {"f_sample_rf": 1e300}}, ("simulate", "--until", "1us"), 1),
    ({"op": {"f_clk_bias": 1e300}}, ("simulate", "--until", "1us"), 1),
    # n_bias_signals * c_h overflows, or v_range_bias / r_off underflows: the
    # derived refresh rate is 0 Hz
    ({"c_h": 1.7e308}, ("simulate", "--until", "1us"), 1),
    ({"c_h": 1.7e308}, ("sweep", "--unit", "dac"), 1),
    # a DAC's unit area divided by a subnormal density overflows
    ({"tech": {"rho_c": 1e-320}}, ("sweep", "--unit", "dac"), 2),
    ({"tech": {"rho_r": 1e-320}}, ("sweep", "--unit", "dac"), 2),
    ({"spec": {"v_range_bias": 1e-300}, "tech": {"r_off": 1e300}},
     ("simulate", "--until", "1us"), 1),
    # a resolution the DAC models cannot size
    ({"spec": {"n_rf": 1}}, ("estimate",), 1),
    ({"spec": {"n_rf": 1}}, ("capacity", "--budget", "1e-3"), 1),
], ids=["r_off-estimate", "r_off-capacity", "r_off-simulate", "r_off-product-estimate",
        "c_ff_equiv-capacity", "c_ff_equiv-estimate", "huge-c_h-estimate",
        "huge-n_bias_signals-capacity", "memory-bits-estimate", "memory-bits-capacity",
        "tiny-dv_bias-estimate", "tiny-dv_bias-bounds", "tiny-dv_bias-capacity",
        "huge-dv_bias-bounds", "tiny-dv_rf-bounds", "rounded-power-capacity",
        "huge-f_sample_rf-simulate", "huge-f_clk_bias-simulate", "huge-c_h-simulate",
        "huge-c_h-sweep-dac", "tiny-rho_c-sweep-dac", "tiny-rho_r-sweep-dac",
        "zero-refresh-simulate", "1-bit-n_rf-estimate",
        "1-bit-n_rf-capacity"])
def test_overflowing_design_point_fails_with_a_message(tmp_path, src_env, data, command, code):
    if command[0] == "simulate":
        stim = tmp_path / "stim.txt"
        stim.write_text("0 write-bias 0 2048\n")
        command += ("--stimulus", str(stim))
    proc = subprocess.run(
        [sys.executable, "-m", "cryoctrl.cli", *command,
         "--scenario", _scenario_file(tmp_path, data)],
        capture_output=True, text=True, env=src_env, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("command, scenario, stimulus, bad", [
    ("simulate", b"[" * 200_000, b"0 write-bias 0 2048\n", "s.json"),
    ("simulate", b'{"c_h": 3e-13\xff}', b"0 write-bias 0 2048\n", "s.json"),
    ("simulate", b"{}", b"0 write-bias 0 2048 # \xff\n", "stim.txt"),
    # beyond the interpreter's integer digit limit; without one, not finite
    ("simulate", b'{"c_h": ' + b"1" * 5000 + b"}", b"0 write-bias 0 2048\n", "s.json"),
    # tech holds no supply (every model reads op.v_dd): setting one is refused,
    # not silently ignored
    ("estimate", b'{"tech": {"v_dd": 0.1}}', b"",
     "error: unknown key 'tech.v_dd' in scenario file"),
], ids=["deeply-nested-scenario", "non-utf8-scenario", "non-utf8-stimulus",
        "over-long-integer-scenario", "removed-tech-v_dd-scenario"])
def test_hostile_input_file_fails_with_a_message(tmp_path, src_env, command, scenario, stimulus,
                                                 bad):
    (tmp_path / "s.json").write_bytes(scenario)
    (tmp_path / "stim.txt").write_bytes(stimulus)
    options = (["--until", "1us", "--stimulus", str(tmp_path / "stim.txt")]
               if command == "simulate" else [])
    proc = subprocess.run(
        [sys.executable, "-m", "cryoctrl.cli", command, *options,
         "--scenario", str(tmp_path / "s.json")],
        capture_output=True, text=True, env=src_env, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and bad in lines[0]
    assert proc.stdout == ""


def _nested_list(depth):
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize("data", [
    {"x" * 1_000_000: 1},
    {"spec": {"y" * 1_000_000: 1}},
    {"defaults": _nested_list(950)},
], ids=["1MB-key", "1MB-spec-key", "nested-defaults"])
def test_a_long_config_value_is_shortened_in_the_message(tmp_path, src_env, data):
    proc = subprocess.run(
        [sys.executable, "-m", "cryoctrl.cli", "estimate",
         "--scenario", _scenario_file(tmp_path, data)],
        capture_output=True, text=True, env=src_env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 200 and "..." in lines[0]


@pytest.mark.parametrize("data, shown", [
    ({"a\nb": 1}, "unknown key 'a\\nb' in scenario file"),
    ({"defaults": "pa\nper"}, "unsupported defaults 'pa\\nper'"),
    ({"spec": {"x\ny": 1}}, "unknown key 'spec.x\\ny'"),
    ({"spec": {"x\ty\u2028" + "z" * 100: 1}}, "unknown key 'spec.x\\ty\\u2028zzz"),
], ids=["key", "defaults", "spec-key", "long-spec-key"])
def test_a_config_message_escapes_control_characters(capsys, tmp_path, data, shown):
    code, out, err = run_cli(capsys, "estimate", "--scenario", _scenario_file(tmp_path, data))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and shown in err


def test_an_until_message_escapes_control_characters(capsys, scenario_dir, tmp_path):
    stim = tmp_path / "stim.txt"
    stim.write_text("0 write-bias 0 2048\n")
    simulate = ("simulate", "--scenario", str(scenario_dir / "paper-defaults.json"),
                "--stimulus", str(stim), "--until")
    _, _, plain = run_cli(capsys, *simulate, "1xus")
    code, _, err = run_cli(capsys, *simulate, "1\nxs")
    assert code == 1
    assert plain.splitlines()[0] == "error: --until must be a positive, finite duration, got '1xus'"
    assert err.splitlines()[0] == "error: --until must be a positive, finite duration, got '1\\nxs'"
    assert len(err.splitlines()) == len(plain.splitlines())


@pytest.mark.parametrize("command, option, work, target, reason", [
    (("estimate",), "--out", "assemble", "nodir/x.csv", "'{parent}' is not a directory"),
    (("sweep", "--param", "v_dd", "--points", "1"), "--csv", "sweep", "nodir/x.csv",
     "'{parent}' is not a directory"),
    (("simulate", "--until", "2.3ms"), "--trace", "run_simulation", "nodir/x.csv",
     "'{parent}' is not a directory"),
    (("simulate", "--until", "2.3ms"), "--vcd", "run_simulation", "nodir/x.csv",
     "'{parent}' is not a directory"),
    (("simulate", "--until", "400ms"), "--trace", "run_simulation", ".", "it is a directory"),
], ids=["estimate-out", "sweep-csv", "simulate-trace", "simulate-vcd",
        "simulate-trace-directory"])
def test_an_output_without_its_directory_fails_before_the_work(
        capsys, monkeypatch, scenario_dir, tmp_path, command, option, work, target, reason):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    # simulate imports the simulator when it runs, so its work is patched there
    monkeypatch.setattr(sim if work == "run_simulation" else cli, work, must_not_run)
    stim = tmp_path / "stim.txt"
    stim.write_text("0 write-bias 0 2048\n")
    path = tmp_path / target
    argv = [*command, "--scenario", str(scenario_dir / "paper-defaults.json"),
            option, str(path)]
    if command[0] == "simulate":
        argv += ["--stimulus", str(stim)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"runtime error: cannot write '{path}': "
                                + reason.format(parent=path.parent)]


def _write(path, data: bytes):
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    return path


def _simulate(scenario, stimulus):
    return ("simulate", "--until", "1us", "--scenario", str(scenario), "--stimulus", str(stimulus))


@pytest.mark.parametrize("argv, shown", [
    (lambda d, sc, st: ("estimate", "--scenario", str(d / "no\nfile.json")),
     "error: scenario file not found: {d}/no\\nfile.json"),
    (lambda d, sc, st: _simulate(sc, d / "no\nstim.txt"),
     "error: stimulus file not found: {d}/no\\nstim.txt"),
    (lambda d, sc, st: ("estimate", "--scenario", str(_write(d / "d\nx" / "s.json", b"{,}"))),
     "error: {d}/d\\nx/s.json: parse error at line 1, column 2: "),
    (lambda d, sc, st: _simulate(_write(d / "d\u2028x" / "s.json", b"\xff"), st),
     "error: cannot read scenario file {d}/d\\u2028x/s.json: 'utf-8' codec"),
    (lambda d, sc, st: _simulate(sc, _write(d / "d\rx" / "stim.txt", b"0 play 0 0 0 0 #\xff")),
     "error: cannot read stimulus file {d}/d\\rx/stim.txt: 'utf-8' codec"),
    (lambda d, sc, st: ("estimate", "--scenario", str(d / "a b\\c'd\"e.json")),
     "error: scenario file not found: {d}/a b\\c'd\"e.json"),
], ids=["missing-scenario", "missing-stimulus", "scenario-parse-error",
        "non-utf8-scenario", "non-utf8-stimulus", "printable-path-kept"])
def test_a_path_in_a_message_escapes_control_characters(
        capsys, scenario_dir, tmp_path, argv, shown):
    stim = _write(tmp_path / "stim.txt", b"0 write-bias 0 2048\n")
    code, out, err = run_cli(capsys, *argv(tmp_path, scenario_dir / "paper-defaults.json", stim))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(shown.format(d=tmp_path))


# The CLI's contract on any scenario file: each estimator command ends with
# exit 0, 1 or 2 and lets no exception escape; a failed command prints nothing
# on stdout and says why in one stderr line, and a finished one prints no inf
# or NaN outside an invalid row.
_EDGE_VALUES = (5e-324, 1e-320, 1e-300, 1.7e308, 2 ** 31, None, True, "1", [])
_NON_FINITE = re.compile(r"(?i)\b(?:inf|infinity|nan)\b")
_CONTRACT_CALLS = (
    *(("bounds", "--format", f) for f in ("text", "csv", "json")),
    *(("estimate", "--format", f) for f in ("json", "csv", "text")),
    ("estimate", "--include-data-input"),
    ("capacity", "--budget", "1e-3"),
    ("sweep", "--param", "n_bias", "--points", "8,16"),
    ("sweep", "--param", "n_rf", "--points", "6,10"),
    ("sweep", "--param", "v_dd", "--points", "1,0.1"),
    ("sweep", "--unit", "dac"),
    ("sweep", "--unit", "dac", "--conditions", "rf"),
)


def _ordinary(default):
    if default is None:
        return (1e-14, 1e6, 1e9)
    if isinstance(default, int):
        return (max(default // 2, 1), default, default * 2)
    return (default / 2, default, default * 2)


@st.composite
def _some_fields(draw, defaults):
    names = draw(st.lists(st.sampled_from(list(defaults)), max_size=3, unique=True))
    return {name: draw(st.sampled_from(_EDGE_VALUES) | st.sampled_from(_ordinary(defaults[name])))
            for name in names}


@st.composite
def _scenario_data(draw):
    defaults = Scenario._field_defaults
    data = {section: draw(_some_fields(part._field_defaults))
            for section, part in defaults.items() if hasattr(part, "_fields")}
    data.update(draw(_some_fields({name: value for name, value in defaults.items()
                                   if value is None or type(value) is float})))
    for name, enum in (("memory_arch", MemoryArch), ("bias_dac_arch", DacArchitecture),
                       ("rf_dac_arch", DacArchitecture), ("node", Node)):
        value = draw(st.none() | st.sampled_from([member.value for member in enum]))
        if value is not None:
            data[name] = value
    return data


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])   # one file, rewritten
@given(data=_scenario_data())
def test_any_scenario_file_keeps_the_cli_contract(tmp_path, data):
    path = _scenario_file(tmp_path, data)
    for call in _CONTRACT_CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*call, "--scenario", path])
        assert code in (0, 1, 2), (call, err.getvalue())
        if code:
            assert out.getvalue() == "", call
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, (call, lines)
            assert lines[0].startswith("error: " if code == 1 else "runtime error: "), call
        else:
            shown = [line for line in out.getvalue().splitlines() if "invalid:" not in line]
            assert not _NON_FINITE.search("\n".join(shown)), call


# One short stimulus: a bias and an RF write, a play and a ramp window.
_CONTRACT_STIMULUS = ("0 write-bias 0 2048\n0 write-rf 0 5\n100 play 0 0 0 0\n"
                      "200 ramp-mode on\n400 ramp-mode off\n")


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])   # one file, rewritten
@given(data=_scenario_data(), until=st.sampled_from(["1us", "50us"]))
def test_any_scenario_file_keeps_the_cli_contract_in_simulate(tmp_path, data, until):
    # The same contract for the simulator: a scenario it refuses fails in one
    # stderr line, and a run prints the whole trace CSV and one JSON summary.
    stimulus = tmp_path / "stim.txt"
    stimulus.write_text(_CONTRACT_STIMULUS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--scenario", _scenario_file(tmp_path, data),
                     "--stimulus", str(stimulus), "--until", until])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), lines
    assert len(lines) == 1, lines
    if code:
        assert out.getvalue() == ""
        assert lines[0].startswith("error: " if code == 1 else "runtime error: ")
    else:
        assert out.getvalue().startswith("t_ns,signal,value\n")
        assert not _NON_FINITE.search(out.getvalue())
        assert set(json.loads(lines[0])) == {"events", "max_refresh_deviation_v",
                                             "rf_samples_emitted", "backpressure_count"}


def test_output_file_holds_what_stdout_would(capsys, scenario_dir, tmp_path):
    scenario = ("--scenario", str(scenario_dir / "paper-defaults.json"))
    stim = tmp_path / "stim.txt"
    stim.write_text("0 write-bias 0 2048\n1000 ramp-mode on\n20000 ramp-mode off\n"
                    "50000 play 0 0 0 0\n")
    simulate = ("simulate", *scenario, "--stimulus", str(stim), "--until", "100us")
    vcd_text = run_simulation(load_scenario(scenario[1]), stim, 100e3).to_vcd_text()
    for call, options in [
        (("estimate", *scenario), [("--out", None)]),
        (("sweep", *scenario, "--param", "v_dd", "--points", "1,0.1"), [("--csv", None)]),
        (simulate, [("--trace", None)]),
        (simulate, [("--vcd", vcd_text)]),
        (simulate, [("--trace", None), ("--vcd", vcd_text)]),
    ]:
        code, printed, err = run_cli(capsys, *call)
        assert code == 0
        files = {option: tmp_path / f"out{option}" for option, _ in options}
        argv = [arg for option, path in files.items() for arg in (option, str(path))]
        assert run_cli(capsys, *call, *argv) == (0, "", err)
        for option, expected in options:
            assert files[option].read_text() == (printed if expected is None else expected)
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert "--csv CSV" in capsys.readouterr().out


def test_outputs_deterministic(capsys, scenario_dir):
    args = ("estimate", "--scenario", str(scenario_dir / "paper-defaults.json"))
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# Every estimator subcommand and format over the bundled scenario files. The
# digests pin the output bytes, so a refactor of the report or CLI code that
# changes any printed figure, column or row order fails here.
GOLDEN_CALLS = {
    "estimate-json": ("estimate",),
    "estimate-csv": ("estimate", "--format", "csv"),
    "estimate-text": ("estimate", "--format", "text"),
    "estimate-data-input": ("estimate", "--include-data-input"),
    "bounds-text": ("bounds",),
    "bounds-csv": ("bounds", "--format", "csv"),
    "bounds-json": ("bounds", "--format", "json"),
    "sweep-v_dd": ("sweep", "--param", "v_dd", "--points", "1,0.5,-0.1,0.01"),
    "sweep-n_bias": ("sweep", "--param", "n_bias", "--points", "0,1,8,12,25"),
    "sweep-dac-bias": ("sweep", "--unit", "dac", "--conditions", "bias"),
    "sweep-dac-rf": ("sweep", "--unit", "dac", "--conditions", "rf"),
    "capacity-json": ("capacity", "--budget", "1e-3", "--format", "json"),
}

GOLDEN_SHA256 = {
    "14nm-sram-10mv estimate-json": "009ab685ae2e42bd565e737e20de345522daa9984defd30a271ccf8a76916d3e",
    "14nm-sram-10mv estimate-csv": "fab375001d5bd726050664945f37010c50c47285d1a6da2671a35e5f80b61d7a",
    "14nm-sram-10mv estimate-text": "2477647d3485abb6e566f7a714a2d243096ca0b6587dc3ce126e6e73621b5ff7",
    "14nm-sram-10mv estimate-data-input": "e457cc460c23145d81eb279f2bff8f9d913c2ad658d696a056e684ccf8073d56",
    "14nm-sram-10mv bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "14nm-sram-10mv bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "14nm-sram-10mv bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "14nm-sram-10mv sweep-v_dd": "4737d13ac45acaf0c74046c0cfa7b86d42322a8615e9beff74d4760e753c0883",
    "14nm-sram-10mv sweep-n_bias": "a898dcfcb59cd66850c1be775eb80c53bc0db971fc9b1f336fe5eee524e136fb",
    "14nm-sram-10mv sweep-dac-bias": "7081e5c2378db98c9d8f28ac6c33fff5dbdd224adfe7b813f14b42495f13315a",
    "14nm-sram-10mv sweep-dac-rf": "dbe2be6589facce1c6d9cd0aea6a0810d0f630df9338861f6c809cc24fbcdb79",
    "14nm-sram-10mv capacity-json": "9bd1f6ff4a4303f0b338ffbbfb96e0d6bb6197cb195b143a38070d3931fd60ba",
    "65nm-ff-1v estimate-json": "86d6e7e7fc4b1f189dd848affcf4fc6987325fbf6ca8af0ba777ad5add62790e",
    "65nm-ff-1v estimate-csv": "fdb1a98e9029ac5c5170d3d83ece4ca4d84de40358ebc42b1611f4b3f400818d",
    "65nm-ff-1v estimate-text": "e0c383f6113c7f6e35592162ec56d3f689cfb17753c17548823a2fc1ae9f8200",
    "65nm-ff-1v estimate-data-input": "f37636f68fd5b564ad82252f0d33288146c0a05b115729799faf4c26663dc410",
    "65nm-ff-1v bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "65nm-ff-1v bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "65nm-ff-1v bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "65nm-ff-1v sweep-v_dd": "24ae9df72dc7c8a8b28c81d29a8ad9d3e8be51fcca6503af70b459073a7f2dee",
    "65nm-ff-1v sweep-n_bias": "0067f6167ed19506a90da976054d376a1ea0a3b062124ee2b0c3f16655535359",
    "65nm-ff-1v sweep-dac-bias": "06c3212e5c7883accae0aeee70c933fc06b1393dc8094839e52aab8b7890e38a",
    "65nm-ff-1v sweep-dac-rf": "91a763592e462fa4ccb7ef7ba2b965e27f53c19687deec48c39f29d09ed017bb",
    "65nm-ff-1v capacity-json": "d2121f54c5a78dc9111fe210188b460afe4f89bfb6e8cdd61621ab254734db2f",
    "65nm-sram-100mv estimate-json": "2a7d72527b2b87115693d5c659474b4f7a2c825eed03de590e18d8171440cb26",
    "65nm-sram-100mv estimate-csv": "dccfaff9d5d63561132f808b1ce1b88d2a70555baf19bc6b6bb8b26319e52c8c",
    "65nm-sram-100mv estimate-text": "41ac4323d4fade7e49b7efd9bc1c5c6eba450c45fb21bea0df8646d455e80989",
    "65nm-sram-100mv estimate-data-input": "5700c846e704e59e66d1d79d306a601d5369ae2ed4905be4b4c971c00e90062f",
    "65nm-sram-100mv bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "65nm-sram-100mv bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "65nm-sram-100mv bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "65nm-sram-100mv sweep-v_dd": "94fdc920d0f277dcedcec1db10cf43e6b8fff16d3c7f3292f4d3fcfdfa9f0c8d",
    "65nm-sram-100mv sweep-n_bias": "291b71f895300bd2b32ba00957d1900b624ebb4b4c780638483364410782a3cc",
    "65nm-sram-100mv sweep-dac-bias": "eab8ce4be308f65b6852e8fa64a7234302245ae092caf391e935e1e6dff880ef",
    "65nm-sram-100mv sweep-dac-rf": "10f0aff96688dda2b5b3a6a08af562a14198efc406029e65b6320e7403173911",
    "65nm-sram-100mv capacity-json": "abebfb8e27fbdf51c18bc9d41c9181927a5beb78d66bc18cc8b83f08922a48cb",
    "65nm-sram-1v estimate-json": "7c0e3ac2a8732b8be597405a1e5b39b6474b8fbe4ade3383c561e2badac8bfdb",
    "65nm-sram-1v estimate-csv": "e93a8824f83de638d31f6c8e684956001113e45861701c606ea97f6c8a53aeec",
    "65nm-sram-1v estimate-text": "cf44f6f87f3db0709c4956e41410f37b8aac050d52604f066a40d48c37888809",
    "65nm-sram-1v estimate-data-input": "b55564035ffc1fcc2bda461a2ae8f5b28731d16db688a15b971a72ab2411c593",
    "65nm-sram-1v bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "65nm-sram-1v bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "65nm-sram-1v bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "65nm-sram-1v sweep-v_dd": "94fdc920d0f277dcedcec1db10cf43e6b8fff16d3c7f3292f4d3fcfdfa9f0c8d",
    "65nm-sram-1v sweep-n_bias": "63099fc74f72ea2119a615d8b58f1ddcb009657579a8f1b9b90faf7bddc44dfc",
    "65nm-sram-1v sweep-dac-bias": "06c3212e5c7883accae0aeee70c933fc06b1393dc8094839e52aab8b7890e38a",
    "65nm-sram-1v sweep-dac-rf": "91a763592e462fa4ccb7ef7ba2b965e27f53c19687deec48c39f29d09ed017bb",
    "65nm-sram-1v capacity-json": "994501809c34fb0a3b460ab052d4f3f70d185da17319f071475afe95dc7bd3e8",
    "paper-defaults estimate-json": "86d6e7e7fc4b1f189dd848affcf4fc6987325fbf6ca8af0ba777ad5add62790e",
    "paper-defaults estimate-csv": "fdb1a98e9029ac5c5170d3d83ece4ca4d84de40358ebc42b1611f4b3f400818d",
    "paper-defaults estimate-text": "e0c383f6113c7f6e35592162ec56d3f689cfb17753c17548823a2fc1ae9f8200",
    "paper-defaults estimate-data-input": "f37636f68fd5b564ad82252f0d33288146c0a05b115729799faf4c26663dc410",
    "paper-defaults bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "paper-defaults bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "paper-defaults bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "paper-defaults sweep-v_dd": "24ae9df72dc7c8a8b28c81d29a8ad9d3e8be51fcca6503af70b459073a7f2dee",
    "paper-defaults sweep-n_bias": "0067f6167ed19506a90da976054d376a1ea0a3b062124ee2b0c3f16655535359",
    "paper-defaults sweep-dac-bias": "06c3212e5c7883accae0aeee70c933fc06b1393dc8094839e52aab8b7890e38a",
    "paper-defaults sweep-dac-rf": "91a763592e462fa4ccb7ef7ba2b965e27f53c19687deec48c39f29d09ed017bb",
    "paper-defaults capacity-json": "d2121f54c5a78dc9111fe210188b460afe4f89bfb6e8cdd61621ab254734db2f",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_SHA256))
def test_estimator_output_golden(capsys, scenario_dir, key):
    scenario, call = key.split(" ")
    command, *options = GOLDEN_CALLS[call]
    code, out, _ = run_cli(capsys, command, "--scenario",
                           str(scenario_dir / f"{scenario}.json"), *options)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[key]
