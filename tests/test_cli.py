import hashlib
import json
import subprocess
import sys
import time

import pytest

from cryoctrl import baseline_scenario
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


def test_simulate_over_run_budget_fails_fast(scenario_dir, tmp_path, src_env):
    stim = tmp_path / "stim.txt"
    stim.write_text("0 write-bias 0 2048\n")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cryoctrl.cli", "simulate", "--scenario",
         str(scenario_dir / "paper-defaults.json"), "--stimulus", str(stim),
         "--until", "1e30ns"],
        capture_output=True, text=True, env=src_env, timeout=10)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode != 0
    assert "bias conversions" in proc.stderr and "Traceback" not in proc.stderr


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
], ids=["r_off-estimate", "r_off-capacity", "r_off-simulate", "r_off-product-estimate",
        "c_ff_equiv-capacity", "c_ff_equiv-estimate"])
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
    "14nm-sram-10mv estimate-json": "9103a964d154f4bb10c278552c303b917150f15056d71f889c9d497aa7bf9bab",
    "14nm-sram-10mv estimate-csv": "fab375001d5bd726050664945f37010c50c47285d1a6da2671a35e5f80b61d7a",
    "14nm-sram-10mv estimate-text": "2477647d3485abb6e566f7a714a2d243096ca0b6587dc3ce126e6e73621b5ff7",
    "14nm-sram-10mv estimate-data-input": "83ea2629d262fa4bd065ff4d9c712f641b54f7280c2cebbf8ccdf65d3d91ae80",
    "14nm-sram-10mv bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "14nm-sram-10mv bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "14nm-sram-10mv bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "14nm-sram-10mv sweep-v_dd": "4737d13ac45acaf0c74046c0cfa7b86d42322a8615e9beff74d4760e753c0883",
    "14nm-sram-10mv sweep-n_bias": "df45450ccf09ea97ecd38c0c1e5a1d68562694c92b8472213bd89ebd2e9f56ff",
    "14nm-sram-10mv sweep-dac-bias": "7081e5c2378db98c9d8f28ac6c33fff5dbdd224adfe7b813f14b42495f13315a",
    "14nm-sram-10mv sweep-dac-rf": "dbe2be6589facce1c6d9cd0aea6a0810d0f630df9338861f6c809cc24fbcdb79",
    "14nm-sram-10mv capacity-json": "9bd1f6ff4a4303f0b338ffbbfb96e0d6bb6197cb195b143a38070d3931fd60ba",
    "65nm-ff-1v estimate-json": "762a4150217392d0745ab21acd83919205131240242e543c63c65f1507c22d67",
    "65nm-ff-1v estimate-csv": "fdb1a98e9029ac5c5170d3d83ece4ca4d84de40358ebc42b1611f4b3f400818d",
    "65nm-ff-1v estimate-text": "e0c383f6113c7f6e35592162ec56d3f689cfb17753c17548823a2fc1ae9f8200",
    "65nm-ff-1v estimate-data-input": "5ca2d5e9f519ac5db6688cc664a8596af5a3b47b93ce836de63bb5646ae4339d",
    "65nm-ff-1v bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "65nm-ff-1v bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "65nm-ff-1v bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "65nm-ff-1v sweep-v_dd": "24ae9df72dc7c8a8b28c81d29a8ad9d3e8be51fcca6503af70b459073a7f2dee",
    "65nm-ff-1v sweep-n_bias": "5e44e593a644e38e8539d980aede44d8255e88028003aaa9eaf78acc1267fc6b",
    "65nm-ff-1v sweep-dac-bias": "06c3212e5c7883accae0aeee70c933fc06b1393dc8094839e52aab8b7890e38a",
    "65nm-ff-1v sweep-dac-rf": "91a763592e462fa4ccb7ef7ba2b965e27f53c19687deec48c39f29d09ed017bb",
    "65nm-ff-1v capacity-json": "d2121f54c5a78dc9111fe210188b460afe4f89bfb6e8cdd61621ab254734db2f",
    "65nm-sram-100mv estimate-json": "563d683ef49c79811a79a950aa9dd89d9291180519518ad87dfff5f8dcc08694",
    "65nm-sram-100mv estimate-csv": "dccfaff9d5d63561132f808b1ce1b88d2a70555baf19bc6b6bb8b26319e52c8c",
    "65nm-sram-100mv estimate-text": "41ac4323d4fade7e49b7efd9bc1c5c6eba450c45fb21bea0df8646d455e80989",
    "65nm-sram-100mv estimate-data-input": "12119a3f6d6e91c8b930388761ad7d27898c25a6f740ce8e04e06cf3ef8454ef",
    "65nm-sram-100mv bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "65nm-sram-100mv bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "65nm-sram-100mv bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "65nm-sram-100mv sweep-v_dd": "94fdc920d0f277dcedcec1db10cf43e6b8fff16d3c7f3292f4d3fcfdfa9f0c8d",
    "65nm-sram-100mv sweep-n_bias": "1a5f6dc31f6febe03ae0ce936aea6803d9f59e36de13ea6d582f007e41324386",
    "65nm-sram-100mv sweep-dac-bias": "eab8ce4be308f65b6852e8fa64a7234302245ae092caf391e935e1e6dff880ef",
    "65nm-sram-100mv sweep-dac-rf": "10f0aff96688dda2b5b3a6a08af562a14198efc406029e65b6320e7403173911",
    "65nm-sram-100mv capacity-json": "abebfb8e27fbdf51c18bc9d41c9181927a5beb78d66bc18cc8b83f08922a48cb",
    "65nm-sram-1v estimate-json": "5beb85d97f87a5813d133f0aa88c205757a22ddefc308c98a578db9a98b7f03c",
    "65nm-sram-1v estimate-csv": "e93a8824f83de638d31f6c8e684956001113e45861701c606ea97f6c8a53aeec",
    "65nm-sram-1v estimate-text": "cf44f6f87f3db0709c4956e41410f37b8aac050d52604f066a40d48c37888809",
    "65nm-sram-1v estimate-data-input": "7296b23da30bf228d1215d502d20bb3d058246cd3007cba2b9698ef2bfb4d85f",
    "65nm-sram-1v bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "65nm-sram-1v bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "65nm-sram-1v bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "65nm-sram-1v sweep-v_dd": "94fdc920d0f277dcedcec1db10cf43e6b8fff16d3c7f3292f4d3fcfdfa9f0c8d",
    "65nm-sram-1v sweep-n_bias": "d26a579cd0bed1dab1ef5a6dd3c7f07987bf91217c3bcfc9b4a3e4c88305850a",
    "65nm-sram-1v sweep-dac-bias": "06c3212e5c7883accae0aeee70c933fc06b1393dc8094839e52aab8b7890e38a",
    "65nm-sram-1v sweep-dac-rf": "91a763592e462fa4ccb7ef7ba2b965e27f53c19687deec48c39f29d09ed017bb",
    "65nm-sram-1v capacity-json": "994501809c34fb0a3b460ab052d4f3f70d185da17319f071475afe95dc7bd3e8",
    "paper-defaults estimate-json": "762a4150217392d0745ab21acd83919205131240242e543c63c65f1507c22d67",
    "paper-defaults estimate-csv": "fdb1a98e9029ac5c5170d3d83ece4ca4d84de40358ebc42b1611f4b3f400818d",
    "paper-defaults estimate-text": "e0c383f6113c7f6e35592162ec56d3f689cfb17753c17548823a2fc1ae9f8200",
    "paper-defaults estimate-data-input": "5ca2d5e9f519ac5db6688cc664a8596af5a3b47b93ce836de63bb5646ae4339d",
    "paper-defaults bounds-text": "5adbde190d4da22063325a494ae17f0612032fd959c93b1ea3d20e8b407d795c",
    "paper-defaults bounds-csv": "7f0fa62bd731b6a4ef7655c300bc375f1f28c40326371d6ccbe37b6391573ae8",
    "paper-defaults bounds-json": "15265d31cf21af8f36814d9dfc1e02df2d3dc99d63ec8e27d6d8d46a20621eab",
    "paper-defaults sweep-v_dd": "24ae9df72dc7c8a8b28c81d29a8ad9d3e8be51fcca6503af70b459073a7f2dee",
    "paper-defaults sweep-n_bias": "5e44e593a644e38e8539d980aede44d8255e88028003aaa9eaf78acc1267fc6b",
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
