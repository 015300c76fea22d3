import collections
import hashlib
import heapq
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from cryoctrl import baseline_scenario, temperature_adjust
from cryoctrl.sim import (
    DataInputController,
    SimulationConfigError,
    StimulusError,
    Simulator,
    Trace,
    TraceEvent,
    engine,
    parse_duration_ns,
    parse_stimulus,
    run_simulation,
)

F_REFRESH = 1085776.3300760044
CONVERSION_PERIOD_NS = 1e9 / F_REFRESH          # one DAC conversion per period
SAMPLE_PERIOD_NS = 2 * (1e9 / 600e6)            # one output sample per 2 rf clocks


def test_parse_duration():
    assert parse_duration_ns("200us") == 200_000.0
    assert parse_duration_ns("1.5ms") == 1_500_000.0
    assert parse_duration_ns("3s") == 3e9
    assert parse_duration_ns("42") == 42.0


def test_stimulus_parse_errors_carry_line_numbers():
    with pytest.raises(StimulusError, match="line 2"):
        parse_stimulus("0 write-bias 0 1\n0 write-bias x 1\n")
    with pytest.raises(StimulusError, match="line 1"):
        parse_stimulus("0 frobnicate 1 2\n")
    with pytest.raises(StimulusError, match="line 3"):
        parse_stimulus("# comment\n\n0 ramp-mode maybe\n")
    for t in ("-1", "nan", "inf"):
        with pytest.raises(StimulusError, match="line 2: time must be non-negative and finite"):
            parse_stimulus(f"0 write-bias 0 1\n{t} write-bias 0 1\n")


def test_stimulus_comments_and_sorting():
    cmds = parse_stimulus("# header\n500 play 0 0 0 0\n0 write-bias 1 2 # inline\n")
    assert [c.op for c in cmds] == ["write-bias", "play"]
    assert cmds[0].args == (1, 2)


def test_long_single_line_stimulus_is_text():
    line = "0 write-bias 0 1 # " + "x" * 4981
    assert len(line) == 5000
    cmds = parse_stimulus(line)
    assert [(c.op, c.args) for c in cmds] == [("write-bias", (0, 1))]


@pytest.mark.parametrize("t_end_ns", [math.inf, math.nan, 0.0, -1.0])
def test_run_rejects_bad_end_time(baseline, t_end_ns):
    with pytest.raises(ValueError, match="positive and finite"):
        run_simulation(baseline, None, t_end_ns)


def test_empty_stimulus_gives_only_clock_events(baseline):
    trace = run_simulation(baseline, None, 100_000.0)
    assert sorted(trace.signals()) == ["clk_bias_hz", "clk_rf_hz"]
    assert trace.stats["rf_samples_emitted"] == 0


def test_determinism_bit_identical(baseline):
    stim = """
    0 write-bias 0 2048
    0 write-bias 5 4095
    0 write-rf 3 512
    30000 play 0 0 0 0
    """
    a = run_simulation(baseline, stim, 120_000.0)
    b = run_simulation(baseline, stim, 120_000.0)
    assert a.to_csv() == b.to_csv()
    assert a.stats == b.stats


def test_round_robin_refresh_each_electrode_once_per_cycle(baseline):
    sim = Simulator(baseline)
    stim = "\n".join(f"0 write-bias {e} {256 * (e + 1)}" for e in range(8))
    trace = sim.run(stim, 40_000.0)
    # after the writes settle, every electrode refreshes once per 8 conversions
    for e in range(8):
        events = trace.of(f"bias_e{e}")
        assert len(events) == 1   # value-change semantics: recharge to same code
        assert events[0].value == pytest.approx(256 * (e + 1) / 4096, rel=1e-12)
    assert sim.memory.bias[:8] == [256 * (e + 1) for e in range(8)]


def test_refresh_droop_within_pooled_budget(baseline):
    # 1 ms of refresh against leakage: per-electrode deviation stays within
    # the pooled budget of 8 channels x 3 uV
    stim = "\n".join(f"0 write-bias {e} 4095" for e in range(8))
    trace = run_simulation(baseline, stim, 1_000_000.0)
    worst = max(trace.stats["max_refresh_deviation_v"])
    assert worst <= 8 * 3e-6
    # and the bound is tight: the worst case is within 3 % of it
    assert worst > 0.97 * 8 * 3e-6


def test_droop_between_refreshes_is_exponential(baseline):
    sim = Simulator(baseline)
    sim.run("0 write-bias 0 4096\n".replace("4096", "4095"), 60_000.0)
    cap = sim.caps[0]
    tau = 1e12 * 307e-15
    t_probe = cap.t_set_ns + 5_000.0
    expect = cap.v * math.exp(-(5_000.0 * 1e-9) / tau)
    assert sim.electrode_voltage(0, t_probe) == pytest.approx(expect, rel=1e-12)


def test_ramp_mode_staircase(baseline):
    stim = """
    0 write-bias 8 2        # ramp target: electrode 2
    200 ramp-mode on
    """
    sim = Simulator(baseline)
    trace = sim.run(stim, 30_000.0)
    ramp = trace.of("bias_e2")
    assert len(ramp) >= 10
    codes = [round(e.value * 4096) for e in ramp]
    assert codes[0] == 0 or codes[0] == 1  # staircase starts at the counter value
    assert all(b - a == 1 for a, b in zip(codes, codes[1:]))  # strictly increasing
    steps = [b.t_ns - a.t_ns for a, b in zip(ramp, ramp[1:])]
    for dt in steps[1:]:
        assert dt == pytest.approx(CONVERSION_PERIOD_NS, rel=1e-9)
    # non-target electrodes only droop: no refresh events for them
    assert trace.of("bias_e0") == []


def test_ramp_counter_frozen_in_refresh_mode(baseline):
    sim = Simulator(baseline)
    sim.run("0 write-bias 8 1\n1000 ramp-mode on\n15000 ramp-mode off\n", 40_000.0)
    frozen = sim.bias_ctrl.ramp_counter
    assert frozen > 0
    sim2 = Simulator(baseline)
    sim2.run("0 write-bias 8 1\n1000 ramp-mode on\n15000 ramp-mode off\n", 80_000.0)
    # refresh mode afterwards leaves the ramp counter untouched
    assert sim2.bias_ctrl.ramp_counter == frozen


def test_rf_playback_spacing_and_values(baseline):
    # staircase stored in sequence 0; playback must reproduce it in order at
    # one sample per two rf clocks
    lines = [f"0 write-rf {i} {i * 64}" for i in range(16)]
    lines.append("20000 play 0 0 0 0")
    trace = run_simulation(baseline, "\n".join(lines), 60_000.0)
    a = trace.of("rf_a")
    assert len(a) == 32  # two sets in the command word
    lsb = 4e-3 / 1024
    assert [e.value for e in a[:16]] == pytest.approx([i * 64 * lsb for i in range(16)])
    deltas = [b.t_ns - x.t_ns for x, b in zip(a, a[1:])]
    for dt in deltas:
        assert dt == pytest.approx(SAMPLE_PERIOD_NS, rel=1e-9)
    assert SAMPLE_PERIOD_NS == pytest.approx(3.3333333, rel=1e-6)


def test_rf_playback_symmetric_electrodes(baseline):
    lines = [f"0 write-rf {i} {1000 - i}" for i in range(16)]
    lines.append("20000 play 0 0 0 0")
    trace = run_simulation(baseline, "\n".join(lines), 60_000.0)
    va = [e.value for e in trace.of("rf_a")]
    vb = [e.value for e in trace.of("rf_b")]
    assert va == vb


def test_rf_double_buffer_handoff_no_gap(baseline):
    lines = [f"0 write-rf {i} {i}" for i in range(16)]          # sequence 0
    lines += [f"0 write-rf {16 + i} {512 + i}" for i in range(16)]  # sequence 1
    lines.append("30000 play 0 0 1 1")
    trace = run_simulation(baseline, "\n".join(lines), 90_000.0)
    a = trace.of("rf_a")
    assert len(a) == 32
    lsb = 4e-3 / 1024
    codes = [round(e.value / lsb) for e in a]
    assert codes == list(range(16)) + list(range(512, 528))
    # the two sequences are seamless: constant spacing across the boundary
    deltas = [b.t_ns - x.t_ns for x, b in zip(a, a[1:])]
    assert all(dt == pytest.approx(SAMPLE_PERIOD_NS, rel=1e-9) for dt in deltas)
    ends = trace.of("end_sequ")
    assert len(ends) == 2


def test_rf_staging_frees_immediately_and_backpressure(baseline):
    lines = [f"0 write-rf {i} {i}" for i in range(16)]
    # first command plays 2 sets (~107 ns); the second lands in staging while
    # set 1 is active; the third finds staging full and is dropped
    lines.append("20000 play 0 0 0 0")
    lines.append("20040 play 1 1 1 1")
    lines.append("20042 play 2 2 2 2")
    trace = run_simulation(baseline, "\n".join(lines), 90_000.0)
    assert trace.stats["backpressure_count"] == 1
    assert len(trace.of("rf_cmd_ignored")) == 1
    # the staged command still plays after the active one finishes
    assert trace.stats["rf_samples_emitted"] == 64


def test_latch_holds_one_command_word(baseline):
    # the latch array buffers exactly one command word besides the staging
    # flip-flops: of three commands arriving before playback starts, the
    # third must be dropped even though nothing is playing yet
    lines = [f"0 write-rf {i} {i}" for i in range(16)]
    lines.append("20000 play 0 0 0 0")
    lines.append("20001 play 1 1 1 1")
    lines.append("20002 play 2 2 2 2")
    trace = run_simulation(baseline, "\n".join(lines), 90_000.0)
    assert trace.stats["backpressure_count"] == 1
    assert trace.stats["rf_samples_emitted"] == 64


def test_sample_edges_on_global_grid(baseline):
    lines = [f"0 write-rf {i} {i}" for i in range(16)]
    lines.append("20001 play 0 0 0 0")  # deliberately off-grid time
    trace = run_simulation(baseline, "\n".join(lines), 60_000.0)
    for e in trace.of("rf_a"):
        k = e.t_ns / SAMPLE_PERIOD_NS
        assert abs(k - round(k)) < 1e-6


def test_write_during_playback_does_not_disturb_bias(baseline):
    stim = """
    0 write-bias 0 1024
    40000 write-rf 0 3
    40000 play 0 0 0 0
    """
    trace = run_simulation(baseline, stim, 120_000.0)
    assert trace.of("bias_e0")[0].value == pytest.approx(0.25)
    assert trace.stats["rf_samples_emitted"] == 32


@pytest.mark.parametrize("spec", [
    {"n_pulses": 32},                   # 32*16 = 512 pulse registers > 256
    {"n_bias_signals": 300},            # 301 bias registers > 256
    {"n_pulses": 32, "l_pulse": 8},     # 32 sequences > 16 four-bit ids
], ids=["pulse-registers", "bias-registers", "sequence-ids"])
def test_config_guard_address_space(spec):
    sc = baseline_scenario()
    sc = replace(sc, spec=replace(sc.spec, **spec))
    with pytest.raises(SimulationConfigError, match="address space"):
        Simulator(sc)


def test_config_guard_pulse_outputs():
    sc = baseline_scenario()
    with pytest.raises(SimulationConfigError, match="n_rf_signals=4"):
        Simulator(replace(sc, spec=replace(sc.spec, n_rf_signals=4)))


def test_config_guard_payload_width():
    sc = baseline_scenario()
    sc = replace(sc, spec=replace(sc.spec, n_bias=22))
    with pytest.raises(SimulationConfigError, match="counter"):
        Simulator(sc)


def test_stimulus_value_range_checks(baseline):
    with pytest.raises(StimulusError, match="line 1"):
        run_simulation(baseline, "0 write-bias 0 4096\n", 1_000.0)
    with pytest.raises(StimulusError, match="line 1"):
        run_simulation(baseline, "0 play 16 0 0 0\n", 1_000.0)


@pytest.mark.parametrize("bad", ["5000 write-bias 0 4096", "5000 write-rf 0 1024",
                                 "5000 play 0 0 0 16", "5000 write-rf 200 5",
                                 "5000 play 15 15 0 0", "5000 write-bias 9 1"])
def test_whole_stimulus_checked_before_the_run(baseline, bad):
    # the bad command lies after t_end_ns, so it would never execute; with 4
    # stored sequences (64 pulse registers) RF address 200 and id 15 are bad
    # too, and 8 electrodes have bias registers 0-8 only
    sim = Simulator(replace(baseline, spec=replace(baseline.spec, n_pulses=4)))
    with pytest.raises(StimulusError, match="line 2"):
        sim.run(f"0 write-bias 0 1\n{bad}\n", 1_000.0)
    assert sim.trace.events == []


def test_simulator_runs_once(baseline):
    sim = Simulator(baseline)
    trace = sim.run("0 write-bias 0 2048", 20e3)
    rows = list(trace.events)
    with pytest.raises(RuntimeError, match="already run"):
        sim.run("0 write-bias 1 1024", 10e3)
    assert trace.events == rows
    # a run refused by the stimulus check has started too: its queue holds
    # the commands before the bad line
    sim = Simulator(baseline)
    with pytest.raises(StimulusError, match="line 2"):
        sim.run("0 write-bias 0 1\n0 write-bias 0 4096\n", 1_000.0)
    with pytest.raises(RuntimeError, match="already run"):
        sim.run("0 write-bias 0 1\n", 1_000.0)


def test_trace_csv_format(baseline):
    trace = run_simulation(baseline, "0 write-bias 0 2048\n", 20_000.0)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "t_ns,signal,value"
    assert any(",feedback," in l for l in lines)
    t_values = [float(l.split(",")[0]) for l in lines[1:]]
    assert t_values == sorted(t_values)
    vcd = trace.to_vcd_text().splitlines()
    assert vcd[0].startswith("#")


def test_trace_text_formats_each_event_exactly():
    trace = Trace()
    t = 1.5
    for t_ns, signal, value in [(0.0, "a", 0.0), (-0.0, "b", -0.0), (t, "a", 0.1),
                                (t, "b", 0.1), (2.0, "a", -0.0), (2.0, "b", 1.5)]:
        trace.emit(t_ns, signal, value)
    assert trace.to_csv() == ("t_ns,signal,value\n0.0,a,0.0\n-0.0,b,-0.0\n1.5,a,0.1\n"
                              "1.5,b,0.1\n2.0,a,-0.0\n2.0,b,1.5\n")
    assert trace.to_vcd_text().splitlines() == [
        "#0.0 a 0.0", "#-0.0 b -0.0", "#1.5 a 0.1", "#1.5 b 0.1", "#2.0 a -0.0", "#2.0 b 1.5"]


def test_trace_event_is_a_named_tuple():
    e = TraceEvent(1.5, "rf_a", 0.25)
    assert (e.t_ns, e.signal, e.value) == (1.5, "rf_a", 0.25)
    assert e == (1.5, "rf_a", 0.25)


# One stimulus per simulator behaviour. The digests pin the trace CSV, the
# VCD text and the stats, so a refactor of the engine that changes any event,
# its order or a figure fails here.
SIM_GOLDEN_STIMULI = {
    # every electrode written once, one rewritten mid-run: round-robin
    # refresh, droop and value-change emission
    "bias-refresh": (
        "\n".join(f"0 write-bias {e} {511 * (e + 1)}" for e in range(8))
        + "\n150000 write-bias 3 17\n",
        300_000.0,
    ),
    # ramp target written, ramp on and off again while refresh resumes
    "ramp-mode": ("0 write-bias 0 4000\n0 write-bias 8 2\n200 ramp-mode on\n"
                  "25000 ramp-mode off\n", 60_000.0),
    # two stored sequences; the third play finds staging full
    "playback-backpressure": (
        "\n".join(f"0 write-rf {i} {31 * i}" for i in range(32))
        + "\n20000 play 0 0 1 1\n20040 play 1 1 0 0\n20042 play 2 2 2 2\n"
          "40001 play 1 0 0 1\n",
        90_000.0,
    ),
    # three plays before playback starts: the latch holds one word
    "latch": (
        "\n".join(f"0 write-rf {i} {i}" for i in range(16))
        + "\n20000 play 0 0 0 0\n20001 play 1 1 1 1\n20002 play 2 2 2 2\n",
        90_000.0,
    ),
    # two stored sequences, four plays (two of them staged inside a running
    # sequence) and RF writes that complete mid-sequence. The conversion at
    # 18420.0 ns (the 20th, 20 x 921.0) falls on the same tick as a ramp-mode
    # command and the 18th bit clock of the first write frame, and the one at
    # 27630.0 ns on a ramp-mode command and a bit clock: the write times were
    # searched for so that the bit clock lands there (whole ticks, see
    # test_golden_ties_hold_on_ticks). The conversion runs first, in the mode
    # it had before the command. No sample edge can join such a tie: the
    # sample period (3,333,333,333,334 ticks) and the conversion period
    # (921 x 10**12 ticks) share only the factor 2.
    "rf-write-during-playback": (
        "\n".join(f"0 write-rf {i} {29 * i + 3}" for i in range(32))
        + "\n18384 play 0 1 1 0\n18391.66666666666 write-rf 12 1000\n"
          "18391.66666666666 write-rf 28 7\n18400 play 1 0 0 1\n18420 ramp-mode on\n"
          "27601.66666666666 write-rf 3 512\n27602 play 1 1 0 0\n27630 ramp-mode off\n"
          "27640 play 0 0 1 1\n",
        28_000.0,
    ),
    # the second play's 17-bit frame completes on the tick of the last sample
    # edge of the first command (20150.00000000403 ns): staging fills first,
    # so the sample clock runs on into the new word. The two play times were
    # searched for so that the two times tie.
    "play-at-last-sample-edge": (
        "\n".join(f"0 write-rf {i} {23 * i + 5}" for i in range(32))
        + "\n20016 play 0 1 1 0\n20121.66666667069 play 1 0 0 1\n",
        21_000.0,
    ),
    # a write-bias burst to all 9 registers at one time waits on the serial
    # line while three plays keep a sequence running and ramp mode toggles
    "bias-burst-during-playback": (
        "\n".join(f"0 write-rf {i} {(53 * i + 7) % 1024}" for i in range(32))
        + "\n20000 play 0 1 1 0\n20060 play 1 1 0 0\n"
        + "".join(f"20050 write-bias {r} {(997 * r + 211) % 4096}\n" for r in range(9))
        + "20100 ramp-mode on\n20170 play 0 0 1 1\n21000 ramp-mode off\n"
          "21500 ramp-mode on\n22300 ramp-mode off\n",
        23_000.0,
    ),
}

SIM_GOLDEN_SHA256 = {  # (to_csv, to_vcd_text, stats as sorted JSON)
    "bias-refresh": (
        "4437ae5527a50957cd14723c25e976a12646a2a7d20639392b8b520e165d2923",
        "37d66bf531e446e08876266e1d3a448504204d2883d09aa3252abfeefbb6ecb7",
        "8abe2e2bef978826b141dc168b7f94f253d51e58b88269d58e4df91c2e451dcd",
    ),
    "ramp-mode": (
        "5ffffa4c8ed77eb171720c7d27bf8f154717c2a381cef2c74dcab1d3ecab5a9d",
        "b7e4b0dd2db7d3cf63031e5a2772cebbcc8cfce00a69a58baa2a6688c98d32b4",
        "e08f1975f175be0679c0ec1462ba44d4831d8f327813b153f984be8e9c4bf1f7",
    ),
    "playback-backpressure": (
        "2efdf6b916bf9b09e64c8b53bdc7d72b6db053f7b2e27020bb1b78cdaeb9148e",
        "30f334f227f8ade5aa285920e08f6cdd63285fb400fc4e1cf2a2aed8da73881e",
        "32899350e44693f5780c6e981634c908de168676b42c1804cce8c73f5016c2f9",
    ),
    "latch": (
        "feee5e3c85466760bf80d1ddc635ca1231c93115159e1c7e544dbb885029cb2b",
        "4a051ec2890e7cefccd3c50f94992e5e5cc27486d1ffa475072b212c2e9a2b43",
        "0ae27f177240c9342241bbca31650c56e001c2f94e8d1b27c84ddf7a24e1cbdc",
    ),
    "rf-write-during-playback": (
        "8bb73f3efdee9373bc913c89244b7b27c461a26faa605c05ebd3fd0910de3ae9",
        "7614fa7e528d7fb304da530caf606a1cd78625f3bf33ca0e3e3c877537bdb4ad",
        "a0bdae90658f7fb632c2905d411c9b10ea232d92c98a0de4650e886c5eccc943",
    ),
    "play-at-last-sample-edge": (
        "7f94278964a0744f3d821a66ec3cd985ac85ebd41ef99bf95bbec8f6f784efdd",
        "07a017f5fa9e940a0d5a27503dc61a777837ea5fcf6984afea4a59dcd27c4b65",
        "4721e924f960d00be0cc5020e9246dbea4687ecaa0a8885854bd0c81b753289f",
    ),
    "bias-burst-during-playback": (
        "d03340c682a9e412167d5a25a6fe398e572096b1b6d9caf1688ad9af6685015d",
        "a898b2f1281d3593c99535d40722ee4f1e49de7981529420531720c6ef72078b",
        "26d718b5e41eedb4c159004cfb1dbad9814864d730dfb89a4e0dcae6a4568caa",
    ),
}


@pytest.mark.parametrize("key", sorted(SIM_GOLDEN_SHA256))
def test_simulator_output_golden(baseline, key):
    stimulus, t_end_ns = SIM_GOLDEN_STIMULI[key]
    trace = run_simulation(baseline, stimulus, t_end_ns)
    outputs = (trace.to_csv(), trace.to_vcd_text(), json.dumps(trace.stats, sort_keys=True))
    assert tuple(hashlib.sha256(o.encode()).hexdigest() for o in outputs) \
        == SIM_GOLDEN_SHA256[key]


_HANDLERS = ((engine.BiasController, "conversion"), (engine.Simulator, "_word_clock_event"),
             (engine.Simulator, "_ramp_mode_event"), (engine.RfController, "sample_edge"),
             (engine.RfController, "command_received"))


def _handler_ticks(scenario, stimulus, t_end_ns):
    """Run with class-level wrappers that record the tick of each handler call."""
    ticks = collections.defaultdict(list)

    def recording(name, fn):
        def wrapper(self, t, arg):
            ticks[name].append(t)
            return fn(self, t, arg)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in _HANDLERS:
            mp.setattr(owner, name, recording(name, getattr(owner, name)))
        sim = Simulator(scenario)
        trace = sim.run(stimulus, t_end_ns)
    return sim, trace, ticks


def test_golden_ties_hold_on_ticks(baseline):
    sim, _, ticks = _handler_ticks(baseline, *SIM_GOLDEN_STIMULI["rf-write-during-playback"])
    for k in (20, 30):
        tie = k * sim.conversion_period_ticks
        assert tie in ticks["conversion"]
        assert tie in ticks["_ramp_mode_event"]
        assert tie in ticks["_word_clock_event"]
    _, _, ticks = _handler_ticks(baseline, *SIM_GOLDEN_STIMULI["play-at-last-sample-edge"])
    assert len(ticks["command_received"]) == 2
    assert ticks["command_received"][1] == ticks["sample_edge"][31]   # 2 x 16 samples


def test_bias_runs_first_on_a_tick_tie(baseline):
    # The last of the 34 serial clocks of a write-bias frame (10 + 2 x 12)
    # shifts the last payload bit in on the tick of conversion 8, which
    # recharges electrode 0. The conversion runs first and reads the old code
    # 0; code 1 reaches the electrode one round later.
    sim, trace, ticks = _handler_ticks(baseline, "7312.999999999989 write-bias 0 1\n", 20_000.0)
    period = sim.conversion_period_ticks
    tie = 8 * period
    assert ticks["_word_clock_event"][-1] == tie
    assert tie in ticks["conversion"]
    assert [e.t_ns for e in trace.of("feedback")] == [tie / engine.TICKS_PER_NS]
    assert [e.t_ns for e in trace.of("bias_e0")] == [(tie + 8 * period) / engine.TICKS_PER_NS]


def test_no_drift_a_million_periods_out(baseline):
    # Edges are whole multiples of a whole-tick period. A play whose frame
    # completes just before sample edge 10**6 starts the sample clock exactly
    # there, and conversion 10**6 (921 ms simulated, quiet rounds skipped)
    # falls exactly on its grid.
    k = 10 ** 6
    sim = Simulator(baseline)
    sample, period = sim.sample_period_ticks, sim.conversion_period_ticks
    t_play = (k * sample - engine.RF_COMMAND_BITS * sim.t_rf_ticks - 1000) / engine.TICKS_PER_NS
    t_end_ns = (k * period + period // 2) / engine.TICKS_PER_NS
    sim, _, ticks = _handler_ticks(baseline, f"0 write-bias 0 2048\n{t_play!r} play 0 0 0 0\n",
                                   t_end_ns)
    assert ticks["sample_edge"] == [(k + j) * sample for j in range(32)]
    assert ticks["conversion"][-1] == k * period
    assert sim.caps[k % 8].t_set == k * period
    assert sim.caps[k % 8].t_set_ns == k * period / engine.TICKS_PER_NS


def test_clock_quantisation_reported(baseline):
    trace = run_simulation(baseline, None, 1_000.0)
    errors = trace.stats["clock_quantisation_rel"]
    assert sorted(errors) == ["clk_bias", "clk_rf"]
    # 600 MHz: 1,666,666,666,667 ticks for 1,666,666,666,666.67
    assert errors["clk_rf"] == pytest.approx(0.2 / 1_000_000_000_000, rel=1e-9)
    assert abs(errors["clk_bias"]) < 0.5 / 460_500_000_000_000


def _stimulus_text(commands) -> str:
    return "\n".join(f"{t!r} {op} " + " ".join(map(str, args)) for t, (op, *args) in commands)


_command = st.one_of(
    st.tuples(st.just("write-bias"), st.integers(0, 8), st.integers(0, 4095)),
    st.tuples(st.just("write-rf"), st.integers(0, 255), st.integers(0, 1023)),
    st.tuples(st.just("play"), *[st.integers(0, 15)] * 4),
    st.tuples(st.just("ramp-mode"), st.sampled_from(["on", "off"])),
)


@settings(max_examples=60, deadline=None)
@given(commands=st.lists(st.tuples(st.floats(0, 40_000), _command), max_size=30),
       t_end_ns=st.floats(1_000, 50_000))
def test_trace_ordered_and_bias_emitted_on_change(commands, t_end_ns):
    stimulus = _stimulus_text(commands)
    trace = run_simulation(baseline_scenario(), stimulus, t_end_ns)
    times = [e.t_ns for e in trace.events]
    assert times == sorted(times)
    assert times[-1] <= t_end_ns
    for e in range(8):
        values = [0.0] + [ev.value for ev in trace.of(f"bias_e{e}")]  # starts discharged
        assert all(a != b for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(n_loaded=st.integers(0, 4),
       commands=st.lists(st.tuples(st.floats(19_800, 20_600) | st.just(20262.0), _command),
                         max_size=25),
       t_end_ns=st.floats(20_100, 21_500))
def test_returned_edges_match_push_then_pop(n_loaded, commands, t_end_ns):
    # Reference: every returned edge goes through a separate heappush and
    # heappop, as in a loop where each clocked handler pushes its own edge.
    # The window is narrow, so plays land inside running sequences and RF
    # writes complete mid-sequence; commands may fall on the conversion at
    # 20262.0 ns.
    loads = [(0.0, ("write-rf", a, (37 * a) % 1024)) for a in range(16 * n_loaded)]
    stimulus = _stimulus_text(loads + commands)
    fast = run_simulation(baseline_scenario(), stimulus, t_end_ns)

    pushpops = []

    def push_then_pop(queue, item):
        pushpops.append(item)
        heapq.heappush(queue, item)
        return heapq.heappop(queue)

    reference = SimpleNamespace(heappush=heapq.heappush, heappop=heapq.heappop,
                                heappushpop=push_then_pop)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "heapq", reference)
        slow = run_simulation(baseline_scenario(), stimulus, t_end_ns)
    assert pushpops  # the conversion clock alone returns an edge
    assert slow.to_csv() == fast.to_csv()
    assert slow.stats == fast.stats


def _counting(counts, key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


@settings(max_examples=60, deadline=None)
@given(n_loaded=st.integers(0, 4),
       commands=st.lists(st.tuples(st.floats(0, 25_000), _command), max_size=30))
def test_clocks_run_only_while_busy(n_loaded, commands):
    # Counting wrappers installed on the classes, as the benchmark's tracer
    # installs its own: at quiescence the sample clock has run once per
    # emitted sample (no idle edge) and the serial line once per frame bit
    # and write clock of each data word (10 + 2 x width, no idle clock).
    loads = [(0.0, ("write-rf", a, (37 * a) % 1024)) for a in range(16 * n_loaded)]
    stimulus = _stimulus_text(loads + commands)
    t_end_ns = 25_000.0 + 60.0 * len(loads + commands) + 2_000.0
    counts = {"sample_edge": 0, "step": 0}
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((engine.RfController, "sample_edge"),
                            (DataInputController, "step")):
            mp.setattr(owner, name, _counting(counts, name, getattr(owner, name)))
        trace = run_simulation(baseline_scenario(), stimulus, t_end_ns)
    assert counts["sample_edge"] == trace.stats["rf_samples_emitted"]
    widths = {"write-bias": 12, "write-rf": 10}
    assert counts["step"] == sum(10 + 2 * widths[op] for _, (op, *_) in loads + commands
                                 if op in widths)


@settings(max_examples=100, deadline=None)
@given(n_bias_signals=st.integers(1, 300),
       n_pulses=st.sampled_from([2 ** k for k in range(9)]),
       l_pulse=st.sampled_from([2 ** k for k in range(9)]),
       n_rf_signals=st.integers(1, 3))
@example(n_bias_signals=255, n_pulses=16, l_pulse=16, n_rf_signals=2)   # the largest
@example(n_bias_signals=256, n_pulses=16, l_pulse=16, n_rf_signals=2)
@example(n_bias_signals=16, n_pulses=16, l_pulse=16, n_rf_signals=2)
def test_register_map_follows_the_scenario(n_bias_signals, n_pulses, l_pulse, n_rf_signals):
    # A scenario the 8-bit word address, the 4-bit sequence ids or the two
    # pulse outputs cannot serve is refused; on any other, every bias
    # register (the ramp register included) and the first and last pulse
    # register can be written over the serial protocol.
    sc = baseline_scenario()
    sc = replace(sc, spec=replace(sc.spec, n_bias_signals=n_bias_signals, n_pulses=n_pulses,
                                  l_pulse=l_pulse, n_rf_signals=n_rf_signals))
    if (n_bias_signals + 1 > 256 or n_pulses * l_pulse > 256 or n_pulses > 16
            or n_rf_signals != 2):
        with pytest.raises(SimulationConfigError):
            Simulator(sc)
        return
    sim = Simulator(sc)
    bias = {reg: (37 * reg + 1) % 4096 for reg in range(n_bias_signals + 1)}
    rf = {addr: (29 * addr + 3) % 1024 for addr in (0, n_pulses * l_pulse - 1)}
    writes = [(0.0, ("write-bias", reg, code)) for reg, code in bias.items()]
    writes += [(0.0, ("write-rf", addr, code)) for addr, code in rf.items()]
    sim.run(_stimulus_text(writes), len(writes) * 40 * sim.t_rf_ns + 1_000.0)
    assert sim.memory.bias == list(bias.values())
    assert [sim.memory.rf[addr] for addr in rf] == list(rf.values())


_number_token = st.one_of(
    st.integers(-2 ** 80, 2 ** 80).map(str),
    st.floats().map(repr),
    st.sampled_from(["0x", "0x1f", "0b2", "1_0", "-0", "nan", "NaN", "inf", "-inf", "1e400"]),
)
_word_token = st.one_of(
    st.sampled_from(["write-bias", "write-rf", "play", "ramp-mode", "on", "off", "#"]),
    st.text(max_size=6),
)
_token = _number_token | _word_token
_stimulus_line = st.one_of(
    st.tuples(_number_token, _word_token, st.lists(_token, max_size=5))
    .map(lambda p: " ".join([p[0], p[1], *p[2]])),
    st.lists(_token, max_size=7).map(" ".join),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_stimulus_line, max_size=8))
def test_parse_stimulus_raises_only_stimulus_error(lines):
    try:
        commands = parse_stimulus("\n".join(lines))
    except StimulusError:
        return
    assert all(c.op in ("write-bias", "write-rf", "play", "ramp-mode") for c in commands)


_SCENARIOS_FOR_SKIP = {
    "baseline": baseline_scenario(),
    "1.8 K": temperature_adjust(baseline_scenario(), 1.8),
    "r_off x 0.01": replace(baseline_scenario(), tech=replace(baseline_scenario().tech,
                                                                r_off_multiplier=0.01)),
    # a round of one conversion: a ramp step can look like a quiet round
    "one electrode": replace(baseline_scenario(), spec=replace(baseline_scenario().spec,
                                                                n_bias_signals=1)),
}

# Times in conversion periods: whole periods land on conversions, a quiet gap
# spans up to 75 rounds of 8 conversions. Small codes meet the ramp counter,
# so a short ramp window can leave its target holding its register's code.
_periods = st.integers(0, 600) | st.floats(0, 600)
_code = st.sampled_from([0, 1, 2, 3, 2048, 4095])
_skip_command = st.one_of(
    st.tuples(st.just("write-bias"), st.integers(0, 8), _code),
    st.tuples(st.just("write-rf"), st.integers(0, 31), st.integers(0, 1023)),
    st.tuples(st.just("play"), *[st.integers(0, 1)] * 4),
    st.tuples(st.just("ramp-window"), st.integers(1, 3) | st.floats(0, 40)),
)


def _skip_stimulus(loads, commands, sim) -> str:
    registers, period_ns = sim.n_electrodes + 1, sim.conversion_period_ns
    lines = [f"0 write-bias {reg} {code}" for reg, code in enumerate(loads[:registers])]
    for t, (op, *args) in commands:
        t_ns = t * period_ns
        if op == "ramp-window":
            lines += [f"{t_ns!r} ramp-mode on", f"{t_ns + args[0] * period_ns!r} ramp-mode off"]
        else:
            if op == "write-bias":
                args[0] %= registers
            lines.append(f"{t_ns!r} {op} " + " ".join(map(str, args)))
    return "\n".join(lines) + "\n"


def _run_counting_conversions(scenario, stimulus, t_end_ns):
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.BiasController, "conversion",
                   _counting(counts, "conversion", engine.BiasController.conversion))
        trace = run_simulation(scenario, stimulus, t_end_ns)
    return trace, counts["conversion"]


def _per_conversion(scenario, stimulus, t_end_ns):
    """The reference: every conversion runs, no round is skipped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.BiasController, "skip_quiet_rounds", lambda self: None)
        return _run_counting_conversions(scenario, stimulus, t_end_ns)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(_SCENARIOS_FOR_SKIP)),
       loads=st.lists(_code, max_size=9),
       commands=st.lists(st.tuples(_periods, _skip_command), max_size=12),
       t_end=st.floats(1, 700))
# a skip must stop at the event (a write at conversion 39), a ramp window
# that leaves its target holding its register's code is not a quiet round,
# and ramp steps are never skipped, even where one looks like a quiet round
@example(name="baseline", loads=[1], commands=[(39, ("write-bias", 0, 0))], t_end=40.0)
@example(name="1.8 K", loads=[0, 1], commands=[(1, ("ramp-window", 2))], t_end=194.0)
@example(name="one electrode", loads=[], commands=[(1, ("ramp-window", 40))], t_end=60.0)
def test_skipped_rounds_match_the_per_conversion_loop(name, loads, commands, t_end):
    scenario = _SCENARIOS_FOR_SKIP[name]
    sim = Simulator(scenario)
    stimulus = _skip_stimulus(loads, commands, sim)
    t_end_ns = t_end * sim.conversion_period_ns
    fast, fast_conversions = _run_counting_conversions(scenario, stimulus, t_end_ns)
    slow, slow_conversions = _per_conversion(scenario, stimulus, t_end_ns)
    assert fast.to_csv() == slow.to_csv()
    assert fast.stats == slow.stats
    assert fast_conversions <= slow_conversions


def test_quiet_rounds_cost_nothing():
    # bias only, 1 ms at a hundredth of the off-resistance: ~108k conversion
    # periods, of which only those near the serial writes run one by one
    scenario = _SCENARIOS_FOR_SKIP["r_off x 0.01"]
    stimulus = "".join(f"0 write-bias {e} {511 * (e + 1)}\n" for e in range(8))
    fast, fast_conversions = _run_counting_conversions(scenario, stimulus, 1e6)
    slow, slow_conversions = _per_conversion(scenario, stimulus, 1e6)
    assert slow_conversions > 100_000
    assert fast_conversions < 100
    assert fast.to_csv() == slow.to_csv()
    assert fast.stats == slow.stats
