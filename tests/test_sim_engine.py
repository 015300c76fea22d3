import hashlib
import heapq
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cryoctrl import baseline_scenario
from cryoctrl.sim import (
    SimulationConfigError,
    StimulusError,
    Simulator,
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


def test_config_guard_address_space():
    sc = baseline_scenario()
    sc = replace(sc, spec=replace(sc.spec, n_pulses=32))  # 32*16 = 512 > 256
    with pytest.raises(SimulationConfigError, match="address space"):
        Simulator(sc)


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
                                 "5000 play 15 15 0 0"])
def test_whole_stimulus_checked_before_the_run(baseline, bad):
    # the bad command lies after t_end_ns, so it would never execute; with 4
    # stored sequences (64 pulse registers) RF address 200 and id 15 are bad too
    sim = Simulator(replace(baseline, spec=replace(baseline.spec, n_pulses=4)))
    with pytest.raises(StimulusError, match="line 2"):
        sim.run(f"0 write-bias 0 1\n{bad}\n", 1_000.0)
    assert sim.trace.events == []


def test_trace_csv_format(baseline):
    trace = run_simulation(baseline, "0 write-bias 0 2048\n", 20_000.0)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "t_ns,signal,value"
    assert any(",feedback," in l for l in lines)
    t_values = [float(l.split(",")[0]) for l in lines[1:]]
    assert t_values == sorted(t_values)
    vcd = trace.to_vcd_text().splitlines()
    assert vcd[0].startswith("#")


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
    # 18420.0 ns (the 20th, 20 x 921.0) falls on the same float time as a
    # ramp-mode command, a sample edge and a bit clock, and the one at
    # 27630.0 ns on a ramp-mode command and a bit clock: the write times were
    # searched for so that the bit clock lands there. The conversion runs
    # first, in the mode it had before the command.
    "rf-write-during-playback": (
        "\n".join(f"0 write-rf {i} {29 * i + 3}" for i in range(32))
        + "\n18384 play 0 1 1 0\n18389.999999999978 write-rf 12 1000\n"
          "18389.999999999978 write-rf 28 7\n18400 play 1 0 0 1\n18420 ramp-mode on\n"
          "27599.999999999978 write-rf 3 512\n27602 play 1 1 0 0\n27630 ramp-mode off\n"
          "27640 play 0 0 1 1\n",
        28_000.0,
    ),
}

SIM_GOLDEN_SHA256 = {  # (to_csv, to_vcd_text, stats as sorted JSON)
    "bias-refresh": (
        "a47792288a943db331a616f3a1535d05b3390e7ec450c61cffec70363f2df4f0",
        "499affbbd02960c4c99b6f1b108d784afb013aa71c1e1df0c43675a9b70c5f95",
        "9176dcc9414a825101931de3bc3cfac40b9261e0466c121b298ef6d4d3f9c15f",
    ),
    "ramp-mode": (
        "259cec3812a31f69125a29777eaf723ac7074deab7b93560fa90e6d34fa3349b",
        "0a328b83752baf32793ac248c0c29a5a0eab879429b06efcc7b12b89f51cee87",
        "9f0e0246f27a90fb4b1440d03b070ac35b00f4862c844a86625dcd611f02f99e",
    ),
    "playback-backpressure": (
        "1e79a142fa3161a9641c723accbdbca81f5cb2a71e8b9709dddf14ad7f0dbfdc",
        "2d1f24ea5b54c0bc12f928dd499f4664063f39b0238ba1285ca29deea9af5acd",
        "d48750b07e29e34d15bd2ee3d9ac8dc125916923e71444895eb0e76817a75cef",
    ),
    "latch": (
        "692c2f0d2b65ec7aff2afe645e0ec4655bf7f459725d5b7cd14154b53a374215",
        "34dfbf60d5990cb1f9f3a2d6b3ea87f3907f6f8e56a1d0acd0da3784e518ab18",
        "3eb15597f9ebaa1f2672e8992b647e41ef39779ee9c40a2d3c8cca4e3f1aa977",
    ),
    "rf-write-during-playback": (
        "bef4b0aa80a13c81fa01212bf755241af614e606af7c8a0ed4efad5f5691ec75",
        "d5dd50fe8cb662a8fae7f8aa98114aeb3c4fbe71c0440dcd4ba31b4c0e61f119",
        "9ea272a0d69ade3705a54caff4fe04bed1f8692600a480a5127c781524bed867",
    ),
}


@pytest.mark.parametrize("key", sorted(SIM_GOLDEN_SHA256))
def test_simulator_output_golden(baseline, key):
    stimulus, t_end_ns = SIM_GOLDEN_STIMULI[key]
    trace = run_simulation(baseline, stimulus, t_end_ns)
    outputs = (trace.to_csv(), trace.to_vcd_text(), json.dumps(trace.stats, sort_keys=True))
    assert tuple(hashlib.sha256(o.encode()).hexdigest() for o in outputs) \
        == SIM_GOLDEN_SHA256[key]


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
