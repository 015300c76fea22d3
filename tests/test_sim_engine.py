import collections
import hashlib
import heapq
import json
import math
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cryoctrl import (
    ConfigError,
    MemoryArch,
    Node,
    Scenario,
    apply_node,
    baseline_scenario,
    min_hold_cap,
    temperature_adjust,
)
from cryoctrl.config import replace
from cryoctrl.sim import (
    DataInputController,
    DataWord,
    MemoryBank,
    SimulationConfigError,
    StimulusError,
    Simulator,
    Trace,
    TraceEvent,
    WordType,
    encode_dataword,
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


_STIMULUS_TIMES = st.sampled_from(["0", "-0.0", "0.0", "1", "1.0", "1e0", "2.5", "10", "1e-300"])
_STIMULUS_COMMANDS = st.sampled_from(["write-bias 0 1", "write-rf 3 0x1f", "play 0 1 0 1",
                                      "ramp-mode on", "ramp-mode off"])


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.one_of(st.tuples(_STIMULUS_TIMES, _STIMULUS_COMMANDS).map(" ".join),
                                st.sampled_from(["", "# note"])), max_size=12))
def test_parsed_stimulus_is_in_time_then_line_order(lines):
    # repeated times, 0 beside -0.0 included, keep the order of their lines
    commands = parse_stimulus("\n".join(lines))
    assert [c.line for c in commands] == sorted(
        (c.line for c in commands), key=lambda n: (float(lines[n - 1].split()[0]), n))
    assert len(commands) == sum(1 for line in lines if line and not line.startswith("#"))


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
    t_probe = cap.t_set + 5_000 * engine.TICKS_PER_NS
    expect = cap.v * math.exp(-(5_000.0 * 1e-9) / tau)
    assert cap.voltage(t_probe, sim.tau_s) == pytest.approx(expect, rel=1e-12)


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


@pytest.mark.parametrize("section, values, clock", [
    ("spec", {"f_sample_rf": 1e300}, "clk_rf"),    # rounds to a 0-tick period
    ("op", {"f_clk_bias": 1e300}, "clk_bias"),
    ("spec", {"f_sample_rf": 4e20}, "clk_rf"),     # 1.25 ticks would run 25% fast
], ids=["rf-zero-ticks", "bias-zero-ticks", "rf-coarse"])
def test_config_guard_clock_quantisation(section, values, clock):
    sc = baseline_scenario()
    sc = replace(sc, **{section: replace(getattr(sc, section), **values)})
    with pytest.raises(SimulationConfigError, match=f"^{clock}=.* cannot be simulated"):
        Simulator(sc)


def test_a_clock_below_2_thz_is_simulated():
    # 500,000,000.5 ticks a period, the worst rounding at 2 THz or slower
    sc = baseline_scenario()
    sim = Simulator(replace(sc, op=replace(sc.op, f_clk_rf=1e21 / 500_000_000.5)))
    assert 0.99 < sim.clock_quantisation_rel["clk_rf"] / engine.MAX_CLOCK_QUANTISATION_REL < 1


def test_config_guard_pulse_outputs():
    sc = baseline_scenario()
    with pytest.raises(SimulationConfigError, match="n_rf_signals=4"):
        Simulator(replace(sc, spec=replace(sc.spec, n_rf_signals=4)))


def test_config_guard_payload_width():
    sc = baseline_scenario()
    sc = replace(sc, spec=replace(sc.spec, n_bias=22))
    with pytest.raises(SimulationConfigError, match="counter"):
        Simulator(sc)


def _bias_range_scenario(v_range_bias, n_bias=12):
    # a 0.1 nohm switch keeps a subnormal range's refresh rate above 0 Hz, and
    # a 2 MHz bias clock makes the conversion period 1 us, exact in ns
    sc = baseline_scenario()
    return replace(sc, spec=replace(sc.spec, v_range_bias=v_range_bias, n_bias=n_bias),
                   tech=replace(sc.tech, r_off=1e-10), op=replace(sc.op, f_clk_bias=2e6))


@pytest.mark.parametrize("n_bias", [2, 12, 21])
def test_config_guard_bias_code_step(n_bias):
    # A code step, v_range_bias / 2**n_bias, of the smallest float 2**-1074
    # is simulated; a range one float below it is refused, in one line that
    # names both fields
    smallest = math.ldexp(1.0, n_bias - 1074)
    Simulator(_bias_range_scenario(smallest, n_bias))
    with pytest.raises(SimulationConfigError) as refused:
        Simulator(_bias_range_scenario(math.nextafter(smallest, 0), n_bias))
    message = str(refused.value)
    assert "spec.v_range_bias=" in message and f"spec.n_bias={n_bias}" in message
    assert "\n" not in message


def test_stimulus_value_range_checks(baseline):
    with pytest.raises(StimulusError, match="line 1"):
        run_simulation(baseline, "0 write-bias 0 4096\n", 1_000.0)
    with pytest.raises(StimulusError, match="line 1"):
        run_simulation(baseline, "0 play 16 0 0 0\n", 1_000.0)


@pytest.mark.parametrize("bad, n_pulses, message", [
    ("0 write-bias 0 4096", 16, "payload 4096 does not fit in 12 bits"),
    ("0 write-rf 0 -1", 16, "payload -1 does not fit in 10 bits"),
    ("0 write-rf 256 5", 16, "address 256 out of range for the 8-bit address field"),
    ("0 write-bias 9 1", 16, "bias register 9 does not exist in the scenario's memory"),
    ("0 play 16 0 0 0", 16, "sequence id 16 out of range"),
    ("0 play 0 5 0 4", 4, "sequence id 5 beyond the 4 stored sequences"),
], ids=["bias-payload", "rf-payload", "address", "bias-register", "sequence-id",
        "stored-sequences"])
def test_a_refused_command_names_its_line_and_its_fault(baseline, bad, n_pulses, message):
    sim = Simulator(replace(baseline, spec=replace(baseline.spec, n_pulses=n_pulses)))
    with pytest.raises(StimulusError) as refused:
        sim.run(f"0 write-bias 0 1\n{bad}\n", 1_000.0)
    assert str(refused.value) == f"stimulus line 2: {message}"


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


@pytest.mark.parametrize("commands, refused", [
    ([(0, "on"), (9.9, "off")], False),
    ([(0, "on"), (10.1, "off")], True),
    ([(0, "on"), (6, "off"), (50, "on"), (53.9, "off")], False),
    ([(0, "on"), (6, "off"), (50, "on"), (54.1, "off")], True),
    ([(0, "on"), (5, "on"), (10.1, "off")], True),     # a repeated on does not restart
    ([(0, "off"), (90.1, "on")], False),                # on until t_end
    ([(0, "off"), (89.9, "on")], True),
    ([(150, "on")], False),                             # after t_end: never runs
], ids=["under", "over", "two-spans-under", "two-spans-over", "repeated-on",
        "open-span-under", "open-span-over", "after-t_end"])
def test_ramp_steps_bounded_before_the_run(baseline, monkeypatch, commands, refused):
    monkeypatch.setattr(engine, "MAX_RAMP_STEPS", 10)
    sim = Simulator(baseline)
    period_ns = sim.conversion_period_ticks / engine.TICKS_PER_NS
    stimulus = "".join(f"{k * period_ns} ramp-mode {on}\n" for k, on in commands)
    if refused:
        with pytest.raises(ValueError, match="limit of 10 ramp steps"):
            sim.run(stimulus, 100 * period_ns)
        assert sim.trace.events == []
    else:
        sim.run(stimulus, 100 * period_ns)


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
    # times are ticks; a tick is formatted in ns whenever it differs from the
    # previous row's, also where equal ticks are distinct int objects
    trace = Trace()
    t = 3 * engine.TICKS_PER_NS // 2
    t_again = int(str(t))
    assert t_again == t and t_again is not t
    two = 2 * engine.TICKS_PER_NS
    for tick, signal, value in [(0, "a", 0.0), (0, "b", -0.0), (t, "a", 0.1),
                                (t_again, "b", 0.1), (two, "a", -0.0), (two, "b", 1.5),
                                (two + 1, "a", 0.0)]:
        trace.emit(tick, signal, value)
    assert trace.to_csv() == ("t_ns,signal,value\n0.0,a,0.0\n0.0,b,-0.0\n1.5,a,0.1\n"
                              "1.5,b,0.1\n2.0,a,-0.0\n2.0,b,1.5\n2.000000000001,a,0.0\n")
    assert trace.to_vcd_text().splitlines() == [
        "#0.0 a 0.0", "#0.0 b -0.0", "#1.5 a 0.1", "#1.5 b 0.1", "#2.0 a -0.0", "#2.0 b 1.5",
        "#2.000000000001 a 0.0"]


def test_trace_text_formats_an_int_apart_from_an_equal_float():
    # a float value is formatted once per trace; an int equal to it, such as
    # an explicit op.f_clk_bias of 3000000 beside a derived 3e6 clk_rf_hz,
    # keeps its own text in either order
    trace = Trace()
    for tick, signal, value in [(0, "a", 3_000_000), (0, "b", 3e6), (1, "a", 3e6),
                                (1, "b", 3_000_000)]:
        trace.emit(tick, signal, value)
    assert [line.split(",")[2] for line in trace.to_csv().splitlines()[1:]] == [
        "3000000", "3000000.0", "3000000.0", "3000000"]


# Trace text against a formatter of one row at a time, the text's definition.
_TEXT_TICKS = st.one_of(
    st.sampled_from([0, 1, 3 * engine.TICKS_PER_NS // 2, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1]),
    st.integers(0, 2 ** 70))
_TEXT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-310, -1e-310, 0.1, 3e6, 3_000_000]),
    st.floats(), st.integers(-2 ** 70, 2 ** 70))


@st.composite
def _built_traces(draw):
    """A trace built with ``signal``, ``append``, ``extend`` and ``emit``, and
    its rows as ``(tick, signal name, value)``."""
    trace, rows = Trace(), []
    names = st.text("abxy_0", min_size=1, max_size=3)
    signals = []   # (index, name, values by code)
    for _ in range(draw(st.integers(0, 3))):
        name, table = draw(names), draw(st.lists(_TEXT_VALUES, min_size=1, max_size=3))
        signals.append((trace.signal(name, table.__getitem__), name, table))
    for _ in range(draw(st.integers(0, 6))):
        t, count = draw(_TEXT_TICKS), draw(st.integers(1, 4))   # a run of rows at one tick
        op = draw(st.sampled_from(["emit", "append", "extend"] if signals else ["emit"]))
        if op == "emit":
            for _ in range(count):
                name, value = draw(names), draw(_TEXT_VALUES)
                trace.emit(t, name, value)
                rows.append((t, name, value))
            continue
        picks = [(s, draw(st.integers(0, len(signals[s][2]) - 1)))
                 for s in draw(st.lists(st.integers(0, len(signals) - 1),
                                        min_size=count, max_size=count))]
        if op == "append":
            for s, c in picks:
                trace.append(t, signals[s][0], c)
        else:
            trace.extend([t] * count, [signals[s][0] for s, _ in picks], [c for _, c in picks])
        rows += [(t, signals[s][1], signals[s][2][c]) for s, c in picks]
    return trace, rows


@settings(max_examples=200, deadline=None)
@example(built=(Trace(), []))
@given(built=_built_traces())
def test_trace_text_equals_a_row_by_row_reference(built):
    trace, rows = built

    def text_rows(prefix, sep):
        return [f"{prefix}{t / engine.TICKS_PER_NS!r}{sep}{name}{sep}{value!r}"
                for t, name, value in rows]

    assert trace.to_csv() == "\n".join(["t_ns,signal,value", *text_rows("", ",")]) + "\n"
    assert trace.to_vcd_text() == "\n".join(text_rows("#", " ")) + "\n"
    for size in (1, 2, 3, engine.TEXT_CHUNK_ROWS):
        with mock.patch.object(engine, "TEXT_CHUNK_ROWS", size):
            streamed = ((list(trace.csv_chunks()), 1, trace.to_csv()),
                        (list(trace.vcd_chunks()), 0, trace.to_vcd_text()))
        for chunks, head, whole in streamed:
            assert "".join(chunks) == whole
            # every piece but the last holds exactly ``size`` rows
            lines = [chunk.count("\n") for chunk in chunks]
            lines[0] -= head
            assert all(n == size for n in lines[:-1]) and lines[-1] <= size
            assert len(chunks) == max(1, -(-len(rows) // size))


def test_trace_event_is_a_named_tuple():
    t = 3 * engine.TICKS_PER_NS // 2
    e = TraceEvent(t, "rf_a", 0.25)
    assert (e.t, e.signal, e.value) == (t, "rf_a", 0.25)
    assert e.t_ns == 1.5
    assert e == (t, "rf_a", 0.25)
    with pytest.raises(AttributeError):
        e.t_ns = 2.0


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
    # refresh and ramp rows on a subnormal bias range (in SIM_GOLDEN_SCENARIOS),
    # where code * (v_range_bias / 2**n_bias) is not code / 2**n_bias *
    # v_range_bias: bias_e1 must read 9.99755859375e-311, as refresh computes it
    "subnormal-bias-range": (
        "0 write-bias 0 3\n0 write-bias 1 4095\n0 write-bias 8 2\n"
        "100000 ramp-mode on\n130000 ramp-mode off\n",
        200_000.0,
    ),
}

# the golden stimuli that run on a scenario other than the baseline
SIM_GOLDEN_SCENARIOS = {
    "subnormal-bias-range": replace(
        baseline_scenario(), spec=replace(baseline_scenario().spec, v_range_bias=1e-310),
        op=replace(baseline_scenario().op, f_clk_bias=3e6)),
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
    "subnormal-bias-range": (
        "d676c36de5b66d73242005f7368bfee6f6cd1b6862cd4d32567f497a7f2fbab1",
        "80cf8b4b5c4388dc605369bcb1b93792e300b8385aa8b4724a615f0a53c64ce2",
        "0c6a201e99c4d0ff00630cdc3a69f1d4b9603a8edbd6dc65fa849b8aea61752c",
    ),
}


@pytest.mark.parametrize("key", sorted(SIM_GOLDEN_SHA256))
def test_simulator_output_golden(baseline, key):
    stimulus, t_end_ns = SIM_GOLDEN_STIMULI[key]
    trace = run_simulation(SIM_GOLDEN_SCENARIOS.get(key, baseline), stimulus, t_end_ns)
    outputs = (trace.to_csv(), trace.to_vcd_text(), json.dumps(trace.stats, sort_keys=True))
    assert tuple(hashlib.sha256(o.encode()).hexdigest() for o in outputs) \
        == SIM_GOLDEN_SHA256[key]


@pytest.mark.parametrize("key", sorted(SIM_GOLDEN_STIMULI))
def test_trace_keeps_ticks(baseline, key):
    # one time representation: events hold the integer tick, and nanoseconds
    # are derived from it where a trace is read
    trace = run_simulation(baseline, *SIM_GOLDEN_STIMULI[key])
    assert trace.events
    for e in trace.events:
        assert type(e.t) is int
        assert e.t_ns == e.t / engine.TICKS_PER_NS


@pytest.mark.parametrize("key", sorted(SIM_GOLDEN_STIMULI))
def test_trace_length_counts_its_events(baseline, key):
    stimulus, t_end_ns = SIM_GOLDEN_STIMULI[key]
    trace = run_simulation(SIM_GOLDEN_SCENARIOS.get(key, baseline), stimulus, t_end_ns)
    assert len(trace) == len(trace.events) > 0


def test_a_run_and_its_text_build_no_trace_event(baseline, monkeypatch):
    # the trace keeps columns of codes; rows are built only where read
    def refuse(*_):
        raise AssertionError("a TraceEvent was built")

    monkeypatch.setattr(engine, "TraceEvent", refuse)
    for stimulus, t_end_ns in SIM_GOLDEN_STIMULI.values():
        trace = run_simulation(baseline, stimulus, t_end_ns)
        trace.to_csv()
        trace.to_vcd_text()
        assert len(trace) > 2


def test_no_nanosecond_mirrors(baseline):
    sim = Simulator(baseline)
    sim.run("0 write-bias 0 2048\n0 write-rf 0 5\n20000 play 0 0 0 0\n", 30_000.0)
    for obj in (sim, sim.caps[0], sim.bias_ctrl, sim.rf_ctrl):
        assert not [n for n in dir(obj) if n.endswith("_ns")], type(obj).__name__
    assert not hasattr(sim, "electrode_voltage")


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
    _, trace, ticks = _handler_ticks(baseline, *SIM_GOLDEN_STIMULI["play-at-last-sample-edge"])
    assert len(ticks["command_received"]) == 2
    samples = [e.t for e in trace.of("rf_a")]
    assert ticks["command_received"][1] == samples[31]   # 2 x 16 samples


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


def _rows_at(trace, t):
    return [(e.signal, e.value) for e in trace.events if e.t == t]


def test_a_command_sent_at_a_reception_tick_applies_first(baseline):
    # The play's frame is in exactly 17 RF clocks later, on the tick of the
    # ramp-mode command: the command sent then applies before the reception
    # latches the play.
    sim = Simulator(baseline)
    tie = engine.RF_COMMAND_BITS * sim.t_rf_ticks
    assert engine.to_ticks(28.333333333339) == tie
    trace = sim.run("0 play 0 0 0 0\n28.333333333339 ramp-mode on\n", 200.0)
    assert _rows_at(trace, tie) == [("ramp_mode", 1.0), ("latch_transfer", 1.0)]


def test_writes_around_a_ramp_mode_at_one_tick_land_in_file_order(baseline):
    sim = Simulator(baseline)
    t_rf, tick = sim.t_rf_ticks, 100 * sim.t_rf_ticks
    t_ns = tick / engine.TICKS_PER_NS
    trace = sim.run(f"{t_ns!r} write-bias 3 5\n{t_ns!r} ramp-mode on\n"
                    f"{t_ns!r} write-rf 7 9\n{t_ns!r} ramp-mode off\n"
                    f"{t_ns!r} write-bias 1 11\n", 1_000.0)
    assert _rows_at(trace, tick) == [("ramp_mode", 1.0), ("ramp_mode", 0.0)]
    assert [e.value for e in trace.of("write_select")] == [3.0, 7.0, 1.0]
    # the words follow each other on the line, each from the clock after
    # the previous word's feedback
    ends = [tick + (10 + 2 * 12 - 1) * t_rf]
    ends.append(ends[-1] + (10 + 2 * 10) * t_rf)
    ends.append(ends[-1] + (10 + 2 * 12) * t_rf)
    assert [e.t for e in trace.of("feedback")] == ends
    assert (sim.memory.bias[3], sim.memory.rf[7], sim.memory.bias[1]) == (5, 9, 11)
    assert not sim.bias_ctrl.ramp_mode


def test_commands_at_one_tick_apply_by_written_time_then_line(baseline):
    # 1e-13 ns rounds to tick 0, as 0 does; the commands sent at tick 0 go
    # out in the order of their written times, then of their lines, so the
    # word of line 2 goes first, then line 3's and, last, line 1's
    assert engine.to_ticks(1e-13) == 0
    sim = Simulator(baseline)
    trace = sim.run("1e-13 write-bias 0 5\n0 write-bias 0 7\n0 write-bias 1 3\n", 1_000.0)
    assert [e.value for e in trace.of("write_select")] == [0.0, 1.0, 0.0]
    assert sim.memory.bias[:2] == [5, 3]


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
    sim.run(f"0 write-bias 0 2048\n{t_play!r} play 0 0 0 0\n", t_end_ns)
    assert [e.t for e in sim.trace.of("rf_a")] == [(k + j) * sample for j in range(32)]
    assert sim.bias_ctrl.index == k + 1   # the last conversion ran at k * period
    assert sim.caps[k % 8].t_set == k * period


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
# a command at t_end_ns: both round to one tick, half a tick above t_end_ns
@example(commands=[(1000.4183035820065, ("ramp-mode", "on"))], t_end_ns=1000.4183035820065)
def test_trace_ordered_and_bias_emitted_on_change(commands, t_end_ns):
    stimulus = _stimulus_text(commands)
    trace = run_simulation(baseline_scenario(), stimulus, t_end_ns)
    times = [e.t_ns for e in trace.events]
    assert times == sorted(times)
    assert times[-1] <= trace.stats["t_end_ns"] == engine.to_ticks(t_end_ns) / engine.TICKS_PER_NS
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
    # 20262.0 ns. The command at 0 bounds the first conversion, so at least
    # one returned edge goes through heappushpop.
    loads = [(0.0, ("write-rf", a, (37 * a) % 1024)) for a in range(16 * n_loaded)]
    stimulus = _stimulus_text([(0.0, ("ramp-mode", "off"))] + loads + commands)
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
    assert pushpops
    assert slow.to_csv() == fast.to_csv()
    assert slow.stats == fast.stats


class _CutSimulator(Simulator):
    """A simulator that also queues a no-op event at each of ``cuts`` up to
    the end of the run: a horizon that ends every clocked block running
    across it, and does nothing else."""

    def __init__(self, scenario, cuts):
        super().__init__(scenario)
        self.cuts = cuts

    def run(self, stimulus, t_end_ns):
        t_end = engine.to_ticks(t_end_ns)
        for i, (t, priority) in enumerate(self.cuts):
            if t <= t_end:   # negative sequence numbers never tie with the run's
                heapq.heappush(self._queue, (t, priority, -1 - i, lambda t, _: None, None))
        return super().run(stimulus, t_end_ns)


_GRID = Simulator(baseline_scenario())
# Ticks on the RF clock's grid or the conversions', below 4096 ns, where a
# time's repr parses back to its exact tick; within 2 us, so commands,
# serial clocks, sample edges and receptions share ticks often.
_grid_tick = (st.integers(0, 1_200).map(lambda k: k * _GRID.t_rf_ticks)
              | st.integers(0, 2).map(lambda k: k * _GRID.conversion_period_ticks))


@settings(max_examples=150, deadline=None)
@given(n_loaded=st.integers(0, 2),
       commands=st.lists(st.tuples(_grid_tick, _command), max_size=20),
       cuts=st.lists(st.tuples(_grid_tick | st.integers(0, 2_200 * 10 ** 12),
                               st.sampled_from([engine.PRIORITY_BIAS, engine.PRIORITY_RF])),
                     max_size=12),
       t_end=_grid_tick.filter(bool))
# a play received on the tick of a ramp-mode and a write, cut there and
# during the write's shift and the played sequence
@example(n_loaded=1,
         commands=[(0, ("play", 0, 0, 0, 0)), (17 * _GRID.t_rf_ticks, ("ramp-mode", "on")),
                   (17 * _GRID.t_rf_ticks, ("write-bias", 0, 5))],
         cuts=[(17 * _GRID.t_rf_ticks, engine.PRIORITY_RF), (40 * _GRID.t_rf_ticks, engine.PRIORITY_BIAS),
               (1_000 * _GRID.t_rf_ticks, engine.PRIORITY_RF)],
         t_end=1_200 * _GRID.t_rf_ticks)
def test_the_trace_does_not_depend_on_where_blocks_are_cut(n_loaded, commands, cuts, t_end):
    # Each clock runs its edges in blocks up to the next queued event, so an
    # event that does nothing must leave every row and statistic unchanged.
    loads = [(0.0, ("write-rf", a, (37 * a) % 1024)) for a in range(16 * n_loaded)]
    stimulus = _stimulus_text(loads + [(t / engine.TICKS_PER_NS, c) for t, c in commands])
    t_end_ns = t_end / engine.TICKS_PER_NS
    plain = Simulator(baseline_scenario()).run(stimulus, t_end_ns)
    cut = _CutSimulator(baseline_scenario(), cuts).run(stimulus, t_end_ns)
    assert cut.to_csv() == plain.to_csv()
    assert cut.stats == plain.stats


def _one_edge_per_call(stimulus, t_end_ns):
    """The reference engine: with no horizon ahead, each handler call takes
    one edge, so a data word advances one clock per call, and no quiet round
    is skipped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.Simulator, "horizon", lambda self: -1)
        return run_simulation(baseline_scenario(), stimulus, t_end_ns)


def _with_golden_examples(test):
    for stimulus, t_end_ns in SIM_GOLDEN_STIMULI.values():
        test = example(stimulus=stimulus, t_end_ns=t_end_ns)(test)
    return test


_loaded_stimulus = st.builds(
    lambda n_loaded, commands: _stimulus_text(
        [(0.0, ("write-rf", a, (37 * a) % 1024)) for a in range(16 * n_loaded)] + commands),
    st.integers(0, 4),
    st.lists(st.tuples(st.floats(0, 25_000), _command), max_size=30))


@settings(max_examples=100, deadline=None)
@given(stimulus=_loaded_stimulus, t_end_ns=st.floats(1_000, 30_000))
@_with_golden_examples
def test_blocks_match_one_edge_per_call(stimulus, t_end_ns):
    # Every clock runs its edges up to the next queued event in one call and
    # a data word that completes before it lands whole; RF writes during
    # playback, plays inside a running sequence and conversions during a
    # shift must give the same trace as one edge per call.
    fast = run_simulation(baseline_scenario(), stimulus, t_end_ns)
    slow = _one_edge_per_call(stimulus, t_end_ns)
    assert fast.to_csv() == slow.to_csv()
    assert fast.to_vcd_text() == slow.to_vcd_text()
    assert fast.stats == slow.stats


def test_a_conversion_during_the_write_clocks_reads_the_partly_shifted_code(baseline):
    # Conversion 16 recharges electrode 0 after k of the 12 write clocks of
    # the second word: the register holds the old code shifted up by k with
    # the payload's top k bits below it. Conversion 24 reads the payload.
    old, new, k = 2730, 240, 5
    sim = Simulator(baseline)
    period, t_rf = sim.conversion_period_ticks, sim.t_rf_ticks
    # the conversion falls half a clock after the k-th write clock, which is
    # clock 10 + 12 + k - 1 of the frame
    t_write_ns = (16 * period - (10 + 12 + k - 0.5) * t_rf) / engine.TICKS_PER_NS
    stimulus = f"0 write-bias 0 {old}\n{t_write_ns!r} write-bias 0 {new}\n"
    t_end_ns = 25 * period / engine.TICKS_PER_NS
    trace = sim.run(stimulus, t_end_ns)
    mixed = (old << k | new >> (12 - k)) & 4095
    assert [(e.t, e.value * 4096) for e in trace.of("bias_e0")] == [
        (8 * period, old), (16 * period, mixed), (24 * period, new)]
    assert trace.to_csv() == _one_edge_per_call(stimulus, t_end_ns).to_csv()


_data_word = st.one_of(
    st.builds(lambda a, p: DataWord(WordType.BIAS, a, p, 12),
              st.integers(0, 8), st.integers(0, 4095)),
    st.builds(lambda a, p: DataWord(WordType.RF, a, p, 10),
              st.integers(0, 255), st.integers(0, 1023)))


@settings(max_examples=200, deadline=None)
@given(word=_data_word, old=st.integers(0, 4095), start=st.integers(0, 10 ** 6),
       blocks=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 10 ** 13)), max_size=8))
def test_a_word_in_blocks_matches_the_clocked_reception(word, old, start, blocks):
    # Reference: DataInputController.step fed the word's frame, then zeros,
    # from the same old register value. The simulator advances the word in
    # blocks: a horizon in the size-th clock period after the block's first
    # clock bounds it to that many clocks, or to its first clock alone for a
    # horizon at or before it (size 0). After every block the rows so far and
    # the register must match.
    old &= (1 << word.width) - 1
    sim = Simulator(baseline_scenario())
    period = sim.t_rf_ticks
    bank = sim.memory.bias if word.kind is WordType.BIAS else sim.memory.rf
    bank[word.address] = old
    sim._frames.append(word)

    ref_memory = MemoryBank(12, 10, len(sim.memory.bias), len(sim.memory.rf))
    ref_bank = ref_memory.bias if word.kind is WordType.BIAS else ref_memory.rf
    ref_bank[word.address] = old
    ref = DataInputController(ref_memory, 12, 10)
    bits = encode_dataword(word)
    n_clocks = len(bits) + word.width
    t0 = start * period
    rows, registers = [], []
    for j in range(n_clocks):
        t = t0 + j * period
        rows += [(t, s, v) for s, v in ref.step(int(bits[j]) if j < len(bits) else 0)]
        registers.append(ref_bank[word.address])
    assert not ref.busy

    clock = 0
    for size, lag in blocks:
        if clock + max(1, size) >= n_clocks:
            break
        t = t0 + clock * period
        horizon = t + size * period - lag % period
        sim.horizon = lambda: horizon
        clock += max(1, size)
        assert sim._word_clock_event(t, None) == t0 + clock * period
        assert sim.trace.events == [r for r in rows if r[0] < t0 + clock * period]
        assert bank[word.address] == registers[clock - 1]
    sim.horizon = lambda: t0 + n_clocks * period + 10 ** 15
    assert sim._word_clock_event(t0 + clock * period, None) is None
    assert sim.trace.events == rows
    assert bank[word.address] == registers[-1] == word.payload
    assert not sim._frames and sim._frame_pos == 0


def _counting(counts, key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


@settings(max_examples=60, deadline=None)
@given(n_loaded=st.integers(0, 4),
       commands=st.lists(st.tuples(st.floats(0, 25_000), _command), max_size=30))
def test_clocks_run_only_while_busy(n_loaded, commands):
    # Wrappers installed on the classes, as the benchmark's tracer installs
    # its own: every call of the sample clock emits a sample (no idle edge),
    # and each data word's feedback comes 10 + 2 x width - 1 RF clocks after
    # its first clock, which is its write time on a free line or the clock
    # after the previous word's feedback (no idle clock).
    loads = [(0.0, ("write-rf", a, (37 * a) % 1024)) for a in range(16 * n_loaded)]
    stimulus = _stimulus_text(loads + commands)
    t_end_ns = 25_000.0 + 60.0 * len(loads + commands) + 2_000.0
    emitted = []
    sample_edge = engine.RfController.sample_edge

    def counting_samples(self, t, arg):
        before = self.sim.rf_samples_emitted
        t_next = sample_edge(self, t, arg)
        emitted.append(self.sim.rf_samples_emitted - before)
        return t_next

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.RfController, "sample_edge", counting_samples)
        sim = Simulator(baseline_scenario())
        trace = sim.run(stimulus, t_end_ns)
    assert sum(emitted) == trace.stats["rf_samples_emitted"]
    assert all(n >= 1 for n in emitted)
    widths = {"write-bias": 12, "write-rf": 10}
    feedback, last = [], None
    for c in parse_stimulus(stimulus):
        if c.op in widths:
            t = engine.to_ticks(c.t_ns)
            start = t if last is None or t > last else last + sim.t_rf_ticks
            last = start + (10 + 2 * widths[c.op] - 1) * sim.t_rf_ticks
            feedback.append(last)
    assert [e.t for e in trace.of("feedback")] == feedback


# Gaps between plays around one command word's 2 x 16 samples (~106.7 ns), so
# that staging fills and frees, and plays share a tick or a sample period.
_PLAY_GAPS_NS = (0.0, 1.0, 3.3, 20.0, 50.0, 106.0, 107.0, 110.0, 150.0, 300.0)


@st.composite
def _play_stream(draw):
    n_loaded, rng = draw(st.integers(1, 4)), draw(st.randoms(use_true_random=False))
    codes = [rng.randrange(1024) for _ in range(16 * n_loaded)]
    t, plays = 20_000.0, []
    for _ in range(draw(st.integers(1, 30))):
        t += draw(st.sampled_from(_PLAY_GAPS_NS))
        plays.append((t, tuple(rng.randrange(n_loaded) for _ in range(4))))
    return codes, plays


@settings(max_examples=150, deadline=None)
@given(stream=_play_stream())
def test_the_rf_player_matches_a_reference_of_its_queue(stream):
    # Reference: a command word is held from its reception, 17 RF clocks
    # after its play, through its last sample; a reception is refused exactly
    # when two words are held. An accepted word is latched when the word
    # before it has played, and its first sample is on the next sample edge
    # at or after that.
    codes, plays = stream
    period, l_pulse, lsb = _GRID.sample_period_ticks, _GRID.l_pulse, _GRID.rf_lsb
    loads = [(0.0, ("write-rf", addr, code)) for addr, code in enumerate(codes)]
    stimulus = _stimulus_text(loads + [(t, ("play", *ids)) for t, ids in plays])
    trace = run_simulation(baseline_scenario(), stimulus, plays[-1][0] + 1_000.0)

    refused, latched, samples = [], [], {"rf_a": [], "rf_b": []}
    ends, lasts = [], []   # the last sample tick of each accepted word
    for t_ns, ids in plays:
        received = engine.to_ticks(t_ns) + engine.RF_COMMAND_BITS * _GRID.t_rf_ticks
        if sum(last >= received for last in lasts[-2:]) == 2:
            refused.append(received)
            continue
        previous = lasts[-1] if lasts else -period
        latched.append(max(received, previous))
        start = max(-(-received // period) * period, previous + period)
        for id_a, id_b in (ids[:2], ids[2:]):
            for k in range(l_pulse):
                tick = start + k * period
                samples["rf_a"].append((tick, codes[id_a * l_pulse + k] * lsb))
                samples["rf_b"].append((tick, codes[id_b * l_pulse + k] * lsb))
            start += l_pulse * period
            ends.append(start - period)
        lasts.append(ends[-1])

    rows = collections.defaultdict(list)   # signal -> its (tick, value) rows
    for e in trace.events:
        rows[e.signal].append((e.t, e.value))
    assert [t for t, _ in rows["rf_cmd_ignored"]] == refused
    for signal, expected in samples.items():
        assert rows[signal] == expected
        assert all(t % period == 0 for t, _ in rows[signal])
    assert [t for t, _ in rows["latch_transfer"]] == latched
    assert [t for t, _ in rows["end_sequ"]] == ends
    assert trace.stats["rf_samples_emitted"] == 2 * l_pulse * len(lasts)
    assert trace.stats["backpressure_count"] == len(refused)


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
    t_rf_ns = sim.t_rf_ticks / engine.TICKS_PER_NS
    sim.run(_stimulus_text(writes), len(writes) * 40 * t_rf_ns + 1_000.0)
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
    registers = sim.n_electrodes + 1
    period_ns = sim.conversion_period_ticks / engine.TICKS_PER_NS
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
        mp.setattr(engine.BiasController, "skip_quiet_rounds", lambda self, horizon: None)
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
    t_end_ns = t_end * (sim.conversion_period_ticks / engine.TICKS_PER_NS)
    fast, fast_conversions = _run_counting_conversions(scenario, stimulus, t_end_ns)
    slow, slow_conversions = _per_conversion(scenario, stimulus, t_end_ns)
    assert fast.to_csv() == slow.to_csv()
    assert fast.stats == slow.stats
    assert fast_conversions <= slow_conversions


def _one_ramp_step_per_call(conversion):
    """The reference: a ramp step is one ``refresh_electrode`` call, and the
    conversion returns its next edge after it; refresh mode is unchanged."""
    def wrapper(self, t, arg):
        if not self.ramp_mode:
            return conversion(self, t, arg)
        sim, n = self.sim, self.sim.n_electrodes
        code = self.ramp_counter
        self.ramp_counter = (code + 1) % (1 << sim.n_bias)
        sim.refresh_electrode(t, sim.memory.bias[n] % n, code)
        self.index += 1
        return self.index * sim.conversion_period_ticks
    return wrapper


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(_SCENARIOS_FOR_SKIP)), n_bias=st.integers(2, 12),
       loads=st.lists(_code, max_size=9),
       windows=st.lists(st.tuples(_periods, st.integers(1, 300) | st.floats(0, 300)),
                        max_size=3),
       writes=st.lists(st.tuples(_periods, st.integers(0, 8), _code), max_size=6),
       t_end=st.floats(1, 800))
# a 2-bit counter wraps 3 -> 0 within the window, and a write to the target
# register (8) lands mid-window
@example(name="baseline", n_bias=2, loads=[3, 1], windows=[(20, 30)],
         writes=[(32, 8, 1)], t_end=60.0)
# the write to register 8 moves the ramp back to electrode 0, which has held
# code 1 since step 22; its first step there, at 38, is code 1 again: a
# recharge after 16 periods, the largest droop of the run
@example(name="r_off x 0.01", n_bias=2, loads=[1, 0, 0, 0, 0, 0, 0, 0, 1],
         windows=[(20, 30)], writes=[(35, 8, 0)], t_end=60.0)
def test_ramp_blocks_match_one_refresh_per_step(name, n_bias, loads, windows, writes, t_end):
    scenario = _SCENARIOS_FOR_SKIP[name]
    scenario = replace(scenario, spec=replace(scenario.spec, n_bias=n_bias))
    sim = Simulator(scenario)
    registers, mask = sim.n_electrodes + 1, (1 << n_bias) - 1
    period_ns = sim.conversion_period_ticks / engine.TICKS_PER_NS
    lines = [f"0 write-bias {reg} {code & mask}" for reg, code in enumerate(loads[:registers])]
    for start, length in windows:
        lines += [f"{start * period_ns!r} ramp-mode on",
                  f"{(start + length) * period_ns!r} ramp-mode off"]
    lines += [f"{t * period_ns!r} write-bias {reg % registers} {code & mask}"
              for t, reg, code in writes]
    stimulus = "\n".join(lines) + "\n"
    t_end_ns = t_end * period_ns
    fast = run_simulation(scenario, stimulus, t_end_ns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.BiasController, "conversion",
                   _one_ramp_step_per_call(engine.BiasController.conversion))
        slow = run_simulation(scenario, stimulus, t_end_ns)
    assert fast.to_csv() == slow.to_csv()
    assert fast.stats == slow.stats   # max_refresh_deviation_v included


def _run_counting_refreshes(scenario, stimulus, t_end_ns):
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.Simulator, "refresh_electrode",
                   _counting(counts, "refresh", engine.Simulator.refresh_electrode))
        trace = run_simulation(scenario, stimulus, t_end_ns)
    return trace, counts["refresh"]


def test_quiet_rounds_cost_nothing():
    # bias only, 1 ms at a hundredth of the off-resistance: ~108k conversion
    # periods, of which only those near the serial writes run one by one
    scenario = _SCENARIOS_FOR_SKIP["r_off x 0.01"]
    stimulus = "".join(f"0 write-bias {e} {511 * (e + 1)}\n" for e in range(8))
    fast, fast_refreshes = _run_counting_refreshes(scenario, stimulus, 1e6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.BiasController, "skip_quiet_rounds", lambda self, horizon: None)
        slow, slow_refreshes = _run_counting_refreshes(scenario, stimulus, 1e6)
    assert slow_refreshes > 100_000
    assert fast_refreshes < 100
    assert fast.to_csv() == slow.to_csv()
    assert fast.stats == slow.stats


def test_a_stimulus_that_is_never_quiet_tries_no_skip(baseline):
    # A bias write every 0.7 refresh rounds, up to the end of the run: no
    # whole round fits before the next event, so no conversion tries a skip
    sim = Simulator(baseline)
    every = 0.7 * sim.n_electrodes * sim.conversion_period_ticks / engine.TICKS_PER_NS
    writes = 200
    stimulus = "".join(f"{k * every!r} write-bias {k % 8} {797 * k % 4096}\n"
                       for k in range(writes))
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.BiasController, "skip_quiet_rounds",
                   _counting(counts, "skip", engine.BiasController.skip_quiet_rounds))
        fast = run_simulation(baseline, stimulus, writes * every)
    slow, _ = _per_conversion(baseline, stimulus, writes * every)
    assert counts["skip"] == 0
    assert fast.to_csv() == slow.to_csv()
    assert fast.stats == slow.stats


@settings(max_examples=60, deadline=None)
@given(n_bias=st.integers(2, 21), scale=st.floats(0, 80), target=st.integers(0, 3),
       start=st.integers(0, 20), steps=st.integers(1, 40))
@example(n_bias=12, scale=0.0, target=1, start=3, steps=19)
def test_a_ramp_step_is_one_row_from_the_smallest_range(n_bias, scale, target, start,
                                                        steps):
    # From the smallest bias range the simulator takes, consecutive codes
    # decode to different values: each ramp step after the first is one row
    # of its target, as one refresh per step gives
    scenario = _bias_range_scenario(math.ldexp(1.0, n_bias - 1074) * 2.0 ** scale, n_bias)
    period = Simulator(scenario).conversion_period_ticks
    t_on, t_off = start * period, (start + steps) * period
    stimulus = (f"0 write-bias 8 {target}\n{t_on / engine.TICKS_PER_NS!r} ramp-mode on\n"
                f"{t_off / engine.TICKS_PER_NS!r} ramp-mode off\n")
    t_end_ns = (start + steps + 5) * period / engine.TICKS_PER_NS
    fast = run_simulation(scenario, stimulus, t_end_ns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.BiasController, "conversion",
                   _one_ramp_step_per_call(engine.BiasController.conversion))
        slow = run_simulation(scenario, stimulus, t_end_ns)
    assert fast.to_csv() == slow.to_csv()
    assert fast.stats == slow.stats
    # bias runs first at a tick: the steps are the conversions t_on + period .. t_off
    rows = [e.t for e in fast.of(f"bias_e{target}") if t_on + period < e.t <= t_off]
    assert len(rows) == steps - 1


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_SCENARIOS_FOR_SKIP)),
       commands=st.lists(st.tuples(st.floats(0, 39_999),
                                  _skip_command.filter(lambda c: c[0] != "ramp-window")),
                         max_size=12))
def test_a_run_far_past_the_last_command_ends_as_a_short_one(name, commands):
    # After the last command, every refresh round is quiet: a run to any
    # later end gives the same trace and droop, and costs at most the
    # conversions of one more partial round
    scenario = _SCENARIOS_FOR_SKIP[name]
    n = scenario.spec.n_bias_signals
    lines = []
    for t_ns, (op, *args) in commands:
        if op == "write-bias":
            args[0] %= n + 1
        lines.append(f"{t_ns!r} {op} " + " ".join(map(str, args)))
    stimulus = "\n".join(lines) + "\n"
    short, short_refreshes = _run_counting_refreshes(scenario, stimulus, 300e3)
    for t_end_ns in (10e9, 1e30, 1.7e308):
        long, long_refreshes = _run_counting_refreshes(scenario, stimulus, t_end_ns)
        assert long.to_csv() == short.to_csv()
        assert (long.stats["max_refresh_deviation_v"]
                == short.stats["max_refresh_deviation_v"])
        assert long_refreshes <= short_refreshes + n


@settings(max_examples=80, deadline=None)
@given(node=st.sampled_from(list(Node)), memory_arch=st.sampled_from(list(MemoryArch)),
       n=st.integers(1, 16), margin=st.floats(0.5, 4),
       r_off_multiplier=st.floats(-2, 2).map(lambda x: 10.0 ** x),
       t_el=st.floats(0.05, 4.2),
       codes=st.lists(st.integers(0, 4095), min_size=1, max_size=17),
       rounds=st.integers(2, 8))
@example(node=Node.NODE_65NM, memory_arch=MemoryArch.FLIP_FLOP, n=8, margin=1.0,
         r_off_multiplier=0.01, t_el=0.05, codes=[4095], rounds=8)
def test_any_built_scenario_keeps_the_droop_bound(node, memory_arch, n, margin,
                                                   r_off_multiplier, t_el, codes, rounds):
    # The estimator's sizing and the simulator agree on every scenario that
    # can be built: it is refused before the first event, or each electrode
    # refreshed at the derived clock droops by at most n_bias_signals * dv_bias.
    base = Scenario()
    try:
        sc = Scenario(
            spec=replace(base.spec, n_bias_signals=n),
            tech=replace(apply_node(base.tech, node), r_off_multiplier=r_off_multiplier),
            memory_arch=memory_arch,
            c_h=margin * min_hold_cap(n, base.spec.dv_bias, base.op.t_el).value,
        )
        sim = Simulator(temperature_adjust(sc, t_el))
    except (ConfigError, SimulationConfigError):
        return
    writes = [f"0 write-bias {e} {codes[e % len(codes)]}" for e in range(n)]
    # each word takes 34 RF clocks on the serial line, then several rounds
    t_rf_ns = sim.t_rf_ticks / engine.TICKS_PER_NS
    period_ns = sim.conversion_period_ticks / engine.TICKS_PER_NS
    t_end_ns = n * 40 * t_rf_ns + rounds * n * period_ns
    trace = sim.run("\n".join(writes), t_end_ns)
    times = [e.t_ns for e in trace.events]
    assert times == sorted(times)
    assert max(trace.stats["max_refresh_deviation_v"]) <= n * sc.spec.dv_bias
