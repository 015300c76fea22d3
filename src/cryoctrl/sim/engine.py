"""Deterministic event-level simulation of the digital control system.

Two clock domains drive the machine: the bias domain (sample-and-hold
refresh and ramp generation) and the RF domain (serial data input and pulse
playback). The event queue is ordered by (time, domain priority, sequence
number); the bias domain has priority at equal times, and the sequence
number makes ordering total, so a given stimulus always produces a
bit-identical trace.

Time is an integer count of ticks of 1e-21 s (``TICKS_PER_NS``). Each clock
period, stimulus time and end time is rounded to the nearest tick once, so
every edge is an exact multiple of its period and equal times are equal
ticks; ``trace.stats["clock_quantisation_rel"]`` gives each clock's period
error. Trace times and the ``*_ns`` attributes are float nanoseconds,
``ticks / TICKS_PER_NS`` correctly rounded.

Each clocked unit is one queue handler that returns its next edge time,
or ``None`` once its clock stops, instead of pushing it:

- ``BiasController.conversion``: every ``conversion_period_ticks``, never
  stops. In refresh mode, once a full round has run since the last bias
  write clock or ramp-mode command, the rounds up to the next event repeat
  it and are skipped in closed form (``BiasController.skip_quiet_rounds``).
- ``Simulator._word_clock_event``, the serial data line: one bit per RF
  clock while ``DataInputController.busy``, then the next queued frame.
- ``RfController.sample_edge``: the sample clock runs while a pair is active
  or latched; ``command_received`` starts it on the grid when neither is.

``Simulator.run`` hands a returned edge, with the next sequence number, to
``heapq.heappushpop``: the same push-then-pop on the same ``(time, priority,
sequence)`` keys, so the event order is unchanged, as every handler makes
its other pushes before it returns. A play reaches ``command_received``
``RF_COMMAND_BITS`` RF clocks after its time, once its frame is in.

Analog behaviour is idealized: DACs convert straight-binary unipolar codes
with zero settling time, and hold capacitors droop exponentially through
the switch off-resistance between refreshes. Trace events for electrode
voltages are emitted on change only (value-change semantics); pulse DAC
outputs are emitted once per sample.

Stimulus files are line based, times in nanoseconds, ``#`` comments::

    <time_ns> write-bias <reg> <code>
    <time_ns> write-rf <addr> <code>
    <time_ns> play <idA> <idB> <idC> <idD>
    <time_ns> ramp-mode <on|off>

The limits come from the scenario's memory, as ``digital.memory_design``
sizes it: a bias register below ``n_bias_signals + 1`` (register
``n_bias_signals`` holds the ramp target), an RF address below
``n_pulses * l_pulse`` and a sequence id below ``n_pulses``. A code must fit
the ``n_bias`` or ``n_rf`` bits of its register.

``Simulator`` refuses, with ``SimulationConfigError``, a scenario the wire
format cannot address: more than ``2**ADDRESS_BITS`` bias registers
(``n_bias_signals > 255``) or pulse registers, more than
``2**SEQUENCE_ID_BITS`` stored sequences, ``n_rf_signals`` other than the
two outputs the pulse memory's read ports drive, and a resolution beyond
the reception counter's payload limit.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from ..analog import derived_clocks
from ..config import Scenario
from ..digital import memory_design
from .memory import MemoryBank
from .protocol import (
    ADDRESS_BITS,
    RF_COMMAND_BITS,
    SEQUENCE_ID_BITS,
    DataInputController,
    DataWord,
    ProtocolError,
    RfCommandWord,
    WordType,
    encode_dataword,
)

PRIORITY_BIAS = 0
PRIORITY_RF = 1

TICKS_PER_NS = 10**12  # one tick is 1e-21 s
TICKS_PER_S = 10**21

# Bounds a run's simulated length: 1 ms at the defaults is ~1.1k conversion
# periods. Quiet refresh rounds cost nothing, so host time follows stimulus
# events and ramp steps; a ramp held on for the whole budget still runs
# every conversion (~0.75 us each on a 2-core Xeon with Python 3.11, ~7.5 s).
MAX_CONVERSIONS = 10_000_000


class StimulusError(ValueError):
    """Stimulus file failed to parse; message carries the line number."""


class SimulationConfigError(ValueError):
    """Scenario not representable by the digital control system."""


def _nearest(num: int, den: int) -> int:
    """``num / den`` rounded to the nearest integer, half up, for ``den > 0``."""
    return (2 * num + den) // (2 * den)


def to_ticks(t_ns: float) -> int:
    """The tick nearest to ``t_ns``, rounded exactly."""
    num, den = t_ns.as_integer_ratio()
    return _nearest(num * TICKS_PER_NS, den)


def _period_ticks(f_hz: float) -> tuple[int, float]:
    """The period of an ``f_hz`` clock in whole ticks, and its relative error."""
    num, den = f_hz.as_integer_ratio()   # the period is TICKS_PER_S * den / num ticks
    ticks = _nearest(TICKS_PER_S * den, num)
    return ticks, (ticks * num - TICKS_PER_S * den) / (TICKS_PER_S * den)


class TraceEvent(NamedTuple):
    t_ns: float
    signal: str
    value: float


@dataclass
class Trace:
    """Time-ordered signal events plus simulation statistics."""

    events: list[TraceEvent] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def emit(self, t_ns: float, signal: str, value: float):
        self.events.append(TraceEvent(t_ns, signal, value))

    def signals(self) -> set[str]:
        return {e.signal for e in self.events}

    def of(self, signal: str) -> list[TraceEvent]:
        return [e for e in self.events if e.signal == signal]

    def _text_rows(self) -> list[tuple[str, str, str]]:
        """Each event as ``(repr(t_ns), signal, repr(value))``.

        A handler emits all its events at one time object, so a time is
        formatted once for the run of events that carry that object.
        """
        rows = []
        append = rows.append
        last = text = None
        for t, s, v in self.events:
            if t is not last:
                last, text = t, repr(t)
            append((text, s, repr(v)))
        return rows

    def to_csv(self) -> str:
        lines = ["t_ns,signal,value"]
        lines += [f"{t},{s},{v}" for t, s, v in self._text_rows()]
        return "\n".join(lines) + "\n"

    def to_vcd_text(self) -> str:
        """Minimal value-change dump: one '#<t_ns> <signal> <value>' per event."""
        return "\n".join(f"#{t} {s} {v}" for t, s, v in self._text_rows()) + "\n"


# ---------------------------------------------------------------------------
# Stimulus

@dataclass(frozen=True)
class Command:
    t_ns: float
    op: str
    args: tuple
    line: int


def parse_stimulus(source: Path | str) -> list[Command]:
    """Parse a stimulus file (a ``Path``) or stimulus text (a ``str``)."""
    text = source.read_text() if isinstance(source, Path) else source
    commands: list[Command] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()

        def fail(msg):
            raise StimulusError(f"stimulus line {lineno}: {msg}: '{raw.strip()}'")

        try:
            t_ns = float(parts[0])
        except ValueError:
            fail("expected a time in ns")
        if not 0 <= t_ns < math.inf:  # a NaN time would break the queue's order
            fail("time must be non-negative and finite")
        op, args = parts[1] if len(parts) > 1 else "", parts[2:]
        if op == "write-bias" or op == "write-rf":
            if len(args) != 2:
                fail(f"{op} takes <addr> <code>")
            try:
                addr, code = int(args[0]), int(args[1], 0)
            except ValueError:
                fail("address and code must be integers")
            commands.append(Command(t_ns, op, (addr, code), lineno))
        elif op == "play":
            if len(args) != 4:
                fail("play takes four sequence ids")
            try:
                ids = tuple(int(a) for a in args)
            except ValueError:
                fail("sequence ids must be integers")
            commands.append(Command(t_ns, op, ids, lineno))
        elif op == "ramp-mode":
            if len(args) != 1 or args[0] not in ("on", "off"):
                fail("ramp-mode takes on|off")
            commands.append(Command(t_ns, op, (args[0] == "on",), lineno))
        else:
            fail(f"unknown command '{op}'")
    commands.sort(key=attrgetter("t_ns", "line"))
    return commands


# ---------------------------------------------------------------------------
# Controllers

@dataclass
class HoldCap:
    """One electrode's hold capacitor: value set at refresh, droops after."""

    v: float = 0.0
    t_set: int = 0   # ticks
    code: int | None = None

    @property
    def t_set_ns(self) -> float:
        return self.t_set / TICKS_PER_NS

    def voltage(self, t: int, tau_s: float) -> float:
        """The held voltage at tick ``t``."""
        dt_s = max(0, t - self.t_set) / TICKS_PER_NS * 1e-9
        return self.v * math.exp(-dt_s / tau_s)


class BiasController:
    """Round-robin refresh, or a stepwise ramp to one electrode.

    In refresh mode the electrode counter walks all electrodes and the DAC
    recharges one hold capacitor per conversion; the counter wraps
    automatically. In ramp mode the electrode counter freezes, the ramp
    counter feeds the DAC, and the target electrode index is read from the
    extra bias register (which never drives an electrode in refresh mode).
    """

    def __init__(self, sim):
        self.sim = sim
        self.ramp_mode = False
        self.electrode_counter = 0
        self.ramp_counter = 0
        self.index = 0   # of the next conversion, at index * conversion_period_ticks

    def conversion(self, t: int, _) -> int:
        sim = self.sim
        if self.ramp_mode:
            target = sim.memory.read_bias(sim.n_electrodes) % sim.n_electrodes
            code = self.ramp_counter
            self.ramp_counter = (self.ramp_counter + 1) % (1 << sim.n_bias)
        else:
            target = self.electrode_counter
            code = sim.memory.read_bias(target)
            self.electrode_counter = (self.electrode_counter + 1) % sim.n_electrodes
        sim.refresh_electrode(t, target, code)
        self.index += 1
        if not self.ramp_mode:
            self.skip_quiet_rounds()
        return self.index * sim.conversion_period_ticks

    def skip_quiet_rounds(self):
        """Advance past the whole refresh rounds that end by the next event.

        A round is ``n_electrodes`` refresh conversions. It is quiet when
        every electrode holds its register's code and was recharged one round
        before its next refresh, as holds once a full round has run since the
        last bias write clock or ramp-mode command. Each quiet round up to the
        next queued event (or the end of the run) then recharges the same
        codes after the same droop: it emits nothing and measures the
        deviation measured here once. The hold capacitors and the conversion
        edge move on by the skipped rounds; the electrode counter is back
        where it was.
        """
        sim = self.sim
        n, period = sim.n_electrodes, sim.conversion_period_ticks
        last = sim.horizon() // period   # the last conversion at or before the next event
        rounds = (last - self.index + 1) // n   # whole rounds in conversions index .. last
        if rounds <= 0:
            return
        bias, caps, counter = sim.memory.bias, sim.caps, self.electrode_counter
        for k in range(n):
            e = (counter + k) % n   # recharged by conversion index + k
            if caps[e].code != bias[e] or caps[e].t_set != (self.index + k - n) * period:
                return
        round_ticks = n * period
        worst = sim.max_refresh_deviation
        for e, cap in enumerate(sim.caps):
            dev = abs(cap.v - cap.voltage(cap.t_set + round_ticks, sim.tau_s))
            if dev > worst[e]:
                worst[e] = dev
            cap.t_set += rounds * round_ticks
        self.index += rounds * n


class RfController:
    """Double-buffered pulse playback.

    A received command word sits in staging flip-flops; when the previously
    latched sets have finished (or the unit is idle) both of its sets move
    to the latch array, freeing staging for the next command immediately.
    Per sample, the two read addresses are built from the active pair of
    sequence ids and the sample counter; the pair advances at the sequence
    boundary without a gap.
    """

    def __init__(self, sim):
        self.sim = sim
        self.staging: RfCommandWord | None = None
        self.latched: list[tuple[int, int]] = []
        self.active: tuple[int, int] | None = None
        self.sample_counter = 0

    def command_received(self, t: int, cmd: RfCommandWord):
        sim = self.sim
        if self.staging is not None:
            sim.trace.emit(t / TICKS_PER_NS, "rf_cmd_ignored", 1.0)
            sim.backpressure_count += 1
            return
        self.staging = cmd
        if self.active is None and not self.latched:
            # the sample clock is stopped: latch, and start it on the grid
            self._latch_from_staging(t / TICKS_PER_NS)
            period = sim.sample_period_ticks
            sim._push(-(-t // period) * period, PRIORITY_RF, self.sample_edge)

    def _latch_from_staging(self, t_ns: float):
        self.latched.extend(self.staging.pairs())
        self.staging = None
        self.sim.trace.emit(t_ns, "latch_transfer", 1.0)

    def sample_edge(self, t: int, _) -> int | None:
        sim = self.sim
        t_ns = t / TICKS_PER_NS
        if self.active is None:
            self.active = self.latched.pop(0)
            self.sample_counter = 0

        id_a, id_b = self.active
        addr_a = id_a * sim.l_pulse + self.sample_counter
        addr_b = id_b * sim.l_pulse + self.sample_counter
        code_a, code_b = sim.memory.read_rf_dual(addr_a, addr_b)
        sim.trace.emit(t_ns, "rf_a", code_a * sim.rf_lsb)
        sim.trace.emit(t_ns, "rf_b", code_b * sim.rf_lsb)
        sim.rf_samples_emitted += 1

        self.sample_counter += 1
        if self.sample_counter == sim.l_pulse:
            sim.trace.emit(t_ns, "end_sequ", 1.0)
            self.active = None
            # the latch array holds one command word; staging transfers in
            # only once both of its sets have been consumed
            if not self.latched:
                if self.staging is None:
                    return None
                self._latch_from_staging(t_ns)
        return t + sim.sample_period_ticks


# ---------------------------------------------------------------------------
# Simulator

class Simulator:
    """Event loop over the two clock domains; see the module docstring."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        s = scenario.spec
        d = memory_design(scenario)
        for n, what, bits, field_name in (
                (d.bias_registers, "bias registers (n_bias_signals + 1)", ADDRESS_BITS,
                 "word address"),
                (d.rf_registers, "pulse registers (n_pulses * l_pulse)", ADDRESS_BITS,
                 "word address"),
                (s.n_pulses, "pulse sequences (n_pulses)", SEQUENCE_ID_BITS, "sequence id")):
            if n > 2 ** bits:
                raise SimulationConfigError(
                    f"{n} {what} exceed the {2 ** bits}-entry address space "
                    f"of the {bits}-bit {field_name}"
                )
        if s.n_rf_signals != d.rf_read_ports:
            raise SimulationConfigError(
                f"n_rf_signals={s.n_rf_signals}, but the pulse memory's "
                f"{d.rf_read_ports} read ports drive exactly {d.rf_read_ports} outputs"
            )
        self.scenario = scenario
        self.n_electrodes = s.n_bias_signals
        self.n_bias = s.n_bias
        self.n_rf = s.n_rf
        self.l_pulse = s.l_pulse
        self.n_pulses = s.n_pulses
        self.v_range_bias = s.v_range_bias
        self.rf_lsb = s.v_range_rf / (1 << s.n_rf)

        clocks = derived_clocks(scenario)
        self.f_clk_bias = clocks.f_clk_bias
        self.f_clk_rf = clocks.f_clk_rf
        t_bias, bias_error = _period_ticks(self.f_clk_bias)
        self.t_rf_ticks, rf_error = _period_ticks(self.f_clk_rf)
        self.clock_quantisation_rel = {"clk_bias": bias_error, "clk_rf": rf_error}
        # Logic is edge triggered: one DAC conversion / output sample every
        # second clock of its domain.
        self.conversion_period_ticks = 2 * t_bias
        self.sample_period_ticks = 2 * self.t_rf_ticks
        self.t_bias_ns = t_bias / TICKS_PER_NS
        self.t_rf_ns = self.t_rf_ticks / TICKS_PER_NS
        self.conversion_period_ns = self.conversion_period_ticks / TICKS_PER_NS
        self.sample_period_ns = self.sample_period_ticks / TICKS_PER_NS

        self.tau_s = scenario.tech.r_off_effective() * scenario.c_h

        self.memory = MemoryBank(
            n_bias=d.bias_width, n_rf=d.rf_width,
            bias_registers=d.bias_registers, rf_registers=d.rf_registers,
        )
        try:
            # rejects payloads the 5-bit reception counter cannot time
            self.data_input = DataInputController(self.memory, d.bias_width, d.rf_width)
        except ProtocolError as exc:
            raise SimulationConfigError(str(exc)) from exc
        self.bias_ctrl = BiasController(self)
        self.rf_ctrl = RfController(self)
        self.caps = [HoldCap() for _ in range(self.n_electrodes)]

        self.trace = Trace()
        self.max_refresh_deviation = [0.0] * self.n_electrodes
        self.backpressure_count = 0
        self.rf_samples_emitted = 0

        self._queue: list = []
        self._seq = 0
        self._t_end: int | None = None  # ticks, set when the run starts
        self._frames: deque[str] = deque()  # encoded data words, the one in flight first
        self._frame_pos = 0

    # event queue -----------------------------------------------------------

    def _push(self, t: int, priority: int, fn, arg=None):
        if t > self._t_end:
            return
        self._seq += 1
        heapq.heappush(self._queue, (t, priority, self._seq, fn, arg))

    def horizon(self) -> int:
        """The time of the next queued event, or the end of the run."""
        return self._queue[0][0] if self._queue else self._t_end

    # electrode handling ----------------------------------------------------

    def refresh_electrode(self, t: int, electrode: int, code: int):
        cap = self.caps[electrode]
        v_pre = cap.voltage(t, self.tau_s)
        v_ideal = code / (1 << self.n_bias) * self.v_range_bias
        if cap.code == code:
            dev = abs(v_ideal - v_pre)
            if dev > self.max_refresh_deviation[electrode]:
                self.max_refresh_deviation[electrode] = dev
        # the hold capacitor holds the last emitted value, 0 V at start
        if v_ideal != cap.v:
            self.trace.emit(t / TICKS_PER_NS, f"bias_e{electrode}", v_ideal)
        cap.v = v_ideal
        cap.t_set = t
        cap.code = code

    def electrode_voltage(self, electrode: int, t_ns: float) -> float:
        return self.caps[electrode].voltage(to_ticks(t_ns), self.tau_s)

    # rf domain: serial data input -------------------------------------------

    def _word_clock_event(self, t: int, _) -> int | None:
        frame = self._frames[0]
        pos = self._frame_pos
        self._frame_pos = pos + 1
        # the line idles low after the frame, through the write clocks
        events = self.data_input.step(int(frame[pos]) if pos < len(frame) else 0)
        if events:
            t_ns = t / TICKS_PER_NS
            for signal, value in events:
                self.trace.emit(t_ns, signal, value)
        if self.data_input.busy:
            return t + self.t_rf_ticks
        # feedback issued; the next queued frame may start on the next clock
        self._frames.popleft()
        self._frame_pos = 0
        return t + self.t_rf_ticks if self._frames else None

    # stimulus ---------------------------------------------------------------

    def _write_event(self, t: int, word: DataWord):
        self._frames.append(encode_dataword(word))
        if len(self._frames) == 1:  # the line was free
            self._push(t, PRIORITY_RF, self._word_clock_event)

    def _play_event(self, t: int, word: RfCommandWord):
        # the command's serial frame is received before it is staged
        self._push(t + RF_COMMAND_BITS * self.t_rf_ticks, PRIORITY_RF,
                   self.rf_ctrl.command_received, word)

    def _ramp_mode_event(self, t: int, on: bool):
        self.bias_ctrl.ramp_mode = on
        self.trace.emit(t / TICKS_PER_NS, "ramp_mode", 1.0 if on else 0.0)

    def _event(self, cmd: Command):
        """The handler of ``cmd`` and its checked argument."""
        try:
            if cmd.op == "write-bias" or cmd.op == "write-rf":
                kind = WordType.BIAS if cmd.op == "write-bias" else WordType.RF
                word = DataWord(kind, *cmd.args,
                                self.n_bias if kind is WordType.BIAS else self.n_rf)
                if not self.memory.holds(kind, word.address):
                    raise ProtocolError(f"{kind.value} register {word.address} does not "
                                        f"exist in the scenario's memory")
                return self._write_event, word
            if cmd.op == "play":
                word = RfCommandWord(*cmd.args)
                if max(word.ids()) >= self.n_pulses:
                    raise ProtocolError(f"sequence id {max(word.ids())} beyond the "
                                        f"{self.n_pulses} stored sequences")
                return self._play_event, word
        except ProtocolError as exc:
            raise StimulusError(f"stimulus line {cmd.line}: {exc}") from exc
        return self._ramp_mode_event, cmd.args[0]

    # run ---------------------------------------------------------------------

    def run(self, stimulus: Path | str | None, t_end_ns: float) -> Trace:
        """Simulate up to ``t_end_ns``, once; the whole stimulus is checked first."""
        if self._t_end is not None:
            raise RuntimeError("this Simulator has already run; build a new one")
        if not 0 < t_end_ns < math.inf:
            raise ValueError(f"t_end_ns must be positive and finite, got {t_end_ns!r}")
        if t_end_ns / self.conversion_period_ns > MAX_CONVERSIONS:
            raise ValueError(f"t_end_ns={t_end_ns!r} exceeds the limit of "
                             f"{MAX_CONVERSIONS} bias conversions per run")
        t_end = self._t_end = to_ticks(t_end_ns)
        for cmd in parse_stimulus(stimulus) if stimulus is not None else []:
            self._push(to_ticks(cmd.t_ns), PRIORITY_RF, *self._event(cmd))

        self.trace.emit(0.0, "clk_bias_hz", self.f_clk_bias)
        self.trace.emit(0.0, "clk_rf_hz", self.f_clk_rf)
        self._push(0, PRIORITY_BIAS, self.bias_ctrl.conversion)

        queue = self._queue
        pop, pushpop = heapq.heappop, heapq.heappushpop
        event = pop(queue)
        while True:
            t, prio, _seq, fn, arg = event
            t_next = fn(t, arg)
            if t_next is not None and t_next <= t_end:
                self._seq += 1
                event = pushpop(queue, (t_next, prio, self._seq, fn, arg))
            elif queue:
                event = pop(queue)
            else:
                break

        self.trace.stats = {
            "t_end_ns": t_end / TICKS_PER_NS,
            "max_refresh_deviation_v": list(self.max_refresh_deviation),
            "backpressure_count": self.backpressure_count,
            "rf_samples_emitted": self.rf_samples_emitted,
            "final_electrode_voltages_v": [cap.voltage(t_end, self.tau_s) for cap in self.caps],
            "clock_quantisation_rel": dict(self.clock_quantisation_rel),
        }
        return self.trace


def run_simulation(scenario: Scenario, stimulus: Path | str | None,
                   t_end_ns: float) -> Trace:
    """Run one deterministic simulation and return its trace (with stats).

    ``stimulus`` is a stimulus file (a ``Path``) or stimulus text (a ``str``).
    """
    return Simulator(scenario).run(stimulus, t_end_ns)


_TIME_SUFFIXES = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def parse_duration_ns(text: str) -> float:
    """Parse '200us', '1.5ms', '5000' (bare = ns) into nanoseconds."""
    text = text.strip()
    for suffix, scale in _TIME_SUFFIXES.items():
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * scale
    return float(text)
