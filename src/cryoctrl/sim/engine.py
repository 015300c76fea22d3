"""Deterministic event-level simulation of the digital control system.

Two clock domains drive the machine: the bias domain (sample-and-hold
refresh and ramp generation) and the RF domain (serial data input and pulse
playback). The event queue is ordered by (time, domain priority, sequence
number); the bias domain has priority at equal times, and the sequence
number makes ordering total, so a given stimulus always produces a
bit-identical trace.

The clocked handlers (bias conversion, serial bit clock, RF sample edge)
return their next edge time, or ``None`` once their clock stops, instead of
pushing it. ``Simulator.run`` gives that edge the next sequence number and
hands it to ``heapq.heappushpop``, which returns it at once while it is
ahead of the queue's head and otherwise pushes it and pops the head. That
is the same push-then-pop on the same ``(time, priority, sequence)`` keys,
so the event order is unchanged; it holds because every handler makes its
other pushes before it returns.

Analog behaviour is idealized: DACs convert straight-binary unipolar codes
with zero settling time, and hold capacitors droop exponentially through
the switch off-resistance between refreshes. Trace events for electrode
voltages are emitted on change only (value-change semantics); pulse DAC
outputs are emitted once per sample.

Stimulus files are line based, times in nanoseconds, ``#`` comments::

    <time_ns> write-bias <reg 0-8> <code>
    <time_ns> write-rf <addr 0-255> <code>
    <time_ns> play <idA> <idB> <idC> <idD>
    <time_ns> ramp-mode <on|off>

An RF address must also lie below ``n_pulses * l_pulse`` and a sequence id
below ``n_pulses``, the pulse memory of the scenario.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from ..analog import derived_clocks
from ..config import Scenario
from .memory import MemoryBank
from .protocol import (
    DataInputController,
    DataWord,
    ProtocolError,
    RfCommandWord,
    WordType,
    encode_dataword,
    encode_rf_command,
    RfCommandReceiver,
)

PRIORITY_BIAS = 0
PRIORITY_RF = 1

# The bias domain never idles, so this bounds a run's host time (~0.75 us per
# conversion on a 2-core Xeon with Python 3.11, ~7.5 s for the whole budget);
# 1 ms simulated at the defaults is ~1.1k conversions.
MAX_CONVERSIONS = 10_000_000


class StimulusError(ValueError):
    """Stimulus file failed to parse; message carries the line number."""


class SimulationConfigError(ValueError):
    """Scenario not representable by the digital control system."""


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

    def to_csv(self) -> str:
        lines = ["t_ns,signal,value"]
        lines += [f"{t!r},{s},{v!r}" for t, s, v in self.events]
        return "\n".join(lines) + "\n"

    def to_vcd_text(self) -> str:
        """Minimal value-change dump: one '#<t_ns> <signal> <value>' per event."""
        return "\n".join(f"#{t!r} {s} {v!r}" for t, s, v in self.events) + "\n"


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
    t_set_ns: float = 0.0
    code: int | None = None

    def voltage(self, t_ns: float, tau_s: float) -> float:
        dt_s = max(0.0, t_ns - self.t_set_ns) * 1e-9
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

    def conversion(self, t_ns: float):
        sim = self.sim
        if self.ramp_mode:
            target = sim.memory.read_bias(sim.n_electrodes) % sim.n_electrodes
            code = self.ramp_counter
            self.ramp_counter = (self.ramp_counter + 1) % (1 << sim.n_bias)
        else:
            target = self.electrode_counter
            code = sim.memory.read_bias(target)
            self.electrode_counter = (self.electrode_counter + 1) % sim.n_electrodes
        sim.refresh_electrode(t_ns, target, code)


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
        self.playing = False

    @property
    def staging_full(self) -> bool:
        return self.staging is not None

    def command_received(self, t_ns: float, cmd: RfCommandWord):
        sim = self.sim
        if self.staging_full:
            sim.trace.emit(t_ns, "rf_cmd_ignored", 1.0)
            sim.backpressure_count += 1
            return
        self.staging = cmd
        if not self.playing and not self.latched:
            self._latch_from_staging(t_ns)
            sim.schedule_sample_edges(t_ns)

    def _latch_from_staging(self, t_ns: float):
        if self.staging is None:
            return
        self.latched.extend(self.staging.pairs())
        self.staging = None
        self.sim.trace.emit(t_ns, "latch_transfer", 1.0)

    def sample_edge(self, t_ns: float):
        sim = self.sim
        if self.active is None:
            if not self.latched:
                self.playing = False
                return
            self.active = self.latched.pop(0)
            self.sample_counter = 0
            self.playing = True

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
                self._latch_from_staging(t_ns)
            if not self.latched:
                self.playing = False


# ---------------------------------------------------------------------------
# Simulator

class Simulator:
    """Event loop over the two clock domains; see the module docstring."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        s = scenario.spec
        if s.n_pulses * s.l_pulse > 256:
            raise SimulationConfigError(
                "n_pulses * l_pulse exceeds the 256-register address space "
                "of the 8-bit word address"
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
        self.t_bias_ns = 1e9 / self.f_clk_bias
        self.t_rf_ns = 1e9 / self.f_clk_rf
        # Logic is edge triggered: one DAC conversion / output sample every
        # second clock of its domain.
        self.conversion_period_ns = 2.0 * self.t_bias_ns
        self.sample_period_ns = 2.0 * self.t_rf_ns

        self.tau_s = scenario.tech.r_off_effective() * scenario.c_h

        self.memory = MemoryBank(
            n_bias=s.n_bias, n_rf=s.n_rf,
            bias_registers=s.n_bias_signals + 1,
            rf_registers=s.n_pulses * s.l_pulse,
        )
        try:
            # rejects payloads the 5-bit reception counter cannot time
            self.data_input = DataInputController(self.memory, s.n_bias, s.n_rf)
        except ProtocolError as exc:
            raise SimulationConfigError(str(exc)) from exc
        self.rf_receiver = RfCommandReceiver()
        self.bias_ctrl = BiasController(self)
        self.rf_ctrl = RfController(self)
        self.caps = [HoldCap() for _ in range(self.n_electrodes)]

        self.trace = Trace()
        self.max_refresh_deviation = [0.0] * self.n_electrodes
        self.backpressure_count = 0
        self.rf_samples_emitted = 0

        self._queue: list = []
        self._seq = 0
        self._t_end_ns = 0.0
        self._write_queue: list[DataWord] = []
        self._word_bits = ""  # the serial word in flight, empty when the line is free
        self._word_pos = 0

    # event queue -----------------------------------------------------------

    def _push(self, t_ns: float, priority: int, fn, arg=None):
        if t_ns > self._t_end_ns:
            return
        self._seq += 1
        heapq.heappush(self._queue, (t_ns, priority, self._seq, fn, arg))

    # electrode handling ----------------------------------------------------

    def refresh_electrode(self, t_ns: float, electrode: int, code: int):
        cap = self.caps[electrode]
        v_pre = cap.voltage(t_ns, self.tau_s)
        v_ideal = code / (1 << self.n_bias) * self.v_range_bias
        if cap.code == code:
            dev = abs(v_ideal - v_pre)
            if dev > self.max_refresh_deviation[electrode]:
                self.max_refresh_deviation[electrode] = dev
        # the hold capacitor holds the last emitted value, 0 V at start
        if v_ideal != cap.v:
            self.trace.emit(t_ns, f"bias_e{electrode}", v_ideal)
        cap.v = v_ideal
        cap.t_set_ns = t_ns
        cap.code = code

    def electrode_voltage(self, electrode: int, t_ns: float) -> float:
        return self.caps[electrode].voltage(t_ns, self.tau_s)

    # bias domain -----------------------------------------------------------

    def _conversion_event(self, t_ns: float, _) -> float:
        self.bias_ctrl.conversion(t_ns)
        return t_ns + self.conversion_period_ns

    # rf domain: serial data input -------------------------------------------

    def _start_next_word(self) -> bool:
        """Put the next queued word on the line if it is free; True if one started."""
        if self._word_bits or not self._write_queue:
            return False
        self._word_bits = encode_dataword(self._write_queue.pop(0))
        self._word_pos = 0
        return True

    def _word_clock_event(self, t_ns: float, _) -> float | None:
        bit = int(self._word_bits[self._word_pos]) if self._word_pos < len(self._word_bits) else 0
        self._word_pos += 1
        for signal, value in self.data_input.step(bit):
            self.trace.emit(t_ns, signal, value)
        if self.data_input.busy or self._word_pos < len(self._word_bits):
            return t_ns + self.t_rf_ns
        # feedback issued; the next queued word may start on the next clock
        self._word_bits = ""
        return t_ns + self.t_rf_ns if self._start_next_word() else None

    # rf domain: playback ----------------------------------------------------

    def schedule_sample_edges(self, t_ns: float):
        """Start the sample clock on the grid. Only called when the RF
        controller was idle: an edge is pending while it plays, latches or stages."""
        self._push(self._next_sample_grid(t_ns), PRIORITY_RF, self._sample_event)

    def _next_sample_grid(self, t_ns: float) -> float:
        k = math.ceil(t_ns / self.sample_period_ns - 1e-9)
        return k * self.sample_period_ns

    def _sample_event(self, t_ns: float, _) -> float | None:
        self.rf_ctrl.sample_edge(t_ns)
        if self.rf_ctrl.playing or self.rf_ctrl.latched or self.rf_ctrl.staging_full:
            return t_ns + self.sample_period_ns
        return None

    # stimulus ---------------------------------------------------------------

    def _write_event(self, t_ns: float, word: DataWord):
        self._write_queue.append(word)
        if self._start_next_word():
            self._push(t_ns, PRIORITY_RF, self._word_clock_event)

    def _play_event(self, t_ns: float, word: RfCommandWord):
        # 17-bit serial reception precedes staging
        bits = encode_rf_command(word)
        received = self.rf_receiver.feed(bits)
        self._push(t_ns + len(bits) * self.t_rf_ns, PRIORITY_RF,
                   self.rf_ctrl.command_received, received)

    def _ramp_mode_event(self, t_ns: float, on: bool):
        self.bias_ctrl.ramp_mode = on
        self.trace.emit(t_ns, "ramp_mode", 1.0 if on else 0.0)

    def _event(self, cmd: Command):
        """The handler of ``cmd`` and its checked argument."""
        try:
            if cmd.op == "write-bias":
                return self._write_event, DataWord(WordType.BIAS, *cmd.args, self.n_bias)
            if cmd.op == "write-rf":
                word = DataWord(WordType.RF, *cmd.args, self.n_rf)
                if word.address >= self.n_pulses * self.l_pulse:
                    raise ProtocolError(f"address {word.address} beyond the "
                                        f"{self.n_pulses * self.l_pulse} pulse registers")
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
        """Simulate up to ``t_end_ns``; the whole stimulus is checked first."""
        if not 0 < t_end_ns < math.inf:
            raise ValueError(f"t_end_ns must be positive and finite, got {t_end_ns!r}")
        if t_end_ns / self.conversion_period_ns > MAX_CONVERSIONS:
            raise ValueError(f"t_end_ns={t_end_ns!r} exceeds the limit of "
                             f"{MAX_CONVERSIONS} bias conversions per run")
        self._t_end_ns = t_end_ns
        for cmd in parse_stimulus(stimulus) if stimulus is not None else []:
            self._push(cmd.t_ns, PRIORITY_RF, *self._event(cmd))

        self.trace.emit(0.0, "clk_bias_hz", self.f_clk_bias)
        self.trace.emit(0.0, "clk_rf_hz", self.f_clk_rf)
        self._push(0.0, PRIORITY_BIAS, self._conversion_event)

        queue = self._queue
        pop, pushpop = heapq.heappop, heapq.heappushpop
        event = pop(queue)
        while True:
            t_ns, prio, _seq, fn, arg = event
            t_next = fn(t_ns, arg)
            if t_next is not None and t_next <= t_end_ns:
                self._seq += 1
                event = pushpop(queue, (t_next, prio, self._seq, fn, arg))
            elif queue:
                event = pop(queue)
            else:
                break

        self.trace.stats = {
            "t_end_ns": t_end_ns,
            "max_refresh_deviation_v": list(self.max_refresh_deviation),
            "backpressure_count": self.backpressure_count,
            "rf_samples_emitted": self.rf_samples_emitted,
            "final_electrode_voltages_v": [
                self.electrode_voltage(e, t_end_ns) for e in range(self.n_electrodes)
            ],
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
