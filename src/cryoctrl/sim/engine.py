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
error. Trace events keep their tick; nanoseconds are derived only where a
trace is read or written (``TraceEvent.t_ns``, the CSV and VCD text), as
``ticks / TICKS_PER_NS`` correctly rounded.

The trace text is written from pieces shared across the rows
(``Trace._text``): one per run of rows at a tick, ``prefix + repr(t_ns)``, and
one per distinct ``(signal, code)``, ``sep + signal + sep + repr(value)`` and
a newline. Each row's two pieces go to one list, joined once: ``to_csv``
joins all rows at once, and ``csv_chunks``/``vcd_chunks`` join
``TEXT_CHUNK_ROWS`` rows at a time, the pieces ``simulate`` writes.

Each clocked unit is one queue handler. It reads ``Simulator.horizon()``,
the time of the next queued event, once, handles its edges strictly before
it and returns its first edge at or after it, or ``None`` once its clock
stops. Whatever could change such a block (a serial clock, a staged command,
a ramp-mode switch, a conversion) is a queued event that bounds it, so it
gives the trace of one edge per call:

- ``BiasController.conversion``: every ``conversion_period_ticks``, never
  stops. In refresh mode, once a full round has run since the last bias
  write clock or ramp-mode command, the rounds up to the next event repeat
  it and are skipped in closed form (``BiasController.skip_quiet_rounds``).
  A skip is tried only where a whole round fits before the next event.
  In ramp mode the target and the mode hold up to the next event, so the
  steps before it run as one block: ``refresh_electrode`` for the first,
  which alone can recharge, then the code up by one a step, each a row:
  their ticks and codes are built as whole ranges, and the code held at
  the block's end is decoded once.
- ``Simulator._word_clock_event``, the serial data line: one RF clock per
  frame bit of the data word in flight, then one per payload bit shifted
  into its register, then the next queued word. One closed form advances
  the word by every clock before the horizon: the rows of its end of
  reception and of its last write clock, ``10 + 2 * width - 1`` clocks after
  its first, at their ticks, and the write clocks crossed shifted in at
  once, so a read mid-shift sees the partly shifted code. No checked word
  raises ``protocol_error``. It gives the rows and register values of the
  clocked model, ``protocol.DataInputController``.
- ``RfController.sample_edge``: the sample clock runs while a command word
  is held, reading the playing set's pair from the head word of
  ``RfController.words``; ``command_received`` starts it on the grid when
  none is.

``Simulator.run`` hands a returned edge, with the next sequence number, to
``heapq.heappushpop``: the same push-then-pop on the same ``(time, priority,
sequence)`` keys, so the event order is unchanged, as every handler makes
its other pushes before it returns; an edge that ties with the horizon goes
there too, so the bias domain still runs first at equal times.

The stimulus is queued before the run, as one event per tick at which
writes or ramp-mode commands are sent, which applies them in the order of
their written times, then of their lines, and one per play reception: a
play reaches ``command_received`` ``RF_COMMAND_BITS`` RF clocks after its
time, once its frame is in, and nothing is queued at its send time. So
every queued event acts at its own time and none ends a block only to
queue another. The receptions are queued after all the stimulus ticks, so
at a shared tick the commands sent then apply first; no other RF event can
be queued at a reception's tick before its play is sent, as a clocked
handler returns an edge less than 2 RF clocks past its horizon.

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
the reception counter's payload limit. It refuses a bias range whose code
step, ``v_range_bias / 2**n_bias``, is below 2**-1074, the smallest float:
two consecutive codes could then decode to one value, and a ramp step would
emit no row. It also refuses a clock whose period,
rounded to whole ticks, is off by more than ``MAX_CLOCK_QUANTISATION_REL``
of itself; every clock of 2 THz or slower is within it.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Iterable, Iterator
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from ..config import ConfigError, Scenario, escape_controls
from ..digital import memory_design
from .memory import MemoryBank
from .protocol import (
    ADDRESS_BITS,
    HEADER_AND_TYPE_BITS,
    RF_COMMAND_BITS,
    SEQUENCE_ID_BITS,
    DataWord,
    ProtocolError,
    RfCommandWord,
    WordType,
    check_payload_widths,
)

PRIORITY_BIAS = 0
PRIORITY_RF = 1

TICKS_PER_NS = 10**12  # one tick is 1e-21 s
TICKS_PER_S = 10**21

# The one run limit. Quiet refresh rounds are skipped in closed form, so a
# run's host time follows its stimulus events and its ramp steps, not its
# simulated time. Ramp mode steps on every conversion, in closed-form blocks
# up to the next queued event: ~0.18-0.25 us of host time and ~0.11 kB of
# peak memory a step, ~0.7-0.9 us with the trace CSV, which adds ~0.11 kB a
# step when built whole (``Trace.to_csv``) and next to nothing when streamed
# (``Trace.csv_chunks``, as ``simulate`` writes it) (3 fresh-process runs
# of 10^5 steps and one of 10^6, 2-core Xeon, Python 3.11). 10^6 steps are
# ~0.92 s simulated at the defaults, or ~244 full 12-bit staircases.
MAX_RAMP_STEPS = 1_000_000

# The largest relative error of a clock period rounded to whole ticks. A
# clock of 2 THz or slower, 5e8 ticks a period or more, is always within it.
MAX_CLOCK_QUANTISATION_REL = 1e-9

# The rows in each piece of a streamed trace text (``Trace.csv_chunks``): ~2.4
# MB of text at a playback row's ~37 bytes, small beside the ~45 bytes a row
# of the run's own columns, so a streamed run peaks near the run alone.
TEXT_CHUNK_ROWS = 65_536


class StimulusError(ConfigError):
    """Stimulus file failed to parse; message carries the line number."""


class SimulationConfigError(ConfigError):
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
    t: int   # ticks
    signal: str
    value: float

    @property
    def t_ns(self) -> float:
        return self.t / TICKS_PER_NS


class Trace:
    """Time-ordered signal events plus simulation statistics.

    The events are kept as three parallel columns, one entry per row: the
    tick, the signal's index and an integer code. Each signal has one exact
    decoder from its code to its value, registered with ``signal``; a pulse
    DAC code decodes to ``code * rf_lsb`` and an electrode's bias code to
    ``code / 2**n_bias * v_range_bias``, as the simulator computes them.
    ``emit`` appends a row holding any value itself. ``TraceEvent`` rows are
    built only where they are read (``events``, ``of``).
    """

    def __init__(self):
        self.ticks: list[int] = []
        self.signal_ids: list[int] = []
        self.codes: list[int] = []
        self.stats: dict = {}
        self._names: list[str] = []   # by signal index
        self._decoders: list = []     # by signal index: code -> value

    def signal(self, name: str, decode) -> int:
        """Register a signal whose codes ``decode`` maps to values; return its index."""
        self._names.append(name)
        self._decoders.append(decode)
        return len(self._names) - 1

    def append(self, t: int, signal: int, code: int):
        self.ticks.append(t)
        self.signal_ids.append(signal)
        self.codes.append(code)

    def extend(self, ticks: Iterable[int], signals: Iterable[int], codes: Iterable[int]):
        self.ticks += ticks
        self.signal_ids += signals
        self.codes += codes

    def emit(self, t: int, signal: str, value):
        """Append a row of ``signal`` that holds ``value`` itself: the row's
        own signal, whose one code decodes to ``value``."""
        self.append(t, self.signal(signal, (value,).__getitem__), 0)

    def __len__(self) -> int:
        return len(self.ticks)

    @property
    def events(self) -> list[TraceEvent]:
        names, decoders = self._names, self._decoders
        return [TraceEvent(t, names[s], decoders[s](c))
                for t, s, c in zip(self.ticks, self.signal_ids, self.codes)]

    def signals(self) -> set[str]:
        return {self._names[s] for s in set(self.signal_ids)}

    def of(self, signal: str) -> list[TraceEvent]:
        return [e for e in self.events if e.signal == signal]

    def to_csv(self) -> str:
        return next(self._text("", ",", "t_ns,signal,value\n", None))

    def to_vcd_text(self) -> str:
        """Minimal value-change dump: one '#<t_ns> <signal> <value>' per event."""
        return next(self._text("#", " ", "", None))

    def csv_chunks(self) -> Iterator[str]:
        """``to_csv()`` in pieces of up to ``TEXT_CHUNK_ROWS`` rows each, the
        first with the header; the pieces concatenate to exactly ``to_csv()``."""
        return self._text("", ",", "t_ns,signal,value\n", TEXT_CHUNK_ROWS)

    def vcd_chunks(self) -> Iterator[str]:
        """``to_vcd_text()`` in pieces of up to ``TEXT_CHUNK_ROWS`` rows each."""
        return self._text("#", " ", "", TEXT_CHUNK_ROWS)

    def _text(self, prefix: str, sep: str, head: str, size: int | None) -> Iterator[str]:
        """The text of the rows, ``head`` then one ``prefix + repr(t_ns) + sep +
        signal + sep + repr(value) + "\n"`` a row, in pieces of up to ``size``
        rows each (all of them for ``None``). Each row's text is two pieces
        shared across the rows: a time's, formatted once for each run of rows
        at its tick, and a signal and value's, once for each distinct
        ``(signal, code)``. A piece appends its rows' pieces to one list and
        joins it once. An empty text is one newline."""
        names = [sep + name + sep for name in self._names]
        decoders = self._decoders
        texts = [{} for _ in names]   # by signal, then code
        rows = zip(self.ticks, self.signal_ids, self.codes)
        last = t_text = None
        pieces = [head]
        while True:
            append = pieces.append
            # the whole text reads the rows directly: an islice costs it ~1%
            for t, s, c in rows if size is None else islice(rows, size):
                if t != last:
                    last, t_text = t, prefix + repr(t / TICKS_PER_NS)
                append(t_text)
                text = texts[s].get(c)
                if text is None:
                    text = texts[s][c] = names[s] + repr(decoders[s](c)) + "\n"
                append(text)
            chunk = "".join(pieces)
            if not chunk and last is not None:   # the rows are all written
                return
            yield chunk or "\n"
            if last is None:   # an empty trace is one piece
                return
            pieces = []


# ---------------------------------------------------------------------------
# Stimulus

class Command(NamedTuple):
    t_ns: float
    op: str
    args: tuple
    line: int


def _fail(lineno: int, raw: str, msg: str):
    raise StimulusError(f"stimulus line {lineno}: {msg}: '{raw.strip()}'")


def parse_stimulus(source: Path | str) -> list[Command]:
    """Parse a stimulus file (a ``Path``) or stimulus text (a ``str``)."""
    try:
        text = source.read_text() if isinstance(source, Path) else source
    except UnicodeDecodeError as exc:
        raise StimulusError(f"cannot read stimulus file {escape_controls(source)}: {exc}") from exc
    commands: list[Command] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            t_ns = float(parts[0])
        except ValueError:
            _fail(lineno, raw, "expected a time in ns")
        if not 0 <= t_ns < math.inf:  # a NaN time would break the queue's order
            _fail(lineno, raw, "time must be non-negative and finite")
        op, args = parts[1] if len(parts) > 1 else "", parts[2:]
        if op == "write-bias" or op == "write-rf":
            if len(args) != 2:
                _fail(lineno, raw, f"{op} takes <addr> <code>")
            try:
                addr, code = int(args[0]), int(args[1], 0)
            except ValueError:
                _fail(lineno, raw, "address and code must be integers")
            commands.append(Command(t_ns, op, (addr, code), lineno))
        elif op == "play":
            if len(args) != 4:
                _fail(lineno, raw, "play takes four sequence ids")
            try:
                ids = tuple(int(a) for a in args)
            except ValueError:
                _fail(lineno, raw, "sequence ids must be integers")
            commands.append(Command(t_ns, op, ids, lineno))
        elif op == "ramp-mode":
            if len(args) != 1 or args[0] not in ("on", "off"):
                _fail(lineno, raw, "ramp-mode takes on|off")
            commands.append(Command(t_ns, op, (args[0] == "on",), lineno))
        else:
            _fail(lineno, raw, f"unknown command '{op}'")
    # by time, then line: the commands are in line order, and the sort is stable
    commands.sort(key=itemgetter(0))
    return commands


# ---------------------------------------------------------------------------
# Controllers

class HoldCap:
    """One electrode's hold capacitor: value set at refresh, droops after."""

    __slots__ = ("v", "t_set", "code")

    def __init__(self, v: float = 0.0, t_set: int = 0, code: int | None = None):
        self.v = v
        self.t_set = t_set   # ticks
        self.code = code

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
        """Run the conversions from ``t`` up to the next queued event; return
        the next conversion edge."""
        sim = self.sim
        horizon = sim.horizon()
        period, n, bias = sim.conversion_period_ticks, sim.n_electrodes, sim.memory.bias
        if self.ramp_mode:
            # The mode and the target register hold up to the horizon, and
            # each step raises the code by one, so only the first step can
            # recharge its electrode. The later steps before the horizon run
            # as one block, one row each: the simulator refuses a code step
            # below 2**-1074, so consecutive codes decode to different values.
            target, code, size = bias[n] % n, self.ramp_counter, 1 << sim.n_bias
            sim.refresh_electrode(t, target, code)
            ticks = range(t + period, horizon, period)
            steps = len(ticks)
            if steps:
                codes = range(code + 1, code + steps + 1)
                if codes[-1] >= size:   # the counter wraps
                    codes = [c % size for c in codes]
                sim.trace.extend(ticks, repeat(sim.bias_signals[target], steps), codes)
                code, cap = codes[-1], sim.caps[target]
                cap.v, cap.t_set, cap.code = sim.bias_value(code), ticks[-1], code
            self.ramp_counter = (code + 1) % size
            self.index += 1 + steps
            return self.index * period
        # a whole round fits in the conversions index .. horizon // period
        # while index <= round_fits; a skip is tried only then
        round_fits = horizon // period + 1 - n
        while True:
            target = self.electrode_counter
            self.electrode_counter = (target + 1) % n
            sim.refresh_electrode(t, target, bias[target])
            self.index += 1
            if self.index <= round_fits:
                self.skip_quiet_rounds(horizon)
            t = self.index * period
            if t >= horizon:
                return t

    def skip_quiet_rounds(self, horizon: int):
        """Advance past the whole refresh rounds that end by ``horizon``, the
        next queued event (or the end of the run) as ``conversion`` read it.

        A round is ``n_electrodes`` refresh conversions. It is quiet when
        every electrode holds its register's code and was recharged one round
        before its next refresh, as holds once a full round has run since the
        last bias write clock or ramp-mode command. Each quiet round up to the
        next queued event (or the end of the run) then recharges the same
        codes after the same droop: it emits nothing and measures the
        deviation measured here once. The hold capacitors and the conversion
        edge move on by the skipped rounds; the electrode counter is back
        where it was. ``conversion`` tries it only where a whole round fits.
        """
        sim = self.sim
        n, period = sim.n_electrodes, sim.conversion_period_ticks
        last = horizon // period   # the last conversion at or before the next event
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
        # every cap droops by the same factor over a round: HoldCap.voltage
        # one round after its recharge, computed once
        decay = HoldCap(1.0).voltage(round_ticks, sim.tau_s)
        for e, cap in enumerate(caps):
            dev = abs(cap.v - cap.v * decay)
            if dev > worst[e]:
                worst[e] = dev
            cap.t_set += rounds * round_ticks
        self.index += rounds * n


class RfController:
    """Double-buffered pulse playback.

    ``words`` holds at most two command words: the latched one, whose two
    sets play in turn, then the staged one, which moves into the latch array
    once both latched sets have played. A command received while two words
    are held is refused. Per sample, the two read addresses are built from
    the playing set's pair of sequence ids (set ``set_index`` of the head
    word) and the sample counter; the next set follows at the sequence
    boundary without a gap.
    """

    def __init__(self, sim):
        self.sim = sim
        self.words: deque[RfCommandWord] = deque()
        self.set_index = 0   # of the head word's set that is playing
        self.sample_counter = 0

    def command_received(self, t: int, cmd: RfCommandWord):
        sim, words = self.sim, self.words
        if len(words) == 2:
            sim.trace.append(t, sim.control_signals["rf_cmd_ignored"], 1)
            sim.backpressure_count += 1
            return
        words.append(cmd)
        if len(words) == 1:
            # the sample clock is stopped: latch, and start it on the grid
            sim.trace.append(t, sim.control_signals["latch_transfer"], 1)
            period = sim.sample_period_ticks
            sim._push(-(-t // period) * period, PRIORITY_RF, self.sample_edge)

    def sample_edge(self, t: int, _) -> int | None:
        """Emit the samples from ``t`` up to the next queued event; return the
        next sample edge, or ``None`` once the clock stops."""
        sim = self.sim
        horizon = sim.horizon()
        period, l_pulse, rf = sim.sample_period_ticks, sim.l_pulse, sim.memory.rf
        trace, pair, words = sim.trace, sim.rf_signals, self.words
        while True:
            word, i = words[0], 2 * self.set_index
            id_a, id_b = word[i], word[i + 1]
            k = self.sample_counter
            # this edge and the sequence's later edges before the horizon
            stop = min(l_pulse, k + 1 + max(0, (horizon - t - 1) // period))
            # the block's rows, rf_a then rf_b at each edge
            m, addr_a, addr_b = stop - k, id_a * l_pulse + k, id_b * l_pulse + k
            edges = list(range(t, t + m * period, period))
            ticks, codes = [0] * (2 * m), [0] * (2 * m)
            ticks[::2] = ticks[1::2] = edges
            codes[::2], codes[1::2] = rf[addr_a:addr_a + m], rf[addr_b:addr_b + m]
            trace.extend(ticks, pair * m, codes)
            t += m * period
            sim.rf_samples_emitted += m
            if stop < l_pulse:
                self.sample_counter = stop
                return t
            last = t - period
            trace.append(last, sim.control_signals["end_sequ"], 1)
            self.sample_counter = 0
            self.set_index ^= 1
            if self.set_index == 0:
                # both sets of the latched word have played: the staged word,
                # if any, moves into the latch array
                words.popleft()
                if not words:
                    return None
                trace.append(last, sim.control_signals["latch_transfer"], 1)
            if t >= horizon:
                return t


# ---------------------------------------------------------------------------
# Simulator

class Simulator:
    """Event loop over the two clock domains; see the module docstring."""

    def __init__(self, scenario: Scenario):
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
        self.n_electrodes = s.n_bias_signals
        self.n_bias = s.n_bias
        self.n_rf = s.n_rf
        self.l_pulse = s.l_pulse
        self.n_pulses = s.n_pulses
        self.v_range_bias = s.v_range_bias
        self.rf_lsb = s.v_range_rf / (1 << s.n_rf)

        self.f_clk_bias = scenario.clocks.f_clk_bias
        self.f_clk_rf = scenario.clocks.f_clk_rf
        t_bias, bias_error = _period_ticks(self.f_clk_bias)
        self.t_rf_ticks, rf_error = _period_ticks(self.f_clk_rf)
        self.clock_quantisation_rel = {"clk_bias": bias_error, "clk_rf": rf_error}
        for name, f_hz, error in (("clk_bias", self.f_clk_bias, bias_error),
                                  ("clk_rf", self.f_clk_rf, rf_error)):
            if abs(error) > MAX_CLOCK_QUANTISATION_REL:
                raise SimulationConfigError(
                    f"{name}={f_hz:.6g} Hz cannot be simulated: its period in whole "
                    f"1e-21 s ticks is off by a relative {abs(error):.3g}, over the limit "
                    f"of {MAX_CLOCK_QUANTISATION_REL:g} that every clock of 2 THz or "
                    f"slower meets")
        # Logic is edge triggered: one DAC conversion / output sample every
        # second clock of its domain.
        self.conversion_period_ticks = 2 * t_bias
        self.sample_period_ticks = 2 * self.t_rf_ticks

        self.tau_s = scenario.tech.r_off_effective() * scenario.c_h

        self.memory = MemoryBank(
            n_bias=d.bias_width, n_rf=d.rf_width,
            bias_registers=d.bias_registers, rf_registers=d.rf_registers,
        )
        try:
            check_payload_widths(d.bias_width, d.rf_width)
        except ProtocolError as exc:
            raise SimulationConfigError(str(exc)) from exc
        # Below a code step of 2**-1074, the smallest float, two codes can
        # decode to one value; a ramp block emits one row a step.
        if s.v_range_bias < math.ldexp(1.0, s.n_bias - 1074):
            raise SimulationConfigError(
                f"spec.v_range_bias={s.v_range_bias!r} V over the 2**{s.n_bias} codes of "
                f"spec.n_bias={s.n_bias} gives a code step below the smallest float, "
                f"2**-1074 V, so consecutive bias codes cannot be told apart")
        self.bias_ctrl = BiasController(self)
        self.rf_ctrl = RfController(self)
        self.caps = [HoldCap() for _ in range(self.n_electrodes)]

        # each signal and its exact decoder; an electrode's voltage is computed
        # by its decoder only, in the run as in the trace text
        self.trace = trace = Trace()
        rf_lsb, bias_size, v_range_bias = self.rf_lsb, 1 << self.n_bias, self.v_range_bias

        def rf_value(code):
            return code * rf_lsb

        def bias_value(code):
            return code / bias_size * v_range_bias

        self.bias_value = bias_value
        self.rf_signals = [trace.signal(name, rf_value) for name in ("rf_a", "rf_b")]
        self.bias_signals = [trace.signal(f"bias_e{e}", bias_value)
                             for e in range(self.n_electrodes)]
        # the other signals hold 0.0, 1.0 or a register address
        self.control_signals = {name: trace.signal(name, float) for name in (
            "write_select", "write_enable", "feedback", "latch_transfer", "end_sequ",
            "rf_cmd_ignored", "ramp_mode")}
        self.max_refresh_deviation = [0.0] * self.n_electrodes
        self.backpressure_count = 0
        self.rf_samples_emitted = 0

        self._queue: list = []
        self._seq = 0
        self._t_end: int | None = None  # ticks, set when the run starts
        # the queued data words, the one in flight first, at clock _frame_pos;
        # the signals of the serial line's rows, and the bank each word writes
        self._frames: deque[DataWord] = deque()
        self._frame_pos = 0
        self._line_signals = tuple(self.control_signals[name] for name in
                                   ("write_select", "write_enable", "feedback"))
        self._banks = {WordType.BIAS: self.memory.bias, WordType.RF: self.memory.rf}

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
        v_ideal = self.bias_value(code)
        if cap.code == code:   # a recharge: measure the droop since the last one
            dev = abs(v_ideal - cap.voltage(t, self.tau_s))
            if dev > self.max_refresh_deviation[electrode]:
                self.max_refresh_deviation[electrode] = dev
        # the hold capacitor holds the last emitted value, 0 V at start
        if v_ideal != cap.v:
            self.trace.append(t, self.bias_signals[electrode], code)
        cap.v = v_ideal
        cap.t_set = t
        cap.code = code

    # rf domain: serial data input -------------------------------------------

    def _word_clock_event(self, t: int, _) -> int | None:
        """Clock the serial line from ``t`` up to the next queued event; return
        the next clock, or ``None`` once no word is left."""
        horizon = self.horizon()
        period, frames, extend = self.t_rf_ticks, self._frames, self.trace.extend
        select, enable, feedback = self._line_signals
        while True:
            word = frames[0]
            pos, w = self._frame_pos, word.width
            # clock rx takes the last frame bit; write clocks rx+1 .. rx+w
            # shift the payload in, MSB first, while the line idles low
            rx = HEADER_AND_TYPE_BITS + ADDRESS_BITS + w - 1
            # this clock and the word's later clocks before the horizon
            stop = min(rx + w, pos + max(0, (horizon - t - 1) // period))
            if pos <= rx <= stop:
                t_rx = t + (rx - pos) * period
                extend((t_rx, t_rx), (select, enable), (word.address, 1))
            # write clocks run before this block, and by its end
            done, now = max(0, pos - rx - 1), max(0, stop - rx)
            if now > done:
                k = now - done
                bank = self._banks[word.kind]
                bits = (word.payload >> (w - now)) & ((1 << k) - 1)
                bank[word.address] = (bank[word.address] << k | bits) & ((1 << w) - 1)
            t += (stop - pos) * period
            if stop < rx + w:
                self._frame_pos = stop + 1
                return t + period
            extend((t, t), (enable, feedback), (0, 1))
            # feedback issued; the next queued word may start on the next clock
            frames.popleft()
            self._frame_pos = 0
            if not frames:
                return None
            t += period
            if t >= horizon:
                return t

    # stimulus ---------------------------------------------------------------

    def _write_event(self, t: int, word: DataWord):
        self._frames.append(word)
        if len(self._frames) == 1:  # the line was free
            self._push(t, PRIORITY_RF, self._word_clock_event)

    def _ramp_mode_event(self, t: int, on: bool):
        self.bias_ctrl.ramp_mode = on
        self.trace.append(t, self.control_signals["ramp_mode"], int(on))

    @staticmethod
    def _tick_event(t: int, actions: list):
        """Apply the writes and ramp-mode commands sent at ``t``, in the order
        of their written times, then of their lines."""
        for fn, arg in actions:
            fn(t, arg)

    # run ---------------------------------------------------------------------

    def run(self, stimulus: Path | str | None, t_end_ns: float) -> Trace:
        """Simulate up to ``t_end_ns``, once; the whole stimulus is checked
        first, and its ramp-mode time is bounded by ``MAX_RAMP_STEPS``. Any
        positive, finite ``t_end_ns`` is accepted: the quiet refresh rounds
        after the last event are skipped in closed form."""
        if self._t_end is not None:
            raise RuntimeError("this Simulator has already run; build a new one")
        if not 0 < t_end_ns < math.inf:
            raise ValueError(f"t_end_ns must be positive and finite, got {t_end_ns!r}")
        self._t_end = t_end = to_ticks(t_end_ns)
        ramp_ticks, ramp_since = 0, None   # ramp-mode time in [0, t_end]
        sent: dict[int, list] = {}   # tick -> the writes and ramp-mode commands sent then
        receptions = []
        last_ns = None   # the commands come sorted by time: each distinct time once
        kinds = {"write-bias": (WordType.BIAS, self.n_bias), "write-rf": (WordType.RF, self.n_rf)}
        for t_ns, op, args, line in parse_stimulus(stimulus) if stimulus is not None else []:
            if t_ns != last_ns:
                last_ns, t = t_ns, to_ticks(t_ns)
            try:
                if op == "play":
                    word = RfCommandWord(*args)
                    if max(word) >= self.n_pulses:
                        raise ProtocolError(f"sequence id {max(word)} beyond the "
                                            f"{self.n_pulses} stored sequences")
                    # the command's serial frame is received before it is staged
                    receptions.append((t + RF_COMMAND_BITS * self.t_rf_ticks, word))
                elif op == "ramp-mode":
                    sent.setdefault(t, []).append((self._ramp_mode_event, args[0]))
                    if args[0] == (ramp_since is None):  # a switch
                        if ramp_since is None:
                            ramp_since = min(t, t_end)
                        else:
                            ramp_ticks += min(t, t_end) - ramp_since
                            ramp_since = None
                else:   # write-bias or write-rf
                    kind, width = kinds[op]
                    word = DataWord(kind, *args, width)
                    if not self.memory.holds(kind, word.address):
                        raise ProtocolError(f"{kind.value} register {word.address} does "
                                            f"not exist in the scenario's memory")
                    sent.setdefault(t, []).append((self._write_event, word))
            except ProtocolError as exc:
                raise StimulusError(f"stimulus line {line}: {exc}") from exc
        if ramp_since is not None:
            ramp_ticks += t_end - ramp_since
        if ramp_ticks > MAX_RAMP_STEPS * self.conversion_period_ticks:
            raise ValueError(f"the stimulus holds ramp mode on for over the limit of "
                             f"{MAX_RAMP_STEPS} ramp steps (bias conversions) per run")
        for t, actions in sent.items():
            self._push(t, PRIORITY_RF, self._tick_event, actions)
        # The receptions take the sequence numbers after every stimulus tick's,
        # so at a shared tick the commands sent then still apply first. Every
        # other RF event is queued at run time, after them, and none can be
        # queued at a reception's tick before its play was sent: a clocked
        # handler returns an edge less than 2 RF clocks past its horizon, and a
        # reception comes RF_COMMAND_BITS = 17 RF clocks after its send tick.
        for t, word in receptions:
            self._push(t, PRIORITY_RF, self.rf_ctrl.command_received, word)

        self.trace.emit(0, "clk_bias_hz", self.f_clk_bias)
        self.trace.emit(0, "clk_rf_hz", self.f_clk_rf)
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
