"""Serial data-word wire format and the clocked reception state machines.

Data words configure the memories. Frame layout, MSB first on an idle-low
line::

    header(1, always '1') | type(1, 0=bias 1=rf) | address(8) | payload(n)

where n is the bias or pulse resolution depending on the type bit, so a
frame is 10+n bits. Reception is timed by a 5-bit cycle counter, which caps
the payload at 21 bits (frame <= 31 cycles).

Pulse playback commands use a separate 17-bit word::

    header(1) | id_e1(4) | id_e2(4) | id_e1(4) | id_e2(4)

i.e. two sets of per-electrode sequence identifiers that are executed in
order.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ..config import replace

BIAS_TYPE_BIT = 0
RF_TYPE_BIT = 1
ADDRESS_BITS = 8
HEADER_AND_TYPE_BITS = 2
RECEPTION_COUNTER_BITS = 5
MAX_PAYLOAD_BITS = (2 ** RECEPTION_COUNTER_BITS - 1) - ADDRESS_BITS - HEADER_AND_TYPE_BITS

RF_COMMAND_BITS = 17
SEQUENCE_ID_BITS = 4


class ProtocolError(ValueError):
    """Malformed frame or field out of range."""


class WordType(str, Enum):
    BIAS = "bias"
    RF = "rf"


class _DataWordFields(NamedTuple):
    kind: WordType  # a member or its value
    address: int
    payload: int
    width: int  # payload bits


class DataWord(_DataWordFields):
    __slots__ = ()
    _replace = replace   # built again, and so checked, as the constructor builds it

    def __new__(cls, kind: WordType, address: int, payload: int, width: int):
        if type(kind) is not WordType:
            try:
                kind = WordType(kind)
            except ValueError:
                raise ProtocolError(f"kind must be 'bias' or 'rf', got {kind!r}") from None
        # the wire limit only; whether the register exists is the memory's
        # answer (``MemoryBank.holds``)
        if not 0 <= address < 2 ** ADDRESS_BITS:
            raise ProtocolError(
                f"address {address} out of range for the {ADDRESS_BITS}-bit address field"
            )
        if not 1 <= width <= MAX_PAYLOAD_BITS:
            raise ProtocolError(f"payload width must be in [1, {MAX_PAYLOAD_BITS}]")
        if not 0 <= payload < 2 ** width:
            raise ProtocolError(f"payload {payload} does not fit in {width} bits")
        return tuple.__new__(cls, (kind, address, payload, width))


class _RfCommandFields(NamedTuple):
    id_e1_set1: int
    id_e2_set1: int
    id_e1_set2: int
    id_e2_set2: int


class RfCommandWord(_RfCommandFields):
    """Two (electrode-1 id, electrode-2 id) sets, executed set1 then set2."""

    __slots__ = ()
    _replace = replace   # built again, and so checked, as the constructor builds it

    def __new__(cls, id_e1_set1: int, id_e2_set1: int, id_e1_set2: int, id_e2_set2: int):
        self = tuple.__new__(cls, (id_e1_set1, id_e2_set1, id_e1_set2, id_e2_set2))
        for v in self:
            if not 0 <= v < 2 ** SEQUENCE_ID_BITS:
                raise ProtocolError(f"sequence id {v} out of range")
        return self

    def ids(self) -> tuple[int, int, int, int]:
        return tuple(self)

    def pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.id_e1_set1, self.id_e2_set1), (self.id_e1_set2, self.id_e2_set2))


def check_payload_widths(n_bias: int, n_rf: int) -> None:
    """Refuse a bias or pulse resolution the reception counter cannot time."""
    for name, n in (("n_bias", n_bias), ("n_rf", n_rf)):
        if n > MAX_PAYLOAD_BITS:
            raise ProtocolError(
                f"{name}={n} exceeds the {MAX_PAYLOAD_BITS}-bit payload limit of "
                f"the {RECEPTION_COUNTER_BITS}-bit reception counter"
            )


def _to_bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def encode_dataword(word: DataWord) -> str:
    """Serialize a data word to its '0'/'1' bitstream, MSB first."""
    type_bit = BIAS_TYPE_BIT if word.kind is WordType.BIAS else RF_TYPE_BIT
    return (
        "1"
        + str(type_bit)
        + _to_bits(word.address, ADDRESS_BITS)
        + _to_bits(word.payload, word.width)
    )


def decode_dataword(bits: str, n_bias: int, n_rf: int) -> DataWord:
    """Parse one complete frame (the pure inverse of encode_dataword)."""
    if len(bits) < HEADER_AND_TYPE_BITS + ADDRESS_BITS:
        raise ProtocolError("frame truncated before address field")
    if bits[0] != "1":
        raise ProtocolError("frame must start with header bit 1")
    kind = WordType.BIAS if bits[1] == "0" else WordType.RF
    width = n_bias if kind is WordType.BIAS else n_rf
    expected = HEADER_AND_TYPE_BITS + ADDRESS_BITS + width
    if len(bits) != expected:
        raise ProtocolError(f"{kind.value} frame must be {expected} bits, got {len(bits)}")
    address = int(bits[2:2 + ADDRESS_BITS], 2)
    payload = int(bits[2 + ADDRESS_BITS:], 2)
    return DataWord(kind, address, payload, width)


def encode_rf_command(cmd: RfCommandWord) -> str:
    return "1" + "".join(_to_bits(v, SEQUENCE_ID_BITS) for v in cmd.ids())


def decode_rf_command(bits: str) -> RfCommandWord:
    if len(bits) != RF_COMMAND_BITS:
        raise ProtocolError(f"command word must be {RF_COMMAND_BITS} bits")
    if bits[0] != "1":
        raise ProtocolError("command word must start with header bit 1")
    vals = [int(bits[1 + i * 4:5 + i * 4], 2) for i in range(4)]
    return RfCommandWord(*vals)


class DataInputController:
    """Clocked reception FSM: shift register plus 5-bit cycle counter.

    The model counts received bits in the shift register itself; the cycle
    counter only bounds the frame length, which ``__init__`` enforces. The
    simulator lands the same rows and register values in closed form
    (``Simulator._word_clock_event``); this is the clocked model it is
    tested against.

    ``step(bit)`` advances one clock with the given line value and returns
    the events raised on that edge as (signal, value) tuples. After the
    last payload bit the addressed register is selected, enable pulses, and
    the payload is shifted into the memory over ``width`` write clocks;
    completion is acknowledged on the feedback output. A new header is
    accepted only after feedback, line activity in between is ignored. A
    frame addressed to a register the memory does not hold raises
    ``protocol_error`` and writes nothing.
    """

    IDLE = "idle"
    RECEIVE = "receive"
    WRITE = "write"

    def __init__(self, memory, n_bias: int, n_rf: int):
        check_payload_widths(n_bias, n_rf)
        self.memory = memory
        self.n_bias = n_bias
        self.n_rf = n_rf
        self.reset()

    def reset(self):
        self.state = self.IDLE
        self.bits: list[str] = []
        self.word: DataWord | None = None
        self.write_index = 0

    @property
    def busy(self) -> bool:
        return self.state != self.IDLE

    def _frame_length(self) -> int | None:
        if len(self.bits) < HEADER_AND_TYPE_BITS:
            return None
        width = self.n_bias if self.bits[1] == "0" else self.n_rf
        return HEADER_AND_TYPE_BITS + ADDRESS_BITS + width

    def step(self, bit: int) -> list[tuple[str, float]]:
        events: list[tuple[str, float]] = []
        bit = 1 if bit else 0

        if self.state == self.IDLE:
            if bit == 1:
                self.bits = ["1"]
                self.state = self.RECEIVE
            return events

        if self.state == self.RECEIVE:
            self.bits.append(str(bit))
            if len(self.bits) == self._frame_length():
                try:
                    self.word = decode_dataword("".join(self.bits), self.n_bias, self.n_rf)
                    if not self.memory.holds(self.word.kind, self.word.address):
                        raise ProtocolError(f"no {self.word.kind.value} register "
                                            f"{self.word.address}")
                except ProtocolError:
                    events.append(("protocol_error", 1.0))
                    self.reset()
                    return events
                events.append(("write_select", float(self.word.address)))
                events.append(("write_enable", 1.0))
                self.state = self.WRITE
                self.write_index = 0
            return events

        # WRITE: the buffered payload shifts into the addressed register one
        # bit per clock; the serial line is ignored meanwhile.
        w = self.word
        payload_bit = (w.payload >> (w.width - 1 - self.write_index)) & 1
        if w.kind is WordType.BIAS:
            self.memory.shift_in_bias(w.address, payload_bit)
        else:
            self.memory.shift_in_rf(w.address, payload_bit)
        self.write_index += 1
        if self.write_index == w.width:
            events.append(("write_enable", 0.0))
            events.append(("feedback", 1.0))
            self.reset()
        return events

    def feed(self, bits: str) -> list[tuple[str, float]]:
        """Clock a whole bitstream through the FSM (plus the write clocks)."""
        events = []
        for b in bits:
            events.extend(self.step(int(b)))
        while self.state == self.WRITE:
            events.extend(self.step(0))
        return events

    def abort(self) -> list[tuple[str, float]]:
        """Line went idle mid-word (stream ended): error event, reset."""
        if self.state == self.IDLE:
            return []
        self.reset()
        return [("protocol_error", 1.0)]


class RfCommandReceiver:
    """17-bit clocked reception of a pulse playback command.

    The model of the command frame. A whole frame gives back the word that
    was encoded, so the simulator does not clock one: it stages a play's word
    ``RF_COMMAND_BITS`` RF clocks after the play.
    """

    def __init__(self):
        self.bits: list[str] = []
        self.receiving = False

    @property
    def busy(self) -> bool:
        return self.receiving

    def step(self, bit: int) -> RfCommandWord | None:
        bit = 1 if bit else 0
        if not self.receiving:
            if bit == 1:
                self.receiving = True
                self.bits = ["1"]
            return None
        self.bits.append(str(bit))
        if len(self.bits) == RF_COMMAND_BITS:
            cmd = decode_rf_command("".join(self.bits))
            self.receiving = False
            self.bits = []
            return cmd
        return None

    def feed(self, bits: str) -> RfCommandWord | None:
        cmd = None
        for b in bits:
            got = self.step(int(b))
            if got is not None:
                cmd = got
        return cmd
