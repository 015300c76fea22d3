import pytest
from hypothesis import given, settings, strategies as st

from cryoctrl.sim import (
    DataInputController,
    DataWord,
    MemoryBank,
    ProtocolError,
    RfCommandReceiver,
    RfCommandWord,
    WordType,
    decode_dataword,
    decode_rf_command,
    encode_dataword,
    encode_rf_command,
)

N_BIAS, N_RF = 12, 10


def test_encode_bias_word_layout():
    w = DataWord(WordType.BIAS, 3, 0x800, N_BIAS)
    assert encode_dataword(w) == "1" + "0" + "00000011" + "100000000000"


def test_encode_rf_word_layout():
    w = DataWord(WordType.RF, 255, (1 << N_RF) - 1, N_RF)
    bits = encode_dataword(w)
    assert len(bits) == 20
    assert bits == "1" + "1" + "11111111" + "1" * 10


def test_word_field_validation():
    with pytest.raises(ProtocolError, match="address"):
        DataWord(WordType.BIAS, 256, 0, N_BIAS)
    with pytest.raises(ProtocolError, match="address"):
        DataWord(WordType.RF, 256, 0, N_RF)
    with pytest.raises(ProtocolError, match="payload"):
        DataWord(WordType.BIAS, 0, 1 << N_BIAS, N_BIAS)
    with pytest.raises(ProtocolError, match="width"):
        DataWord(WordType.BIAS, 0, 0, 22)


def test_a_word_takes_its_kind_as_a_member_or_its_value():
    bits = encode_dataword(DataWord("bias", 3, 5, N_BIAS))
    assert bits == "1" + "0" + "00000011" + "000000000101"   # type bit 0: a bias frame
    for kind, width in ((WordType.BIAS, N_BIAS), (WordType.RF, N_RF)):
        word = DataWord(kind.value, 3, 5, width)
        assert word.kind is kind
        bits = encode_dataword(word)
        assert bits == encode_dataword(DataWord(kind, 3, 5, width))
        assert decode_dataword(bits, N_BIAS, N_RF) == word
    with pytest.raises(ProtocolError, match="kind must be 'bias' or 'rf'"):
        DataWord("dc", 3, 5, N_BIAS)


def test_decode_rejects_malformed():
    with pytest.raises(ProtocolError, match="header"):
        decode_dataword("0" * 22, N_BIAS, N_RF)
    with pytest.raises(ProtocolError, match="bits"):
        decode_dataword("10" + "0" * 8 + "0" * 5, N_BIAS, N_RF)


word_strategy = st.one_of(
    st.builds(
        DataWord,
        st.just(WordType.BIAS),
        st.integers(0, 8),
        st.integers(0, 2 ** N_BIAS - 1),
        st.just(N_BIAS),
    ),
    st.builds(
        DataWord,
        st.just(WordType.RF),
        st.integers(0, 255),
        st.integers(0, 2 ** N_RF - 1),
        st.just(N_RF),
    ),
)


@settings(max_examples=1000, deadline=None)
@given(word=word_strategy)
def test_encode_decode_round_trip(word):
    assert decode_dataword(encode_dataword(word), N_BIAS, N_RF) == word


@settings(max_examples=200, deadline=None)
@given(ids=st.tuples(*[st.integers(0, 15)] * 4))
def test_rf_command_round_trip(ids):
    cmd = RfCommandWord(*ids)
    assert decode_rf_command(encode_rf_command(cmd)) == cmd
    # a whole frame clocked through the receiver gives the word back, which
    # is why the simulator stages a play's word without clocking its frame
    assert RfCommandReceiver().feed(encode_rf_command(cmd)) == cmd


def test_rf_command_id_range():
    with pytest.raises(ProtocolError):
        RfCommandWord(16, 0, 0, 0)


# --- clocked controller -----------------------------------------------------

def _controller():
    mem = MemoryBank(n_bias=N_BIAS, n_rf=N_RF)
    return DataInputController(mem, N_BIAS, N_RF), mem


def test_fsm_writes_addressed_register():
    ctrl, mem = _controller()
    word = DataWord(WordType.BIAS, 0, 0xABC, N_BIAS)
    events = ctrl.feed(encode_dataword(word))
    assert mem.read_bias(0) == 0xABC
    signals = [s for s, _ in events]
    assert signals == ["write_select", "write_enable", "write_enable", "feedback"]
    assert not ctrl.busy


def test_fsm_reception_timing():
    # reception occupies 10+n clocks, the serial write n more; feedback on
    # the last write clock
    ctrl, mem = _controller()
    bits = encode_dataword(DataWord(WordType.BIAS, 4, 0x123, N_BIAS))
    clocks = 0
    feedback_at = None
    for b in bits:
        events = ctrl.step(int(b))
        clocks += 1
    while ctrl.busy:
        events = ctrl.step(0)
        clocks += 1
        if ("feedback", 1.0) in events:
            feedback_at = clocks
    assert feedback_at == (10 + N_BIAS) + N_BIAS


def test_fsm_ignores_line_until_feedback():
    ctrl, mem = _controller()
    bits = encode_dataword(DataWord(WordType.BIAS, 1, 0xFFF, N_BIAS))
    for b in bits:
        ctrl.step(int(b))
    # a new header in the write phase must not start a reception
    assert ctrl.state == ctrl.WRITE
    ctrl.step(1)
    assert ctrl.state == ctrl.WRITE
    while ctrl.busy:
        ctrl.step(1)
    assert mem.read_bias(1) == 0xFFF


def test_fsm_idle_line_stays_idle():
    ctrl, _ = _controller()
    for _ in range(100):
        assert ctrl.step(0) == []
    assert not ctrl.busy


@pytest.mark.parametrize("registers, address", [(9, 9), (9, 42), (5, 7)])
def test_fsm_bad_address_emits_error_and_resets(registers, address):
    # a well-formed frame addressed to a bias register the bank does not hold
    mem = MemoryBank(n_bias=N_BIAS, n_rf=N_RF, bias_registers=registers)
    ctrl = DataInputController(mem, N_BIAS, N_RF)
    bad = "1" + "0" + format(address, "08b") + "1" * N_BIAS
    events = ctrl.feed(bad)
    assert ("protocol_error", 1.0) in events
    assert not ctrl.busy
    assert mem.bias == [0] * registers


def test_fsm_abort_mid_word():
    ctrl, _ = _controller()
    for b in "10":
        ctrl.step(int(b))
    assert ctrl.busy
    events = ctrl.abort()
    assert events == [("protocol_error", 1.0)]
    assert not ctrl.busy
    assert ctrl.abort() == []


def test_resolution_limit_of_reception_counter():
    mem = MemoryBank(n_bias=21, n_rf=10)
    DataInputController(mem, 21, 10)  # 10+21 = 31 cycles: still representable
    with pytest.raises(ProtocolError, match="counter"):
        DataInputController(mem, 22, 10)


@settings(max_examples=300, deadline=None)
@given(word=word_strategy)
def test_fsm_round_trip_through_memory(word):
    ctrl, mem = _controller()
    ctrl.feed(encode_dataword(word))
    if word.kind is WordType.BIAS:
        assert mem.read_bias(word.address) == word.payload
    else:
        assert mem.read_rf(word.address) == word.payload


def test_rf_receiver_timing():
    rx = RfCommandReceiver()
    bits = encode_rf_command(RfCommandWord(1, 2, 3, 4))
    assert len(bits) == 17
    got = None
    for i, b in enumerate(bits):
        got = rx.step(int(b))
        if i < 16:
            assert got is None
    assert got == RfCommandWord(1, 2, 3, 4)
    assert not rx.busy


@pytest.mark.parametrize("call, message", [
    (lambda: decode_dataword("1" + "0" * 8, N_BIAS, N_RF), "frame truncated before address field"),
    (lambda: decode_rf_command("1" * 16), "command word must be 17 bits"),
    (lambda: decode_rf_command("1" * 18), "command word must be 17 bits"),
    (lambda: decode_rf_command("0" + "1" * 16), "command word must start with header bit 1"),
])
def test_a_malformed_frame_is_refused(call, message):
    with pytest.raises(ProtocolError) as info:
        call()
    assert (info.type, str(info.value)) == (ProtocolError, message)
