import math

import pytest
from hypothesis import given, strategies as st

from cryoctrl import (
    DacArchitecture,
    johnson_rms,
    ktc_rms,
    max_unit_res,
    min_hold_cap,
    min_unit_cap,
)
from cryoctrl.noise import K_B, BoundKind

# Frozen oracle values: each is sqrt(kT/C), sqrt(4kTRB), or the algebraic
# inverse thereof, evaluated independently with k_B = 1.380649e-23 J/K.


def test_ktc_examples():
    assert ktc_rms(2.456e-12, 0.2) == pytest.approx(1.0603334e-6, rel=1e-6)
    # pooled hold capacitance at the minimum bound gives back the budget
    assert ktc_rms(38.35136e-15 * 8, 0.2) == pytest.approx(3.0e-6, rel=1e-6)
    assert ktc_rms(1e6, 0.2) == pytest.approx(0.0, abs=1e-12)


def test_ktc_domain_errors():
    with pytest.raises(ValueError):
        ktc_rms(0.0, 0.2)
    with pytest.raises(ValueError):
        ktc_rms(1e-12, -1.0)


@pytest.mark.parametrize("call", [
    lambda: ktc_rms(float("nan"), 4.0),
    lambda: ktc_rms(1e-12, float("nan")),
    lambda: johnson_rms(1e3, float("nan"), 1e6),
    lambda: johnson_rms(float("nan"), 4.0, 1e6),
    lambda: min_unit_cap(8, float("nan"), 4.0),
], ids=["ktc-c", "ktc-t", "johnson-t", "johnson-r", "min-unit-cap-dv"])
def test_a_nan_operand_is_refused(call):
    with pytest.raises(ValueError, match="must be positive, got nan"):
        call()


def test_johnson_examples():
    assert johnson_rms(81.4834183e3, 0.2, 10e6) == pytest.approx(3.0e-6, rel=1e-6)
    assert johnson_rms(9.6572940e3, 0.2, 600e6) == pytest.approx(8.0e-6, rel=1e-6)
    with pytest.raises(ValueError):
        johnson_rms(0.0, 0.2, 10e6)


def test_min_unit_cap_examples():
    assert min_unit_cap(12, 3e-6, 0.2).value == pytest.approx(4.7939201e-15, rel=1e-6)
    assert min_unit_cap(10, 8e-6, 0.2).value == pytest.approx(1.3482900e-15, rel=1e-6)
    # temperature enters linearly: x9 from 0.2 K to 1.8 K
    assert min_unit_cap(12, 3e-6, 1.8).value == pytest.approx(4.3145281e-14, rel=1e-6)
    b = min_unit_cap(12, 3e-6, 0.2)
    assert b.kind is BoundKind.MIN_CAPACITANCE
    assert "3e-06" in b.binding_spec


def test_min_unit_cap_odd_resolution_uses_real_power():
    v = min_unit_cap(11, 3e-6, 0.2).value
    assert v == pytest.approx(K_B * 0.2 / (2 ** 5.5 * 9e-12), rel=1e-12)


def test_max_unit_res_examples():
    ladder = max_unit_res(DacArchitecture.LADDER, 12, 3e-6, 0.2, 10e6)
    assert ladder.value == pytest.approx(81483.42, rel=1e-4)
    kelvin16 = max_unit_res(DacArchitecture.KELVIN, 16, 3e-6, 0.2, 10e6)
    assert kelvin16.value == pytest.approx(4.97335, rel=1e-4)
    kelvin10 = max_unit_res(DacArchitecture.KELVIN, 10, 8e-6, 0.2, 600e6)
    assert kelvin10.value == pytest.approx(37.7238, rel=1e-4)
    rf_ladder = max_unit_res(DacArchitecture.LADDER, 10, 8e-6, 0.2, 600e6)
    assert rf_ladder.value == pytest.approx(9657.29, rel=1e-4)


def test_max_unit_res_rejects_cap():
    with pytest.raises(ValueError, match="no resistive"):
        max_unit_res(DacArchitecture.CAP, 12, 3e-6, 0.2, 10e6)


def test_min_hold_cap_examples():
    assert min_hold_cap(8, 3e-6, 0.2).value == pytest.approx(3.8351361e-14, rel=1e-6)
    # linear in 1/N
    assert min_hold_cap(1, 3e-6, 0.2).value == pytest.approx(3.0681089e-13, rel=1e-6)
    assert min_hold_cap(8, 3e-6, 1.8).value == pytest.approx(3.4516225e-13, rel=1e-6)


@pytest.mark.parametrize("bound, args, value", [
    (min_unit_cap, (10, 1e-200, 0.2), "inf"),        # dv^2 underflows to 0
    (min_unit_cap, (10, 1e300, 0.2), "0.0"),         # dv^2 overflows
    (min_hold_cap, (8, 1e-200, 0.2), "inf"),
    (max_unit_res, (DacArchitecture.LADDER, 12, 1e-200, 0.2, 10e6), "0.0"),
    (max_unit_res, (DacArchitecture.LADDER, 12, 3e-6, 5e-324, 1e-300), "inf"),
])
def test_a_bound_that_underflows_or_overflows_names_its_requirement(bound, args, value):
    with pytest.raises(ValueError, match=r"the \w+ bound of .+ V\)\^2 at .+ is " + value):
        bound(*args)


class _Unformattable(float):
    """An operand that fails the test where it is formatted into a requirement."""

    def __format__(self, spec):
        raise AssertionError("the requirement text was formatted")


@pytest.mark.parametrize("bound, args", [
    (min_unit_cap, (10, 1e-200, 0.2)),
    (min_unit_cap, (10, 1e300, 0.2)),
    (min_unit_cap, (11, 8e-6, 0.2)),
    (min_hold_cap, (8, 1e-200, 0.2)),
    (min_hold_cap, (8, 3e-6, 1.8)),
    (max_unit_res, (DacArchitecture.LADDER, 12, 1e-200, 0.2, 10e6)),
    (max_unit_res, ("kelvin", 12, 3e-6, 5e-324, 1e-300)),
    (max_unit_res, ("ladder", 10, 8e-6, 0.2, 600e6)),
    (max_unit_res, (DacArchitecture.CAP, 10, 8e-6, 0.2, 600e6)),
    (min_unit_cap, (10, math.nan, 0.2)),
])
def test_a_bound_value_is_its_bound_without_the_text(bound, args):
    # a bound is built, and its value read, without formatting its
    # requirement; the text is formatted where binding_spec is read
    try:
        expected = bound(*args)
    except ValueError:   # refused: the messages are pinned below
        return
    b = bound(*(_Unformattable(a) if type(a) is float else a for a in args))
    assert b.value == expected.value and b.kind is expected.kind
    with pytest.raises(AssertionError, match="formatted"):
        b.binding_spec


@pytest.mark.parametrize("order", [(8, 8.0), (8.0, 8)])
def test_a_bound_keeps_the_types_of_its_operands(order):
    min_hold_cap.cache_clear()
    for n in order:
        assert min_hold_cap(n, 3e-6, 0.2).binding_spec == \
            f"kT/(N*C) <= (3e-06 V)^2 at 0.2 K, N={n!r}"


@pytest.mark.parametrize("bound, args", [
    (min_hold_cap, (8, 1e-200, 0.2)),
    (min_unit_cap, (10, math.nan, 0.2)),
    (max_unit_res, ("sigma-delta", 12, 3e-6, 0.2, 10e6)),
    (max_unit_res, (DacArchitecture.CAP, 10, 8e-6, 0.2, 600e6)),
])
def test_a_refused_operand_is_refused_on_every_call(bound, args):
    for _ in range(3):
        with pytest.raises(ValueError):
            bound(*args)


def test_a_refused_bound_message_is_pinned():
    with pytest.raises(ValueError) as refused:
        min_hold_cap(8, 1e-200, 0.2)
    assert str(refused.value) == ("the min_capacitance bound of kT/(N*C) <= (1e-200 V)^2 at "
                                  "0.2 K, N=8 is inf, not positive and finite")
    with pytest.raises(ValueError) as refused:
        max_unit_res("ladder", 12, 1e-200, 0.2, 10e6)
    assert str(refused.value) == ("the max_resistance bound of 4kTRB <= (1e-200 V)^2 at 0.2 K, "
                                  "B=1e+07 Hz, n=12, ladder is 0.0, not positive and finite")
    with pytest.raises(ValueError) as refused:
        min_unit_cap(10, 1e300, 0.2)
    assert str(refused.value) == ("the min_capacitance bound of kT/C <= (1e+300 V)^2 at 0.2 K, "
                                  "n=10 is 0.0, not positive and finite")


positive = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
bits = st.integers(min_value=2, max_value=24)


@given(n=bits, dv=st.floats(1e-9, 1e-3), t=st.floats(1e-3, 300.0))
def test_min_unit_cap_monotonicity(n, dv, t):
    base = min_unit_cap(n, dv, t).value
    assert min_unit_cap(n, dv, t * 2).value > base          # hotter -> bigger cap
    assert min_unit_cap(n, dv * 2, t).value < base          # looser budget -> smaller
    assert min_unit_cap(n + 1 if n < 24 else n, dv, t).value <= base


@given(n=bits, dv=st.floats(1e-9, 1e-3), t=st.floats(1e-3, 300.0), b=st.floats(1e3, 1e10))
def test_max_unit_res_monotonicity(n, dv, t, b):
    base = max_unit_res(DacArchitecture.KELVIN, n, dv, t, b).value
    assert max_unit_res(DacArchitecture.KELVIN, n, dv, t * 2, b).value < base
    assert max_unit_res(DacArchitecture.KELVIN, n, dv, t, b * 2).value < base
    if n < 24:
        assert max_unit_res(DacArchitecture.KELVIN, n + 1, dv, t, b).value < base


@given(dv=st.floats(1e-9, 1e-3), t=st.floats(1e-3, 300.0), b=st.floats(1e3, 1e10))
def test_ladder_bound_consistency(dv, t, b):
    r = max_unit_res(DacArchitecture.LADDER, 12, dv, t, b).value
    assert johnson_rms(r, t, b) == pytest.approx(dv, rel=1e-12)


@given(n=st.integers(1, 64), dv=st.floats(1e-9, 1e-3), t=st.floats(1e-3, 300.0))
def test_hold_cap_bound_consistency(n, dv, t):
    c = min_hold_cap(n, dv, t).value
    assert ktc_rms(c * n, t) == pytest.approx(dv, rel=1e-12)
