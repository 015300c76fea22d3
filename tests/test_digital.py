import pytest
from hypothesis import given, strategies as st

from cryoctrl import (
    MemoryArch,
    MemoryDesign,
    load_budget,
    managing_report,
    memory_design,
    memory_report,
    selector_transistors,
    switching_power,
)
from cryoctrl.config import Node, apply_node, replace


def _sram(sc):
    return replace(sc, memory_arch=MemoryArch.SRAM)


def _at_vdd(sc, v):
    return replace(sc, op=replace(sc.op, v_dd=v))


def _at_14nm(sc):
    return replace(sc, tech=apply_node(sc.tech, Node.NODE_14NM))


def test_switching_power_example():
    # 2560 bits x 3 fF at the pulse clock with the low memory activity
    assert switching_power(7.68e-12, 600e6, 1.0, 0.026) == pytest.approx(1.198e-4, rel=1e-3)
    assert switching_power(7.68e-12, 600e6, 1.0, 0.0) == 0.0


@given(v1=st.floats(1e-3, 2.0), v2=st.floats(1e-3, 2.0))
def test_switching_power_quadratic_in_vdd(v1, v2):
    p1 = switching_power(1e-12, 1e8, v1, 0.3)
    p2 = switching_power(1e-12, 1e8, v2, 0.3)
    assert p1 / p2 == pytest.approx((v1 / v2) ** 2, rel=1e-9)


def test_selector_transistors():
    assert selector_transistors(9, 1) == 30       # rounds up to a 16-way tree
    assert selector_transistors(256, 10) == 5100
    assert selector_transistors(1, 12) == 0
    assert selector_transistors(2, 1) == 2


def test_memory_design_shape(baseline):
    d = memory_design(baseline)
    assert d.bias_registers == 9
    assert d.rf_registers == 256
    assert d.rf_read_ports == 2
    assert d.bias_bits == 108
    assert d.rf_bits == 2560


def test_a_memory_design_takes_its_architecture_as_a_member_or_its_value(baseline):
    # the value compares equal to the member, so check the figures too
    for arch in MemoryArch:
        by_value = MemoryDesign(arch.value, 9, 12, 256, 10)
        assert by_value.arch is arch
        assert memory_report(by_value, baseline) == \
            memory_report(MemoryDesign(arch, 9, 12, 256, 10), baseline)
    ff = memory_report(MemoryDesign("ff", 9, 12, 256, 10), baseline)
    assert ff == memory_report(memory_design(baseline), baseline)
    assert ff.area_um2 == pytest.approx(30842.5)
    with pytest.raises(ValueError, match="is not a valid MemoryArch"):
        MemoryDesign("dram", 9, 12, 256, 10)


def test_memory_report_ff(baseline):
    rep = memory_report(memory_design(baseline), baseline)
    assert rep.area_um2 == pytest.approx(2.9e4, rel=0.15)
    assert rep.power_w == pytest.approx(1.3e-4, rel=0.15)


def test_memory_report_sram(baseline):
    sc = _sram(baseline)
    rep = memory_report(memory_design(sc), sc)
    assert rep.area_um2 == pytest.approx(2.6e3, rel=0.15)
    assert rep.power_w == pytest.approx(5.0e-5, rel=0.15)


def test_memory_report_sram_14nm_10mv(baseline):
    sc = _at_vdd(_at_14nm(_sram(baseline)), 0.01)
    rep = memory_report(memory_design(sc), sc)
    assert rep.area_um2 == pytest.approx(2.1e2, rel=0.25)
    assert rep.power_w == pytest.approx(3.6e-9, rel=0.25)


def test_memory_area_linear_in_bits(baseline):
    # doubling the stored pulse sequences doubles the cell area exactly
    d = memory_design(baseline)
    big = replace(d, rf_registers=2 * d.rf_registers)
    a_cells = lambda dd: (dd.bias_bits + dd.rf_bits) * baseline.tech.a_ff
    r1 = memory_report(d, baseline)
    r2 = memory_report(big, baseline)
    assert r2.area_um2 - r1.area_um2 >= a_cells(big) - a_cells(d)


def test_ff_to_sram_area_order_of_magnitude(baseline):
    ff = memory_report(memory_design(baseline), baseline).area_um2
    sc = _sram(baseline)
    sram = memory_report(memory_design(sc), sc).area_um2
    assert 8 <= ff / sram <= 20


def test_managing_report_ff(baseline):
    rep = managing_report(baseline)
    assert rep.area_um2 == pytest.approx(2.0e3, rel=0.20)
    assert rep.power_w == pytest.approx(5.4e-5, rel=0.20)


def test_managing_report_sram(baseline):
    rep = managing_report(_sram(baseline))
    assert rep.area_um2 == pytest.approx(1.7e3, rel=0.20)
    assert rep.power_w == pytest.approx(2.8e-5, rel=0.20)


def test_managing_report_14nm(baseline):
    sc = _at_vdd(_at_14nm(_sram(baseline)), 0.01)
    rep = managing_report(sc)
    assert rep.power_w == pytest.approx(2.2e-9, rel=0.20)
    assert rep.area_um2 == pytest.approx(7.0e1, rel=0.20)


def test_data_input_power_flag(baseline):
    excl = managing_report(baseline)
    incl = managing_report(baseline, include_data_input=True)
    assert incl.area_um2 == excl.area_um2           # area counts either way
    assert incl.power_w - excl.power_w == pytest.approx(1.8e-4, rel=0.05)


def test_budget_file_loads():
    b = load_budget()
    names = {u.name for u in b.subunits}
    assert names == {
        "data_input_control", "clock_control", "bias_control",
        "rf_control", "mux_demux_drivers",
    }
    assert not b.subunit("data_input_control").operation_regime
    assert b.sram_column_transistors > 0
