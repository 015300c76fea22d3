"""The result records: never mutated after they are built, compared by value,
and read as dicts through ``_asdict()`` where a report or the CLI writes them."""

import json

import pytest

from cryoctrl import MemoryArch, Scenario, assemble, cli
from cryoctrl.analog import Clocks, GenReport, SampleHoldDesign
from cryoctrl.dac import ComponentCounts
from cryoctrl.digital import DigitalBudget, Subunit, UnitReport
from cryoctrl.noise import BoundKind, SizingBound
from cryoctrl.report import CapacityResult, Report, SweepRow
from cryoctrl.sim.engine import Command

_SUBUNIT = Subunit(name="refresh", flipflops=12, logic_transistors={"ff": 40}, clock="bias")
_GEN, _UNIT = GenReport(120.0, 1e-6, 2e-6), UnitReport(5.0, 2.5e-7)

# name: (a record, a function that builds it again, its repr)
RECORDS = {
    "Clocks": (
        Clocks(1.5e6, 3e6, 6e8),
        lambda: Clocks(f_refresh=1.5e6, f_clk_bias=3e6, f_clk_rf=6e8),
        "Clocks(f_refresh=1500000.0, f_clk_bias=3000000.0, f_clk_rf=600000000.0)"),
    "SampleHoldDesign": (
        SampleHoldDesign(8, 3e-13),
        lambda: SampleHoldDesign(n_channels=8, c_h=3e-13),
        "SampleHoldDesign(n_channels=8, c_h=3e-13)"),
    "GenReport": (
        GenReport(120.0, 1e-6, 2e-6),
        lambda: GenReport(area_um2=120.0, p_analog_w=1e-6, p_digital_w=2e-6),
        "GenReport(area_um2=120.0, p_analog_w=1e-06, p_digital_w=2e-06)"),
    "UnitReport": (
        UnitReport(5.0, 2.5e-7),
        lambda: UnitReport(area_um2=5.0, power_w=2.5e-7),
        "UnitReport(area_um2=5.0, power_w=2.5e-07)"),
    "Subunit": (
        _SUBUNIT,
        lambda: Subunit("refresh", 12, {"ff": 40}, "bias", True),
        "Subunit(name='refresh', flipflops=12, logic_transistors={'ff': 40}, clock='bias', "
        "operation_regime=True)"),
    "DigitalBudget": (
        DigitalBudget((_SUBUNIT,), 6),
        lambda: DigitalBudget(subunits=(_SUBUNIT,), sram_column_transistors=6),
        f"DigitalBudget(subunits=({_SUBUNIT!r},), sram_column_transistors=6)"),
    "ComponentCounts": (
        ComponentCounts(31.0, 16),
        lambda: ComponentCounts(units=31.0, switches=16),
        "ComponentCounts(units=31.0, switches=16)"),
    "SweepRow": (
        SweepRow("v_dd", 0.5, None, "invalid: x"),
        lambda: SweepRow(param="v_dd", value=0.5, report=None, status="invalid: x"),
        "SweepRow(param='v_dd', value=0.5, report=None, status='invalid: x')"),
    "CapacityResult": (
        CapacityResult(1e-3, 7e-7, 1428),
        lambda: CapacityResult(budget_w=1e-3, per_qubit_w=7e-7, n_qubits=1428),
        "CapacityResult(budget_w=0.001, per_qubit_w=7e-07, n_qubits=1428)"),
    "Command": (
        Command(20.0, "play", (0, 1, 2, 3), 4),
        lambda: Command(t_ns=20.0, op="play", args=(0, 1, 2, 3), line=4),
        "Command(t_ns=20.0, op='play', args=(0, 1, 2, 3), line=4)"),
    "SizingBound": (
        SizingBound(BoundKind.MIN_CAPACITANCE, 3.8e-14, "N={0}", (8,)),
        lambda: SizingBound(kind=BoundKind.MIN_CAPACITANCE, value=3.8e-14, spec="N={0}",
                            args=(8,)),
        "SizingBound(kind=<BoundKind.MIN_CAPACITANCE: 'min_capacitance'>, value=3.8e-14, "
        "spec='N={0}', args=(8,))"),
    "Report": (
        Report(Scenario(), _GEN, _GEN, _UNIT, _UNIT, False),
        lambda: Report(scenario=Scenario(), bias_gen=_GEN, rf_gen=_GEN, memory=_UNIT,
                       managing=_UNIT, include_data_input=False, notes=()),
        f"Report(scenario={Scenario()!r}, bias_gen={_GEN!r}, rf_gen={_GEN!r}, "
        f"memory={_UNIT!r}, managing={_UNIT!r}, include_data_input=False, notes=())"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_repr_equality_and_immutability(name):
    record, rebuild, shown = RECORDS[name]
    assert repr(record) == shown
    again = rebuild()
    assert type(again) is type(record) and again == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    assert repr(record) == shown


def test_a_record_keeps_its_properties_and_methods():
    assert GenReport(120.0, 1e-6, 2e-6).power_w == pytest.approx(3e-6)
    assert SizingBound(BoundKind.MIN_CAPACITANCE, 3.8e-14, "N={0}", (8,)).binding_spec == "N=8"
    assert _SUBUNIT.logic_for(MemoryArch.FLIP_FLOP) == 40
    assert DigitalBudget((_SUBUNIT,), 6).subunit("refresh") is _SUBUNIT
    with pytest.raises(KeyError):
        DigitalBudget((_SUBUNIT,), 6).subunit("nope")


def test_report_dict_keeps_its_keys_in_order(baseline):
    d = assemble(baseline).to_dict()
    assert list(d) == ["bias_gen", "rf_gen", "memory", "managing", "totals", "clocks_hz",
                       "include_data_input", "notes", "scenario"]
    for unit in ("bias_gen", "rf_gen"):
        assert list(d[unit]) == ["area_um2", "p_analog_w", "p_digital_w", "power_w"]
    for unit in ("memory", "managing"):
        assert list(d[unit]) == ["area_um2", "power_w"]
    assert d["clocks_hz"] == {"f_refresh": baseline.clocks.f_refresh,
                              "f_clk_bias": baseline.clocks.f_clk_bias,
                              "f_clk_rf": baseline.clocks.f_clk_rf}
    assert list(d["clocks_hz"]) == ["f_refresh", "f_clk_bias", "f_clk_rf"]
    assert all(type(v) is float for unit in ("bias_gen", "memory", "clocks_hz")
               for v in d[unit].values())


def test_capacity_json_keeps_its_keys(capsys, scenario_dir):
    code = cli.main(["capacity", "--scenario", str(scenario_dir / "14nm-sram-10mv.json"),
                     "--budget", "1e-3", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert list(json.loads(out)) == ["budget_w", "n_qubits", "per_qubit_w"]
    assert json.loads(out) == {"budget_w": 1e-3, "n_qubits": 1428, "per_qubit_w": 7e-07}

