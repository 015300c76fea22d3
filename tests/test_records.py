"""The records: the scenario and its parts, the designs and the results. None
is mutated after it is built; each compares by value and is read as a dict
through ``_asdict()`` where a report or the CLI writes it."""

import copy
import json
import pickle

import pytest

from cryoctrl import MemoryArch, Scenario, assemble, cli
from cryoctrl.analog import Clocks, GenReport, SampleHoldDesign
from cryoctrl.config import (
    ConfigError,
    DacArchitecture,
    OperatingPoint,
    SystemSpec,
    TechnologyParams,
    replace,
    scenario_14nm_sram_10mv,
    scenario_to_dict,
)
from cryoctrl.dac import ComponentCounts, DacDesign
from cryoctrl.digital import DigitalBudget, MemoryDesign, Subunit, UnitReport
from cryoctrl.noise import BoundKind, SizingBound
from cryoctrl.report import CapacityResult, Report, SweepRow
from cryoctrl.sim.engine import Command, HoldCap
from cryoctrl.sim.protocol import DataWord, ProtocolError, RfCommandWord, WordType

_SUBUNIT = Subunit(name="refresh", flipflops=12, logic_transistors={"ff": 40}, clock="bias")
_GEN, _UNIT = GenReport(120.0, 1e-6, 2e-6), UnitReport(5.0, 2.5e-7)
_SPEC = ("SystemSpec(n_bias_signals=8, v_range_bias=1.0, dv_bias=3e-06, n_bias=12, "
         "n_rf_signals=2, v_range_rf=0.004, n_rf=10, dv_rf=8e-06, f_sample_rf=300000000.0, "
         "l_pulse=16, n_pulses=16)")
_TECH = ("TechnologyParams(rho_r=21.4, rho_c=1.75e-15, a_mos=0.375, c_mos=1.5e-16, "
         "r_off=1000000000000.0, r_min=15.0, c_min=1e-14, v_dd=1.0, c_ff_equiv=3.25e-15, "
         "a_ff=10.0, c_sram_bit=1.25e-15, a_sram_cell=0.5, logic_area_scale=1.0, "
         "sram_area_scale=1.0, cap_density_scale=1.0, digital_cap_scale=1.0, "
         "r_off_multiplier=1.0)")
_OP = ("OperatingPoint(t_el=0.2, v_dd=0.5, f_clk_bias=None, f_clk_rf=None, b_bias=10000000.0, "
       "b_rf=600000000.0, sigma_biasmem=0.306, sigma_rfmem=0.026, sigma_con=0.5)")

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
    "SystemSpec": (SystemSpec(), lambda: SystemSpec(n_bias=12, n_rf=10), _SPEC),
    "TechnologyParams": (TechnologyParams(), lambda: TechnologyParams(rho_r=21.4), _TECH),
    "OperatingPoint": (
        OperatingPoint(v_dd=0.5),
        lambda: replace(OperatingPoint(), v_dd=0.5),
        _OP),
    "Scenario": (
        Scenario(op=OperatingPoint(v_dd=0.5), memory_arch="sram", c_h=4e-13),
        lambda: replace(Scenario(), op=OperatingPoint(v_dd=0.5), memory_arch=MemoryArch.SRAM,
                        c_h=4e-13),
        f"Scenario(spec={_SPEC}, tech={_TECH}, op={_OP}, memory_arch=<MemoryArch.SRAM: 'sram'>, "
        "bias_dac_arch=<DacArchitecture.CAP: 'cap'>, rf_dac_arch=<DacArchitecture.CAP: 'cap'>, "
        "c_h=4e-13, bias_dac_unit=None, rf_dac_unit=None)"),
    "DacDesign": (
        DacDesign(DacArchitecture.CAP, 8, 1e-14),
        lambda: DacDesign(arch="cap", n=8, unit_value=1e-14),
        "DacDesign(arch=<DacArchitecture.CAP: 'cap'>, n=8, unit_value=1e-14)"),
    "MemoryDesign": (
        MemoryDesign(MemoryArch.SRAM, 9, 12, 256, 10),
        lambda: MemoryDesign(arch="sram", bias_registers=9, bias_width=12, rf_registers=256,
                             rf_width=10),
        "MemoryDesign(arch=<MemoryArch.SRAM: 'sram'>, bias_registers=9, bias_width=12, "
        "rf_registers=256, rf_width=10)"),
    "DataWord": (
        DataWord(WordType.BIAS, 3, 5, 12),
        lambda: DataWord(kind="bias", address=3, payload=5, width=12),
        "DataWord(kind=<WordType.BIAS: 'bias'>, address=3, payload=5, width=12)"),
    "RfCommandWord": (
        RfCommandWord(1, 2, 3, 4),
        lambda: RfCommandWord(id_e1_set1=1, id_e2_set1=2, id_e1_set2=3, id_e2_set2=4),
        "RfCommandWord(id_e1_set1=1, id_e2_set1=2, id_e1_set2=3, id_e2_set2=4)"),
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
    dac = DacDesign("cap", 8, 1e-14)
    assert dac.counts == ComponentCounts(31.0, 16) and dac.c_in == 31.0 * 1e-14
    with pytest.raises(AttributeError):
        dac.counts = ComponentCounts(1.0, 1)
    assert MemoryDesign("ff", 9, 12, 256, 10).rf_bits == 2560
    assert RfCommandWord(1, 2, 3, 4).pairs() == ((1, 2), (3, 4))


def test_a_part_equals_only_a_part_of_its_own_type():
    class Spec(SystemSpec):
        __slots__ = ()

    spec, twin = SystemSpec(), Spec()
    assert twin._asdict() == spec._asdict()
    assert spec != twin and twin != spec
    assert spec != tuple(spec._asdict().values()) and spec != spec._asdict()
    assert spec == SystemSpec() and spec != SystemSpec(n_rf=12)


def test_replace_checks_the_copy_as_its_constructor_does():
    sc = Scenario()
    for record, changes, message in [
            (sc.spec, {"n_bias": 1}, "n_bias must be in [2, 24]"),
            (sc.op, {"t_el": 0.0}, "t_el must be positive"),
            (sc.tech, {"cap_density_scale": 1e-320},
             "rho_c * cap_density_scale = 0 F/um^2 must be positive and finite"),
            (sc, {"c_h": 1e-14},
             "c_h=1.000e-14 F is below the thermal-noise minimum 3.835e-14 F at t_el=0.2 K")]:
        with pytest.raises(ConfigError) as refused:
            replace(record, **changes)
        assert str(refused.value) == message
    with pytest.raises(ValueError, match=r"resolution must be in \[2, 24\], got 30"):
        replace(DacDesign("cap", 8, 1e-14), n=30)
    assert replace(DacDesign("cap", 8, 1e-14), n=10).counts == ComponentCounts(63.0, 20)
    assert DacDesign("cap", 8, 1e-14)._replace(n=10).counts == ComponentCounts(63.0, 20)
    assert MemoryDesign("ff", 9, 12, 256, 10)._replace(arch="sram").arch is MemoryArch.SRAM
    with pytest.raises(ProtocolError, match="sequence id 16 out of range"):
        RfCommandWord(1, 2, 3, 4)._replace(id_e2_set2=16)
    changed = replace(sc, memory_arch="sram", op=replace(sc.op, v_dd=0.5))
    assert (changed.memory_arch, changed.op.v_dd, sc.op.v_dd) == (MemoryArch.SRAM, 0.5, 1.0)


@pytest.mark.parametrize("part", [SystemSpec, TechnologyParams, OperatingPoint, Scenario])
def test_a_part_takes_only_its_own_fields_by_keyword(part):
    with pytest.raises(TypeError, match=f"^{part.__name__}.__init__\\(\\) got an unexpected "
                                        "keyword argument 'bogus'$"):
        part(bogus=1)
    with pytest.raises(TypeError):
        replace(part(), bogus=1)
    with pytest.raises(TypeError):
        part(1)


def test_equal_scenarios_hash_equal():
    a = Scenario(memory_arch="sram")
    b = replace(Scenario(), memory_arch=MemoryArch.SRAM)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, Scenario()}) == 2


def test_a_scenario_copies_and_pickles_as_a_checked_record():
    sc = scenario_14nm_sram_10mv()
    for again in (copy.copy(sc), copy.deepcopy(sc), pickle.loads(pickle.dumps(sc))):
        assert again == sc and repr(again) == repr(sc) and again.clocks == sc.clocks


def test_a_scenario_dict_keeps_its_key_order():
    d = scenario_to_dict(Scenario())
    assert list(d) == ["spec", "tech", "op", "memory_arch", "bias_dac_arch", "rf_dac_arch",
                       "c_h", "bias_dac_unit", "rf_dac_unit"]
    assert list(d["spec"]) == ["n_bias_signals", "v_range_bias", "dv_bias", "n_bias",
                               "n_rf_signals", "v_range_rf", "n_rf", "dv_rf", "f_sample_rf",
                               "l_pulse", "n_pulses"]
    assert list(d["tech"]) == ["rho_r", "rho_c", "a_mos", "c_mos", "r_off", "r_min", "c_min",
                               "v_dd", "c_ff_equiv", "a_ff", "c_sram_bit", "a_sram_cell",
                               "logic_area_scale", "sram_area_scale", "cap_density_scale",
                               "digital_cap_scale", "r_off_multiplier"]
    assert list(d["op"]) == ["t_el", "v_dd", "f_clk_bias", "f_clk_rf", "b_bias", "b_rf",
                             "sigma_biasmem", "sigma_rfmem", "sigma_con"]


def test_a_hold_cap_stays_mutable():
    cap = HoldCap()
    assert (cap.v, cap.t_set, cap.code) == (0.0, 0, None)
    cap.v, cap.t_set, cap.code = 0.5, 10, 2048
    assert (cap.v, cap.t_set, cap.code) == (0.5, 10, 2048)
    assert cap.voltage(10, 1e-3) == 0.5 and HoldCap(0.5, 10, 2048).voltage(10, 1e-3) == 0.5


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

