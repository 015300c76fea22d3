import json
import math
import re

import pytest

from cryoctrl import (
    ConfigError,
    Node,
    Scenario,
    apply_node,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)
from cryoctrl.config import (
    MemoryArch,
    OperatingPoint,
    SystemSpec,
    TechnologyParams,
    replace,
    scenario_to_dict,
)


def test_defaults_only_file(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"defaults": "paper"}')
    assert load_scenario(p) == Scenario()


def test_negative_vdd_rejected(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"op": {"v_dd": -1}}')
    with pytest.raises(ConfigError, match="v_dd must be positive"):
        load_scenario(p)
    for value in ("NaN", "Infinity"):  # json accepts both
        p.write_text(f'{{"op": {{"v_dd": {value}}}}}')
        with pytest.raises(ConfigError, match="v_dd must be finite"):
            load_scenario(p)


def test_idempotent_override(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"spec": {"n_bias": 12}}')
    assert load_scenario(p) == Scenario()


def test_unknown_key_is_hard_error(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"spec": {"n_bais": 12}}')
    with pytest.raises(ConfigError, match="unknown key"):
        load_scenario(p)
    p.write_text('{"memory_architecture": "ff"}')
    with pytest.raises(ConfigError, match="unknown key"):
        load_scenario(p)


def test_parse_error_carries_line(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{\n  "spec": {,}\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_scenario(p)


def test_round_trip(tmp_path):
    sc = scenario_from_dict({
        "memory_arch": "sram",
        "node": "14nm",
        "op": {"v_dd": 0.01},
        "spec": {"n_bias": 10},
    })
    p = tmp_path / "round.json"
    save_scenario(sc, p)
    assert load_scenario(p) == sc


def test_round_trip_of_every_reference_file(scenario_dir, tmp_path):
    for f in scenario_dir.glob("*.json"):
        sc = load_scenario(f)
        p = tmp_path / f.name
        save_scenario(sc, p)
        assert load_scenario(p) == sc, f.name


def test_apply_node_identity_and_idempotence():
    tech = TechnologyParams()
    assert apply_node(tech, Node.NODE_65NM) == tech
    assert apply_node(apply_node(tech, Node.NODE_65NM), Node.NODE_65NM) == tech


def test_apply_node_14nm_factors():
    t14 = apply_node(TechnologyParams(), Node.NODE_14NM)
    assert t14.a_mos * t14.logic_area_scale == pytest.approx(0.375 / 24)
    assert t14.rho_c * t14.cap_density_scale == pytest.approx(350e-15)
    assert t14.sram_area_scale == pytest.approx(1 / 7)


def test_apply_node_rejects_unknown_node():
    with pytest.raises(ConfigError, match="^node must be one of: 65nm, 14nm$"):
        apply_node(TechnologyParams(), "7nm")


def test_apply_node_rejects_scaled_input():
    t14 = apply_node(TechnologyParams(), Node.NODE_14NM)
    with pytest.raises(ConfigError, match="baseline"):
        apply_node(t14, Node.NODE_14NM)


def test_node_shorthand_with_override(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"node": "14nm", "tech": {"digital_cap_scale": 0.5}}))
    sc = load_scenario(p)
    assert sc.tech.logic_area_scale == pytest.approx(1 / 24)
    assert sc.tech.digital_cap_scale == 0.5


@pytest.mark.parametrize("spec", ['{"l_pulse": 16.0}', '{"n_bias": 12.5}',
                                  '{"n_bias": true}'])
def test_integer_spec_fields_reject_other_numbers(tmp_path, spec):
    p = tmp_path / "s.json"
    p.write_text(f'{{"spec": {spec}}}')
    with pytest.raises(ConfigError, match="must be an integer"):
        load_scenario(p)


@pytest.mark.parametrize("text, message", [
    ('{"spec": {"dv_bias": "3e-6"}}', "spec.dv_bias must be a number"),
    ('{"c_h": "3e-13"}', "c_h must be a number"),
    ('{"op": {"sigma_con": "0.5"}}', "op.sigma_con must be a number"),
    ('{"spec": {"v_range_bias": [1]}}', "spec.v_range_bias must be a number"),
    ('{"spec": {"dv_bias": null}}', "spec.dv_bias must be a number"),
    ('{"c_h": null}', "c_h must be a number"),
    ('{"spec": {"dv_bias": true}}', "spec.dv_bias must be a number"),
    ('{"op": {"f_clk_rf": "6e8"}}', "op.f_clk_rf must be a number or null"),
    ('{"spec": {"n_pulses": "16"}}', "spec.n_pulses must be an integer"),
    ('{"spec": 5}', "'spec' must be a JSON object"),
    ('{"tech": null}', "'tech' must be a JSON object"),
    ('{"node": "7nm"}', "node must be one of: 65nm, 14nm"),
])
def test_json_types_checked_at_load(tmp_path, text, message):
    p = tmp_path / "s.json"
    p.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_scenario(p)


def test_spec_invariants():
    with pytest.raises(ConfigError, match="power of two"):
        replace(SystemSpec(), l_pulse=12).validate()
    with pytest.raises(ConfigError, match=r"\[2, 24\]"):
        replace(SystemSpec(), n_bias=25).validate()
    with pytest.raises(ConfigError, match="must be positive"):
        replace(SystemSpec(), dv_bias=0).validate()
    for value in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="dv_bias must be finite"):
            replace(SystemSpec(), dv_bias=value).validate()
        with pytest.raises(ConfigError, match="r_off must be finite"):
            replace(TechnologyParams(), r_off=value).validate()
        with pytest.raises(ConfigError, match="c_h must be finite"):
            replace(Scenario(), c_h=value).validate()


@pytest.mark.parametrize("r_off, multiplier", [(1e-200, 1e-200), (1e200, 1e200)])
def test_effective_off_resistance_positive_and_finite(r_off, multiplier):
    # each field passes on its own; their product underflows or overflows
    with pytest.raises(ConfigError, match=r"r_off \* r_off_multiplier"):
        tech = replace(TechnologyParams(), r_off=r_off, r_off_multiplier=multiplier)
        replace(Scenario(), tech=tech).validate()


def test_operating_point_invariants():
    with pytest.raises(ConfigError, match="sigma_con"):
        replace(OperatingPoint(), sigma_con=0.6).validate()
    with pytest.raises(ConfigError, match="t_el"):
        replace(OperatingPoint(), t_el=0).validate()
    for value in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="v_dd must be finite"):
            replace(OperatingPoint(), v_dd=value).validate()
        with pytest.raises(ConfigError, match="f_clk_rf must be finite"):
            replace(OperatingPoint(), f_clk_rf=value).validate()


def test_hold_cap_below_noise_floor_rejected():
    with pytest.raises(ConfigError, match="thermal-noise minimum"):
        sc = replace(Scenario(), c_h=10e-15)
        sc.validate()


def _scenario_with(section=None, **values):
    sc = Scenario()
    if section is None:
        return replace(sc, **values)
    return replace(sc, **{section: replace(getattr(sc, section), **values)})


@pytest.mark.parametrize("section, values, message", [
    (None, {"c_h": -3e-13}, "c_h must be positive"),
    ("spec", {"n_bias_signals": 0}, "n_bias_signals must be positive"),
    ("op", {"sigma_con": 0.9}, "sigma_con must be in (0, 0.5]"),
    ("op", {"f_clk_bias": 1.0}, "op.f_clk_bias=1 Hz is below"),
    ("tech", {"rho_c": math.nan}, "rho_c must be finite"),
    # an integer beyond the largest float is not a finite value either
    (None, {"c_h": 10 ** 400}, "c_h must be finite"),
    ("spec", {"n_bias_signals": 10 ** 400}, "n_bias_signals must be finite"),
    # None only where it is the default, no strings, no bools
    ("op", {"v_dd": None}, "v_dd must be a number"),
    ("spec", {"dv_bias": None}, "dv_bias must be a number"),
    ("tech", {"r_min": None}, "r_min must be a number"),
    ("spec", {"dv_bias": "3e-6"}, "dv_bias must be a number"),
    (None, {"c_h": "1"}, "c_h must be a number"),
    ("tech", {"rho_r": True}, "rho_r must be a number"),
    ("op", {"sigma_con": "0.3"}, "sigma_con must be a number"),
    ("op", {"f_clk_rf": "6e8"}, "f_clk_rf must be a number or null"),
    # the hold-capacitor bound overflows or underflows
    ("spec", {"dv_bias": 1e-200}, "spec.dv_bias, spec.n_bias_signals and op.t_el give no "
                                  "hold-capacitor minimum"),
    ("spec", {"dv_bias": 1e300}, "kT/(N*C) <= (1e+300 V)^2 at 0.2 K, N=8 is 0.0"),
    # an enum member or its string value; a part of its own type
    (None, {"memory_arch": "bogus"}, "memory_arch must be one of: ff, sram"),
    (None, {"bias_dac_arch": "x"}, "bias_dac_arch must be one of: kelvin, ladder, cap"),
    (None, {"spec": 5}, "spec must be a SystemSpec"),
    (None, {"tech": None}, "tech must be a TechnologyParams"),
])
def test_a_scenario_is_checked_when_built(section, values, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        _scenario_with(section, **values)


_PARTS = {"spec": SystemSpec, "tech": TechnologyParams, "op": OperatingPoint}


@pytest.mark.parametrize("value", ["1", -1, math.nan])
@pytest.mark.parametrize("section, name", [
    (section, name) for section, part in _PARTS.items() for name in part._fields])
def test_a_loaded_field_fails_with_its_part_message(section, name, value):
    with pytest.raises(ConfigError) as built:
        replace(getattr(Scenario(), section), **{name: value})
    with pytest.raises(ConfigError) as loaded:
        scenario_from_dict(json.loads(json.dumps({section: {name: value}})))
    assert str(loaded.value) == f"{section}.{built.value}"


def test_a_built_scenario_derives_its_clocks_once(monkeypatch):
    import cryoctrl.analog as analog

    base, calls = Scenario(), []
    derive = analog.derived_clocks
    monkeypatch.setattr(analog, "derived_clocks", lambda sc: calls.append(sc) or derive(sc))
    sc = replace(base, c_h=400e-15)
    assert len(calls) == 1 and calls[0] is sc
    assert sc.clocks is sc.clocks and sc.clocks == derive(sc)
    sc.validate()
    assert len(calls) == 1


@pytest.mark.parametrize("kwargs, message", [
    ({"c_h": 10e-15},
     "c_h=1.000e-14 F is below the thermal-noise minimum 3.835e-14 F at t_el=0.2 K"),
    # the clocks divide by dv_bias * n_bias_signals * c_h, which underflows to
    # 0 here: the hold-capacitor check comes first and refuses both
    ({"c_h": 5e-324},
     "c_h=4.941e-324 F is below the thermal-noise minimum 3.835e-14 F at t_el=0.2 K"),
    ({"spec": SystemSpec(dv_bias=1e-200), "c_h": 1e-200},
     "spec.dv_bias, spec.n_bias_signals and op.t_el give no hold-capacitor minimum: the "
     "min_capacitance bound of kT/(N*C) <= (1e-200 V)^2 at 0.2 K, N=8 is inf, not positive "
     "and finite"),
])
def test_the_hold_capacitor_check_comes_before_the_clocks(kwargs, message):
    with pytest.raises(ConfigError) as refused:
        Scenario(**kwargs)
    assert str(refused.value) == message


def test_a_scenario_dict_lists_every_field_in_declaration_order():
    sc = Scenario(bias_dac_unit=2e-14)
    d = scenario_to_dict(sc)
    assert list(d) == list(Scenario._fields)
    for section, part in _PARTS.items():
        assert list(d[section]) == list(part._fields)
        assert d[section] == {name: getattr(getattr(sc, section), name)
                              for name in part._fields}
    assert (d["memory_arch"], d["bias_dac_arch"], d["c_h"], d["bias_dac_unit"],
            d["rf_dac_unit"]) == ("ff", "cap", 307e-15, 2e-14, None)
    assert scenario_from_dict(d) == sc


def test_every_requirement_and_process_symbol_has_one_field():
    spec_fields = set(SystemSpec._fields)
    assert spec_fields == {
        "n_bias_signals", "v_range_bias", "dv_bias", "n_bias",
        "n_rf_signals", "v_range_rf", "n_rf", "dv_rf",
        "f_sample_rf", "l_pulse", "n_pulses",
    }
    tech_fields = set(TechnologyParams._fields)
    expected = {
        "rho_r", "rho_c", "a_mos", "c_mos", "r_off", "r_min", "c_min",
        "v_dd", "c_ff_equiv", "a_ff", "c_sram_bit", "a_sram_cell",
        "logic_area_scale", "sram_area_scale", "cap_density_scale",
        "digital_cap_scale", "r_off_multiplier",
    }
    assert tech_fields == expected


def test_reference_scenario_files_match_builders(scenario_dir):
    from cryoctrl.config import REFERENCE_SCENARIOS

    for name, builder in REFERENCE_SCENARIOS.items():
        loaded = load_scenario(scenario_dir / f"{name}.json")
        assert loaded == builder(), name


def test_memory_arch_values():
    assert MemoryArch("ff") is MemoryArch.FLIP_FLOP
    assert MemoryArch("sram") is MemoryArch.SRAM
    assert Scenario(memory_arch="sram") == Scenario(memory_arch=MemoryArch.SRAM)
    assert Scenario(memory_arch="sram").memory_arch is MemoryArch.SRAM
    with pytest.raises(ConfigError, match="memory_arch"):
        scenario_from_dict({"memory_arch": "dram"})
