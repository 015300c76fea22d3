import json
import math
import re
from dataclasses import replace

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
from cryoctrl.config import MemoryArch, OperatingPoint, SystemSpec, TechnologyParams


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
    with pytest.raises(ConfigError, match=r"\[1, 24\]"):
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
    tech = replace(TechnologyParams(), r_off=r_off, r_off_multiplier=multiplier)
    with pytest.raises(ConfigError, match=r"r_off \* r_off_multiplier"):
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
    sc = replace(Scenario(), c_h=10e-15)
    with pytest.raises(ConfigError, match="thermal-noise minimum"):
        sc.validate()


def test_every_requirement_and_process_symbol_has_one_field():
    spec_fields = {f for f in SystemSpec.__dataclass_fields__}
    assert spec_fields == {
        "n_bias_signals", "v_range_bias", "dv_bias", "n_bias",
        "n_rf_signals", "v_range_rf", "n_rf", "dv_rf",
        "f_sample_rf", "l_pulse", "n_pulses",
    }
    tech_fields = set(TechnologyParams.__dataclass_fields__)
    expected = {
        "rho_r", "rho_c", "a_mos", "c_mos", "r_off", "r_on", "r_min", "c_min",
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
    with pytest.raises(ConfigError, match="memory_arch"):
        scenario_from_dict({"memory_arch": "dram"})
