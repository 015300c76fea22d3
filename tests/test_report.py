import math
from dataclasses import replace

import pytest

from cryoctrl import (
    assemble,
    dac_sweep,
    dac_sweep_csv,
    qubit_capacity,
    round_sig,
    sweep,
    sweep_csv,
    temperature_adjust,
)
from cryoctrl.config import (
    scenario_14nm_sram_10mv,
    scenario_65nm_sram_100mv,
)
from cryoctrl.report import SWEEP_CSV_HEADER


def test_totals_are_additive(baseline):
    r = assemble(baseline)
    parts_a = (r.bias_gen.area_um2 + r.rf_gen.area_um2
               + r.memory.area_um2 + r.managing.area_um2)
    parts_p = (r.bias_gen.power_w + r.rf_gen.power_w
               + r.memory.power_w + r.managing.power_w)
    assert r.total_area_um2 == pytest.approx(parts_a, rel=1e-12)
    assert r.total_power_w == pytest.approx(parts_p, rel=1e-12)


def test_assemble_baseline_totals(baseline):
    r = assemble(baseline)
    assert r.total_area_um2 == pytest.approx(3.3e4, rel=0.20)
    assert r.total_power_w == pytest.approx(1.9e-4, rel=0.20)


def test_assemble_14nm_totals():
    r = assemble(scenario_14nm_sram_10mv())
    assert r.total_area_um2 == pytest.approx(3.0e2, rel=0.20)
    assert r.total_power_w == pytest.approx(7.0e-7, rel=0.20)


def test_assemble_65nm_sram_100mv_total():
    r = assemble(scenario_65nm_sram_100mv())
    assert r.total_power_w == pytest.approx(1.5e-6, rel=0.20)


def test_report_dict_keys(baseline):
    d = assemble(baseline).to_dict()
    assert set(d["bias_gen"]) == {"area_um2", "p_analog_w", "p_digital_w", "power_w"}
    assert set(d["memory"]) == {"area_um2", "power_w"}
    assert d["totals"]["power_w"] == pytest.approx(
        sum(d[u]["power_w"] for u in ("bias_gen", "rf_gen", "memory", "managing")),
        rel=1e-12,
    )


def test_digital_power_vdd_square_law(baseline):
    r1 = assemble(replace(baseline, op=replace(baseline.op, v_dd=1.0)))
    r2 = assemble(replace(baseline, op=replace(baseline.op, v_dd=0.5)))
    assert r1.memory.power_w / r2.memory.power_w == pytest.approx(4.0, rel=1e-9)
    assert r1.managing.power_w / r2.managing.power_w == pytest.approx(4.0, rel=1e-9)


def test_digital_units_dominate_baseline_power(baseline):
    r = assemble(baseline)
    digital = (r.memory.power_w + r.managing.power_w
               + r.rf_gen.p_digital_w + r.bias_gen.p_digital_w)
    assert digital / r.total_power_w > 0.95


def test_memory_is_largest_area_consumer_ff(baseline):
    for n_bias in range(8, 17):
        sc = replace(baseline, spec=replace(baseline.spec, n_bias=n_bias))
        r = assemble(sc)
        others = (r.bias_gen.area_um2, r.rf_gen.area_um2, r.managing.area_um2)
        assert r.memory.area_um2 > max(others)


def test_total_power_flat_in_bias_resolution(baseline):
    rows = sweep(baseline, "n_bias", range(8, 17))
    powers = [row.report.total_power_w for row in rows]
    assert (max(powers) - min(powers)) / min(powers) < 0.05


def test_vdd_sweep_and_crossover(baseline):
    rows = sweep(baseline, "v_dd", [1.0, 0.5, 0.1, 0.05, 0.01])
    assert all(row.status == "ok" for row in rows)
    by_v = {row.value: row.report for row in rows}
    # digital parts fall with v_dd^2, bias generation stays flat
    assert by_v[0.01].memory.power_w < 1e-4 * 1.01 * by_v[1.0].memory.power_w
    assert by_v[0.01].bias_gen.power_w == pytest.approx(by_v[1.0].bias_gen.power_w, rel=0.02)
    # below the crossover the bias generation dominates
    r = by_v[0.05]
    assert r.bias_gen.power_w == max(r.unit_powers().values())


def test_crossover_voltage_interval(baseline):
    def top_unit(v):
        r = assemble(replace(baseline, op=replace(baseline.op, v_dd=v)))
        powers = r.unit_powers()
        return max(powers, key=powers.get)

    assert top_unit(0.090) != "bias_gen"
    assert top_unit(0.050) == "bias_gen"
    lo, hi = 0.050, 0.090
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if top_unit(mid) == "bias_gen":
            lo = mid
        else:
            hi = mid
    assert 0.05 <= lo <= hi <= 0.09


def test_sweep_marks_invalid_rows(baseline):
    rows = sweep(baseline, "v_dd", [1.0, -1.0])
    by_value = {row.value: row for row in rows}
    assert by_value[1.0].status == "ok"
    assert by_value[-1.0].status.startswith("invalid:")
    assert by_value[-1.0].report is None
    csv = sweep_csv(rows)
    assert csv.splitlines()[0] == SWEEP_CSV_HEADER
    assert "invalid:" in csv
    rows = sweep(baseline, "v_dd", [math.inf, math.nan, 1.0])
    assert sorted(r.status for r in rows) == ["invalid: v_dd must be finite"] * 2 + ["ok"]
    for param in ("n_bias", "n_rf"):
        rows = sweep(baseline, param, [math.inf, math.nan, 12.7, 10.0])
        assert [r.status.split(":")[0] for r in rows].count("invalid") == 3
        assert all(r.report is None for r in rows if r.value != 10.0)


def test_overflowing_design_point_is_refused(baseline):
    # finite clocks, but an infinite memory power
    sc = replace(baseline, tech=replace(baseline.tech, c_ff_equiv=1e300))
    with pytest.raises(ValueError, match="memory area or power is not finite"):
        assemble(sc)
    rows = sweep(sc, "v_dd", [1.0])
    assert rows[0].report is None
    assert rows[0].status.startswith("invalid: memory area or power is not finite")


def test_sweep_rows_ordered_by_value(baseline):
    rows = sweep(baseline, "v_dd", [0.5, 1.0, 0.1])
    assert [r.value for r in rows] == [0.1, 0.5, 1.0]
    rows = sweep(baseline, "v_dd", [1.0, math.nan, 0.5])  # NaN sorts last
    assert [repr(r.value) for r in rows] == ["0.5", "1.0", "nan"]


def test_dac_sweep_csv(baseline):
    rows = dac_sweep(baseline)
    assert len(rows) == 3 * 15
    csv = dac_sweep_csv(rows)
    assert csv.splitlines()[0] == "arch,n,area_um2,p_analog_w,p_switch_w,noise_vrms"
    assert csv.count("\n") == 1 + 45


def test_round_sig():
    assert round_sig(1.8658e-4, 2) == pytest.approx(1.9e-4)
    assert round_sig(6.9866e-7, 2) == pytest.approx(7.0e-7)
    assert round_sig(0.0, 2) == 0.0


def test_qubit_capacity_reference_arithmetic():
    assert qubit_capacity(1.9e-4, 1e-3).n_qubits == 5
    assert qubit_capacity(7.0e-7, 1e-3).n_qubits == 1428
    assert qubit_capacity(1.64e-8, 10.0, sig_figs=None).n_qubits == 609756097


def test_qubit_capacity_floor_division():
    assert qubit_capacity(2e-4, 1e-3, sig_figs=None).n_qubits == 5
    assert qubit_capacity(2.0001e-4, 1e-3, sig_figs=None).n_qubits == 4
    with pytest.raises(ValueError):
        qubit_capacity(0.0, 1e-3)
    with pytest.raises(ValueError):
        qubit_capacity(1e-6, -1.0)
    with pytest.raises(ValueError, match="overflows"):   # 1e323 qubits
        qubit_capacity(1e-320, 1e3)


@pytest.mark.parametrize("per_qubit", [math.inf, math.nan, -1e-6])
@pytest.mark.parametrize("sig_figs", [2, None])
def test_qubit_capacity_needs_a_positive_finite_power(per_qubit, sig_figs):
    with pytest.raises(ValueError, match="per-qubit power must be positive and finite"):
        qubit_capacity(per_qubit, 1e-3, sig_figs=sig_figs)


def test_capacity_from_assembled_reports(baseline):
    assert qubit_capacity(assemble(baseline), 1e-3).n_qubits == 5
    assert qubit_capacity(assemble(scenario_14nm_sram_10mv()), 1e-3).n_qubits == 1428


def test_temperature_adjust_identity(baseline):
    assert temperature_adjust(baseline, 0.2) is baseline


def test_temperature_adjust_18k(baseline):
    sc = temperature_adjust(baseline, 1.8)
    assert sc.c_h == pytest.approx(307e-15 * 9, rel=1e-12)
    assert sc.bias_dac_unit == pytest.approx(10e-15 * 9, rel=1e-12)
    # the pulse DAC unit is only raised to its (violated) bound
    assert sc.rf_dac_unit == pytest.approx(1.21346e-14, rel=1e-4)
    # slower leakage budget -> slower refresh
    from cryoctrl import derived_clocks
    assert derived_clocks(sc).f_refresh == pytest.approx(1.0857763e6 / 9, rel=1e-6)


def test_temperature_adjust_preserves_noise_margins(baseline):
    from cryoctrl import dac_output_noise, min_hold_cap
    from cryoctrl.analog import bias_dac_design

    sc = temperature_adjust(baseline, 1.8)
    bound = min_hold_cap(8, sc.spec.dv_bias, 1.8).value
    assert sc.c_h / bound == pytest.approx(307e-15 / min_hold_cap(8, 3e-6, 0.2).value, rel=1e-9)
    d = bias_dac_design(sc)
    assert dac_output_noise(d, 1.8) <= sc.spec.dv_bias


def test_temperature_adjust_resistive_architectures(baseline):
    from cryoctrl import DacArchitecture

    sc = replace(baseline,
                 bias_dac_arch=DacArchitecture.LADDER,
                 rf_dac_arch=DacArchitecture.LADDER)
    out = temperature_adjust(sc, 1.8)
    # resistive noise bounds shrink with temperature: the bias unit scales
    # down by the ratio, the pulse unit only moves if its bound is violated
    assert out.bias_dac_unit == pytest.approx(150.0 / 9, rel=1e-12)
    assert out.rf_dac_unit == pytest.approx(150.0)  # bound at 1.8 K is ~1073 ohm


def test_scaled_leakage_capacity_row():
    # hotter stage, higher budget, leakage improved by two orders of magnitude
    sc = scenario_14nm_sram_10mv()
    sc = replace(sc, tech=replace(sc.tech, r_off_multiplier=100.0))
    sc = temperature_adjust(sc, 1.8)
    r = assemble(sc)
    assert qubit_capacity(r, 10.0).n_qubits == pytest.approx(6.1e8, rel=0.15)
    assert qubit_capacity(r, 10.0, sig_figs=None).n_qubits == pytest.approx(6.1e8, rel=0.15)
