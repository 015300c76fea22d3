import builtins
import copy
import csv
import io
import math
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    REFERENCE_SCENARIOS,
    ConfigError,
    DacArchitecture,
    replace,
    scenario_14nm_sram_10mv,
    scenario_65nm_sram_100mv,
)
from cryoctrl.digital import UnitReport
from cryoctrl.report import SWEEP_CSV_HEADER, SWEEP_PARAMS, UNITS, csv_table


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text, newline="")))


def test_csv_table_quotes_only_the_text_cells_that_need_it():
    header = "comma,quote,cr,lf,empty,int,float,plain"
    row = ("a,b", 'say "hi"', "a\rb", "a\nb", "", 7, 0.1, "ok")
    text = csv_table(header, [row, ("v_dd", 12, -2.5e-300, "ok", "", 0, 1.0, "x")])
    assert text == (header + "\n"
                    + '"a,b","say ""hi""","a\rb","a\nb",,7,0.1,ok\n'
                    + "v_dd,12,-2.5e-300,ok,,0,1.0,x\n")
    parsed = _parse_csv(text)
    assert parsed == [header.split(","), [*row[:5], "7", "0.1", "ok"],
                      ["v_dd", "12", "-2.5e-300", "ok", "", "0", "1.0", "x"]]
    assert all(len(r) == len(parsed[0]) for r in parsed)
    assert csv_table("a,b", []) == "a,b\n"


_cell = st.one_of(st.text(st.characters(exclude_characters="\x00")), st.integers(),
                  st.floats(allow_nan=False))


@given(rows=st.lists(st.lists(_cell, min_size=3, max_size=3), max_size=4))
def test_csv_table_parses_back_into_its_cells(rows):
    parsed = _parse_csv(csv_table("a,b,c", rows))
    assert parsed == [["a", "b", "c"]] + [[c if isinstance(c, str) else repr(c) for c in r]
                                          for r in rows]


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


def test_integer_overflow_in_a_unit_model_is_refused(baseline):
    # each field fits a float, but the pulse memory's 2^2000 bits do not
    sc = replace(baseline, spec=replace(baseline.spec, n_pulses=2 ** 1000, l_pulse=2 ** 1000))
    with pytest.raises(ValueError, match="area or power is not finite"):
        assemble(sc)
    rows = sweep(sc, "v_dd", [1.0])
    assert rows[0].report is None
    assert rows[0].status.startswith("invalid: area or power is not finite")


def _counting(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_assemble_reuses_the_scenario_and_counts_each_dac_once(baseline, monkeypatch):
    # the scenario is built (checked, clocks derived) before the report runs
    import cryoctrl.analog as analog
    import cryoctrl.dac as dac
    import cryoctrl.report as report

    calls = {}
    for module, name in ((analog, "derived_clocks"), (dac, "component_counts"),
                         (analog, "design_dac"), (report, "design_dac")):
        _counting(monkeypatch, module, name, calls)
    dac._shared_design.cache_clear()
    assemble(baseline)
    assert calls == {"design_dac": 2, "component_counts": 2}
    calls.clear()
    dac._shared_design.cache_clear()
    dac_sweep(baseline)
    assert calls == {"design_dac": 45, "component_counts": 45}
    calls.clear()
    dac_sweep(baseline, "rf")   # the same 45 designs: none is built again
    assert calls == {"design_dac": 45}


def test_a_sweep_builds_each_shared_design_once(baseline, monkeypatch):
    import cryoctrl.dac as dac
    import cryoctrl.digital as digital

    calls = {}
    for module, name in ((dac, "component_counts"), (digital, "selector_transistors")):
        _counting(monkeypatch, module, name, calls)
    dac._shared_design.cache_clear()
    digital._ff_periphery_transistors.cache_clear()
    rows = sweep(baseline, "v_dd", [0.01 * k for k in range(3, 101)])
    assert len(rows) == 98 and all(r.status == "ok" for r in rows)
    # the bias and the pulse DAC, and one flip-flop periphery of four selectors
    assert calls == {"component_counts": 2, "selector_transistors": 4}


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


def test_dac_sweep_refuses_an_unknown_condition(baseline):
    with pytest.raises(ValueError) as info:
        dac_sweep(baseline, "x")
    assert (info.type, str(info.value)) == (ValueError, "condition must be 'bias' or 'rf'")


def test_round_sig():
    assert round_sig(1.8658e-4, 2) == pytest.approx(1.9e-4)
    assert round_sig(6.9866e-7, 2) == pytest.approx(7.0e-7)
    assert round_sig(0.0, 2) == 0.0
    # 1.79e308 rounds up past the largest float
    with pytest.raises(ValueError, match="rounded to 2 significant figures overflows"):
        round_sig(1.7899999999999998e+308, 2)
    assert round_sig(1.7899999999999998e+308, 3) == 1.79e308
    # a count of figures is an integer of at least 1, not a bool; 0 rounded 1.234e-4 to 0.0
    for sig, message in ((0, "sig must be at least 1, got 0"),
                         (-1, "sig must be at least 1, got -1"),
                         (True, "sig must be an integer, got True"),
                         (2.0, "sig must be an integer, got 2.0"),
                         (2.5, "sig must be an integer, got 2.5")):
        for x in (1.234e-4, 0.0):
            with pytest.raises(ValueError) as refused:
                round_sig(x, sig)
            assert str(refused.value) == message


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


@pytest.mark.parametrize("sig_figs", [0, -1])
def test_qubit_capacity_needs_a_significant_figure(sig_figs):
    # 1.9e-4 W rounded to no significant figure would be 0 W
    with pytest.raises(ValueError, match="sig_figs must be None or at least 1"):
        qubit_capacity(1.9e-4, 1e-3, sig_figs=sig_figs)


@pytest.mark.parametrize("sig_figs", [True, False, 2.0, 2.5, math.nan, "2"])
def test_qubit_capacity_needs_an_integer_count_of_figures(sig_figs):
    with pytest.raises(ValueError) as refused:
        qubit_capacity(1.9e-4, 1e-3, sig_figs=sig_figs)
    assert str(refused.value) == f"sig_figs must be None or an integer, got {sig_figs!r}"


def test_the_cli_counts_of_figures_are_kept(baseline):
    rep = assemble(baseline)
    assert qubit_capacity(rep, 1e-3, sig_figs=2) == qubit_capacity(rep, 1e-3)
    assert qubit_capacity(rep, 1e-3, sig_figs=None).per_qubit_w == rep.total_power_w


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


@pytest.mark.parametrize("t_el", [math.nan, math.inf, 0.0, -1.0])
def test_temperature_adjust_refuses_a_bad_temperature(baseline, t_el):
    with pytest.raises(ConfigError, match="t_el must be"):
        temperature_adjust(baseline, t_el)


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


# ---------------------------------------------------------------------------
# Sweep points and re-sized scenarios against config.replace

def test_sweep_refuses_an_unknown_parameter_before_any_point(baseline, monkeypatch):
    import cryoctrl.report as report

    monkeypatch.setattr(report, "assemble", lambda sc: pytest.fail("a point was built"))
    monkeypatch.setattr(report, "size", lambda sc: pytest.fail("a point was sized"))
    with pytest.raises(ValueError, match=r"unknown sweep parameter 'foo' \(one of "):
        sweep(baseline, "foo", [1.0])


@pytest.mark.parametrize("param, values, statuses", [
    ("n_bias", [10 ** 400, 12, -10 ** 400],
     ["invalid: n_bias must be positive", "ok", "invalid: n_bias must be finite"]),
    ("n_rf", [10 ** 400], ["invalid: n_rf must be finite"]),
    ("v_dd", [10 ** 400, 1, -10 ** 400],
     ["invalid: v_dd must be positive", "ok", "invalid: v_dd must be finite"]),
])
def test_a_sweep_value_beyond_the_float_range_gives_an_invalid_row(baseline, param, values,
                                                                   statuses):
    # an integer beyond the largest float counts as infinite, as in a part
    rows = sweep(baseline, param, values)
    assert [r.status for r in rows] == statuses
    assert [r.value for r in rows] == sorted(values)


@pytest.mark.parametrize("param", SWEEP_PARAMS)
def test_a_sweep_value_that_is_no_number_raises(baseline, param):
    with pytest.raises(TypeError):
        sweep(baseline, param, [1.0, "3"])


def _replaced_point(sc, param, value):
    """The sweep point of ``value`` built with config.replace: its report,
    or the message it is refused with."""
    if param == "v_dd":
        section = "op"
        if isinstance(value, int) and abs(value) <= 1.7976931348623157e308:
            value = float(value)
    else:
        section = "spec"
        if isinstance(value, float):
            if not value.is_integer():
                return f"{param} must be an integer, got {value!r}"
            value = int(value)
    try:
        return assemble(replace(sc, **{section: replace(getattr(sc, section), **{param: value})}))
    except ValueError as exc:
        return str(exc)


_SWEEP_VALUES = {
    "v_dd": st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from([10 ** 400, -10 ** 400])),
    "n_bias": st.one_of(st.floats(), st.integers(-4, 30),
                        st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1000])),
}
_SWEEP_VALUES["n_rf"] = _SWEEP_VALUES["n_bias"]
_SCENARIO_NAMES = st.sampled_from(sorted(REFERENCE_SCENARIOS))


@given(name=_SCENARIO_NAMES, bias_arch=st.sampled_from(DacArchitecture),
       rf_arch=st.sampled_from(DacArchitecture), data=st.data())
def test_each_sweep_row_is_the_replaced_scenario_assembled(name, bias_arch, rf_arch, data):
    # each expected point is sized afresh, so a v_dd row checks the sizing
    # the sweep shares across its points
    sc = replace(REFERENCE_SCENARIOS[name](), bias_dac_arch=bias_arch, rf_dac_arch=rf_arch)
    param = data.draw(st.sampled_from(SWEEP_PARAMS))
    values = data.draw(st.lists(_SWEEP_VALUES[param], max_size=4))
    rows = sweep(sc, param, values)
    assert len(rows) == len(values)
    finite = [r.value for r in rows if r.value == r.value]
    assert finite == sorted(finite) and all(r.value != r.value for r in rows[len(finite):])
    for row in rows:
        expected = _replaced_point(sc, param, row.value)
        if isinstance(expected, str):
            assert (row.report, row.status) == (None, f"invalid: {expected}")
        else:
            assert (row.report, row.status) == (expected, "ok")
            assert repr(row.report) == repr(expected)


def _adjusted_with_replace(sc, t_el):
    """The re-sizing of temperature_adjust, each DAC designed and each bound
    built with its text, as config.replace derives it."""
    from cryoctrl import max_unit_res, min_unit_cap
    from cryoctrl.analog import bias_dac_design, rf_dac_design

    if t_el == sc.op.t_el:
        return sc
    op = replace(sc.op, t_el=t_el, f_clk_bias=None)
    ratio = t_el / sc.op.t_el
    s = sc.spec
    d = bias_dac_design(sc)
    bias_unit = d.unit_value * ratio if d.arch is DacArchitecture.CAP else d.unit_value / ratio
    d = rf_dac_design(sc)
    if d.arch is DacArchitecture.CAP:
        rf_unit = max(d.unit_value, min_unit_cap(s.n_rf, s.dv_rf, t_el).value)
    else:
        rf_unit = min(d.unit_value, max_unit_res(d.arch, s.n_rf, s.dv_rf, t_el, sc.op.b_rf).value)
    return replace(sc, c_h=sc.c_h * ratio, bias_dac_unit=bias_unit, rf_dac_unit=rf_unit, op=op)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:   # ConfigError included
        return type(exc), str(exc)


def _unit_near(data, value):
    """A DAC unit drawn as None, an int or a float, the numbers within a
    factor of 4 of ``value`` on either side."""
    near = value * data.draw(st.floats(0.25, 4.0))
    return data.draw(st.sampled_from([None, max(1, round(near)), near]))


@given(name=_SCENARIO_NAMES, bias_arch=st.sampled_from(DacArchitecture),
       rf_arch=st.sampled_from(DacArchitecture),
       t_el=st.one_of(st.floats(), st.floats(0.01, 10.0), st.sampled_from([0.2, 4.0])),
       data=st.data())
def test_temperature_adjust_is_the_scenario_replace_builds(name, bias_arch, rf_arch, t_el, data):
    from cryoctrl import max_unit_res, min_unit_cap
    from cryoctrl.analog import bias_dac_design, rf_dac_design

    sc = replace(REFERENCE_SCENARIOS[name](), bias_dac_arch=bias_arch, rf_dac_arch=rf_arch)
    s, rf_default = sc.spec, rf_dac_design(sc).unit_value
    try:   # the RF unit's bound at the new temperature
        rf_bound = (min_unit_cap(s.n_rf, s.dv_rf, t_el) if rf_arch is DacArchitecture.CAP else
                    max_unit_res(rf_arch, s.n_rf, s.dv_rf, t_el, sc.op.b_rf)).value
    except ValueError:   # t_el is refused, or gives no bound
        rf_bound = rf_default
    if not rf_bound * 4.0 < math.inf:   # so every unit drawn near it is finite
        rf_bound = rf_default
    sc = replace(sc, bias_dac_unit=_unit_near(data, bias_dac_design(sc).unit_value),
                 rf_dac_unit=_unit_near(data, rf_bound))
    got = _outcome(temperature_adjust, sc, t_el)
    expected = _outcome(_adjusted_with_replace, sc, t_el)
    assert got == expected
    assert repr(got) == repr(expected)


_VALID_SWEEP_VALUES = {"v_dd": st.floats(1e-3, 2.0), "n_bias": st.integers(2, 24),
                       "n_rf": st.integers(2, 24)}


def _rows_summed_afresh(rep):
    """The unit rows of ``rep``, then the total row, summed in report order."""
    rows = [(name, getattr(rep, name).area_um2, getattr(rep, name).power_w) for name in UNITS]
    area = power = 0.0
    for _, a, p in rows:
        area += a
        power += p
    return (*rows, ("total", area, power))


@settings(max_examples=150, deadline=None)
@given(name=_SCENARIO_NAMES, bias_arch=st.sampled_from(DacArchitecture),
       rf_arch=st.sampled_from(DacArchitecture), include_data_input=st.booleans(),
       data=st.data())
def test_a_report_keeps_the_rows_its_units_sum_to(name, bias_arch, rf_arch,
                                                  include_data_input, data):
    sc = replace(REFERENCE_SCENARIOS[name](), bias_dac_arch=bias_arch, rf_dac_arch=rf_arch)
    param = data.draw(st.sampled_from(SWEEP_PARAMS))
    value = data.draw(_VALID_SWEEP_VALUES[param] | _SWEEP_VALUES[param])
    point = sweep(sc, param, [value])[0].report
    assume(point is not None)
    rep = assemble(point.scenario, include_data_input=include_data_input)
    rows = _rows_summed_afresh(rep)
    # bit for bit: the reprs tell -0.0 from 0.0 and every last digit apart
    assert rep.rows() == rows and repr(rep.rows()) == repr(rows)
    assert (rep.total_area_um2, rep.total_power_w) == rows[-1][1:]
    for again in (rep._replace(), type(rep)._make(rep), copy.copy(rep), copy.deepcopy(rep),
                  pickle.loads(pickle.dumps(rep))):
        assert type(again) is type(rep) and again == rep and repr(again) == repr(rep)
        assert repr(again.rows()) == repr(rows)
        assert (again.total_area_um2, again.total_power_w) == rows[-1][1:]
    # a changed copy sums its own units
    changed = rep._replace(memory=UnitReport(rep.memory.area_um2 * 2, rep.memory.power_w / 3))
    assert repr(changed.rows()) == repr(_rows_summed_afresh(changed))
    assert changed.to_dict()["totals"] == {"area_um2": changed.total_area_um2,
                                           "power_w": changed.total_power_w}


def test_the_design_point_path_imports_nothing(monkeypatch):
    # every module the path needs is bound when the package is loaded; an
    # import inside a function would run again on every scenario built
    sc = REFERENCE_SCENARIOS["65nm-sram-1v"]()
    imports = []
    real_import = builtins.__import__

    def counting(*args, **kwargs):
        imports.append(args[0])
        return real_import(*args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting)
    rows = sweep(sc, "v_dd", [0.0, -0.5] + [0.0125 * k for k in range(1, 97)])
    dacs = [dac_sweep(sc, condition) for condition in ("bias", "rf")]
    reports = [assemble(temperature_adjust(sc, 0.05 * k)) for k in range(1, 25)]
    monkeypatch.undo()
    assert imports == []
    assert len(rows) == 98 and sum(r.report is not None for r in rows) == 96
    assert [len(d) for d in dacs] == [45, 45] and len(reports) == 24


# ---------------------------------------------------------------------------
# One sizing priced at many operating points

def _figures(rep):
    """Every figure of a report with its type, in report order."""
    return [(name, [(type(x), repr(x)) for x in unit]) for name, unit in rep.units()]


_OP_CHANGES = {
    "v_dd": st.floats(1e-3, 2.0),
    "sigma_biasmem": st.floats(1e-3, 0.5),
    "sigma_rfmem": st.floats(1e-3, 0.5),
    "sigma_con": st.floats(1e-3, 0.5),
    "t_el": st.floats(0.01, 4.2),
    # an explicit clock, this many times the slowest one the scenario admits
    "f_clk_bias": st.floats(1.0, 100.0),
    "f_clk_rf": st.floats(1.0, 100.0),
}


def _op_copy(sc, changes):
    """``sc`` with its operating point changed as ``changes`` says, or None
    where the scenario refuses the change."""
    floors = {"f_clk_bias": 2.0 * sc.clocks.f_refresh, "f_clk_rf": 2.0 * sc.spec.f_sample_rf}
    values = {name: value * floors[name] if name in floors else value
              for name, value in changes.items()}
    try:
        return replace(sc, op=replace(sc.op, **values))
    except ConfigError:   # a t_el whose hold-capacitor minimum c_h misses
        return None


@settings(max_examples=60, deadline=None)
@given(name=_SCENARIO_NAMES, bias_arch=st.sampled_from(DacArchitecture),
       rf_arch=st.sampled_from(DacArchitecture), include_data_input=st.booleans(),
       chain=st.lists(st.sets(st.sampled_from(sorted(_OP_CHANGES)), min_size=1, max_size=3),
                      min_size=1, max_size=3),
       data=st.data())
def test_an_op_copy_reports_what_a_freshly_sized_scenario_reports(
        name, bias_arch, rf_arch, include_data_input, chain, data):
    from cryoctrl.analog import bias_gen_report, rf_gen_report
    from cryoctrl.config import scenario_from_dict, scenario_to_dict
    from cryoctrl.digital import managing_report, memory_design, memory_report
    from cryoctrl.report import _priced, size

    sc = replace(REFERENCE_SCENARIOS[name](), bias_dac_arch=bias_arch, rf_dac_arch=rf_arch)
    sizing = size(sc)   # priced at every op copy, as a sweep over an op field prices it
    copies = []
    for keys in chain:
        changes = {key: data.draw(_OP_CHANGES[key], label=key) for key in sorted(keys)}
        copy_ = _op_copy(copies[-1] if copies else sc, changes)
        if copy_ is not None:
            copies.append(copy_)
    assume(copies)
    for point in copies:
        rep = _priced(point, sizing, include_data_input)
        fresh = scenario_from_dict(scenario_to_dict(point))
        assert fresh == point
        expected = assemble(fresh, include_data_input=include_data_input)
        assert _figures(rep) == _figures(expected)
        assert repr(rep.rows()) == repr(expected.rows())
        units = dict(rep.units())
        for unit, public in (("bias_gen", bias_gen_report(point)),
                             ("rf_gen", rf_gen_report(point)),
                             ("memory", memory_report(memory_design(point), point)),
                             ("managing", managing_report(point, include_data_input))):
            assert type(units[unit]) is type(public) and repr(units[unit]) == repr(public)


def _counting_sizes(monkeypatch):
    import cryoctrl.report as report

    sized = []
    size = report.size

    def counting(sc):
        sized.append(sc)
        return size(sc)

    monkeypatch.setattr(report, "size", counting)
    return sized


def test_a_supply_sweep_sizes_its_design_once_and_a_resolution_sweep_every_point(
        baseline, monkeypatch):
    sized = _counting_sizes(monkeypatch)
    rows = sweep(baseline, "v_dd", [0.0, -1.0, math.nan])
    assert all(r.report is None for r in rows) and sized == []
    rows = sweep(baseline, "v_dd", [0.0125 * k for k in range(1, 97)] + [0.0, -1.0])
    assert sum(r.report is not None for r in rows) == 96
    assert [sc.op.v_dd for sc in sized] == [0.0125]   # sized at its first valid point
    sized.clear()
    rows = sweep(baseline, "n_bias", range(2, 25))
    assert len(sized) == sum(r.report is not None for r in rows) == 23
    assert [sc.spec.n_bias for sc in sized] == list(range(2, 25))


@pytest.mark.parametrize("order", [(10, 10.0), (10.0, 10)])
def test_an_int_and_a_float_field_are_sized_apart(order):
    from cryoctrl.config import scenario_from_dict

    areas = []
    for a_ff in order:
        sc = scenario_from_dict({"tech": {"a_ff": a_ff, "a_mos": 1, "logic_area_scale": 1}})
        areas.append(repr(assemble(sc).memory.area_um2))
    assert areas == [{int: "37780", float: "37780.0"}[type(a_ff)] for a_ff in order]


def test_loading_bounds_and_simulating_size_nothing(monkeypatch, scenario_dir, capsys):
    import cryoctrl.report as report
    from cryoctrl.cli import main
    from cryoctrl.config import load_scenario
    from cryoctrl.sim import run_simulation

    monkeypatch.setattr(report, "size", lambda sc: pytest.fail("a design was sized"))
    path = scenario_dir / "paper-defaults.json"
    sc = load_scenario(path)
    run_simulation(sc, "0 write-bias 0 2048\n", 10_000.0)
    assert main(["bounds", "--scenario", str(path)]) == 0
    capsys.readouterr()
