import pytest
from hypothesis import given, strategies as st

from cryoctrl import (
    DacArchitecture,
    TechnologyParams,
    bias_gen_report,
    bias_power_approx,
    bias_power_exact,
    bias_power_reduction,
    derived_clocks,
    refresh_rate,
    rf_gen_report,
    sh_area,
)
from cryoctrl.config import apply_node, Node, replace

TECH = TechnologyParams()


def test_refresh_rate_reference_point():
    f = refresh_rate(1.0, 1e12, 8, 3e-6, 2.456e-12)
    assert f == pytest.approx(1.0857763e6, rel=1e-6)


@pytest.mark.parametrize("index", range(5))
def test_refresh_rate_refuses_a_nan_operand(index):
    args = [1.0, 1e12, 8, 3e-6, 2.456e-12]
    args[index] = float("nan")
    with pytest.raises(ValueError, match="must be positive"):
        refresh_rate(*args)


def test_refresh_rate_proportional_to_leakage():
    f1 = refresh_rate(1.0, 1e12, 8, 3e-6, 2.456e-12)
    f2 = refresh_rate(1.0, 2e12, 8, 3e-6, 2.456e-12)
    assert f2 == pytest.approx(f1 / 2, rel=1e-12)
    f100 = refresh_rate(1.0, 100e12, 8, 3e-6, 2.456e-12)
    assert f100 == pytest.approx(10857.763, rel=1e-6)


@given(
    n=st.integers(1, 64),
    v=st.floats(1e-3, 10.0),
    r=st.floats(1e9, 1e15),
    dv=st.floats(1e-9, 1e-3),
    c_h=st.floats(1e-15, 1e-9),
)
def test_refresh_rate_independent_of_channel_count(n, v, r, dv, c_h):
    # with the pooled capacitance n*c_h the channel count cancels
    f_n = refresh_rate(v, r, n, dv, n * c_h)
    f_1 = refresh_rate(v, r, 1, dv, c_h)
    assert f_n == pytest.approx(f_1, rel=1e-12)


def test_derived_clocks(baseline):
    clocks = derived_clocks(baseline)
    assert clocks.f_refresh == pytest.approx(1.0857763e6, rel=1e-6)
    assert clocks.f_clk_bias == pytest.approx(2 * clocks.f_refresh, rel=1e-12)
    assert clocks.f_clk_bias == pytest.approx(2.22e6, rel=0.03)
    assert clocks.f_clk_rf == 600e6


def test_clock_override(baseline):
    sc = replace(baseline, op=replace(baseline.op, f_clk_bias=3e6))
    assert derived_clocks(sc).f_clk_bias == 3e6


def test_rf_clock_tracks_sample_rate(baseline):
    sc = replace(baseline, spec=replace(baseline.spec, f_sample_rf=150e6))
    assert derived_clocks(sc).f_clk_rf == 300e6
    sc = replace(sc, op=replace(sc.op, f_clk_rf=1.2e9))
    assert derived_clocks(sc).f_clk_rf == 1.2e9


def test_sh_area():
    assert sh_area(8, 307e-15, TECH) == pytest.approx(1406.43, rel=1e-4)  # 1403.4 + 3
    assert sh_area(0, 307e-15, TECH) == 0.0


def test_sh_area_14nm():
    t14 = apply_node(TECH, Node.NODE_14NM)
    assert sh_area(8, 307e-15, t14) == pytest.approx(7.142, rel=1e-3)


def test_bias_power_exact_example():
    p = bias_power_exact(1.0857763e6, 1.27e-12, 1.0, 2.456e-12, 3e-6)
    assert p == pytest.approx(6.8947e-7, rel=1e-4)
    # the hold-capacitor term is ~1.2e-17 W, ten orders down
    second = (1.0857763e6 / 2) * 2.456e-12 * 9e-12
    assert second == pytest.approx(1.2e-17, rel=1e-3)
    only_second = bias_power_exact(1.0857763e6, 0.0, 1.0, 2.456e-12, 3e-6)
    assert only_second == pytest.approx(second, rel=1e-12)


def test_bias_power_approx_matches_exact():
    f = refresh_rate(1.0, 1e12, 8, 3e-6, 2.456e-12)
    exact = bias_power_exact(f, 1.27e-12, 1.0, 2.456e-12, 3e-6)
    approx = bias_power_approx(8, 1.27e-12, 1.0, 1e12, 3e-6, 2.456e-12)
    assert approx == pytest.approx(6.8947e-7, rel=1e-4)
    assert exact >= approx
    assert exact == pytest.approx(approx, rel=1e-4)  # within 0.01 %


@given(
    c_in=st.floats(1e-14, 1e-11),
    v=st.floats(0.1, 2.0),
    c_sh=st.floats(1e-13, 1e-11),
    dv=st.floats(1e-7, 1e-5),
    r_off=st.floats(1e11, 1e14),
)
def test_exact_always_at_least_approx(c_in, v, c_sh, dv, r_off):
    f = refresh_rate(v, r_off, 8, dv, c_sh)
    exact = bias_power_exact(f, c_in, v, c_sh, dv)
    approx = bias_power_approx(8, c_in, v, r_off, dv, c_sh)
    assert exact >= approx * (1 - 1e-12)
    if c_sh * dv * dv <= 1e-3 * c_in * v * v:
        assert exact == pytest.approx(approx, rel=1e-3)


def test_power_reduction_factors():
    assert bias_power_reduction(1.0, 0.5) == pytest.approx(8.0, rel=1e-12)
    assert bias_power_reduction(1.0, 0.5, 12, 8) == pytest.approx(32.0, rel=1e-12)


def test_power_reduction_matches_full_formula_within_count_granularity():
    # evaluating the closed form with exact array counts gives 32.8x; the
    # half-array power-of-two scaling law says exactly 32x
    from cryoctrl.dac import component_counts

    c12 = component_counts(DacArchitecture.CAP, 12).units * 10e-15
    c8 = component_counts(DacArchitecture.CAP, 8).units * 10e-15
    p12 = bias_power_approx(8, c12, 1.0, 1e12, 3e-6, 2.456e-12)
    p8 = bias_power_approx(8, c8, 0.5, 1e12, 3e-6, 2.456e-12)
    assert p12 / p8 == pytest.approx(32.0, rel=0.03)


def test_bias_gen_report_defaults(baseline):
    rep = bias_gen_report(baseline)
    assert rep.area_um2 == pytest.approx(2141.14, rel=1e-4)
    assert rep.power_w == pytest.approx(6.9468e-7, rel=1e-4)
    assert rep.p_analog_w == pytest.approx(6.8947e-7, rel=1e-4)


def test_bias_gen_power_insensitive_to_vdd(baseline):
    lo = replace(baseline, op=replace(baseline.op, v_dd=0.01))
    p_hi = bias_gen_report(baseline).power_w
    p_lo = bias_gen_report(lo).power_w
    assert abs(p_hi - p_lo) / p_hi < 0.02
    # the analog term depends on the output range only, not on v_dd
    assert bias_gen_report(lo).p_analog_w == bias_gen_report(baseline).p_analog_w


def test_rf_gen_report_defaults(baseline):
    rep = rf_gen_report(baseline)
    assert rep.area_um2 == pytest.approx(735.0, rel=1e-4)
    assert 1.5e-6 <= rep.power_w <= 1.9e-6
    assert rep.p_analog_w == pytest.approx(3.024e-9, rel=1e-4)


def test_rf_gen_report_low_vdd(baseline):
    mv10 = replace(baseline, op=replace(baseline.op, v_dd=0.01))
    assert rf_gen_report(mv10).power_w == pytest.approx(3.2e-9, rel=0.08)
    mv100 = replace(baseline, op=replace(baseline.op, v_dd=0.1))
    assert rf_gen_report(mv100).power_w == pytest.approx(1.8e-8, rel=0.25)
