import pytest
from hypothesis import given, strategies as st

from cryoctrl import (
    DacArchitecture,
    DacDesign,
    TechnologyParams,
    component_counts,
    dac_analog_power,
    dac_area,
    dac_output_noise,
    dac_switch_power,
    design_dac,
)

TECH = TechnologyParams()
F_REFRESH = 1085776.3300760044  # derived refresh rate of the default sizing


def test_component_counts_table():
    c = component_counts(DacArchitecture.KELVIN, 2)
    assert (c.units, c.switches) == (4, 6)
    c = component_counts(DacArchitecture.CAP, 12)
    assert (c.units, c.switches) == (127, 24)
    c = component_counts(DacArchitecture.LADDER, 12)
    assert (c.units, c.switches) == (36, 24)


def test_component_counts_closed_forms_all_n():
    for n in range(2, 17):
        k = component_counts(DacArchitecture.KELVIN, n)
        assert (k.units, k.switches) == (2 ** n, 2 ** (n + 1) - 2)
        l = component_counts(DacArchitecture.LADDER, n)
        assert (l.units, l.switches) == (3 * n, 2 * n)
        c = component_counts(DacArchitecture.CAP, n)
        assert c.units == pytest.approx(2 * 2 ** (n / 2) - 1)
        assert c.switches == 2 * n


def test_component_counts_range():
    with pytest.raises(ValueError):
        component_counts(DacArchitecture.CAP, 1)
    with pytest.raises(ValueError):
        component_counts(DacArchitecture.CAP, 25)


def test_a_dac_design_counts_its_components_once(monkeypatch):
    import cryoctrl.dac as dac

    calls = []
    count = dac.component_counts
    monkeypatch.setattr(dac, "component_counts", lambda a, n: calls.append(n) or count(a, n))
    dac._shared_design.cache_clear()
    d = design_dac(DacArchitecture.CAP, 12, TECH)
    assert d.counts == count(DacArchitecture.CAP, 12)
    assert dac_area(d, TECH) > 0 and dac_switch_power(d, 1.0, 1e6, 0.5, TECH) > 0
    assert d.c_in == d.counts.units * 10e-15
    assert calls == [12]
    for n in (1, 25):   # the range is checked when the design is built
        with pytest.raises(ValueError, match="resolution must be in"):
            dac.DacDesign(DacArchitecture.CAP, n, 10e-15)


def test_a_dac_design_takes_its_architecture_as_a_member_or_its_value():
    # the value compares equal to the member, so check the figures too
    for arch in DacArchitecture:
        by_value, by_member = DacDesign(arch.value, 8, 10e-15), DacDesign(arch, 8, 10e-15)
        assert by_value.arch is arch
        assert dac_area(by_value, TECH) == dac_area(by_member, TECH)
        assert dac_analog_power(by_value, 1.0, 1e6) == dac_analog_power(by_member, 1.0, 1e6)
        assert dac_output_noise(by_value, 0.2, 1e7) == dac_output_noise(by_member, 0.2, 1e7)
        assert design_dac(arch.value, 8, TECH).arch is arch
    cap = DacDesign("cap", 8, 10e-15)
    assert dac_area(cap, TECH) == pytest.approx(183.143, rel=1e-5)
    assert cap.c_in == cap.counts.units * 10e-15
    with pytest.raises(ValueError, match="is not a valid DacArchitecture"):
        DacDesign("sigma-delta", 8, 10e-15)


def test_a_shared_design_keeps_its_architecture_a_member():
    import cryoctrl.dac as dac

    for first, then in ((DacArchitecture.CAP, "cap"), ("cap", DacArchitecture.CAP)):
        dac._shared_design.cache_clear()
        designs = [design_dac(arch, 8, TECH) for arch in (first, then, first)]
        assert all(d.arch is DacArchitecture.CAP for d in designs)
        assert designs[0] == designs[1] and designs[0] is designs[2]
    for _ in range(2):   # a refused design is refused again
        with pytest.raises(ValueError, match="is not a valid DacArchitecture"):
            design_dac("sigma-delta", 8, TECH, unit_value=10e-15)


@pytest.mark.parametrize("unit_value", [0.0, -1e-15, float("nan"), float("inf")])
def test_a_dac_design_refuses_a_unit_value_not_positive_and_finite(unit_value):
    for arch in DacArchitecture:
        with pytest.raises(ValueError, match="unit_value must be positive"):
            DacDesign(arch, 8, unit_value)
        with pytest.raises(ValueError, match="unit_value must be positive"):
            design_dac(arch, 8, TECH, unit_value=unit_value)


def test_default_unit_values():
    assert design_dac(DacArchitecture.KELVIN, 12, TECH).unit_value == 15.0
    assert design_dac(DacArchitecture.LADDER, 12, TECH).unit_value == 150.0
    assert design_dac(DacArchitecture.CAP, 12, TECH).unit_value == 10e-15
    # explicit override is taken as given, below process minimum or not
    assert design_dac(DacArchitecture.CAP, 12, TECH, 5e-15).unit_value == 5e-15


def test_dac_area_examples():
    cap = design_dac(DacArchitecture.CAP, 12, TECH)
    assert dac_area(cap, TECH) == pytest.approx(734.714, rel=1e-4)  # 725.7 + 9
    ladder = design_dac(DacArchitecture.LADDER, 12, TECH)
    assert dac_area(ladder, TECH) == pytest.approx(261.336, rel=1e-4)


def test_dac_area_additivity():
    d = design_dac(DacArchitecture.CAP, 12, TECH)
    switches_only = d.counts.switches * TECH.a_mos
    units_only = d.counts.units * d.unit_value / TECH.rho_c
    assert dac_area(d, TECH) == pytest.approx(switches_only + units_only, rel=1e-12)


def test_dac_analog_power_examples():
    cap12 = design_dac(DacArchitecture.CAP, 12, TECH)
    assert dac_analog_power(cap12, 1.0, F_REFRESH) == pytest.approx(6.89468e-7, rel=1e-4)
    cap10 = design_dac(DacArchitecture.CAP, 10, TECH)
    assert dac_analog_power(cap10, 4e-3, 300e6) == pytest.approx(1.512e-9, rel=1e-6)
    ladder = design_dac(DacArchitecture.LADDER, 12, TECH)
    assert dac_analog_power(ladder, 1.0) == pytest.approx(1 / 150, rel=1e-12)
    # static ladder power is independent of resolution
    for n in (8, 10, 14, 16):
        d = design_dac(DacArchitecture.LADDER, n, TECH)
        assert dac_analog_power(d, 1.0) == pytest.approx(1 / 150, rel=1e-12)


def test_kelvin_input_resistance():
    d = design_dac(DacArchitecture.KELVIN, 12, TECH)
    assert d.r_in == pytest.approx(2 ** 12 * 15.0)
    assert dac_analog_power(d, 1.0) == pytest.approx(1.0 / (2 ** 12 * 15.0), rel=1e-12)


def test_dac_switch_power_examples():
    cap10 = design_dac(DacArchitecture.CAP, 10, TECH)
    two_dacs = 2 * dac_switch_power(cap10, 1.0, 600e6, 0.5, TECH)
    assert two_dacs == pytest.approx(1.8e-6, rel=1e-6)
    assert dac_switch_power(cap10, 0.0, 600e6, 0.5, TECH) == 0.0
    kelvin12 = design_dac(DacArchitecture.KELVIN, 12, TECH)
    assert dac_switch_power(kelvin12, 1.0, F_REFRESH, 0.5, TECH) == pytest.approx(
        0.5 * F_REFRESH * (2 ** 13 - 2) * 1.5e-16, rel=1e-12
    )


def test_dac_output_noise_examples():
    cap12 = design_dac(DacArchitecture.CAP, 12, TECH)
    assert dac_output_noise(cap12, 0.2) == pytest.approx(2.0771442e-6, rel=1e-6)
    assert dac_output_noise(cap12, 0.2) < 3e-6
    ladder = design_dac(DacArchitecture.LADDER, 12, TECH)
    assert dac_output_noise(ladder, 0.2, 10e6) == pytest.approx(1.2871592e-7, rel=1e-6)
    kelvin16 = design_dac(DacArchitecture.KELVIN, 16, TECH)
    assert dac_output_noise(kelvin16, 0.2, 10e6) > 3e-6  # violates the bias budget


# --- architecture comparison properties -----------------------------------

def _total_power(arch, n, v_range, f_conv, v_dd=1.0):
    d = design_dac(arch, n, TECH)
    return dac_analog_power(d, v_range, f_conv) + dac_switch_power(d, v_dd, 2 * f_conv, 0.5, TECH)


@pytest.mark.parametrize("n", range(8, 17))
def test_area_ordering_high_resolution(n):
    areas = {a: dac_area(design_dac(a, n, TECH), TECH) for a in DacArchitecture}
    assert areas[DacArchitecture.LADDER] < areas[DacArchitecture.CAP] < areas[DacArchitecture.KELVIN]


@pytest.mark.parametrize("n", range(2, 17))
def test_cap_dac_lowest_power_bias_conditions(n):
    p = {a: _total_power(a, n, 1.0, F_REFRESH) for a in DacArchitecture}
    assert p[DacArchitecture.CAP] < p[DacArchitecture.LADDER]
    assert p[DacArchitecture.CAP] < p[DacArchitecture.KELVIN]


@pytest.mark.parametrize("n", range(2, 17))
def test_cap_dac_lowest_power_rf_conditions(n):
    p = {a: _total_power(a, n, 4e-3, 300e6) for a in DacArchitecture}
    assert p[DacArchitecture.CAP] < p[DacArchitecture.LADDER]
    assert p[DacArchitecture.CAP] < p[DacArchitecture.KELVIN]


def test_kelvin_power_non_monotonic_in_resolution():
    # static term falls with n, switch term rises: an interior minimum exists
    powers = [_total_power(DacArchitecture.KELVIN, n, 1.0, F_REFRESH) for n in range(2, 17)]
    i_min = powers.index(min(powers))
    assert 0 < i_min < len(powers) - 1
    assert powers[-1] > powers[i_min]
    assert powers[0] > powers[i_min]


@given(n=st.integers(2, 16), v=st.floats(1e-3, 2.0))
def test_cap_power_scales_with_conversion_rate(n, v):
    d = design_dac(DacArchitecture.CAP, n, TECH)
    p1 = dac_analog_power(d, v, 1e6)
    p2 = dac_analog_power(d, v, 2e6)
    assert p2 == pytest.approx(2 * p1, rel=1e-12)
