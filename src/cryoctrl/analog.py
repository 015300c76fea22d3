"""Sample-and-hold sizing, refresh rate, and the bias/RF generation rollups.

The bias generation unit is one DAC followed by a sample-and-hold that
serves all DC electrodes from a single converter. Leakage through the open
switches (off-resistance ``r_off``) discharges the hold capacitors, so the
DAC must refresh every electrode cyclically; the refresh rate is set by the
pooled charge budget dv * (N * c_h). The RF generation unit is simply two
DACs running at the pulse sample rate.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import DacArchitecture, OperatingPoint, Scenario, TechnologyParams
from .dac import DacDesign, dac_analog_power, dac_area, dac_switch_cap, design_dac
from .digital import switching_factor


def refresh_rate(v_range, r_off, n_bias, dv, c_out) -> float:
    """Required refresh rate [Hz]: worst-case leakage current of ``n_bias``
    channels over the charge that may be lost from the pooled hold
    capacitance ``c_out`` without exceeding ``dv``."""
    if not (v_range > 0 and r_off > 0 and n_bias > 0 and dv > 0 and c_out > 0):
        for name, v in (("v_range", v_range), ("r_off", r_off), ("n_bias", n_bias),
                        ("dv", dv), ("c_out", c_out)):
            if not v > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
    return (v_range / r_off * n_bias) / (dv * c_out)


class Clocks(NamedTuple):
    f_refresh: float
    f_clk_bias: float
    f_clk_rf: float


def derived_clocks(sc: Scenario) -> Clocks:
    """Refresh rate from the scenario sizing plus the digital clocks; a
    scenario derives them once, as ``Scenario.clocks``.

    Digital blocks are edge triggered and run at twice the conversion rate
    of their analog counterpart; explicit overrides in the operating point
    take precedence.
    """
    s = sc.spec
    f_ref = refresh_rate(
        s.v_range_bias,
        sc.tech.r_off_effective(),
        s.n_bias_signals,
        s.dv_bias,
        s.n_bias_signals * sc.c_h,
    )
    f_clk_bias = sc.op.f_clk_bias if sc.op.f_clk_bias is not None else 2.0 * f_ref
    f_clk_rf = sc.op.f_clk_rf if sc.op.f_clk_rf is not None else 2.0 * s.f_sample_rf
    return Clocks(f_ref, f_clk_bias, f_clk_rf)


def sh_area(n_channels: int, c_h: float, tech: TechnologyParams) -> float:
    """Hold capacitors at the capacitive density plus one switch per channel."""
    cap_area = n_channels * c_h / (tech.rho_c * tech.cap_density_scale)
    return cap_area + n_channels * tech.a_mos * tech.logic_area_scale


def bias_power_exact(f_refresh, c_in_dac, v_range, c_sh_total, dv) -> float:
    """Recharging power of the periodically charged capacitors [W]."""
    return (f_refresh / 2.0) * (c_in_dac * v_range ** 2 + c_sh_total * dv ** 2)


def bias_power_approx(n_bias, c_in_dac, v_range, r_off, dv, c_sh_total) -> float:
    """Closed form of :func:`bias_power_exact` with the refresh rate
    substituted in and the (negligible) hold-capacitor term dropped."""
    return n_bias * c_in_dac * v_range ** 3 / (2.0 * r_off * dv * c_sh_total)


def bias_power_reduction(v_from, v_to, n_from=None, n_to=None) -> float:
    """Power reduction factor of the closed-form bias power when the output
    range shrinks and/or the resolution drops.

    The range enters cubed. A resolution step changes the DAC input
    capacitance by the array-size ratio 2^((n_from-n_to)/2).
    """
    factor = (v_from / v_to) ** 3
    if n_from is not None and n_to is not None:
        factor *= 2.0 ** ((n_from - n_to) / 2.0)
    return factor


class GenReport(NamedTuple):
    area_um2: float
    p_analog_w: float
    p_digital_w: float

    @property
    def power_w(self) -> float:
        return self.p_analog_w + self.p_digital_w


def bias_dac_design(sc: Scenario) -> DacDesign:
    return design_dac(sc.bias_dac_arch, sc.spec.n_bias, sc.tech, sc.bias_dac_unit)


def rf_dac_design(sc: Scenario) -> DacDesign:
    return design_dac(sc.rf_dac_arch, sc.spec.n_rf, sc.tech, sc.rf_dac_unit)


def bias_gen_sizing(sc: Scenario) -> tuple[float, float, float, float]:
    """The bias generation unit's (DAC + sample-and-hold) figures that read no
    operating-point field, ``(area_um2, p_analog_w, c_dac_switch_f,
    c_hold_switch_f)``: its area, its analog power at the refresh rate (which
    follows from the sizing alone), and the gate capacitance of the DAC's
    switches and of the hold switches, one per electrode."""
    s, tech, f_refresh = sc.spec, sc.tech, sc.clocks.f_refresh
    d = bias_dac_design(sc)

    area = dac_area(d, tech) + sh_area(s.n_bias_signals, sc.c_h, tech)

    c_sh_total = s.n_bias_signals * sc.c_h
    if d.arch is DacArchitecture.CAP:
        p_analog = bias_power_exact(f_refresh, d.c_in, s.v_range_bias, c_sh_total, s.dv_bias)
    else:
        p_analog = dac_analog_power(d, s.v_range_bias, f_refresh) + \
            (f_refresh / 2.0) * c_sh_total * s.dv_bias ** 2

    c_sh_sw = s.n_bias_signals * tech.c_mos * tech.digital_cap_scale
    return area, p_analog, dac_switch_cap(d, tech), c_sh_sw


def bias_gen_priced(sizing: tuple, op: OperatingPoint, clocks: Clocks) -> GenReport:
    """The bias generation unit's report from its :func:`bias_gen_sizing`, the
    DAC's and the hold switches priced at the bias clock."""
    area, p_analog, c_dac_sw, c_sh_sw = sizing
    f = clocks.f_clk_bias
    p_switch = switching_factor(f, op.v_dd, op.sigma_con) * c_dac_sw + \
        op.sigma_con * f * op.v_dd ** 2 * c_sh_sw
    return tuple.__new__(GenReport, (area, p_analog, p_switch))


def bias_gen_report(sc: Scenario) -> GenReport:
    """Area and power of the bias generation unit (DAC + sample-and-hold)."""
    return bias_gen_priced(bias_gen_sizing(sc), sc.op, sc.clocks)


def rf_gen_sizing(sc: Scenario) -> tuple[float, float, int, float]:
    """The RF generation unit's (one DAC per RF electrode) figures that read
    no operating-point field, ``(area_um2, p_analog_w, n_dacs,
    c_dac_switch_f)``: its area, its analog power, its DAC count, and the
    gate capacitance of one DAC's switches."""
    s = sc.spec
    d = rf_dac_design(sc)
    n_dacs = s.n_rf_signals
    return (n_dacs * dac_area(d, sc.tech),
            n_dacs * dac_analog_power(d, s.v_range_rf, s.f_sample_rf),
            n_dacs, dac_switch_cap(d, sc.tech))


def rf_gen_priced(sizing: tuple, op: OperatingPoint, clocks: Clocks) -> GenReport:
    """The RF generation unit's report from its :func:`rf_gen_sizing`, the RF
    DACs' switches priced at the RF clock."""
    area, p_analog, n_dacs, c_dac_sw = sizing
    p_switch = n_dacs * (switching_factor(clocks.f_clk_rf, op.v_dd, op.sigma_con) * c_dac_sw)
    return tuple.__new__(GenReport, (area, p_analog, p_switch))


def rf_gen_report(sc: Scenario) -> GenReport:
    """Area and power of the RF generation unit (one DAC per RF electrode)."""
    return rf_gen_priced(rf_gen_sizing(sc), sc.op, sc.clocks)
