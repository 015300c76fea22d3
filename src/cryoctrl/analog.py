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

from .config import DacArchitecture, Scenario, TechnologyParams
from .dac import (
    DacDesign,
    dac_analog_power,
    dac_area,
    dac_switch_power,
    design_dac,
)


def refresh_rate(v_range, r_off, n_bias, dv, c_out) -> float:
    """Required refresh rate [Hz]: worst-case leakage current of ``n_bias``
    channels over the charge that may be lost from the pooled hold
    capacitance ``c_out`` without exceeding ``dv``."""
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


def bias_gen_report(sc: Scenario) -> GenReport:
    """Area and power of the bias generation unit (DAC + sample-and-hold)."""
    s, clocks = sc.spec, sc.clocks
    d = bias_dac_design(sc)

    area = dac_area(d, sc.tech) + sh_area(s.n_bias_signals, sc.c_h, sc.tech)

    c_sh_total = s.n_bias_signals * sc.c_h
    if d.arch is DacArchitecture.CAP:
        p_analog = bias_power_exact(
            clocks.f_refresh, d.c_in, s.v_range_bias, c_sh_total, s.dv_bias
        )
    else:
        p_analog = dac_analog_power(d, s.v_range_bias, clocks.f_refresh) + \
            (clocks.f_refresh / 2.0) * c_sh_total * s.dv_bias ** 2

    p_dac_sw = dac_switch_power(d, sc.op.v_dd, clocks.f_clk_bias, sc.op.sigma_con, sc.tech)
    c_sh_sw = s.n_bias_signals * sc.tech.c_mos * sc.tech.digital_cap_scale
    p_sh_sw = sc.op.sigma_con * clocks.f_clk_bias * sc.op.v_dd ** 2 * c_sh_sw
    return GenReport(area, p_analog, p_dac_sw + p_sh_sw)


def rf_gen_report(sc: Scenario) -> GenReport:
    """Area and power of the RF generation unit (one DAC per RF electrode)."""
    s, clocks = sc.spec, sc.clocks
    d = rf_dac_design(sc)
    n_dacs = s.n_rf_signals

    area = n_dacs * dac_area(d, sc.tech)
    p_analog = n_dacs * dac_analog_power(d, s.v_range_rf, s.f_sample_rf)
    p_digital = n_dacs * dac_switch_power(
        d, sc.op.v_dd, clocks.f_clk_rf, sc.op.sigma_con, sc.tech
    )
    return GenReport(area, p_analog, p_digital)
