"""System assembly: per-unit reports, sweeps, and cooling-budget capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter

from . import noise
from .analog import (
    GenReport,
    bias_dac_design,
    derived_clocks,
    bias_gen_report,
    rf_dac_design,
    rf_gen_report,
)
from .config import DacArchitecture, Scenario, scenario_to_dict
from .dac import dac_analog_power, dac_area, dac_output_noise, dac_switch_power, design_dac
from .digital import UnitReport, managing_report, memory_design, memory_report

# The report's units in report order. Every per-unit output (totals, dicts,
# CSV columns, CLI tables) follows this tuple through Report.units().
UNITS = ("bias_gen", "rf_gen", "memory", "managing")
_unit_reports = attrgetter(*UNITS)


@dataclass(frozen=True)
class Report:
    """Per-unit area/power breakdown plus totals for one scenario."""

    scenario: Scenario
    bias_gen: GenReport
    rf_gen: GenReport
    memory: UnitReport
    managing: UnitReport
    f_refresh: float
    f_clk_bias: float
    f_clk_rf: float
    include_data_input: bool
    notes: tuple[str, ...] = ()

    def units(self) -> tuple[tuple[str, GenReport | UnitReport], ...]:
        """``(name, unit report)`` for each unit, in report order."""
        return tuple(zip(UNITS, _unit_reports(self)))

    def rows(self) -> tuple[tuple[str, float, float], ...]:
        """``(unit, area_um2, power_w)`` for each unit, then the ``total`` row."""
        rows = [(name, u.area_um2, u.power_w) for name, u in self.units()]
        area = power = 0.0
        for _, a, p in rows:
            area += a
            power += p
        rows.append(("total", area, power))
        return tuple(rows)

    @property
    def total_area_um2(self) -> float:
        return self.rows()[-1][1]

    @property
    def total_power_w(self) -> float:
        return self.rows()[-1][2]

    def unit_powers(self) -> dict:
        return {name: u.power_w for name, u in self.units()}

    def to_dict(self) -> dict:
        """Each unit's fields plus its power, the totals, clocks and inputs."""
        d = {name: {**vars(u), "power_w": u.power_w} for name, u in self.units()}
        _, area, power = self.rows()[-1]
        d["totals"] = {"area_um2": area, "power_w": power}
        d["clocks_hz"] = {
            "f_refresh": self.f_refresh,
            "f_clk_bias": self.f_clk_bias,
            "f_clk_rf": self.f_clk_rf,
        }
        d["include_data_input"] = self.include_data_input
        d["notes"] = list(self.notes)
        d["scenario"] = scenario_to_dict(self.scenario)
        return d


def assemble(sc: Scenario, include_data_input: bool = False) -> Report:
    """Evaluate all four unit models for one scenario.

    Per-unit digital figures rest on calibrated gate budgets; the analog
    terms are closed forms. By default the power refers to the operation
    regime, i.e. the data-input subunit contributes area but no power.
    A design point whose area or power overflows raises ``ValueError``.
    """
    sc.validate()
    clocks = derived_clocks(sc)
    notes = []
    if not include_data_input:
        notes.append("operation regime: data input control excluded from power")
    notes.append("digital unit figures use calibrated gate budgets")
    report = Report(
        scenario=sc,
        bias_gen=bias_gen_report(sc),
        rf_gen=rf_gen_report(sc),
        memory=memory_report(memory_design(sc), sc),
        managing=managing_report(sc, include_data_input=include_data_input),
        f_refresh=clocks.f_refresh,
        f_clk_bias=clocks.f_clk_bias,
        f_clk_rf=clocks.f_clk_rf,
        include_data_input=include_data_input,
        notes=tuple(notes),
    )
    for unit, area, power in report.rows():
        if not (math.isfinite(area) and math.isfinite(power)):
            raise ValueError(f"{unit} area or power is not finite: {area!r} um^2, {power!r} W")
    return report


# ---------------------------------------------------------------------------
# Sweeps

SWEEP_PARAMS = ("n_bias", "n_rf", "v_dd")

SWEEP_CSV_HEADER = ",".join(
    ["param", "value"]
    + [f"{unit}_{column}" for unit in (*UNITS, "total") for column in ("area_um2", "power_w")]
    + ["status"]
)


@dataclass(frozen=True)
class SweepRow:
    param: str
    value: float
    report: Report | None
    status: str  # "ok" or "invalid: <reason>"


def _with_param(sc: Scenario, param: str, value) -> Scenario:
    if param in ("n_bias", "n_rf"):
        if not float(value).is_integer():
            raise ValueError(f"{param} must be an integer, got {value!r}")
        return replace(sc, spec=replace(sc.spec, **{param: int(value)}))
    if param == "v_dd":
        return replace(sc, op=replace(sc.op, v_dd=float(value)))
    raise ValueError(f"unknown sweep parameter '{param}' (one of {SWEEP_PARAMS})")


def sweep(sc: Scenario, param: str, values) -> list[SweepRow]:
    """One report per parameter value, ordered by value with NaN last; a value
    that fails validation yields an invalid row instead of aborting the sweep."""
    rows = []
    for value in sorted(values, key=lambda v: (math.isnan(v), v)):
        try:
            rows.append(SweepRow(param, value, assemble(_with_param(sc, param, value)), "ok"))
        except ValueError as exc:
            rows.append(SweepRow(param, value, None, f"invalid: {exc}"))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    empty = [""] * (2 * (len(UNITS) + 1))  # area and power per unit and total
    for row in rows:
        if row.report is None:
            cells = empty
        else:
            cells = [repr(x) for _, area, power in row.report.rows() for x in (area, power)]
        lines.append(",".join([row.param, repr(row.value), *cells, row.status]))
    return "\n".join(lines) + "\n"


DAC_SWEEP_CSV_HEADER = "arch,n,area_um2,p_analog_w,p_switch_w,noise_vrms"
_DAC_SWEEP_COLUMNS = DAC_SWEEP_CSV_HEADER.split(",")


def dac_sweep(sc: Scenario, condition: str = "bias") -> list[dict]:
    """Single-DAC comparison rows for all three architectures at resolutions
    2 to 16.

    ``condition`` selects the operating point: "bias" (full range at the
    refresh rate) or "rf" (pulse amplitude at the sample rate). Switches are
    clocked at twice the conversion rate.
    """
    s = sc.spec
    clocks = derived_clocks(sc)
    if condition == "bias":
        v_range, f_conv, t, b = s.v_range_bias, clocks.f_refresh, sc.op.t_el, sc.op.b_bias
    elif condition == "rf":
        v_range, f_conv, t, b = s.v_range_rf, s.f_sample_rf, sc.op.t_el, sc.op.b_rf
    else:
        raise ValueError("condition must be 'bias' or 'rf'")

    rows = []
    for arch in DacArchitecture:
        for n in range(2, 17):
            d = design_dac(arch, n, sc.tech)
            rows.append({
                "arch": arch.value,
                "n": n,
                "area_um2": dac_area(d, sc.tech),
                "p_analog_w": dac_analog_power(d, v_range, f_conv),
                "p_switch_w": dac_switch_power(d, sc.op.v_dd, 2.0 * f_conv,
                                               sc.op.sigma_con, sc.tech),
                "noise_vrms": dac_output_noise(d, t, b),
            })
    return rows


def dac_sweep_csv(rows: list[dict]) -> str:
    lines = [DAC_SWEEP_CSV_HEADER]
    for r in rows:
        cells = (r[c] for c in _DAC_SWEEP_COLUMNS)
        lines.append(",".join(c if isinstance(c, str) else repr(c) for c in cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cooling-budget capacity

@dataclass(frozen=True)
class CapacityResult:
    budget_w: float
    per_qubit_w: float
    n_qubits: int


def round_sig(x: float, sig: int) -> float:
    """Round to ``sig`` significant figures."""
    if x == 0:
        return 0.0
    return round(x, -int(math.floor(math.log10(abs(x)))) + sig - 1)


def qubit_capacity(report, budget_w: float, sig_figs: int | None = 2) -> CapacityResult:
    """Number of controllable qubits, floor(budget / per-qubit dissipation).

    ``report`` is a :class:`Report` or a per-qubit power in watts. The
    dissipation is quantized to ``sig_figs`` significant figures first
    (default 2, the presentation precision of the reference tables, making
    the published capacities reproducible); pass ``sig_figs=None`` for exact
    division.
    """
    per_qubit = report.total_power_w if isinstance(report, Report) else float(report)
    if not 0 < per_qubit < math.inf:
        raise ValueError(f"per-qubit power must be positive and finite, got {per_qubit!r} W")
    if not 0 < budget_w < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget_w!r}")
    if sig_figs is not None:
        per_qubit = round_sig(per_qubit, sig_figs)
    n_qubits = budget_w / per_qubit
    if n_qubits == math.inf:
        raise ValueError(f"budget {budget_w!r} W over {per_qubit!r} W per qubit overflows")
    return CapacityResult(budget_w, per_qubit, math.floor(n_qubits))


# ---------------------------------------------------------------------------
# Operating-temperature adjustment

def temperature_adjust(sc: Scenario, t_el: float) -> Scenario:
    """Re-size the analog components for a different electronics temperature.

    Thermal-noise minimums scale linearly with temperature. The bias path
    (hold capacitor and bias DAC unit) keeps its margin ratio above the
    bound, i.e. scales by t_el / t_old; the refresh rate and bias clock
    follow automatically. The RF DAC unit is only raised to its new minimum
    if the current value would violate it (the pulse path has no derived
    rates that benefit from extra margin).
    """
    if t_el <= 0:
        raise ValueError("t_el must be positive")
    if t_el == sc.op.t_el:
        return sc
    ratio = t_el / sc.op.t_el
    s = sc.spec

    c_h = sc.c_h * ratio

    def scaled_bias_unit() -> float:
        d = bias_dac_design(sc)
        if d.arch is DacArchitecture.CAP:
            return d.unit_value * ratio
        return d.unit_value / ratio  # resistive bound shrinks with T

    def adjusted_rf_unit() -> float:
        d = rf_dac_design(sc)
        if d.arch is DacArchitecture.CAP:
            bound = noise.min_unit_cap(s.n_rf, s.dv_rf, t_el).value
            return max(d.unit_value, bound)
        bound = noise.max_unit_res(d.arch, s.n_rf, s.dv_rf, t_el, sc.op.b_rf).value
        return min(d.unit_value, bound)

    return replace(
        sc,
        c_h=c_h,
        bias_dac_unit=scaled_bias_unit(),
        rf_dac_unit=adjusted_rf_unit(),
        op=replace(sc.op, t_el=t_el, f_clk_bias=None),
    )
