"""System assembly: per-unit reports, sweeps, and cooling-budget capacity."""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import noise
from .analog import (
    GenReport,
    bias_dac_design,
    bias_gen_priced,
    bias_gen_sizing,
    rf_dac_design,
    rf_gen_priced,
    rf_gen_sizing,
)
from .config import DacArchitecture, Scenario, make, replace, scenario_to_dict
from .dac import dac_analog_power, dac_area, dac_output_noise, dac_switch_power, design_dac
from .digital import (
    UnitReport,
    managing_priced,
    managing_sizing,
    memory_design,
    memory_priced,
    memory_sizing,
)

# The report's units in report order. Every per-unit output (totals, dicts,
# CSV columns, CLI tables) follows this tuple through Report.units().
UNITS = ("bias_gen", "rf_gen", "memory", "managing")
_unit_reports = attrgetter(*UNITS)


class _ReportFields(NamedTuple):
    scenario: Scenario
    bias_gen: GenReport
    rf_gen: GenReport
    memory: UnitReport
    managing: UnitReport
    include_data_input: bool
    notes: tuple[str, ...] = ()


class Report(_ReportFields):
    """Per-unit area/power breakdown plus totals for one scenario. Its rows and
    totals are summed once, when it is built, as a ``DacDesign`` computes its
    counts; ``_make``, ``_replace``, ``copy`` and ``pickle`` build it again."""

    _replace = replace   # built again, and so summed again, by the constructor
    _make = make

    def __new__(cls, scenario: Scenario, bias_gen: GenReport, rf_gen: GenReport,
                memory: UnitReport, managing: UnitReport, include_data_input: bool,
                notes: tuple[str, ...] = ()):
        self = tuple.__new__(cls, (scenario, bias_gen, rf_gen, memory, managing,
                                   include_data_input, notes))
        areas = (bias_gen.area_um2, rf_gen.area_um2, memory.area_um2, managing.area_um2)
        powers = (bias_gen.power_w, rf_gen.power_w, memory.power_w, managing.power_w)
        area = power = 0.0
        for a in areas:
            area += a
        for p in powers:
            power += p
        self.__dict__["_rows"] = (*zip(UNITS, areas, powers), ("total", area, power))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __reduce__(self):
        return type(self), tuple(self)

    def units(self) -> tuple[tuple[str, GenReport | UnitReport], ...]:
        """``(name, unit report)`` for each unit, in report order."""
        return tuple(zip(UNITS, _unit_reports(self)))

    def rows(self) -> tuple[tuple[str, float, float], ...]:
        """``(unit, area_um2, power_w)`` for each unit, then the ``total`` row."""
        return self._rows

    @property
    def total_area_um2(self) -> float:
        return self._rows[-1][1]

    @property
    def total_power_w(self) -> float:
        return self._rows[-1][2]

    def unit_powers(self) -> dict:
        return {name: power for name, _, power in self._rows[:-1]}

    def to_dict(self) -> dict:
        """Each unit's fields plus its power, the totals, the scenario's clocks
        and the inputs."""
        d = {name: {**u._asdict(), "power_w": power}
             for (name, _, power), u in zip(self._rows, _unit_reports(self))}
        _, area, power = self._rows[-1]
        d["totals"] = {"area_um2": area, "power_w": power}
        d["clocks_hz"] = self.scenario.clocks._asdict()
        d["include_data_input"] = self.include_data_input
        d["notes"] = list(self.notes)
        d["scenario"] = scenario_to_dict(self.scenario)
        return d


# The notes of a report, with and without the data-input power.
_NOTES_WITH_DATA_INPUT = ("digital unit figures use calibrated gate budgets",)
_NOTES = ("operation regime: data input control excluded from power", *_NOTES_WITH_DATA_INPUT)
_NOT_FINITE = "area or power is not finite: "   # the refusal of an OverflowError


def size(sc: Scenario) -> tuple:
    """Each unit's figures that read no ``sc.op`` field, in report order: its
    area, its analog power and the capacitances its clocks switch (the unit
    models' ``*_sizing``)."""
    return (bias_gen_sizing(sc), rf_gen_sizing(sc), memory_sizing(memory_design(sc), sc.tech),
            managing_sizing(sc))


def assemble(sc: Scenario, include_data_input: bool = False) -> Report:
    """Evaluate all four unit models for one scenario.

    Per-unit digital figures rest on calibrated gate budgets; the analog
    terms are closed forms. By default the power refers to the operation
    regime, i.e. the data-input subunit contributes area but no power.
    Each unit's sizing (:func:`size`) goes to the unit's ``*_priced``, which
    prices its switching power at the operating point. A design point whose
    area or power overflows raises ``ValueError``, naming the first unit, or
    else the total, that is not finite; the report sums its rows once, when
    it is built. ``sc`` was checked when it was built.
    """
    try:
        return _priced(sc, size(sc), include_data_input)
    except OverflowError as exc:  # an integer count or a power beyond the float range
        raise ValueError(_NOT_FINITE + str(exc)) from None


def _priced(sc: Scenario, sizing: tuple, include_data_input: bool) -> Report:
    """The report of ``sc`` over ``sizing``, the :func:`size` of ``sc`` or of an ``op`` copy."""
    op, clocks = sc.op, sc.clocks
    bias, rf, memory, managing = sizing
    report = Report(
        sc,
        bias_gen_priced(bias, op, clocks),
        rf_gen_priced(rf, op, clocks),
        memory_priced(memory, op, clocks),
        managing_priced(managing, op, clocks, include_data_input),
        include_data_input,
        _NOTES_WITH_DATA_INPUT if include_data_input else _NOTES,
    )
    rows = report.rows()
    _, area, power = rows[-1]
    if not (math.isfinite(area) and math.isfinite(power)):   # else every unit is finite
        for unit, area, power in rows:
            if not (math.isfinite(area) and math.isfinite(power)):
                raise ValueError(f"{unit} area or power is not finite: {area!r} um^2, "
                                 f"{power!r} W")
    return report


# ---------------------------------------------------------------------------
# Sweeps

SWEEP_PARAMS = ("n_bias", "n_rf", "v_dd")

SWEEP_CSV_HEADER = ",".join(
    ["param", "value"]
    + [f"{unit}_{column}" for unit in (*UNITS, "total") for column in ("area_um2", "power_w")]
    + ["status"]
)


def _csv_text(text: str) -> str:
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_table(header: str, rows) -> str:
    """The ``header`` line, then one CSV line per row: a ``str`` cell as RFC 4180
    asks (quoted, inner quotes doubled, where it holds a comma, a quote or a
    line break), any other cell as its ``repr``."""
    lines = [header]
    # a float, the most common cell, takes one type test on its way to its repr
    lines += [",".join([repr(c) if type(c) is float else _csv_text(c) if isinstance(c, str)
                        else repr(c) for c in row])
              for row in rows]
    return "\n".join(lines) + "\n"


class SweepRow(NamedTuple):
    param: str
    value: float
    report: Report | None
    status: str  # "ok" or "invalid: <reason>"


def _field_value(param: str, value, default):
    """A sweep value as the field ``param`` with this ``default`` holds it: an integer
    where the default is one, else a float (beyond the float range, infinite)."""
    if type(default) is int:
        if value % 1 != 0:   # NaN and inf too
            raise ValueError(f"{param} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _nan_last(value):
    """Sort key of a sweep value: NaN last; ``math.isnan`` refuses a value that
    is no number."""
    try:
        return math.isnan(value), value
    except OverflowError:   # an integer beyond the float range
        return False, value


def sweep(sc: Scenario, param: str, values) -> list[SweepRow]:
    """One report per value of ``param`` (one of ``SWEEP_PARAMS``), ordered by
    value with NaN last; a value that fails validation yields an invalid row
    instead of aborting the sweep. Each point is ``sc`` with that value, built
    by :func:`config.replace`, which checks only the changed field and the
    part's and the scenario's own rules, and reported as :func:`assemble` reports it."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter '{param}' (one of {SWEEP_PARAMS})")
    section, part = next((name, value) for name, value in sc._asdict().items()
                         if param in getattr(value, "_fields", ()))   # the part with the field
    default = part._field_defaults[param]
    rows = []
    sizing = None
    for value in sorted(values, key=_nan_last):
        try:
            changed = replace(part, **{param: _field_value(param, value, default)})
            point = replace(sc, **{section: changed})
            # the sizing reads no op field, so the points of an op sweep share it
            if sizing is None or section != "op":
                sizing = size(point)
            rows.append(SweepRow(param, value, _priced(point, sizing, False), "ok"))
        except OverflowError as exc:   # an integer count or a power beyond the float range
            rows.append(SweepRow(param, value, None, f"invalid: {_NOT_FINITE}{exc}"))
        except ValueError as exc:
            rows.append(SweepRow(param, value, None, f"invalid: {exc}"))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    empty = ("",) * (2 * (len(UNITS) + 1))  # area and power per unit and total
    return csv_table(SWEEP_CSV_HEADER, (
        (row.param, row.value,
         *([x for _, a, p in row.report.rows() for x in (a, p)] if row.report else empty),
         row.status)
        for row in rows))


DAC_SWEEP_CSV_HEADER = "arch,n,area_um2,p_analog_w,p_switch_w,noise_vrms"
_DAC_SWEEP_COLUMNS = DAC_SWEEP_CSV_HEADER.split(",")
_DAC_SWEEP_FIGURES = _DAC_SWEEP_COLUMNS[2:]


def dac_sweep(sc: Scenario, condition: str = "bias") -> list[dict]:
    """Single-DAC comparison rows for all three architectures at resolutions
    2 to 16.

    ``condition`` selects the operating point: "bias" (full range at the
    refresh rate) or "rf" (pulse amplitude at the sample rate). Switches are
    clocked at twice the conversion rate. A row whose area, power or noise
    is not finite raises ``ValueError``.
    """
    s = sc.spec
    if condition == "bias":
        v_range, f_conv, t, b = s.v_range_bias, sc.clocks.f_refresh, sc.op.t_el, sc.op.b_bias
    elif condition == "rf":
        v_range, f_conv, t, b = s.v_range_rf, s.f_sample_rf, sc.op.t_el, sc.op.b_rf
    else:
        raise ValueError("condition must be 'bias' or 'rf'")

    rows = []
    for arch in DacArchitecture:
        for n in range(2, 17):
            d = design_dac(arch, n, sc.tech)
            row = {
                "arch": arch.value,
                "n": n,
                "area_um2": dac_area(d, sc.tech),
                "p_analog_w": dac_analog_power(d, v_range, f_conv),
                "p_switch_w": dac_switch_power(d, sc.op.v_dd, 2.0 * f_conv,
                                               sc.op.sigma_con, sc.tech),
                "noise_vrms": dac_output_noise(d, t, b),
            }
            for figure in _DAC_SWEEP_FIGURES:
                if not math.isfinite(row[figure]):
                    raise ValueError(f"the {arch.value} DAC at n={n}: {figure} is not "
                                     f"finite: {row[figure]!r}")
            rows.append(row)
    return rows


def dac_sweep_csv(rows: list[dict]) -> str:
    return csv_table(DAC_SWEEP_CSV_HEADER, map(itemgetter(*_DAC_SWEEP_COLUMNS), rows))


# ---------------------------------------------------------------------------
# Cooling-budget capacity

class CapacityResult(NamedTuple):
    budget_w: float
    per_qubit_w: float
    n_qubits: int


def _check_figures(name: str, sig, none: str = "") -> None:
    """Refuse a count of significant figures ``sig``, the argument ``name``,
    that is a bool, not an integer, or below 1; ``none`` is ``"None or "``
    where the argument may also be None."""
    if isinstance(sig, bool) or not isinstance(sig, int):
        raise ValueError(f"{name} must be {none}an integer, got {sig!r}")
    if sig < 1:
        raise ValueError(f"{name} must be {none}at least 1, got {sig!r}")


def round_sig(x: float, sig: int) -> float:
    """Round to ``sig`` significant figures, an integer of at least 1;
    ValueError where ``sig`` is not one, or where the rounding overflows."""
    _check_figures("sig", sig)
    if x == 0:
        return 0.0
    try:
        return round(x, -int(math.floor(math.log10(abs(x)))) + sig - 1)
    except OverflowError:
        raise ValueError(f"{x!r} rounded to {sig} significant figures overflows") from None


def qubit_capacity(report, budget_w: float, sig_figs: int | None = 2) -> CapacityResult:
    """Number of controllable qubits, floor(budget / per-qubit dissipation).

    ``report`` is a :class:`Report` or a per-qubit power in watts. The
    dissipation is quantized to ``sig_figs`` significant figures first
    (default 2, the presentation precision of the reference tables, making
    the published capacities reproducible); pass ``sig_figs=None`` for exact
    division. Any other ``sig_figs`` must be an integer of at least 1, not a
    bool.
    """
    if sig_figs is not None:
        _check_figures("sig_figs", sig_figs, "None or ")
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
    if t_el == sc.op.t_el:
        return sc
    op = replace(sc.op, t_el=t_el, f_clk_bias=None)  # refuses a t_el <= 0, NaN or inf
    ratio = t_el / sc.op.t_el
    s = sc.spec

    bias_unit = bias_dac_design(sc).unit_value
    if sc.bias_dac_arch is DacArchitecture.CAP:
        bias_unit *= ratio
    else:
        bias_unit /= ratio  # resistive bound shrinks with T

    rf_unit = rf_dac_design(sc).unit_value
    if sc.rf_dac_arch is DacArchitecture.CAP:
        rf_unit = max(rf_unit, noise.min_unit_cap(s.n_rf, s.dv_rf, t_el).value)
    else:
        rf_unit = min(rf_unit, noise.max_unit_res(sc.rf_dac_arch, s.n_rf, s.dv_rf,
                                                  t_el, sc.op.b_rf).value)

    return replace(sc, c_h=sc.c_h * ratio, bias_dac_unit=bias_unit, rf_dac_unit=rf_unit, op=op)
