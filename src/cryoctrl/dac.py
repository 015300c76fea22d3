"""Component counts, area, power, and output noise of the three DAC types.

Three converter architectures are compared: a divider-string DAC (one
resistor string tapping 2^n levels), an R-2R ladder, and a capacitive
divider. Counts follow the closed forms below; the capacitive divider uses
2*2^(n/2)-1 unit capacitors, which is fractional for odd n (the trimming
capacitor is counted as one unit at unit value, its exact value does not
enter the model).

Input loads for analog power: the ladder presents its unit resistance to the
reference, the divider string the full 2^n units, the capacitive divider all
of its units.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import noise
from .config import (
    DEFAULT_LADDER_UNIT_RES,
    RESOLUTION_RANGE,
    DacArchitecture,
    TechnologyParams,
    replace,
)
from .digital import switching_power


class ComponentCounts(NamedTuple):
    units: float
    switches: int


def component_counts(arch: DacArchitecture, n: int) -> ComponentCounts:
    """Unit elements and switches needed at resolution ``n``, in
    ``RESOLUTION_RANGE``."""
    if type(arch) is not DacArchitecture:
        arch = DacArchitecture(arch)
    lo, hi = RESOLUTION_RANGE
    if not lo <= n <= hi:
        raise ValueError(f"resolution must be in [{lo}, {hi}], got {n}")
    if arch is DacArchitecture.KELVIN:
        return ComponentCounts(float(2 ** n), 2 ** (n + 1) - 2)
    if arch is DacArchitecture.LADDER:
        return ComponentCounts(float(3 * n), 2 * n)
    return ComponentCounts(2.0 * 2.0 ** (n / 2.0) - 1.0, 2 * n)


def default_unit_value(arch: DacArchitecture, tech: TechnologyParams) -> float:
    """Default unit component: process minimum, except the ladder which uses
    a larger unit resistor to keep static dissipation in check."""
    if type(arch) is not DacArchitecture:
        arch = DacArchitecture(arch)
    if arch is DacArchitecture.KELVIN:
        return tech.r_min
    if arch is DacArchitecture.LADDER:
        return max(DEFAULT_LADDER_UNIT_RES, tech.r_min)
    return tech.c_min


class _DacFields(NamedTuple):
    arch: DacArchitecture
    n: int
    unit_value: float


class DacDesign(_DacFields):
    """A sized DAC: architecture (a member or its value), resolution, and unit
    component value. Its component counts are computed once, when it is built."""

    _replace = replace   # built again, and so checked, as the constructor builds it

    def __new__(cls, arch: DacArchitecture, n: int, unit_value: float):
        if type(arch) is not DacArchitecture:
            arch = DacArchitecture(arch)
        counts = component_counts(arch, n)   # range-checks n
        if not 0 < unit_value < math.inf:
            raise ValueError(f"unit_value must be positive and finite, got {unit_value!r}")
        self = tuple.__new__(cls, (arch, n, unit_value))
        self.__dict__["counts"] = counts
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    @property
    def c_in(self) -> float:
        """Input capacitance [F]; capacitive architecture only."""
        if self.arch is not DacArchitecture.CAP:
            raise ValueError("c_in is defined for the capacitive DAC only")
        return self.counts.units * self.unit_value

    @property
    def r_in(self) -> float:
        """Input (reference-side) resistance [ohm]; resistive architectures."""
        if self.arch is DacArchitecture.KELVIN:
            return 2.0 ** self.n * self.unit_value
        if self.arch is DacArchitecture.LADDER:
            return self.unit_value
        raise ValueError("r_in is defined for resistive DACs only")


# Equal designs are built once; keyed by type too, so a design keeps the
# types of its operands.
_shared_design = lru_cache(maxsize=256, typed=True)(DacDesign)


def design_dac(
    arch: DacArchitecture,
    n: int,
    tech: TechnologyParams,
    unit_value: float | None = None,
) -> DacDesign:
    """Build a DacDesign; defaults are clamped to process minimums, an
    explicit ``unit_value`` is taken as given. Equal designs are shared: one
    is built once for every design point that uses it."""
    if unit_value is None:
        unit_value = default_unit_value(arch, tech)
    return _shared_design(arch, n, unit_value)


def dac_area(design: DacDesign, tech: TechnologyParams) -> float:
    """Die area [um^2]: unit elements via the effective density, switches as
    mean transistors."""
    c = design.counts
    switch_area = c.switches * tech.a_mos * tech.logic_area_scale
    if design.arch is DacArchitecture.CAP:
        return c.units * design.unit_value / (tech.rho_c * tech.cap_density_scale) + switch_area
    return c.units * design.unit_value / tech.rho_r + switch_area


def dac_analog_power(design: DacDesign, v_range: float, f: float = 0.0) -> float:
    """Power drawn from the reference [W].

    Resistive DACs dissipate statically, V^2/R_in. The capacitive DAC only
    draws dynamic power 0.5*f*C_in*V^2 and needs the conversion rate ``f``.
    """
    if v_range < 0:
        raise ValueError("v_range must be non-negative")
    if design.arch is DacArchitecture.CAP:
        if f <= 0:
            raise ValueError("capacitive DAC needs a positive conversion rate")
        return 0.5 * f * design.c_in * v_range * v_range
    return v_range * v_range / design.r_in


def dac_switch_power(
    design: DacDesign,
    v_dd: float,
    f: float,
    sigma: float,
    tech: TechnologyParams,
) -> float:
    """Switching power of the DAC's switch transistors at clock ``f`` [W]."""
    c_gate = design.counts.switches * tech.c_mos * tech.digital_cap_scale
    return switching_power(c_gate, f, v_dd, sigma)


def dac_output_noise(design: DacDesign, t: float, b: float = 0.0) -> float:
    """Worst-case RMS output noise [V] of the sized DAC."""
    if design.arch is DacArchitecture.CAP:
        c_out = 2.0 ** (design.n / 2.0) * design.unit_value
        return noise.ktc_rms(c_out, t)
    if design.arch is DacArchitecture.KELVIN:
        r_out = 2.0 ** (design.n - 2) * design.unit_value
    else:
        r_out = design.unit_value
    return noise.johnson_rms(r_out, t, b)
