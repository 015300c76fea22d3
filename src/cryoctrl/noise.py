"""Thermal-noise formulas and the component sizing bounds they impose.

Two noise mechanisms size the analog components: kT/C noise of switched
capacitors and Johnson-Nyquist noise of resistors within the circuit
bandwidth. Each bound is returned as an exact value. No DAC design raises
its unit to its bound: ``dac.design_dac`` takes an explicit unit as given and
a ``None`` unit as ``dac.default_unit_value``. Only the hold capacitor is
refused below its bound, and only ``report.temperature_adjust`` raises a unit,
the RF DAC's, to its bound at the new temperature (ROADMAP open item 2). A
bound that underflows to zero, overflows, or passes through a subnormal term
(below ``sys.float_info.min``, with fewer significant bits) is refused with a
``ValueError`` that names its requirement. Each bound is computed once per
operands, types included, so its text keeps them: ``N=8`` and ``N=8.0`` are
two bounds.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .config import DacArchitecture

K_B = 1.380649e-23  # Boltzmann constant [J/K], exact since the 2019 SI


class BoundKind(str, Enum):
    MIN_CAPACITANCE = "min_capacitance"
    MAX_RESISTANCE = "max_resistance"


class SizingBound(NamedTuple):
    """A single component bound and the requirement that produced it: ``spec``
    formatted with ``args``."""

    kind: BoundKind
    value: float
    spec: str
    args: tuple

    @property
    def binding_spec(self) -> str:
        return self.spec.format(*self.args)


def _bound(kind: BoundKind, spec: str, args: tuple, num: float, den: float,
           per: float = 1.0, *terms: float) -> SizingBound:
    """``num / den / per`` as a bound (inf where ``den`` underflowed to 0); ValueError where
    it is not positive and finite, or where it, num, den, num / den or a term is subnormal."""
    ratio = num / den if den else math.inf
    value = ratio / per
    if not 0 < value < math.inf:
        why = "not positive and finite"
    elif min(num, den, ratio, value, *terms) < sys.float_info.min:   # none is 0 here
        why = "imprecise: it or a term it is computed from is subnormal"
    else:
        return SizingBound(kind, value, spec, args)
    raise ValueError(f"the {kind.value} bound of {spec.format(*args)} is {value!r}, {why}")


def _require_positive(**values: float) -> None:
    for name, v in values.items():
        if not v > 0:  # NaN fails too
            raise ValueError(f"{name} must be positive, got {v!r}")


def ktc_rms(c: float, t: float) -> float:
    """RMS voltage noise sqrt(kT/C) of a capacitance ``c`` [F] at ``t`` [K]."""
    _require_positive(c=c, t=t)
    return math.sqrt(K_B * t / c)


def johnson_rms(r: float, t: float, b: float) -> float:
    """RMS voltage noise sqrt(4kTRB) of ``r`` [ohm] over bandwidth ``b`` [Hz]."""
    _require_positive(r=r, t=t, b=b)
    return math.sqrt(4.0 * K_B * t * r * b)


# The requirement behind each bound, formatted with its operands when read.
_UNIT_CAP_SPEC = "kT/C <= ({1:g} V)^2 at {2:g} K, n={0}"
_UNIT_RES_SPEC = "4kTRB <= ({2:g} V)^2 at {3:g} K, B={4:g} Hz, n={1}, {0.value}"
_HOLD_CAP_SPEC = "kT/(N*C) <= ({1:g} V)^2 at {2:g} K, N={0}"


@lru_cache(maxsize=256, typed=True)
def min_unit_cap(n: int, dv: float, t: float) -> SizingBound:
    """Minimum DAC unit capacitor so that kT/C output noise stays below ``dv``.

    The output capacitance of the capacitive divider is approximately
    2^(n/2) unit capacitors; odd resolutions use the real-valued power.
    """
    _require_positive(n=n, dv=dv, t=t)
    return _bound(BoundKind.MIN_CAPACITANCE, _UNIT_CAP_SPEC, (n, dv, t),
                  K_B * t, 2.0 ** (n / 2.0) * dv * dv)


@lru_cache(maxsize=256, typed=True)
def max_unit_res(
    arch: DacArchitecture, n: int, dv: float, t: float, b: float
) -> SizingBound:
    """Maximum DAC unit resistor so that 4kTRB output noise stays below ``dv``.

    The ladder presents its unit resistance at the output; the divider-string
    converter is code dependent and in the worst case presents 2^(n-2) units.
    """
    arch = DacArchitecture(arch)
    _require_positive(n=n, dv=dv, t=t, b=b)
    if arch is DacArchitecture.CAP:
        raise ValueError("capacitive DAC has no resistive noise bound")
    kt = 4.0 * K_B * t   # a term of the denominator, which B may lift out of the subnormals
    per = 2.0 ** (n - 2) if arch is DacArchitecture.KELVIN else 1.0
    return _bound(BoundKind.MAX_RESISTANCE, _UNIT_RES_SPEC, (arch, n, dv, t, b),
                  dv * dv, kt * b, per, kt)


@lru_cache(maxsize=256, typed=True)
def min_hold_cap(n_channels: int, dv: float, t: float) -> SizingBound:
    """Minimum per-electrode hold capacitor of the sample-and-hold.

    The pooled output capacitance of ``n_channels`` hold capacitors sets the
    kT/C noise seen at the electrodes.
    """
    _require_positive(n_channels=n_channels, dv=dv, t=t)
    return _bound(BoundKind.MIN_CAPACITANCE, _HOLD_CAP_SPEC, (n_channels, dv, t),
                  K_B * t, n_channels * dv * dv)
