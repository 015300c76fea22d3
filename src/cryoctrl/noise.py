"""Thermal-noise formulas and the component sizing bounds they impose.

Two noise mechanisms size the analog components: kT/C noise of switched
capacitors and Johnson-Nyquist noise of resistors within the circuit
bandwidth. Each bound is returned as an exact value; rounding up to process
minimums (``r_min``/``c_min``) is left to the DAC design layer. A bound that
underflows to zero or overflows is refused with a ``ValueError`` that names
its requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .config import DacArchitecture

K_B = 1.380649e-23  # Boltzmann constant [J/K], exact since the 2019 SI


class BoundKind(str, Enum):
    MIN_CAPACITANCE = "min_capacitance"
    MAX_RESISTANCE = "max_resistance"


@dataclass(frozen=True)
class SizingBound:
    """A single component bound and the requirement that produced it."""

    kind: BoundKind
    value: float
    binding_spec: str

    def __post_init__(self):
        _check_bound(self.kind, self.value, "{}", self.binding_spec)


def _check_bound(kind: BoundKind, value: float, spec: str, *args) -> float:
    """``value``, or ValueError where it is not positive and finite; the
    requirement's text, ``spec`` formatted with ``args``, is built only then."""
    if not 0 < value < math.inf:
        raise ValueError(f"the {kind.value} bound of {spec.format(*args)} is {value!r}, "
                         f"not positive and finite")
    return value


def _require_positive(**values: float) -> None:
    for name, v in values.items():
        if not v > 0:  # NaN fails too
            raise ValueError(f"{name} must be positive, got {v!r}")


def _ratio(num: float, den: float) -> float:
    """``num / den`` of positive operands, inf where ``den`` underflowed to 0."""
    return num / den if den else math.inf


def ktc_rms(c: float, t: float) -> float:
    """RMS voltage noise sqrt(kT/C) of a capacitance ``c`` [F] at ``t`` [K]."""
    _require_positive(c=c, t=t)
    return math.sqrt(K_B * t / c)


def johnson_rms(r: float, t: float, b: float) -> float:
    """RMS voltage noise sqrt(4kTRB) of ``r`` [ohm] over bandwidth ``b`` [Hz]."""
    _require_positive(r=r, t=t, b=b)
    return math.sqrt(4.0 * K_B * t * r * b)


# Each bound comes as its value alone (``*_value``, what the sizing checks
# read) and as a SizingBound that also names its requirement, from the text
# below; both refuse a bound that underflows or overflows with one message.
_UNIT_CAP_SPEC = "kT/C <= ({1:g} V)^2 at {2:g} K, n={0}"
_UNIT_RES_SPEC = "4kTRB <= ({2:g} V)^2 at {3:g} K, B={4:g} Hz, n={1}, {0.value}"
_HOLD_CAP_SPEC = "kT/(N*C) <= ({1:g} V)^2 at {2:g} K, N={0}"


def min_unit_cap_value(n: int, dv: float, t: float) -> float:
    """The value of :func:`min_unit_cap`."""
    _require_positive(n=n, dv=dv, t=t)
    value = _ratio(K_B * t, 2.0 ** (n / 2.0) * dv * dv)
    return _check_bound(BoundKind.MIN_CAPACITANCE, value, _UNIT_CAP_SPEC, n, dv, t)


def min_unit_cap(n: int, dv: float, t: float) -> SizingBound:
    """Minimum DAC unit capacitor so that kT/C output noise stays below ``dv``.

    The output capacitance of the capacitive divider is approximately
    2^(n/2) unit capacitors; odd resolutions use the real-valued power.
    """
    return SizingBound(BoundKind.MIN_CAPACITANCE, min_unit_cap_value(n, dv, t),
                       _UNIT_CAP_SPEC.format(n, dv, t))


def max_unit_res_value(arch: DacArchitecture, n: int, dv: float, t: float, b: float) -> float:
    """The value of :func:`max_unit_res`."""
    if type(arch) is not DacArchitecture:
        arch = DacArchitecture(arch)
    _require_positive(n=n, dv=dv, t=t, b=b)
    if arch is DacArchitecture.CAP:
        raise ValueError("capacitive DAC has no resistive noise bound")
    value = _ratio(dv * dv, 4.0 * K_B * t * b)
    if arch is DacArchitecture.KELVIN:
        value /= 2.0 ** (n - 2)
    return _check_bound(BoundKind.MAX_RESISTANCE, value, _UNIT_RES_SPEC, arch, n, dv, t, b)


def max_unit_res(
    arch: DacArchitecture, n: int, dv: float, t: float, b: float
) -> SizingBound:
    """Maximum DAC unit resistor so that 4kTRB output noise stays below ``dv``.

    The ladder presents its unit resistance at the output; the divider-string
    converter is code dependent and in the worst case presents 2^(n-2) units.
    """
    return SizingBound(BoundKind.MAX_RESISTANCE, max_unit_res_value(arch, n, dv, t, b),
                       _UNIT_RES_SPEC.format(DacArchitecture(arch), n, dv, t, b))


def min_hold_cap_value(n_channels: int, dv: float, t: float) -> float:
    """The value of :func:`min_hold_cap`."""
    _require_positive(n_channels=n_channels, dv=dv, t=t)
    value = _ratio(K_B * t, n_channels * dv * dv)
    return _check_bound(BoundKind.MIN_CAPACITANCE, value, _HOLD_CAP_SPEC, n_channels, dv, t)


def min_hold_cap(n_channels: int, dv: float, t: float) -> SizingBound:
    """Minimum per-electrode hold capacitor of the sample-and-hold.

    The pooled output capacitance of ``n_channels`` hold capacitors sets the
    kT/C noise seen at the electrodes.
    """
    return SizingBound(BoundKind.MIN_CAPACITANCE, min_hold_cap_value(n_channels, dv, t),
                       _HOLD_CAP_SPEC.format(n_channels, dv, t))
