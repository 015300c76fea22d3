"""Area/power of the memories and the managing component.

The memory is register based: a serial write path (shift registers selected
through a demultiplexer) and a parallel read path (per-bit multiplexer
trees); the pulse memory has two read ports. With flip-flop storage the
selector trees route every data bit, with SRAM the selection collapses to
word-line decoders plus per-column read/write circuitry.

Selector model: a 2^k-way selector of ``width`` data bits is a
pass-transistor tree with (2^(k+1)-2)*width transistors; non-power-of-two
way counts round up. A memory design's periphery is counted once, however
many design points share it.

The managing component is summed from a per-subunit budget of flip-flop and
logic-transistor counts, the table ``MANAGING_BUDGET`` below; its logic
counts are calibration values.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .config import MemoryArch, OperatingPoint, Scenario, TechnologyParams, make, replace


def switching_power(c_gate: float, f: float, v_dd: float, sigma: float) -> float:
    """Dynamic switching power sigma * f * v_dd^2 * c_gate [W]."""
    return switching_factor(f, v_dd, sigma) * c_gate


def switching_factor(f: float, v_dd: float, sigma: float) -> float:
    """Dynamic switching power per farad switched, sigma * f * v_dd^2 [W/F]."""
    if f < 0 or v_dd < 0:
        raise ValueError("f and v_dd must be non-negative")
    if not 0 <= sigma <= 1:
        raise ValueError("sigma must be in [0, 1]")
    return sigma * f * v_dd * v_dd


def selector_transistors(ways: int, width: int) -> int:
    """Pass transistors of a ``ways``-to-1 selector, ``width`` bits wide."""
    if ways < 1 or width < 0:
        raise ValueError("ways must be >= 1 and width >= 0")
    # a tree of 2**k ways, k = ceil(log2(ways)) in exact integers
    k = (math.ceil(ways) - 1).bit_length()
    return (2 ** (k + 1) - 2) * width


class UnitReport(NamedTuple):
    area_um2: float
    power_w: float


class _MemoryFields(NamedTuple):
    arch: MemoryArch
    bias_registers: int
    bias_width: int
    rf_registers: int
    rf_width: int


class MemoryDesign(_MemoryFields):
    __slots__ = ()
    rf_read_ports = 2  # the pulse memory's two read ports (a constant, not a field)
    _replace = replace   # built again, and so checked, as the constructor builds it
    _make = make

    def __new__(cls, arch: MemoryArch, bias_registers: int, bias_width: int,
                rf_registers: int, rf_width: int):
        if type(arch) is not MemoryArch:   # a member or its value
            arch = MemoryArch(arch)
        return tuple.__new__(cls, (arch, bias_registers, bias_width, rf_registers, rf_width))

    @property
    def bias_bits(self) -> int:
        return self.bias_registers * self.bias_width

    @property
    def rf_bits(self) -> int:
        return self.rf_registers * self.rf_width


def memory_design(sc: Scenario) -> MemoryDesign:
    """Memory sizing from a scenario: one register per DC electrode plus one
    (the ramp-target register), and one register per stored pulse sample."""
    s = sc.spec
    return MemoryDesign(
        arch=sc.memory_arch,
        bias_registers=s.n_bias_signals + 1,
        bias_width=s.n_bias,
        rf_registers=s.n_pulses * s.l_pulse,
        rf_width=s.n_rf,
    )


@lru_cache(maxsize=256, typed=True)
def _ff_periphery_transistors(d: MemoryDesign) -> int:
    write = selector_transistors(d.bias_registers, 1) + selector_transistors(d.rf_registers, 1)
    read = selector_transistors(d.bias_registers, d.bias_width) + \
        d.rf_read_ports * selector_transistors(d.rf_registers, d.rf_width)
    return write + read


@lru_cache(maxsize=256, typed=True)
def _sram_periphery_transistors(d: MemoryDesign) -> int:
    # Word-line decoders (width 1 per port) plus column read/write circuitry.
    decoders = (
        selector_transistors(d.bias_registers, 1)
        + selector_transistors(d.rf_registers, 1)
        + selector_transistors(d.bias_registers, 1)
        + d.rf_read_ports * selector_transistors(d.rf_registers, 1)
    )
    columns = d.bias_width + d.rf_read_ports * d.rf_width
    return decoders + columns * SRAM_COLUMN_TRANSISTORS


def memory_sizing(d: MemoryDesign, tech: TechnologyParams) -> tuple[float, float, float]:
    """Both memory banks' figures that read no operating-point field,
    ``(area_um2, c_bias_f, c_rf_f)``: their area and the switched capacitance
    of each bank's bits."""
    bias_bits, rf_bits = d.bias_bits, d.rf_bits
    if d.arch is MemoryArch.FLIP_FLOP:
        cell_area = (bias_bits + rf_bits) * tech.a_ff * tech.logic_area_scale
        periph = _ff_periphery_transistors(d)
        c_bit = tech.c_ff_equiv
    else:
        cell_area = (bias_bits + rf_bits) * tech.a_sram_cell * tech.sram_area_scale
        periph = _sram_periphery_transistors(d)
        c_bit = tech.c_sram_bit
    area = cell_area + periph * tech.a_mos * tech.logic_area_scale

    c_bit = c_bit * tech.digital_cap_scale
    return area, bias_bits * c_bit, rf_bits * c_bit


def memory_priced(sizing: tuple, op: OperatingPoint, clocks) -> UnitReport:
    """Both memory banks' report from their :func:`memory_sizing`, each bank
    priced at its clock and activity."""
    area, c_bias, c_rf = sizing
    power = switching_factor(clocks.f_clk_bias, op.v_dd, op.sigma_biasmem) * c_bias
    power += switching_factor(clocks.f_clk_rf, op.v_dd, op.sigma_rfmem) * c_rf
    return tuple.__new__(UnitReport, (area, power))


def memory_report(d: MemoryDesign, sc: Scenario) -> UnitReport:
    """Area and operating power of both memory banks."""
    return memory_priced(memory_sizing(d, sc.tech), sc.op, sc.clocks)


# ---------------------------------------------------------------------------
# Managing component

# Gate-level budget of the managing component and the memory periphery.
# Flip-flop counts follow the block structures (shift registers sized to the
# word lengths, 5-bit reception counters, electrode/ramp counters); logic
# transistor counts are a calibration allowance fitted once against the
# reference area/power figures.
#
# subunit: (flip-flops, logic transistors with a flip-flop memory, with an
#           SRAM, clock, runs in the operation regime)
MANAGING_BUDGET = {
    "data_input_control": (27, 3415, 3415, "rf", False),
    "clock_control": (0, 12, 12, "rf", True),
    "bias_control": (8, 100, 100, "bias", True),
    "rf_control": (26, 100, 100, "rf", True),
    "mux_demux_drivers": (0, 525, 0, "rf", True),
}
SRAM_COLUMN_TRANSISTORS = 44   # read/write circuitry per SRAM column

# (flip-flops, logic transistors, clock, in the operation regime) per subunit
_MANAGING_ROWS = {
    MemoryArch.FLIP_FLOP: tuple((ff, logic, clock, op)
                                for ff, logic, _, clock, op in MANAGING_BUDGET.values()),
    MemoryArch.SRAM: tuple((ff, logic, clock, op)
                           for ff, _, logic, clock, op in MANAGING_BUDGET.values()),
}


def managing_sizing(sc: Scenario) -> tuple[float, MemoryArch, tuple[float, ...]]:
    """The managing component's figures that read no operating-point field,
    ``(area_um2, memory_arch, c_gates)``: its area, the memory architecture
    whose budget it follows, and each subunit's switched capacitance, in
    budget order."""
    tech = sc.tech
    area = 0.0
    c_gates = []
    for flipflops, logic, _, _ in _MANAGING_ROWS[sc.memory_arch]:
        area += (flipflops * tech.a_ff + logic * tech.a_mos) * tech.logic_area_scale
        c_gates.append((flipflops * tech.c_ff_equiv + logic * tech.c_mos) * tech.digital_cap_scale)
    return area, sc.memory_arch, tuple(c_gates)


def managing_priced(sizing: tuple, op: OperatingPoint, clocks,
                    include_data_input: bool) -> UnitReport:
    """The managing component's report from its :func:`managing_sizing`, the
    subunits that run priced: those of the operation regime, and the
    data-input subunit too with ``include_data_input``."""
    area, memory_arch, c_gates = sizing
    per_farad = {"bias": switching_factor(clocks.f_clk_bias, op.v_dd, op.sigma_con),
                 "rf": switching_factor(clocks.f_clk_rf, op.v_dd, op.sigma_con)}
    power = 0.0
    for c_gate, (_, _, clock, operation_regime) in zip(c_gates, _MANAGING_ROWS[memory_arch]):
        if operation_regime or include_data_input:
            power += per_farad[clock] * c_gate
    return tuple.__new__(UnitReport, (area, power))


def managing_report(sc: Scenario, include_data_input: bool = False) -> UnitReport:
    """Area and power of the managing component.

    The data-input subunit is only active while memories are being loaded;
    it always contributes area but its power is counted only when
    ``include_data_input`` is set.
    """
    return managing_priced(managing_sizing(sc), sc.op, sc.clocks, include_data_input)
