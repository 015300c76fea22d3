"""Area/power of the memories and the managing component.

The memory is register based: a serial write path (shift registers selected
through a demultiplexer) and a parallel read path (per-bit multiplexer
trees); the pulse memory has two read ports. With flip-flop storage the
selector trees route every data bit, with SRAM the selection collapses to
word-line decoders plus per-column read/write circuitry.

Selector model: a 2^k-way selector of ``width`` data bits is a
pass-transistor tree with (2^(k+1)-2)*width transistors; non-power-of-two
way counts round up.

The managing component is summed from a per-subunit budget (flip-flop and
logic-transistor counts) shipped as package data; counts there are
calibration values, see the budget file.
"""

from __future__ import annotations

import functools
import json
import math
from typing import NamedTuple

from .config import MemoryArch, Scenario, replace


def switching_power(c_gate: float, f: float, v_dd: float, sigma: float) -> float:
    """Dynamic switching power sigma * f * v_dd^2 * c_gate [W]."""
    if f < 0 or v_dd < 0:
        raise ValueError("f and v_dd must be non-negative")
    if not 0 <= sigma <= 1:
        raise ValueError("sigma must be in [0, 1]")
    return sigma * f * v_dd * v_dd * c_gate


def selector_transistors(ways: int, width: int) -> int:
    """Pass transistors of a ``ways``-to-1 selector, ``width`` bits wide."""
    if ways < 1 or width < 0:
        raise ValueError("ways must be >= 1 and width >= 0")
    if ways == 1:
        return 0
    k = math.ceil(math.log2(ways))
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


def _ff_periphery_transistors(d: MemoryDesign) -> int:
    write = selector_transistors(d.bias_registers, 1) + selector_transistors(d.rf_registers, 1)
    read = selector_transistors(d.bias_registers, d.bias_width) + \
        d.rf_read_ports * selector_transistors(d.rf_registers, d.rf_width)
    return write + read


def _sram_periphery_transistors(d: MemoryDesign, column_transistors: int) -> int:
    # Word-line decoders (width 1 per port) plus column read/write circuitry.
    decoders = (
        selector_transistors(d.bias_registers, 1)
        + selector_transistors(d.rf_registers, 1)
        + selector_transistors(d.bias_registers, 1)
        + d.rf_read_ports * selector_transistors(d.rf_registers, 1)
    )
    columns = d.bias_width + d.rf_read_ports * d.rf_width
    return decoders + columns * column_transistors


def memory_report(d: MemoryDesign, sc: Scenario) -> UnitReport:
    """Area and operating power of both memory banks."""
    tech, clocks = sc.tech, sc.clocks
    if d.arch is MemoryArch.FLIP_FLOP:
        cell_area = (d.bias_bits + d.rf_bits) * tech.a_ff * tech.logic_area_scale
        periph = _ff_periphery_transistors(d)
        c_bit = tech.c_ff_equiv
    else:
        cell_area = (d.bias_bits + d.rf_bits) * tech.a_sram_cell * tech.sram_area_scale
        periph = _sram_periphery_transistors(d, load_budget().sram_column_transistors)
        c_bit = tech.c_sram_bit
    area = cell_area + periph * tech.a_mos * tech.logic_area_scale

    c_bit = c_bit * tech.digital_cap_scale
    power = switching_power(d.bias_bits * c_bit, clocks.f_clk_bias,
                            sc.op.v_dd, sc.op.sigma_biasmem)
    power += switching_power(d.rf_bits * c_bit, clocks.f_clk_rf,
                             sc.op.v_dd, sc.op.sigma_rfmem)
    return UnitReport(area, power)


# ---------------------------------------------------------------------------
# Managing component

class Subunit(NamedTuple):
    name: str
    flipflops: int
    logic_transistors: int | dict
    clock: str                    # "bias" or "rf"
    operation_regime: bool = True

    def logic_for(self, arch: MemoryArch) -> int:
        if isinstance(self.logic_transistors, dict):
            return int(self.logic_transistors[arch.value])
        return int(self.logic_transistors)


class DigitalBudget(NamedTuple):
    subunits: tuple[Subunit, ...]
    sram_column_transistors: int

    def subunit(self, name: str) -> Subunit:
        for u in self.subunits:
            if u.name == name:
                return u
        raise KeyError(name)


@functools.cache
def load_budget() -> DigitalBudget:
    """The managing-component budget shipped as package data, read once."""
    from importlib import resources  # only here: its import costs more than the read

    text = resources.files("cryoctrl.data").joinpath("managing_budget.json").read_text()
    raw = json.loads(text)
    subunits = tuple(
        Subunit(
            name=name,
            flipflops=int(entry["flipflops"]),
            logic_transistors=entry["logic_transistors"],
            clock=entry["clock"],
            operation_regime=bool(entry.get("operation_regime", True)),
        )
        for name, entry in raw["subunits"].items()
    )
    return DigitalBudget(
        subunits=subunits,
        sram_column_transistors=int(raw["memory_periphery"]["sram_column_transistors"]),
    )


@functools.cache
def _managing_rows(arch: MemoryArch) -> tuple[tuple[int, int, str, bool], ...]:
    """``(flip-flops, logic transistors, clock, in the operation regime)`` per
    budget subunit, for ``arch``; built on first use."""
    return tuple((u.flipflops, u.logic_for(arch), u.clock, u.operation_regime)
                 for u in load_budget().subunits)


def managing_report(sc: Scenario, include_data_input: bool = False) -> UnitReport:
    """Area and power of the managing component.

    The data-input subunit is only active while memories are being loaded;
    it always contributes area but its power is counted only when
    ``include_data_input`` is set.
    """
    tech = sc.tech
    freq = {"bias": sc.clocks.f_clk_bias, "rf": sc.clocks.f_clk_rf}

    area = 0.0
    power = 0.0
    for flipflops, logic, clock, operation_regime in _managing_rows(sc.memory_arch):
        area += (flipflops * tech.a_ff + logic * tech.a_mos) * tech.logic_area_scale
        if not operation_regime and not include_data_input:
            continue
        c_gate = (flipflops * tech.c_ff_equiv + logic * tech.c_mos) * tech.digital_cap_scale
        power += switching_power(c_gate, freq[clock], sc.op.v_dd, sc.op.sigma_con)
    return UnitReport(area, power)
