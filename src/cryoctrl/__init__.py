"""Per-qubit cryogenic control electronics: sizing, area/power, simulation.

The package has two halves. The estimator computes thermal-noise sizing
bounds, DAC areas and powers, memory and controller budgets, and assembles
them into per-qubit system reports, sweeps, and cooling-budget capacities.
The behavioral simulator executes the digital control system (serial
configuration protocol, memories, refresh/ramp, pulse playback) and produces
deterministic electrode-voltage traces.
"""

from .config import (
    ConfigError,
    DacArchitecture,
    MemoryArch,
    Node,
    OperatingPoint,
    REFERENCE_SCENARIOS,
    Scenario,
    SystemSpec,
    TechnologyParams,
    apply_node,
    baseline_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .noise import BoundKind, SizingBound, johnson_rms, ktc_rms, max_unit_res, min_hold_cap, min_unit_cap
from .dac import (
    ComponentCounts,
    DacDesign,
    component_counts,
    dac_analog_power,
    dac_area,
    dac_output_noise,
    dac_switch_power,
    design_dac,
)
from .analog import (
    Clocks,
    GenReport,
    bias_gen_report,
    bias_power_approx,
    bias_power_exact,
    bias_power_reduction,
    derived_clocks,
    refresh_rate,
    rf_gen_report,
    sh_area,
)
from .digital import (
    MemoryDesign,
    UnitReport,
    managing_report,
    memory_design,
    memory_report,
    selector_transistors,
    switching_power,
)
from .report import (
    CapacityResult,
    Report,
    SweepRow,
    assemble,
    dac_sweep,
    dac_sweep_csv,
    qubit_capacity,
    round_sig,
    sweep,
    sweep_csv,
    temperature_adjust,
)

__version__ = "0.1.0"

# The simulator is loaded on first use (PEP 562), so the estimator's
# subcommands do not pay for importing it.
_SIM_NAMES = ("Simulator", "Trace", "run_simulation")


def __getattr__(name):
    if name == "sim" or name in _SIM_NAMES:
        from importlib import import_module

        sim = import_module(".sim", __name__)
        value = sim if name == "sim" else getattr(sim, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "sim", *_SIM_NAMES})


# the lazy names are public too: ``from cryoctrl import *`` loads and gives them
__all__ = sorted({name for name in globals() if not name.startswith("_")} | {"sim", *_SIM_NAMES})
