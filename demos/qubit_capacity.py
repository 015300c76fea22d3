"""How many qubits fit into a given cooling budget.

Divides the available cooling power by the per-qubit dissipation of each
design point (quantized to the two-significant-figure reporting precision,
as capacities are quoted). Two further rows move the electronics to a 1.8 K
stage, where far more cooling power is available: component sizes rescale
with temperature via temperature_adjust, and one row additionally assumes a
hundredfold leakage improvement from transistors optimized for low-voltage
cryogenic operation.
"""

from cryoctrl import assemble, qubit_capacity, temperature_adjust
from cryoctrl.config import (
    baseline_scenario,
    replace,
    scenario_14nm_sram_10mv,
    scenario_65nm_sram,
)

rows = []
rows.append(("200 mK, 1 mW, 65nm FF 1V", assemble(baseline_scenario()), 1e-3))

sc2 = scenario_14nm_sram_10mv()
sc2 = replace(sc2, op=replace(sc2.op, v_dd=0.1))
rows.append(("200 mK, 1 mW, 14nm SRAM 100mV", assemble(sc2), 1e-3))

rows.append(("200 mK, 1 mW, 14nm SRAM 10mV", assemble(scenario_14nm_sram_10mv()), 1e-3))

sc4 = temperature_adjust(scenario_65nm_sram(), 1.8)
rows.append(("1.8 K, 1 W, 65nm SRAM 1V", assemble(sc4), 1.0))

sc5 = scenario_14nm_sram_10mv()
sc5 = replace(sc5, tech=replace(sc5.tech, r_off_multiplier=100.0))
sc5 = temperature_adjust(sc5, 1.8)
rows.append(("1.8 K, 10 W, 14nm SRAM 10mV, r_off x100", assemble(sc5), 10.0))

print(f"{'scenario':<42} {'per-qubit/W':>12} {'budget/W':>9} {'qubits':>12}")
for name, report, budget in rows:
    cap = qubit_capacity(report, budget)
    print(f"{name:<42} {cap.per_qubit_w:>12.2g} {budget:>9.3g} {cap.n_qubits:>12,}")

print("\nthe 5-qubit baseline is a demonstrator; reaching millions of qubits "
      "needs the leakage, supply, and range reductions of the last rows")
