"""Simulate the bias path: serial configuration, refresh, droop, and a ramp.

Writes all eight electrode codes over the serial protocol, lets the
controller refresh them round-robin against leakage for a millisecond, then
switches to ramp mode and applies a staircase to one electrode. The trace
lands in bias_refresh_trace.csv.
"""

from pathlib import Path

from cryoctrl import baseline_scenario
from cryoctrl.sim import Simulator

sc = baseline_scenario()

stimulus_lines = [f"0 write-bias {e} {512 * (e + 1) - 1}" for e in range(8)]
stimulus_lines.append("0 write-bias 8 3          # ramp target: electrode 3")
stimulus_lines.append("1000000 ramp-mode on")
stimulus = "\n".join(stimulus_lines)

sim = Simulator(sc)
trace = sim.run(stimulus, 1_020_000.0)
Path("bias_refresh_trace.csv").write_text(trace.to_csv())
print(f"wrote bias_refresh_trace.csv ({len(trace)} events)")

print(f"\nrefresh rate {sim.f_clk_bias / 2:.4g} Hz, each electrode served every "
      f"{8 / (sim.f_clk_bias / 2) * 1e6:.2f} us")
print(f"droop time constant r_off * c_h = {sim.tau_s:.3g} s")

print(f"\n{'electrode':>9} {'code':>5} {'held voltage/V':>15} {'worst droop/uV':>15}")
for e in range(8):
    code = sim.memory.bias[e]
    dev = trace.stats["max_refresh_deviation_v"][e]
    print(f"{e:>9} {code:>5} {code / 4096:>15.6f} {dev * 1e6:>15.3f}")

budget = sc.spec.n_bias_signals * sc.spec.dv_bias
worst = max(trace.stats["max_refresh_deviation_v"])
print(f"\nworst-case deviation {worst * 1e6:.3f} uV, pooled stability budget "
      f"{budget * 1e6:.1f} uV -> {'OK' if worst <= budget else 'VIOLATED'}")

ramp = trace.of("bias_e3")
ramp_steps = [e for e in ramp if e.t_ns >= 1_000_000.0]
print(f"\nramp mode: electrode 3 stepped {len(ramp_steps)} times, "
      f"codes {[round(e.value * 4096) for e in ramp_steps[:6]]} ...")
