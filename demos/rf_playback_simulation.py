"""Simulate pulse playback: stored sequences, double buffering, backpressure.

Loads a sine-ish staircase into sequence 0 and its inverse into sequence 1,
then plays them back to back from one command word. A second command lands
while the first is still playing (it waits in staging); a third finds
staging full and is dropped with a flag. The trace lands in
rf_playback_trace.csv.
"""

import math
from pathlib import Path

from cryoctrl import baseline_scenario
from cryoctrl.sim import run_simulation

sc = baseline_scenario()
n_codes = 1 << sc.spec.n_rf

lines = []
for i in range(16):
    code = round((n_codes - 1) * 0.5 * (1 + math.sin(2 * math.pi * i / 16)))
    lines.append(f"0 write-rf {i} {code}")
    lines.append(f"0 write-rf {16 + i} {n_codes - 1 - code}")
lines.append("30000 play 0 0 1 1   # set 1: seq 0 on both electrodes, set 2: seq 1")
lines.append("30040 play 0 1 1 0   # staged while the first command plays")
lines.append("30045 play 2 2 2 2   # staging full: dropped and flagged")

trace = run_simulation(sc, "\n".join(lines), 90_000.0)
Path("rf_playback_trace.csv").write_text(trace.to_csv())
print(f"wrote rf_playback_trace.csv ({len(trace)} events)")

samples = trace.of("rf_a")
spacing = samples[1].t_ns - samples[0].t_ns
print(f"\n{len(samples)} samples on electrode a at {spacing:.4f} ns spacing "
      f"({1e3 / spacing:.0f} MS/s)")
print(f"sequence boundaries (end_sequ): "
      f"{[round(e.t_ns, 1) for e in trace.of('end_sequ')]}")
print(f"dropped commands: {trace.stats['backpressure_count']}")

first = [e.value for e in samples[:16]]
print("\nfirst played sequence (V):")
print("  " + " ".join(f"{v * 1e3:.2f}" for v in first))
