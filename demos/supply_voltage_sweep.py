"""Sweep the digital supply and find where the bias generation takes over.

Digital switching power scales with the square of the supply, while the
bias generation unit is pinned by leakage compensation at the full output
range. Somewhere below 100 mV the analog part becomes the largest consumer;
this script brackets the crossover and writes the sweep as CSV.
"""

from dataclasses import replace
from pathlib import Path

from cryoctrl import assemble, baseline_scenario, sweep, sweep_csv

sc = baseline_scenario()

points = [round(10 ** (-k / 6), 6) for k in range(13)]  # 1 V to 10 mV, log spaced
rows = sweep(sc, "v_dd", points)
Path("supply_sweep.csv").write_text(sweep_csv(rows))
print(f"wrote supply_sweep.csv ({len(rows)} rows)")

print(f"\n{'v_dd/V':>8} {'bias_gen':>11} {'rf_gen':>11} {'memory':>11} "
      f"{'managing':>11} {'top consumer':>14}")
for row in sorted(rows, key=lambda r: -r.value):
    p = row.report.unit_powers()
    top = max(p, key=p.get)
    print(f"{row.value:>8.3g} {p['bias_gen']:>11.3e} {p['rf_gen']:>11.3e} "
          f"{p['memory']:>11.3e} {p['managing']:>11.3e} {top:>14}")


def bias_on_top(v):
    r = assemble(replace(sc, op=replace(sc.op, v_dd=v)))
    p = r.unit_powers()
    return max(p, key=p.get) == "bias_gen"


lo, hi = 0.01, 1.0
for _ in range(60):
    mid = 0.5 * (lo + hi)
    lo, hi = (lo, mid) if not bias_on_top(mid) else (mid, hi)
print(f"\nbias generation becomes the top consumer below "
      f"{0.5 * (lo + hi) * 1e3:.1f} mV")
