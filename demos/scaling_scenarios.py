"""Evaluate the four bundled technology/architecture design points.

From the conservative 65 nm flip-flop baseline to a 14 nm SRAM variant at a
10 mV digital supply, area shrinks by two orders of magnitude and power by
almost three; at the low-supply end the analog bias generation (set by
leakage, range, and stability, not by the supply) is all that remains.
"""

from cryoctrl import REFERENCE_SCENARIOS, assemble

reports = {name: assemble(build()) for name, build in REFERENCE_SCENARIOS.items()}
# one (unit, area, power) row per unit and a total row, in report order
columns = [report.rows() for report in reports.values()]

print(f"{'':16}" + "".join(f"{name:>18}" for name in reports))
for title, field in (("area / um^2", 1), ("power / W", 2)):
    print(title)
    for rows in zip(*columns):
        print(f"  {rows[0][0]:<14}" + "".join(f"{row[field]:>18.3g}" for row in rows))

base = reports["65nm-ff-1v"]
digital = base.memory.power_w + base.managing.power_w
print(f"\nat the baseline, digital circuits draw "
      f"{100 * digital / base.total_power_w:.1f} % of the total power")
end = reports["14nm-sram-10mv"]
print(f"at 14 nm / 10 mV the bias generation dominates: "
      f"{100 * end.bias_gen.power_w / end.total_power_w:.1f} % of "
      f"{end.total_power_w * 1e9:.0f} nW")
