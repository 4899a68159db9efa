"""Figure 14 — maximum temperature vs coolant heat-transfer coefficient.

Four-chip stacks of all four chip models at their maximum frequency,
immersed in a hypothetical coolant whose h sweeps from below air's to
well beyond water's. Shape criteria: temperature decreases monotonically
in h with diminishing returns, and — the paper's Section 4.1 finding —
a high-power chip like the Xeon E5 still gains non-negligibly beyond
water's 800 W/m2K (so pumping/turbines could pay off).
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core.sweeps import temperature_vs_h

H_VALUES = (14.0, 30.0, 60.0, 120.0, 160.0, 180.0, 250.0, 400.0, 800.0,
            1200.0, 1600.0, 2000.0)
CHIPS = ("low-power-cmp", "high-frequency-cmp", "xeon-e5-2667v4",
         "xeon-phi-7290")


def run_fig14():
    return {chip: temperature_vs_h(chip, H_VALUES, n_chips=4)
            for chip in CHIPS}


def test_fig14(benchmark, save_artifact):
    series = benchmark(run_fig14)
    headers = ["h W/m2K"] + list(CHIPS)
    rows = []
    for i, h in enumerate(H_VALUES):
        rows.append([f"{h:g}"]
                    + [series[c].max_temp_c[i] for c in CHIPS])
    save_artifact(
        "fig14_h_sweep",
        "Fig. 14: max temperature vs heat-transfer coefficient "
        "(4-chip stacks at f_max)\n"
        + format_table(headers, rows, float_fmt="{:.1f}"))
