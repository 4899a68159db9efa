"""Figure 10 — NPB times relative to water-pipe, 6-chip low-power CMP.

24 threads. Air is omitted exactly as the paper omits it (it cannot
support 6 chips). Shape criteria: water fastest on every program; the
average gain lands in the paper's band.
"""

from __future__ import annotations

from npb_figures import render_npb_figure, run_comparison

COOLS = ("water_pipe", "mineral_oil", "fluorinert", "water")


def test_fig10(benchmark, save_artifact):
    cmp_ = benchmark(run_comparison, "low-power-cmp", 6, "water_pipe")
    save_artifact(
        "fig10_npb_6chip_lowpower",
        render_npb_figure(
            "Fig. 10: NPB execution times relative to water-pipe "
            "cooling, 6-chip low-power CMP", cmp_, COOLS))
