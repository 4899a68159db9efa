"""Figure 12 — NPB times relative to water-pipe, 6-chip high-frequency CMP."""

from __future__ import annotations

from npb_figures import render_npb_figure, run_comparison

COOLS = ("water_pipe", "mineral_oil", "fluorinert", "water")


def test_fig12(benchmark, save_artifact):
    cmp_ = benchmark(run_comparison, "high-frequency-cmp", 6, "water_pipe")
    save_artifact(
        "fig12_npb_6chip_highfreq",
        render_npb_figure(
            "Fig. 12: NPB execution times relative to water-pipe "
            "cooling, 6-chip high-frequency CMP", cmp_, COOLS))
