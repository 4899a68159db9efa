"""Figure 13 — NPB times relative to water-pipe, 8-chip high-frequency CMP.

32 threads. The deepest configuration the paper evaluates end to end;
the water-pipe/water gap is at its widest here (our calibrated gap is
somewhat wider than the paper's — see EXPERIMENTS.md).
"""

from __future__ import annotations

from npb_figures import render_npb_figure, run_comparison

COOLS = ("water_pipe", "mineral_oil", "fluorinert", "water")


def test_fig13(benchmark, save_artifact):
    cmp_ = benchmark(run_comparison, "high-frequency-cmp", 8, "water_pipe")
    save_artifact(
        "fig13_npb_8chip_highfreq",
        render_npb_figure(
            "Fig. 13: NPB execution times relative to water-pipe "
            "cooling, 8-chip high-frequency CMP", cmp_, COOLS))
