"""Figure 11 — NPB times relative to mineral oil, 8-chip low-power CMP.

32 threads. The figure is normalized to mineral oil because the water
pipe cannot support the 8-chip low-power stack at all (anchor row
``fig11-pipe-feasible``). Headline: water beats oil by about
4.5 % on average.
"""

from __future__ import annotations

from npb_figures import render_npb_figure, run_comparison

COOLS = ("mineral_oil", "fluorinert", "water")


def test_fig11(benchmark, save_artifact):
    cmp_ = benchmark(run_comparison, "low-power-cmp", 8, "mineral_oil")
    save_artifact(
        "fig11_npb_8chip_lowpower",
        render_npb_figure(
            "Fig. 11: NPB execution times relative to mineral-oil "
            "cooling, 8-chip low-power CMP (water pipe infeasible)",
            cmp_, COOLS))
