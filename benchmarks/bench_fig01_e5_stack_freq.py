"""Figure 1 — max frequency vs number of stacked Xeon E5 chips.

Air / mineral-oil / water cooling of 1-4 stacked Xeon E5-2667v4 model
chips at the chip's 78 C specification threshold. Shape criteria from
the paper's introduction: air limits 3 chips to a much lower clock than
water, air cannot support the 4-chip stack at a useful clock, and water
dominates oil at every height.
"""

from __future__ import annotations

from freq_figures import render_frequency_figure, run_figure

CHIPS = (1, 2, 3, 4)
COOLS = ("air", "mineral_oil", "water")


def test_fig01(benchmark, save_artifact):
    series = benchmark(run_figure, "xeon-e5-2667v4", CHIPS, COOLS)
    save_artifact(
        "fig01_e5_stack_freq",
        render_frequency_figure(
            "Fig. 1: max frequency vs #stacked Xeon E5-2667v4 chips "
            "(threshold 78 C)", series))
