"""Figure 17 — max frequency vs number of stacked Xeon Phi 7290 chips.

Shape criteria from Section 4.3: the water pipe works for at most two
chips; water immersion provides the same or higher frequency than every
alternative at every chip count, reaching the chip's 1.6 GHz maximum on
a single chip.
"""

from __future__ import annotations

from freq_figures import render_frequency_figure, run_figure

CHIPS = (1, 2, 3, 4)


def test_fig17(benchmark, save_artifact):
    series = benchmark(run_figure, "xeon-phi-7290", CHIPS)
    save_artifact(
        "fig17_phi_stack_freq",
        render_frequency_figure(
            "Fig. 17: max frequency vs #stacked Xeon Phi 7290 chips",
            series))
