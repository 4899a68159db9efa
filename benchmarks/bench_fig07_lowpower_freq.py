"""Figure 7 — max frequency vs #chips, low-power CMP, five coolings.

Shape criteria (paper Section 3.2): air supports ~4 chips, the water
pipe 7 (and not 8), the immersion options go much deeper with water on
top; everyone reaches the 2.0 GHz cap on a single chip.
"""

from __future__ import annotations

from freq_figures import render_frequency_figure, run_figure

CHIPS = tuple(range(1, 16))


def test_fig07(benchmark, save_artifact):
    series = benchmark(run_figure, "low-power-cmp", CHIPS)
    save_artifact(
        "fig07_lowpower_freq",
        render_frequency_figure(
            "Fig. 7: max frequency vs #chips, low-power CMP "
            "(threshold 80 C)", series))
