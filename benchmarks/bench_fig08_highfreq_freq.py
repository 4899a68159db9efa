"""Figure 8 — max frequency vs #chips, high-frequency CMP.

Shape criteria: same coolant ordering as Fig. 7; additionally the
paper's observation that the high-frequency CMP supports *more* chips
than the low-power CMP at its lowest steps, because its broader VFS
range includes a lower-power mode.
"""

from __future__ import annotations

from freq_figures import render_frequency_figure, run_figure

CHIPS = tuple(range(1, 16))


def test_fig08(benchmark, save_artifact):
    series = benchmark(run_figure, "high-frequency-cmp", CHIPS)
    save_artifact(
        "fig08_highfreq_freq",
        render_frequency_figure(
            "Fig. 8: max frequency vs #chips, high-frequency CMP "
            "(threshold 80 C)", series))
