"""Figure 16 — thermal map of the flipped 4-chip high-frequency CMP.

Same operating point as Fig. 9 but with all even layers rotated 180
degrees. Shape criterion (Section 4.2): the rotation distributes power
more uniformly across the stack, lowering the global maximum.
"""

from __future__ import annotations

from thermal_map_figures import compute_maps, render_map_figure

from repro.units import ghz


def test_fig16(benchmark, save_artifact):
    flip = benchmark(compute_maps, "high-frequency-cmp", "water",
                     ghz(3.6), flipped=True)
    save_artifact(
        "fig16_thermal_map_flip",
        render_map_figure(
            "Fig. 16: thermal map, 4-chip high-frequency CMP @ 3.6 GHz, "
            "water cooling, even layers rotated (flip)", flip))
