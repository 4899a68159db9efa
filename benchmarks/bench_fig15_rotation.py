"""Figure 15 — temperature vs frequency with and without chip rotation.

4-chip high-frequency CMP under air and water, plain vs flipped (all
even layers rotated 180 degrees). Shape criteria from Section 4.2: the
flip lowers temperature at every frequency; at 3.6 GHz the reduction is
about 13 C for water; with the flip, water sustains 3.6 GHz under the
80 C threshold.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core.sweeps import temperature_vs_frequency


def run_fig15():
    out = {}
    for cooling in ("air", "water"):
        for flipped in (False, True):
            key = f"{cooling}{'_flip' if flipped else ''}"
            out[key] = temperature_vs_frequency(
                "high-frequency-cmp", cooling, flipped=flipped)
    return out


def test_fig15(benchmark, save_artifact):
    series = benchmark(run_fig15)
    keys = ("air", "air_flip", "water", "water_flip")
    f_ghz = series["water"].f_ghz
    rows = []
    for i, f in enumerate(f_ghz):
        rows.append([f"{f:.1f}"] + [series[k].max_temp_c[i] for k in keys])
    save_artifact(
        "fig15_rotation",
        "Fig. 15: temperature vs frequency with/without chip rotation "
        "(4-chip high-frequency CMP)\n"
        + format_table(["GHz"] + list(keys), rows, float_fmt="{:.1f}"))
