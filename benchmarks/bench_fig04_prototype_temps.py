"""Figure 4 — prototype chip temperature vs cooling option.

Regenerates the film-coated PRIMERGY TX1320 M2 measurements from the
calibrated board network: air 76 C, heatsink-in-water 71 C, full
immersion 56 C — the paper's "about 20 degrees" claim.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.datasets import paper
from repro.prototype import SCENARIOS, PrototypeBoardModel


def run_fig4():
    return PrototypeBoardModel().figure4()


def test_fig04(benchmark, save_artifact):
    temps = benchmark(run_fig4)
    rows = [[s, temps[s], paper.FIG4_TEMPERATURES_C[s]] for s in SCENARIOS]
    save_artifact(
        "fig04_prototype_temps",
        "Fig. 4: chip temperature for the film-coated PRIMERGY TX1320 M2\n"
        + format_table(["cooling option", "model C", "paper C"], rows,
                       float_fmt="{:.1f}"))
