"""Section 4.4 — facility-level PUE of cooling chains.

Regenerates the macro-system comparison: conventional air cooling pays
both primary and secondary coolant machinery; immersion cuts the
primary stage's cost; in-water computers under natural water remove the
secondary stage entirely and approach PUE 1.00 (the paper's claim).
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.cooling import (
    FACILITIES,
    NATURAL_WATER_DIRECT,
    annual_cooling_energy_mwh,
    pue_comparison,
)


def run_pue():
    return pue_comparison()


def test_s44(benchmark, save_artifact):
    pues = benchmark(run_pue)
    it_kw = 1000.0
    rows = [[name, p, round(annual_cooling_energy_mwh(it_kw,
                                                      FACILITIES[name]), 1)]
            for name, p in pues.items()]
    save_artifact(
        "s44_pue",
        "Section 4.4: PUE by cooling facility style (1 MW IT load)\n"
        + format_table(["facility", "PUE", "cooling MWh/year"], rows))

    ordered = sorted(pues.values())
    assert pues[NATURAL_WATER_DIRECT.name] == ordered[0]
    assert pues["air-cooled (CRAC + chiller)"] == ordered[-1]
