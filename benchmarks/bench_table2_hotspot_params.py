"""Table 2 — HotSpot simulation parameters.

Regenerates Table 2 from the thermal package configuration and checks
the Table-2-fixed quantities against the dataset. The timed kernel is
the network assembly + factorization for a 4-chip stack — the setup
cost every thermal experiment pays once.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.cooling import get_cooling
from repro.datasets import paper
from repro.power import get_chip
from repro.stack import uniform_stack
from repro.thermal import DEFAULT_PACKAGE, PARYLENE, TIM, build_network


def build_table2() -> list[tuple[str, str]]:
    p = DEFAULT_PACKAGE
    water = get_cooling("water")
    return [
        ("Heatsink",
         f"{p.sink_side_m * 100:.0f}x{p.sink_side_m * 100:.0f} cm, "
         f"400 W/mK, {p.sink_fin_area_m2} m2"),
        ("Heat spreader",
         f"{p.spreader_side_m * 100:.0f}x{p.spreader_side_m * 100:.0f}"
         f"x{p.spreader_thickness_m * 100:.1f} cm, 400 W/mK"),
        ("Parylene film",
         f"{water.film_thickness_m * 1e6:.0f} um, "
         f"{PARYLENE.conductivity_w_mk} W/mK"),
        ("TIM / Glue (nominal)", f"20 um, {TIM.conductivity_w_mk} W/mK"),
        ("Outside temp.", f"{p.ambient_c:.0f} C"),
    ]


def assemble_network():
    stack = uniform_stack(get_chip("low-power-cmp"), 4)
    net = build_network(stack, get_cooling("water"))
    net.solve({})   # forces assembly + factorization
    return net


def test_table2(benchmark, save_artifact):
    rows = build_table2()
    save_artifact("table2_hotspot_params",
                  "Table 2: HotSpot simulation parameters\n"
                  + format_table(["parameter", "value"], rows))
    t2 = paper.TABLE2
    got = dict(rows)
    assert f"{t2['heatsink_area_m2']}" in got["Heatsink"]
    assert got["Parylene film"].startswith(f"{t2['parylene_um']:.0f}")
    assert f"{t2['parylene_k_w_mk']}" in got["Parylene film"]
    assert f"{t2['tim_k_w_mk']}" in got["TIM / Glue (nominal)"]
    assert got["Outside temp."] == "25 C"

    net = benchmark(assemble_network)
    assert net.num_nodes > 0
