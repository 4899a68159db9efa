"""Floorplans used by the paper's evaluation.

Three chips appear in the evaluation:

* the **baseline 16-tile CMP** (Table 1, Fig. 5): a 169 mm**2 die
  organized as a 4x4 tile grid, with the four processor cores occupying
  the bottom tile row and twelve L2 cache banks filling the rest. Each
  tile carries a small NoC router. The paper derives two power variants
  from this one layout (low-power and high-frequency CMPs);
* an **Intel Xeon E5-2667v4-like** die (Figs. 1, 14): eight large cores
  in two columns flanking a central last-level-cache spine — the
  clustered-core layout that produces the strong hotspot the paper
  discusses;
* an **Intel Xeon Phi 7290-like** die (Figs. 17, 18): 36 compute tiles
  (two cores each) spread uniformly across a large die, which the paper
  observes yields a more uniform thermal map than the CMP layouts.

The paper obtained the real layouts from high-resolution die photos; we
reconstruct representative geometry from published die organizations
(see DESIGN.md substitution table).
"""

from __future__ import annotations

from functools import lru_cache

from ..units import mm
from .floorplan import Block, Floorplan
from .geometry import Rect


def baseline_16tile() -> Floorplan:
    """The Table 1 / Fig. 5 baseline CMP floorplan.

    13 mm x 13 mm die (169 mm**2), 4x4 tiles. Bottom row: CORE1..CORE4.
    Remaining twelve tiles: L2_01..L2_12 (left-to-right, bottom-to-top).
    Each tile has a router block (R_rc) in its lower-left corner sized at
    ~4 % of the tile, representing the [RC][VSA][ST/LT] mesh router.
    """
    side = mm(13.0)
    tile = side / 4.0
    router = 0.2 * tile  # 4 % of tile area
    outline = Rect(0.0, 0.0, side, side)
    blocks: list[Block] = []
    l2_index = 0
    for row in range(4):
        for col in range(4):
            x0 = col * tile
            y0 = row * tile
            # Router in the lower-left corner of the tile.
            blocks.append(Block(
                name=f"R{row}{col}",
                rect=Rect(x0, y0, router, router),
                kind="router",
            ))
            # The functional block fills the rest of the tile as an
            # L-shape; approximate with two rectangles: the column right
            # of the router and the strip above it.
            right = Rect(x0 + router, y0, tile - router, router)
            top = Rect(x0, y0 + router, tile, tile - router)
            if row == 0:
                name = f"CORE{col + 1}"
                kind = "core"
                blocks.append(Block(f"{name}a", right, kind))
                blocks.append(Block(f"{name}b", top, kind))
            else:
                l2_index += 1
                name = f"L2_{l2_index:02d}"
                kind = "l2"
                blocks.append(Block(f"{name}a", right, kind))
                blocks.append(Block(f"{name}b", top, kind))
    return Floorplan(name="baseline-16tile", outline=outline,
                     blocks=tuple(blocks))


def xeon_e5_2667v4() -> Floorplan:
    """A Xeon E5-2667v4-like (Broadwell-EP) floorplan.

    18.1 mm x 13.6 mm die (~246 mm**2). Eight cores in two columns of
    four along the left and right die edges; the central spine holds the
    last-level cache slices; thin system-agent strips run along the top
    and bottom edges.
    """
    w = mm(18.1)
    h = mm(13.6)
    outline = Rect(0.0, 0.0, w, h)
    blocks: list[Block] = []
    agent_h = mm(1.2)
    core_w = mm(4.6)
    core_h = (h - 2 * agent_h) / 4.0
    llc_w = w - 2 * core_w

    blocks.append(Block("SA_BOT", Rect(0.0, 0.0, w, agent_h), "misc"))
    blocks.append(Block("SA_TOP", Rect(0.0, h - agent_h, w, agent_h), "misc"))
    for i in range(4):
        y0 = agent_h + i * core_h
        blocks.append(Block(f"CORE{i + 1}",
                            Rect(0.0, y0, core_w, core_h), "core"))
        blocks.append(Block(f"CORE{i + 5}",
                            Rect(w - core_w, y0, core_w, core_h), "core"))
        blocks.append(Block(f"LLC{2 * i + 1}",
                            Rect(core_w, y0, llc_w / 2.0, core_h), "l2"))
        blocks.append(Block(f"LLC{2 * i + 2}",
                            Rect(core_w + llc_w / 2.0, y0, llc_w / 2.0,
                                 core_h), "l2"))
    return Floorplan(name="xeon-e5-2667v4", outline=outline,
                     blocks=tuple(blocks))


def xeon_phi_7290() -> Floorplan:
    """A Xeon Phi 7290-like (Knights Landing) floorplan.

    31.9 mm x 21.4 mm die (~683 mm**2). 36 compute tiles (two cores +
    shared L2 each) in a 6x6 grid across the die centre, with MCDRAM
    interface strips on the left and right edges and memory controllers
    top and bottom. The uniform tile spread is what gives the Fig. 18
    thermal map its flatness.
    """
    w = mm(31.9)
    h = mm(21.4)
    outline = Rect(0.0, 0.0, w, h)
    blocks: list[Block] = []
    edge_w = mm(2.4)    # MCDRAM PHY columns
    edge_h = mm(1.8)    # memory controller rows
    grid_w = w - 2 * edge_w
    grid_h = h - 2 * edge_h
    tile_w = grid_w / 6.0
    tile_h = grid_h / 6.0

    blocks.append(Block("MCDRAM_L", Rect(0.0, 0.0, edge_w, h), "misc"))
    blocks.append(Block("MCDRAM_R", Rect(w - edge_w, 0.0, edge_w, h), "misc"))
    blocks.append(Block("MC_BOT", Rect(edge_w, 0.0, grid_w, edge_h), "misc"))
    blocks.append(Block("MC_TOP", Rect(edge_w, h - edge_h, grid_w, edge_h),
                        "misc"))
    t = 0
    for row in range(6):
        for col in range(6):
            t += 1
            x0 = edge_w + col * tile_w
            y0 = edge_h + row * tile_h
            # Within a tile: two cores side by side over a shared L2 strip.
            l2_h = 0.3 * tile_h
            blocks.append(Block(f"T{t:02d}_L2",
                                Rect(x0, y0, tile_w, l2_h), "l2"))
            blocks.append(Block(f"T{t:02d}_C1",
                                Rect(x0, y0 + l2_h, tile_w / 2.0,
                                     tile_h - l2_h), "core"))
            blocks.append(Block(f"T{t:02d}_C2",
                                Rect(x0 + tile_w / 2.0, y0 + l2_h,
                                     tile_w / 2.0, tile_h - l2_h), "core"))
    return Floorplan(name="xeon-phi-7290", outline=outline,
                     blocks=tuple(blocks))


_FACTORIES = {
    "baseline-16tile": baseline_16tile,
    "xeon-e5-2667v4": xeon_e5_2667v4,
    "xeon-phi-7290": xeon_phi_7290,
}


@lru_cache(maxsize=None)
def get_floorplan(name: str) -> Floorplan:
    """Look up a library floorplan by name.

    Cached: floorplans are immutable, and re-validating the O(blocks^2)
    overlap invariant on every lookup dominated the pipeline profile
    (``python3 perfbench/run.py --workload campaign_cold --seed 1
    --seconds 5 --trace 1`` prints the per-layer split).
    """
    from ..errors import FloorplanError
    try:
        return _FACTORIES[name]()
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise FloorplanError(
            f"unknown floorplan {name!r}; known floorplans: {known}"
        ) from None


def floorplan_names() -> tuple[str, ...]:
    """Names of all library floorplans, sorted."""
    return tuple(sorted(_FACTORIES))
