"""HotSpot-style package: from a stack + cooling option to a network.

Layer stack, bottom to top::

    board (FR-4 + copper planes)
    package substrate
    die 0 ... die N-1        (bond/glue interfaces between dies)
    heat spreader            (TIM between top die and spreader)
    heatsink or cold plate   (TIM between spreader and sink)

Boundaries by cooling style:

* ``sink`` (air): convection from the sink's finned surface at the
  primary coolant's h times the fin-area multiplier; the board sees air.
* ``cold_plate`` (water pipe): the sink is replaced by a cold plate
  whose surface conductance realizes the closed loop's total plate-to-
  ambient resistance; the board sees air.
* ``immersion``: fins *and* board surfaces see the immersion fluid, with
  the parylene film's series resistance included for water.

Geometry follows the paper's Table 2 (heatsink 12x12x3 cm at 400 W/mK
with 0.3024 m**2 effective fin area; spreader 6x6x0.1 cm; parylene 120
um at 0.14 W/mK; TIM/glue 20 um at 0.25 W/mK; 25 C ambient). Quantities
Table 2 does not fix — the inter-die bond resistance, the substrate and
board construction, the board's wetted area, and the cold-plate loop
resistance — are calibration parameters whose defaults were fitted once
against the paper's published feasibility anchors (see DESIGN.md §5 and
EXPERIMENTS.md); each is documented on :class:`PackageParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError
from ..floorplan.geometry import Rect
from ..power.mcpat import block_power
from ..stack.chipstack import StackConfig
from ..units import AMBIENT_C, cm, mm, um
from .layers import Boundary, GridLayer, Interface
from .materials import COPPER, PACKAGE_SUBSTRATE, PCB, SILICON
from .network import ThermalNetwork

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from ..cooling.options import CoolingOption


#: Finest die grid the thermal model is built for (the finest any
#: caller uses is 24). A die factor holds ``die_grid**2 * n_chips**2``
#: doubles of Green's functions (8.4 MB at 32 with 32 chips, 34 MB at
#: 64), and the sparse reference factorizes ``n_chips * die_grid**2``
#: die nodes.
MAX_DIE_GRID = 32
#: Finest package grid (the default is 8). A package block factors the
#: package's inner nodes (all of its ``4 * package_grid**2`` nodes but
#: the ports) as one dense matrix: under 8.4 MB at 16, 134 MB at 32.
MAX_PACKAGE_GRID = 16


@dataclass(frozen=True)
class PackageParams:
    """Geometry and calibration constants of the package model.

    Table 2 quantities (do not change these when reproducing the paper):

    Attributes:
        spreader_side_m / spreader_thickness_m: 6x6 cm, 1 mm copper.
        sink_side_m / sink_thickness_m: 12x12 cm base, 3 cm overall; the
            base slab carries conduction, the fins appear as wetted area.
        sink_fin_area_m2: 0.3024 m**2 effective convection area.
        ambient_c: 25 C.

    Calibrated quantities (fitted to the paper's feasibility anchors —
    see DESIGN.md §5 and EXPERIMENTS.md for the fit and deviations):

    Attributes:
        tim_spreader_r_m2kw / tim_sink_r_m2kw: interfaces top-die ->
            spreader and spreader -> sink. Table 2's nominal 20 um at
            0.25 W/mK (8e-5 m**2 K/W) makes every multi-chip
            configuration in the paper infeasible regardless of coolant;
            the calibrated values correspond to ~20 um of a quality
            grease (the authors' own prototype uses Thermal Grizzly
            Kryonaut, nominally 12.5 W/mK).
        die_bond_r_m2kw: per-area resistance of the inter-die glue bond.
            The paper's stack uses inductive coupling (ThruChip), i.e.
            thinned dies glued back-to-face; 5e-6 m**2 K/W corresponds
            to ~10 um of filled adhesive at ~2 W/mK.
        die_k_lateral: effective in-plane conductivity of a die
            (bulk silicon plus the copper BEOL stack and bond pads,
            which real dies spread through; pure thin silicon would
            overstate the core-row hotspot in tall stacks).
        air_fin_utilization: fraction of the fin area effective under
            buoyancy-driven air flow. At h = 14 W/m2K the interior
            channels of a close-pitched fin stack never develop the
            driving flow, so the nominal 0.3024 m**2 overstates the
            air-cooled hA; liquid immersion wets the full area.
        substrate_side_m / substrate_thickness_m: organic package body
            with a thermal-via/ball field.
        die_attach_r_m2kw: bottom die to substrate bond.
        board_side_m / board_thickness_m: PCB patch modelled around the
            socket; through-plane k from the via-stitched socket region,
            in-plane boosted by the copper planes (``board_k_lateral``).
        board_substrate_r_m2kw: socket / BGA field between substrate and
            board.
        board_wetted_multiplier: wetted board area per unit footprint
            when immersed (both faces + component bodies).
        board_air_multiplier: same for convection to still air.
    """

    spreader_side_m: float = cm(6.0)
    spreader_thickness_m: float = mm(1.0)
    sink_side_m: float = cm(12.0)
    sink_thickness_m: float = mm(8.0)
    sink_fin_area_m2: float = 0.3024
    tim_spreader_r_m2kw: float = 1.2e-5
    tim_sink_r_m2kw: float = 1.0e-5
    ambient_c: float = AMBIENT_C

    die_bond_r_m2kw: float = 5.0e-6
    die_k_lateral: float = 260.0
    air_fin_utilization: float = 0.35
    substrate_side_m: float = cm(5.0)
    substrate_thickness_m: float = mm(0.8)
    die_attach_r_m2kw: float = 1.5e-5
    board_side_m: float = cm(14.0)
    board_thickness_m: float = mm(2.0)
    board_k_lateral: float = 45.0
    board_substrate_r_m2kw: float = 3.0e-5
    board_wetted_multiplier: float = 4.0
    board_air_multiplier: float = 1.5

    die_grid: int = 16
    package_grid: int = 8

    def __post_init__(self) -> None:
        """Refuse a value the network cannot be built from, naming the
        field: every value must be finite, an interface resistance
        (``*_r_m2kw``) at least 0, and every other value but the
        ambient above 0; the grids have caps."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "ambient_c":
                ok, rule = math.isfinite(v), "finite"
            elif f.name.endswith("_r_m2kw"):
                ok, rule = 0 <= v < math.inf, "finite and >= 0"
            else:
                ok, rule = 0 < v < math.inf, "finite and > 0"
            if not ok:
                raise ConfigurationError(
                    f"package parameter {f.name!r} must be {rule}, "
                    f"got {v!r}")
        for name, v, most in (("die_grid", self.die_grid, MAX_DIE_GRID),
                              ("package_grid", self.package_grid,
                               MAX_PACKAGE_GRID)):
            if v > most:
                raise ConfigurationError(
                    f"package parameter {name!r} must be at most {most}, "
                    f"got {v}")

    @property
    def sink_area_m2(self) -> float:
        """Sink base footprint."""
        return self.sink_side_m ** 2

    @property
    def fin_multiplier(self) -> float:
        """Wetted fin area per unit sink footprint (Table 2: x21)."""
        return self.sink_fin_area_m2 / self.sink_area_m2


DEFAULT_PACKAGE = PackageParams()


def _centered(side: float, ref: Rect) -> Rect:
    """A square of the given side centred on a reference rectangle."""
    cx, cy = ref.center
    return Rect(cx - side / 2.0, cy - side / 2.0, side, side)


def build_network(stack: StackConfig, cooling: CoolingOption,
                  params: PackageParams = DEFAULT_PACKAGE) -> ThermalNetwork:
    """Assemble the thermal network for a stack under a cooling option.

    The returned network is power-agnostic: feed it per-die power maps
    from :func:`stack_power_maps` (or any custom maps) via
    :meth:`~repro.thermal.network.ThermalNetwork.solve`.
    """
    return _network(stack, cooling, params, dies=True)


def build_package_network(stack: StackConfig, cooling: CoolingOption,
                          params: PackageParams = DEFAULT_PACKAGE
                          ) -> ThermalNetwork:
    """The package layers of :func:`build_network` without the dies.

    Board, substrate, spreader and sink with the two package interfaces
    and both boundaries, in the full network's node order. Its
    conductance matrix is the full network's package block less the die
    interfaces' share of the diagonal, which the stack's
    :class:`~repro.thermal.stacksolve.DieFactor` carries; the cooling
    option enters only here.
    """
    return _network(stack, cooling, params, dies=False)


def _network(stack: StackConfig, cooling: CoolingOption,
             params: PackageParams, *, dies: bool) -> ThermalNetwork:
    """:func:`build_network`, or its package layers alone."""
    die_outline = stack.chip.floorplan().outline
    n = stack.n_chips
    g = params.package_grid

    layers: list[GridLayer] = []
    interfaces: list[Interface] = []

    board = GridLayer(
        name="board",
        outline=_centered(params.board_side_m, die_outline),
        thickness_m=params.board_thickness_m,
        material=PCB,
        nx=g, ny=g,
        k_lateral_w_mk=params.board_k_lateral,
    )
    substrate = GridLayer(
        name="substrate",
        outline=_centered(params.substrate_side_m, die_outline),
        thickness_m=params.substrate_thickness_m,
        material=PACKAGE_SUBSTRATE,
        nx=g, ny=g,
    )
    layers.extend([board, substrate])
    interfaces.append(Interface("board", "substrate",
                                params.board_substrate_r_m2kw))

    if dies:
        prev = "substrate"
        prev_r = params.die_attach_r_m2kw
        for i in range(n):
            die = GridLayer(
                name=f"die{i}",
                outline=die_outline,
                thickness_m=stack.chip.die_thickness_m,
                material=SILICON,
                nx=params.die_grid, ny=params.die_grid,
                k_lateral_w_mk=params.die_k_lateral,
            )
            layers.append(die)
            interfaces.append(Interface(prev, die.name, prev_r))
            prev = die.name
            prev_r = params.die_bond_r_m2kw
        interfaces.append(Interface(prev, "spreader",
                                    params.tim_spreader_r_m2kw))

    spreader = GridLayer(
        name="spreader",
        outline=_centered(params.spreader_side_m, die_outline),
        thickness_m=params.spreader_thickness_m,
        material=COPPER,
        nx=g, ny=g,
    )
    layers.append(spreader)

    if cooling.style == "cold_plate":
        # Closed-loop cooler: cold plate the size of the spreader; the
        # loop's total resistance is realized at its top surface.
        plate_side = params.spreader_side_m
        plate = GridLayer(
            name="sink",
            outline=_centered(plate_side, die_outline),
            thickness_m=mm(3.0),
            material=COPPER,
            nx=g, ny=g,
        )
        layers.append(plate)
        interfaces.append(Interface("spreader", "sink",
                                    params.tim_sink_r_m2kw))
        h_plate = 1.0 / (cooling.cold_plate_r_kw * plate_side ** 2)
        top_boundary = Boundary(
            layer="sink", face="top", h_w_m2k=h_plate,
            area_multiplier=1.0, t_ambient_c=params.ambient_c,
            label="cold plate loop",
        )
    else:
        sink = GridLayer(
            name="sink",
            outline=_centered(params.sink_side_m, die_outline),
            thickness_m=params.sink_thickness_m,
            material=COPPER,
            nx=g, ny=g,
        )
        layers.append(sink)
        interfaces.append(Interface("spreader", "sink",
                                    params.tim_sink_r_m2kw))
        h_fin = cooling.surface_conductance_w_m2k(cooling.primary_coolant)
        fin_mult = params.fin_multiplier
        if cooling.primary_coolant.name == "air":
            fin_mult *= params.air_fin_utilization
        top_boundary = Boundary(
            layer="sink", face="top", h_w_m2k=h_fin,
            area_multiplier=fin_mult,
            t_ambient_c=params.ambient_c,
            label=f"sink fins in {cooling.primary_coolant.name}",
        )

    boundaries = [top_boundary]
    if cooling.wets_board:
        h_board = cooling.surface_conductance_w_m2k(cooling.board_coolant)
        mult = params.board_wetted_multiplier
        label = f"board wetted by {cooling.board_coolant.name}"
    else:
        h_board = cooling.board_coolant.h_w_m2k
        mult = params.board_air_multiplier
        label = "board in air"
    boundaries.append(Boundary(
        layer="board", face="bottom", h_w_m2k=h_board,
        area_multiplier=mult, t_ambient_c=params.ambient_c, label=label,
    ))

    return ThermalNetwork(layers=layers, interfaces=interfaces,
                          boundaries=boundaries)


@lru_cache(maxsize=4096)
def _die_power_map(chip_name: str, rotated: bool, f_hz: float,
                   grid: int) -> np.ndarray:
    """One die's rasterized power map (cached; arrays are shared
    read-only between stacks — profiling showed map construction, not
    the sparse solver, dominating frequency sweeps)."""
    from ..floorplan.transform import rotate_180
    from ..power.processors import get_chip
    chip = get_chip(chip_name)
    fp = chip.floorplan()
    if rotated:
        fp = rotate_180(fp)
    out = fp.power_map(block_power(chip, f_hz, fp), grid, grid)
    out.setflags(write=False)
    return out


def stack_power_maps(stack: StackConfig, f_hz: float,
                     params: PackageParams = DEFAULT_PACKAGE
                     ) -> dict[str, np.ndarray]:
    """Per-die power maps at a VFS step, rotations applied.

    Returns a mapping ``die<i>`` -> (grid, grid) watts-per-cell array
    suitable for :meth:`ThermalNetwork.solve`. Library chips hit a
    shared per-die cache; custom ChipSpec instances fall back to direct
    construction.
    """
    from ..power.processors import chip_names
    maps: dict[str, np.ndarray] = {}
    cacheable = stack.chip.name in chip_names()
    if cacheable:
        from ..power.processors import get_chip
        cacheable = get_chip(stack.chip.name) is stack.chip
    if cacheable:
        for i, rot in enumerate(stack.effective_rotations):
            maps[f"die{i}"] = _die_power_map(
                stack.chip.name, rot, float(f_hz), params.die_grid)
        return maps
    for i, fp in enumerate(stack.die_floorplans()):
        per_block = block_power(stack.chip, f_hz, fp)
        maps[f"die{i}"] = fp.power_map(per_block, params.die_grid,
                                       params.die_grid)
    return maps


def die_layer_names(stack: StackConfig) -> tuple[str, ...]:
    """Names of the die layers, bottom first."""
    return tuple(f"die{i}" for i in range(stack.n_chips))
