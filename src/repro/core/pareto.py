"""Design-space exploration: the throughput/power/facility frontier.

The paper argues for water immersion one axis at a time (frequency,
then NPB time, then PUE). This extension joins the axes: enumerate
(cooling option x stack height) designs, evaluate NPB throughput, total
stack power, and facility PUE, and extract the Pareto frontier — the
designs no alternative beats on every axis at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cooling.pue import (
    AIR_CRAC,
    CoolingFacility,
    NATURAL_WATER_DIRECT,
    OIL_IMMERSION_FACILITY,
    WATER_PIPE_FACILITY,
)
from ..errors import ConfigurationError

#: Facility model behind each chip-level cooling option.
_FACILITY_OF: dict[str, CoolingFacility] = {
    "air": AIR_CRAC,
    "water_pipe": WATER_PIPE_FACILITY,
    "mineral_oil": OIL_IMMERSION_FACILITY,
    "fluorinert": OIL_IMMERSION_FACILITY,
    "water": NATURAL_WATER_DIRECT,
}


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated (cooling, stack-height) design.

    Attributes:
        cooling: chip-level cooling option.
        n_chips: stack height.
        f_ghz: thermally-feasible clock.
        throughput: NPB-average work rate of the stack (a.u., higher
            better).
        wall_power_w: stack power times the facility PUE (lower better).
    """

    cooling: str
    n_chips: int
    f_ghz: float
    throughput: float
    wall_power_w: float

    @property
    def efficiency(self) -> float:
        """Throughput per wall watt."""
        return self.throughput / self.wall_power_w

    def dominates(self, other: "DesignPoint") -> bool:
        """True if at least as good on both axes and better on one."""
        geq = (self.throughput >= other.throughput
               and self.wall_power_w <= other.wall_power_w)
        gt = (self.throughput > other.throughput
              or self.wall_power_w < other.wall_power_w)
        return geq and gt


def evaluate_designs(chip_name: str, heights: tuple[int, ...],
                     coolings: tuple[str, ...] = (
                         "air", "water_pipe", "mineral_oil", "water"),
                     ) -> tuple[DesignPoint, ...]:
    """Evaluate every (cooling, height) pair; infeasible ones dropped.

    Throughput counts the cores of the chip's own system
    (:func:`~repro.perfsim.system.config_for_stack`), so a chip whose
    cores do not fit the mesh is refused before any thermal work.
    """
    from ..perfsim.analytic import AnalyticModel
    from ..perfsim.npb import NPB_ORDER, get_profile
    from ..perfsim.system import config_for_stack
    from ..power.processors import get_chip
    from .point import evaluate

    if not heights:
        raise ConfigurationError("need at least one stack height")
    configs = {n: config_for_stack(get_chip(chip_name), n) for n in heights}
    out: list[DesignPoint] = []
    for cooling in coolings:
        if cooling not in _FACILITY_OF:
            raise ConfigurationError(
                f"no facility model for cooling {cooling!r}"
            )
        for n in heights:
            point = evaluate(chip_name, n, cooling).point
            if not point.feasible:
                continue
            cfg = configs[n]
            perf = AnalyticModel(cfg)
            rates = [
                1.0 / perf.breakdown(get_profile(name),
                                     point.f_hz).seconds_per_instruction
                for name in NPB_ORDER
            ]
            throughput = cfg.total_cores * sum(rates) / len(rates) / 1e9
            wall = point.total_power_w * _FACILITY_OF[cooling].pue()
            out.append(DesignPoint(
                cooling=cooling, n_chips=n, f_ghz=point.f_ghz,
                throughput=throughput, wall_power_w=wall))
    return tuple(out)


def pareto_frontier(points: tuple[DesignPoint, ...]
                    ) -> tuple[DesignPoint, ...]:
    """Non-dominated subset, sorted by throughput."""
    frontier = [p for p in points
                if not any(q.dominates(p) for q in points)]
    return tuple(sorted(frontier, key=lambda p: p.throughput))


def frontier_share(points: tuple[DesignPoint, ...]) -> dict[str, int]:
    """How many frontier designs each cooling option owns."""
    out: dict[str, int] = {}
    for p in pareto_frontier(points):
        out[p.cooling] = out.get(p.cooling, 0) + 1
    return out
