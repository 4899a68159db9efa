"""Placement / scheduling policies for the fleet simulator.

At every step the simulator offers the policy a collection of
:class:`BoardView` snapshots — one per board with at least one free
slot, in board order — and the policy picks the board the next queued
job lands on.
Policies are deliberately *stateless functions of the views* plus at
most a cursor (round-robin), so a policy decision is reproducible from
the event stream alone.

The three policies of the issue:

* ``round-robin`` — rotate over boards regardless of state; the
  baseline every datacenter scheduler is measured against.
* ``least-loaded`` — fewest running jobs first (classic load
  balancing, thermally blind).
* ``thermal-aware`` — most *thermal headroom* first: prefer boards
  whose tank water is furthest from the DTM stall point, so work lands
  where it will run at the highest VFS step and never where the clock
  is already gated. Ties break on load then index, keeping the order
  total.

Placement interacts with the coolant loop (see
:mod:`repro.fleet.model`): loading a tank warms it *and its
neighbors' inlets*, so thermally blind policies pile work onto
center tanks that coupling has already degraded — the effect the
``BENCH_fleet.json`` policy comparison quantifies.

Degraded-mode scheduling (fault campaigns)
------------------------------------------

Under a :class:`~repro.fleet.faults.FleetFaultPlan` the simulator
changes what the policy *sees*, never how it decides: retired boards
and boards in isolated tanks are excluded from the views
entirely (they take no work until repaired), jobs they held re-enter
the queue head for re-placement through the same ``select`` call, and
``headroom_c`` is computed from the tank's *sensor* reading — so a
stuck or offset sensor makes ``thermal-aware`` mis-rank tanks exactly
the way a real telemetry fault would, while the simulator's on-die
override (not visible to the policy) still keeps silicon under the
DTM threshold. Policies therefore need no fault-specific code, and
fault-free scenarios see byte-identical views.
"""

from __future__ import annotations

from typing import Callable, Collection, NamedTuple

from ..errors import ConfigurationError

__all__ = [
    "BoardView",
    "POLICY_NAMES",
    "PlacementPolicy",
    "get_policy",
]


class BoardView(NamedTuple):
    """A board's scheduler-visible state at one step.

    Attributes:
        board: global board index (tank-major: ``tank * boards_per_tank
            + position``).
        tank: owning tank index.
        running: jobs currently on the board.
        free_slots: open execution slots.
        f_ghz: the VFS frequency the board runs this step (0.0 when
            the DTM has gated the clock entirely).
        headroom_c: degrees of water-temperature margin before the
            board's tank stalls even the lowest ladder step (negative
            when already stalled).
    """

    board: int
    tank: int
    running: int
    free_slots: int
    f_ghz: float
    headroom_c: float


class PlacementPolicy:
    """Base class: pick a board for the next queued job."""

    #: registry key; subclasses set it.
    name = "abstract"

    def select(self, views: Collection[BoardView]) -> BoardView:
        """Choose among boards with free slots (``views`` non-empty).

        The simulator guarantees every view has ``free_slots > 0`` and
        that ``views`` is ordered by board index.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any cursor state (called once per simulation)."""


class RoundRobinPolicy(PlacementPolicy):
    """Rotate placements across the board array."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def select(self, views: Collection[BoardView]) -> BoardView:
        # first free board at or after the cursor, wrapping
        span = _cursor_span(views)
        cursor = self._cursor
        chosen = min(
            views,
            key=lambda v: ((v.board - cursor) % span, v.board))
        self._cursor = chosen.board + 1
        return chosen


def _cursor_span(views: Collection[BoardView]) -> int:
    """Modulus for the round-robin rotation (total board count)."""
    return max(v.board for v in views) + 1


class LeastLoadedPolicy(PlacementPolicy):
    """Fewest running jobs first; index breaks ties."""

    name = "least-loaded"

    def select(self, views: Collection[BoardView]) -> BoardView:
        return min(views, key=lambda v: (v.running, v.board))


class ThermalAwarePolicy(PlacementPolicy):
    """Most thermal headroom first; load then index break ties.

    Headroom is per-board *tank* margin to the DTM stall point, which
    folds in the coolant-loop coupling: a tank heated by its neighbors
    scores lower even before it runs anything.
    """

    name = "thermal-aware"

    def select(self, views: Collection[BoardView]) -> BoardView:
        return min(views,
                   key=lambda v: (-v.headroom_c, v.running, v.board))


_POLICIES: dict[str, Callable[[], PlacementPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    ThermalAwarePolicy.name: ThermalAwarePolicy,
}

#: Registered policy names, stable order (CLI choices, sweep default).
POLICY_NAMES: tuple[str, ...] = tuple(_POLICIES)


def get_policy(name: str) -> PlacementPolicy:
    """A fresh policy instance by name.

    Raises:
        ConfigurationError: unknown policy name (candidates listed).
    """
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; expected one of "
            f"{', '.join(POLICY_NAMES)}") from None
    return factory()
