"""Placement / scheduling policies for the fleet simulator.

At every step the simulator offers the policy the step's boards with
at least one free slot, in board order (:class:`StepBoards`, one
column per :class:`BoardView` field). The policy files them once into
a :class:`FreeBoards` set kept in its own order
(:meth:`PlacementPolicy.free_boards`), and each queued job then costs
one :meth:`~PlacementPolicy.select` call: take the first board in that
order and place the job there, so the board comes back one job
busier, or leaves the set once full. A pick is O(log V) over V free
boards rather than a scan of all of them, and only picked boards
become :class:`BoardView` objects.
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

import heapq
from bisect import bisect_left
from itertools import repeat
from typing import Callable, Iterable, NamedTuple

from ..errors import ConfigurationError

__all__ = [
    "BoardRing",
    "BoardView",
    "FreeBoards",
    "KeyedBoards",
    "POLICY_NAMES",
    "PlacementPolicy",
    "StepBoards",
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


_new_tuple = tuple.__new__


class StepBoards(NamedTuple):
    """One step's boards with a free slot, as columns in board order.

    Entry ``i`` of every column describes one board. The simulator
    fills the columns straight from its board arrays, and a policy
    makes a :class:`BoardView` only for the boards it picks.
    """

    board: list[int]
    tank: list[int]
    running: list[int]
    free_slots: list[int]
    f_ghz: list[float]
    headroom_c: list[float]

    def view(self, i: int, running: int) -> BoardView:
        """Entry ``i``'s view with ``running`` jobs on the board (more
        than the step started with once picks have landed there)."""
        # tuple.__new__ is what BoardView(...) runs after binding its
        # arguments; this runs once per placed job
        return _new_tuple(BoardView, (
            self.board[i], self.tank[i], running,
            self.free_slots[i] + self.running[i] - running,
            self.f_ghz[i], self.headroom_c[i]))


class FreeBoards:
    """One step's free boards, kept in a policy's order."""

    __slots__ = ()

    def __bool__(self) -> bool:
        raise NotImplementedError


class KeyedBoards(FreeBoards):
    """Free boards as a heap of ``(rank, running, board, i)``: a
    policy's per-board rank first, then load, then index, so the first
    board in the policy's order is on top."""

    __slots__ = ("_boards", "_heap")

    def __init__(self, boards: StepBoards, rank: Iterable[float]) -> None:
        self._boards = boards
        self._heap = list(zip(rank, boards.running, boards.board,
                              range(len(boards.board))))
        heapq.heapify(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def take_first(self) -> BoardView:
        """Place a job on the first board; return its view as offered.

        The board goes back on the heap at ``running + 1`` while it
        still has a free slot.
        """
        heap = self._heap
        rank, running, board, i = heap[0]
        view = self._boards.view(i, running)
        if view.free_slots == 1:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (rank, running + 1, board, i))
        return view


class BoardRing(FreeBoards):
    """Free boards in board order, for a rotating cursor."""

    __slots__ = ("_boards", "_order", "_index", "_running")

    def __init__(self, boards: StepBoards) -> None:
        self._boards = boards
        self._order = list(boards.board)
        self._index = list(range(len(self._order)))
        self._running = list(boards.running)

    def __bool__(self) -> bool:
        return bool(self._order)

    def take_from(self, cursor: int) -> BoardView:
        """Place a job on the first free board at or after ``cursor``,
        or on the lowest free board when there is none; return its
        view as offered."""
        order = self._order
        pos = bisect_left(order, cursor)
        if pos == len(order):
            pos = 0
        i = self._index[pos]
        view = self._boards.view(i, self._running[i])
        if view.free_slots == 1:
            del order[pos]
            del self._index[pos]
        else:
            self._running[i] += 1
        return view


class PlacementPolicy:
    """Base class: pick a board for the next queued job."""

    #: registry key; subclasses set it.
    name = "abstract"

    def free_boards(self, boards: StepBoards) -> FreeBoards:
        """File one step's free boards in this policy's order."""
        raise NotImplementedError

    def select(self, free: FreeBoards) -> BoardView:
        """Choose a board from ``free`` (non-empty) and place one job.

        Returns the chosen board's view as it was before the job
        landed; ``free`` then holds the board one job busier, or no
        longer holds it when that filled its last slot.
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

    def free_boards(self, boards: StepBoards) -> BoardRing:
        return BoardRing(boards)

    def select(self, free: BoardRing) -> BoardView:
        # first free board at or after the cursor, wrapping to the
        # lowest free board
        chosen = free.take_from(self._cursor)
        self._cursor = chosen.board + 1
        return chosen


class LeastLoadedPolicy(PlacementPolicy):
    """Fewest running jobs first; index breaks ties."""

    name = "least-loaded"

    def free_boards(self, boards: StepBoards) -> KeyedBoards:
        # every board ranks alike, so load then index decide
        return KeyedBoards(boards, repeat(0))

    def select(self, free: KeyedBoards) -> BoardView:
        return free.take_first()


class ThermalAwarePolicy(PlacementPolicy):
    """Most thermal headroom first; load then index break ties.

    Headroom is per-board *tank* margin to the DTM stall point, which
    folds in the coolant-loop coupling: a tank heated by its neighbors
    scores lower even before it runs anything.
    """

    name = "thermal-aware"

    def free_boards(self, boards: StepBoards) -> KeyedBoards:
        return KeyedBoards(boards, [-h for h in boards.headroom_c])

    def select(self, free: KeyedBoards) -> BoardView:
        return free.take_first()


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
