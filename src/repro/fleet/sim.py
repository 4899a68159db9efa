"""The fleet simulator: deterministic time-stepped datacenter runs.

One :func:`simulate` call turns a :class:`~repro.fleet.model.
FleetScenario` into a :class:`FleetResult`: jobs flow in from the
seeded arrival process, the placement policy lands them on boards,
every board runs at the highest VFS step its tank's water allows, the
tank waters evolve on the shared coolant loop, and the energy ledger
reconciles to machine precision.

Per-board thermal evaluation — the hot loop
-------------------------------------------

A naive implementation would solve a thermal network per board per
step (~740k solves for the acceptance-bar fleet). The simulator
instead exploits two structural facts:

1. **The shared stack factors.** The chip ladder's worst-case die
   temperatures at the *reference* ambient are ``len(ladder)`` queries
   on the geometry's stack factors
   (:meth:`~repro.thermal.hotspot.ThermalModel.max_temperatures_many`)
   — computed once per scenario, shared across every board and step,
   and cached with the model across scenarios.
2. **The ambient-shift identity.** Every boundary layer of the package
   network shares one ambient (the immersion water), so the network
   equation ``G T = P + B T_amb`` satisfies ``G 1 = B 1`` (zero power
   means uniform water temperature everywhere). Temperatures are
   therefore *exactly* linear in the ambient:
   ``T(P, T_water) = T(P, T_ref) + (T_water - T_ref)``. The DTM
   decision "highest ladder step whose hotspot stays under the
   threshold at this water temperature" reduces to a binary search
   over precomputed per-step *maximum water temperatures* — O(log L)
   arithmetic per tank per step, no solver anywhere near the loop.
   (``tests/test_fleet.py::TestBoardLadder`` pins the identity
   against a full model solve at a shifted ambient.)

The step loop
-------------

Every scenario's events come out of one merged stream
(:func:`~repro.fleet.events.event_stream`): the time-ordered arrivals,
the fault timeline sorted once, and one step event per step boundary,
in the ``(time_us, kind rank, sequence)`` order. Each step then works
on the whole fleet at once:

* **Board state is arrays.** Per board, a row of slots holds each
  running job's remaining Gcycles and job id, occupied slots first in
  placement order; beside it sit a running count and a down mask.
  Progress and completions are one ``np.minimum``, a subtract and a
  ``<= 0.0`` test over every slot. ``work_done`` keeps the per-slot
  summation order of a board-then-slot loop (a sequential cumsum, not
  a pairwise sum), and completions are logged in row-major order, so
  the bits and lines are those of that loop.
* **Placement is key-ordered.** The boards with a free slot (one mask,
  then ``flatnonzero``) are filed once per step in the policy's order;
  each queued job is then one O(log V) pick
  (:mod:`repro.fleet.policies`).
* **The log is fed per step.** Each line is one
  :func:`~repro.fleet.events.canonical_event_line` call; the digest,
  the streamed file and the kept log take the step's lines together,
  the same bytes as line by line.

The per-tank work (DTM lookup, energy balance) stays a loop over the
tanks, a few dozen at most.

Coolant loop and the energy ledger
----------------------------------

Tank water is a lumped mass updated by explicit Euler, all terms
evaluated at step start (the config validates the step against the
water time constant):

``C dT = (P_boards - eps*Q*rho*cp * (T - T_inlet_eff)) dt``

with ``T_inlet_eff = supply + coupling * sum(neighbor excess)``. The
ledger identity ``generated == removed + stored`` then holds by
construction *to float rounding* — the property test asserts 1e-6
relative across every policy and seed. Neighbor coupling is
loop-internal heat (it leaves one tank's books and enters another's
inlet), so facility "removed" is simply the sum of per-tank exchange
terms.

Faults
------

Every scenario runs one step loop. Its fault plan becomes a timeline
of fault/repair events up front, and a scenario without a plan runs
over the empty timeline, where every fault term keeps its plain value.
Only the report differs: ``availability`` and ``incidents`` are filled
in when the scenario carries a plan.

Scenario campaigns
------------------

:func:`run_scenarios` evaluates a scenario list on the
:mod:`repro.parallel` engine (supervised pool, deterministic result
order); :func:`results_document` renders the campaign as canonical
JSON, byte-identical at every worker count.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, IO, Sequence

import numpy as np

from ..cooling.accounting import EnergyAccount
from ..errors import ConfigurationError
from ..obs import counter, gauge, histogram, log_event, span
from ..parallel import ParallelConfig, run_chunked
from ..power.processors import get_chip
from ..thermal.hotspot import model_for
from .events import canonical_event_line, event_stream
from .faults import FleetFaultPlan, generate_fault_timeline
from .model import FleetConfig, FleetScenario
from .policies import StepBoards, get_policy
from .workload import FleetJob, generate_arrivals

__all__ = [
    "BoardLadder",
    "FleetResult",
    "build_board_ladder",
    "results_document",
    "results_json",
    "run_scenarios",
    "simulate",
]


@dataclass(frozen=True)
class BoardLadder:
    """Per-geometry DTM lookup: ladder step as a function of water temp.

    Attributes:
        freqs_ghz: ladder frequencies, ascending.
        per_job_power_w: stack power per occupied slot at each step.
        max_water_c: highest water temperature at which each step's
            worst-case hotspot still meets the threshold (strictly
            descending — hotter water forces lower steps).
        ref_ambient_c: the ambient the reference temperatures were
            solved at (the shift origin).
        ref_max_temp_c: worst-case hotspot at each step, reference
            ambient.
    """

    freqs_ghz: tuple[float, ...]
    per_job_power_w: tuple[float, ...]
    max_water_c: tuple[float, ...]
    ref_ambient_c: float
    ref_max_temp_c: tuple[float, ...]

    @property
    def stall_water_c(self) -> float:
        """Water temperature past which even the lowest step trips."""
        return self.max_water_c[0]

    def step_for_water(self, water_c: float) -> int | None:
        """Highest feasible ladder index at a water temperature.

        ``max_water_c`` is descending, so the feasible steps form a
        prefix; binary search for its end. None = DTM stalls the board
        (clock gated, idle power only).
        """
        lo, hi = 0, len(self.max_water_c)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.max_water_c[mid] >= water_c:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1 if lo else None


def build_board_ladder(config: FleetConfig) -> BoardLadder:
    """Solve the ladder once per geometry (stack-factor backed).

    One :func:`~repro.thermal.hotspot.model_for` lookup (bounded LRU,
    with the factor cache behind it) answers the whole ladder, one
    query per step; everything after this is arithmetic.
    """
    chip = get_chip(config.chip)
    model = model_for(config.chip, config.n_chips, config.cooling)
    freqs_hz = [float(f) for f in chip.ladder.frequencies()]
    with span("fleet.ladder_precompute", chip=config.chip,
              n_chips=config.n_chips, steps=len(freqs_hz)):
        ref_temps = model.max_temperatures_many(freqs_hz)
    threshold = config.effective_threshold_c()
    ambient = model.params.ambient_c
    max_water = [threshold - t + ambient for t in ref_temps]
    if any(b >= a for a, b in zip(max_water, max_water[1:])):
        raise ConfigurationError(
            "ladder hotspot temperatures are not strictly increasing "
            "in frequency; the DTM prefix search needs monotonicity")
    stack_power = [config.n_chips * chip.total_power_w(f)
                   for f in freqs_hz]
    return BoardLadder(
        freqs_ghz=tuple(f / 1e9 for f in freqs_hz),
        per_job_power_w=tuple(p / config.slots_per_board
                              for p in stack_power),
        max_water_c=tuple(max_water),
        ref_ambient_c=ambient,
        ref_max_temp_c=tuple(float(t) for t in ref_temps),
    )


@dataclass(frozen=True)
class FleetResult:
    """Everything one simulation produced (JSON-ready, hash-stable).

    The canonical byte form (:meth:`to_json`) is the identity the
    worker-count and same-seed guarantees are stated over.
    """

    scenario: FleetScenario
    steps: int
    jobs_arrived: int
    jobs_dispatched: int
    jobs_completed: int
    jobs_pending_end: int
    jobs_running_end: int
    work_done_gcycles: float
    completed_work_gcycles: float
    account: EnergyAccount
    generated_j: float
    removed_j: float
    stored_j: float
    max_water_temp_c: float
    final_water_temp_c: tuple[float, ...]
    peak_water_temp_c: tuple[float, ...]
    throttled_board_steps: int
    stalled_board_steps: int
    event_digest: str
    events: tuple[str, ...] | None = None
    #: availability/goodput/MTTR accounting — None unless the scenario
    #: carried a fault plan
    availability: dict[str, Any] | None = None
    #: the incident ledger: one record per fault/isolation, with
    #: open incidents carrying ``t_end_us: None``
    incidents: tuple[dict[str, Any], ...] = ()

    @property
    def duration_s(self) -> float:
        """Simulated seconds."""
        return self.steps * self.scenario.fleet.step_s

    @property
    def throughput_gcps(self) -> float:
        """Sustained throughput: Gcycles retired per simulated second."""
        return self.work_done_gcycles / self.duration_s

    @property
    def work_per_mj(self) -> float:
        """Gcycles per megajoule of *wall* (total facility) energy."""
        return self.work_done_gcycles / (self.account.total_energy_j
                                         / 1e6)

    @property
    def conservation_residual_j(self) -> float:
        """``generated - removed - stored`` (should be ~0)."""
        return self.generated_j - self.removed_j - self.stored_j

    @property
    def conservation_relative_residual(self) -> float:
        """Residual normalized by generated heat."""
        scale = max(abs(self.generated_j), 1.0)
        return abs(self.conservation_residual_j) / scale

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready form (event *digest*, not the log)."""
        out = {
            "scenario": self.scenario.to_dict(),
            "steps": self.steps,
            "duration_s": self.duration_s,
            "jobs": {
                "arrived": self.jobs_arrived,
                "dispatched": self.jobs_dispatched,
                "completed": self.jobs_completed,
                "pending_end": self.jobs_pending_end,
                "running_end": self.jobs_running_end,
            },
            "work_done_gcycles": self.work_done_gcycles,
            "completed_work_gcycles": self.completed_work_gcycles,
            "throughput_gcps": self.throughput_gcps,
            "work_per_mj": self.work_per_mj,
            "energy": self.account.to_dict(),
            "conservation": {
                "generated_j": self.generated_j,
                "removed_j": self.removed_j,
                "stored_j": self.stored_j,
                "residual_j": self.conservation_residual_j,
            },
            "thermal": {
                "max_water_temp_c": self.max_water_temp_c,
                "final_water_temp_c": list(self.final_water_temp_c),
                "peak_water_temp_c": list(self.peak_water_temp_c),
                "throttled_board_steps": self.throttled_board_steps,
                "stalled_board_steps": self.stalled_board_steps,
            },
            "event_digest": self.event_digest,
        }
        if self.availability is not None:
            out["availability"] = self.availability
            out["incidents"] = [dict(inc) for inc in self.incidents]
        return out

    def to_json(self) -> str:
        """Sorted, compact JSON — the byte-identity form."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def simulate(scenario: FleetScenario, *,
             events_file: IO[str] | None = None,
             keep_events: bool = False) -> FleetResult:
    """Run one scenario to completion.

    Args:
        scenario: plant + workload + policy + seed + duration.
        events_file: optional text stream; every event-log line is
            written there as it happens (streaming, bounded memory).
        keep_events: also return the full log on
            :attr:`FleetResult.events` (tests; large runs should
            stream instead).

    Returns:
        The :class:`FleetResult`; deterministic in the scenario alone.
    """
    cfg = scenario.fleet
    t_wall0 = time.perf_counter()
    with span("fleet.run", policy=scenario.policy, tanks=cfg.n_tanks,
              boards=cfg.n_boards, steps=scenario.n_steps):
        result = _simulate_inner(scenario, events_file, keep_events)
    wall_s = time.perf_counter() - t_wall0
    counter("fleet.scenarios").inc()
    counter("fleet.steps").inc(result.steps)
    counter("fleet.jobs_arrived").inc(result.jobs_arrived)
    counter("fleet.jobs_dispatched").inc(result.jobs_dispatched)
    counter("fleet.jobs_completed").inc(result.jobs_completed)
    counter("fleet.board_steps_throttled").inc(
        result.throttled_board_steps)
    counter("fleet.board_steps_stalled").inc(
        result.stalled_board_steps)
    gauge("fleet.water_temp_max_c").set(result.max_water_temp_c)
    histogram("fleet.sim_seconds").observe(wall_s)
    if result.availability is not None:
        av = result.availability
        counter("fleet.incident.total").inc(av["incidents_total"])
        counter("fleet.incident.repairs").inc(av["repairs"])
        counter("fleet.incident.jobs_requeued").inc(av["jobs_requeued"])
        counter("fleet.incident.dtm_overrides").inc(
            av["dtm_override_steps"])
        counter("fleet.incident.emergency_clamps").inc(
            av["emergency_clamp_steps"])
        counter("fleet.incident.isolations").inc(av["isolations"])
        gauge("fleet.incident.availability").set(av["availability"])
        if av["mttr_hours"] is not None:
            histogram("fleet.incident.mttr_hours").observe(
                av["mttr_hours"])
        log_event("fleet_incidents", policy=scenario.policy,
                  seed=scenario.seed,
                  incidents=av["incidents_total"],
                  availability=round(av["availability"], 6),
                  jobs_requeued=av["jobs_requeued"])
    log_event("fleet_run", policy=scenario.policy, seed=scenario.seed,
              boards=cfg.n_boards, steps=result.steps,
              completed=result.jobs_completed,
              wall_ms=round(wall_s * 1e3, 3))
    return result


def _simulate_inner(scenario: FleetScenario,
                    events_file: IO[str] | None,
                    keep_events: bool) -> FleetResult:
    cfg = scenario.fleet
    ladder = build_board_ladder(cfg)
    policy = get_policy(scenario.policy)
    policy.reset()

    step_us = int(round(cfg.step_s * 1e6))
    if step_us <= 0:
        raise ConfigurationError("step_s is below 1 microsecond")
    n_steps = scenario.n_steps
    dt = cfg.step_s
    # arrivals past the last whole step would never be processed;
    # generate against the simulated horizon, not the raw duration
    arrivals = generate_arrivals(scenario.workload, scenario.seed,
                                 n_steps * dt)

    n_tanks, bpt = cfg.n_tanks, cfg.boards_per_tank
    n_boards = cfg.n_boards
    slots = cfg.slots_per_board
    supply = cfg.supply_temp_c
    cap_rate = cfg.heat_capacity_rate_w_k()
    heat_cap = cfg.tank_heat_capacity_j_k()
    coupling = cfg.coupling

    # --- fault engine state (no plan: the inert plan's empty timeline)
    plan = scenario.faults or FleetFaultPlan()
    with span("fleet.faults.timeline", boards=n_boards, tanks=n_tanks):
        timeline = generate_fault_timeline(plan, cfg, scenario.seed,
                                           n_steps * dt)
    trip_water_c = cfg.effective_threshold_c() - plan.isolation_margin_c
    dead_in_tank = [0] * n_tanks
    pump_ok = [True] * n_tanks
    fouled = [False] * n_tanks
    isolated = [False] * n_tanks
    sensor_stuck: list[float | None] = [None] * n_tanks
    sensor_delta = [0.0] * n_tanks
    incidents: list[dict[str, Any]] = []
    open_inc: dict[tuple[str, str, int], dict[str, Any]] = {}
    down_board_steps = jobs_requeued = 0
    dtm_override_steps = emergency_clamp_steps = isolations = 0
    peak_board_temp = 0.0

    water = [supply] * n_tanks           # step-start tank temps
    peak_water = [supply] * n_tanks
    # board state: one row of slots per board, the ``running[b]``
    # occupied slots first, in placement order
    remaining = np.zeros((n_boards, slots))
    job_ids = np.zeros((n_boards, slots), dtype=np.int64)
    running = np.zeros(n_boards, dtype=np.int64)
    board_down = np.zeros(n_boards, dtype=bool)
    slot_index = np.arange(slots)
    # acc[0] carries ``work_done`` into the step's sequential sum over
    # ``used``, each slot's Gcycles retired this step
    acc = np.empty(n_boards * slots + 1)
    used = acc[1:].reshape(n_boards, slots)
    pending: deque[FleetJob] = deque()

    def _requeue_board(b: int, t_us: int) -> int:
        """Pull a failed/isolated board's jobs back to the queue head.

        Remaining work is preserved and jobs re-enter ``pending`` in
        job-id order ahead of waiting arrivals, so the next step's
        policy pass re-places them — deterministically.
        """
        n = int(running[b])
        if not n:
            return 0
        on_board = zip(job_ids[b, :n].tolist(), remaining[b, :n].tolist())
        for job_id, work in sorted(on_board, reverse=True):
            pending.appendleft(FleetJob(job_id=job_id, time_us=t_us,
                                        work_gcycles=work))
        running[b] = 0
        return n

    def _open_incident(kind: str, scope: str, index: int, t_us: int,
                       requeued: int) -> None:
        inc = {"id": len(incidents), "kind": kind, "scope": scope,
               "index": index, "t_start_us": t_us, "t_end_us": None,
               "jobs_requeued": requeued}
        incidents.append(inc)
        open_inc[(kind, scope, index)] = inc

    def _close_incident(kind: str, scope: str, index: int,
                        t_us: int) -> None:
        inc = open_inc.pop((kind, scope, index), None)
        if inc is not None:
            inc["t_end_us"] = t_us

    # event-log lines collect per step; the digest, the stream and the
    # kept log take them a step at a time (the same bytes as per line)
    digest = hashlib.sha256()
    kept: list[str] | None = [] if keep_events else None
    lines: list[str] = []
    emit = lines.append

    def flush() -> None:
        if lines:
            chunk = "\n".join(lines) + "\n"
            digest.update(chunk.encode())
            if events_file is not None:
                events_file.write(chunk)
            if kept is not None:
                kept.extend(lines)
            lines.clear()

    generated_j = removed_j = 0.0
    work_done = 0.0
    dispatched = completed = 0
    throttled_steps = stalled_steps = 0
    top_step = len(ladder.freqs_ghz) - 1

    for t_us, kind, payload in event_stream(arrivals, timeline, step_us,
                                            n_steps):
        if kind == "arrival":
            pending.append(payload)
            emit(canonical_event_line({
                "t_us": t_us, "ev": "arrival", "job": payload.job_id,
                "work": payload.work_gcycles}))
            continue
        if kind == "stop":
            break
        if kind in ("fault", "repair"):
            # a fault sets its resource's state, the repair clears it
            fe = payload
            on = kind == "fault"
            i = fe.index
            n_req = 0
            if fe.scope == "board":      # board_retire / chip_death
                if on:
                    n_req = _requeue_board(i, t_us)
                if board_down[i] != on:
                    board_down[i] = on
                    dead_in_tank[i // bpt] += 1 if on else -1
            elif fe.kind == "pump_loss":
                pump_ok[i] = not on
            elif fe.kind == "fouling":
                fouled[i] = on
            elif fe.kind == "sensor_stuck":
                sensor_stuck[i] = water[i] if on else None
            else:                        # sensor_offset
                sensor_delta[i] = plan.sensor_offset_c if on else 0.0
            record = {"t_us": t_us, "ev": kind, "kind": fe.kind,
                      "scope": fe.scope, "idx": i}
            if on:
                record["requeued"] = n_req
                jobs_requeued += n_req
                _open_incident(fe.kind, fe.scope, i, t_us, n_req)
            else:
                _close_incident(fe.kind, fe.scope, i, t_us)
            emit(canonical_event_line(record))
            if not on and fe.kind == "pump_loss" and isolated[i]:
                # circulation is back: reopen the tank to the loop
                isolated[i] = False
                _close_incident("tank_isolated", "tank", i, t_us)
                emit(canonical_event_line(
                    {"t_us": t_us, "ev": "deisolate", "tank": i}))
            continue

        # --- per-tank DTM response from step-start water temps -------
        # The DTM controller reads the tank *sensor* (which may be
        # stuck or offset), pump-lost tanks get an emergency derate
        # margin, and an on-die override clamps against the true water
        # temperature regardless — a lying sensor can waste
        # performance, never violate the threshold. With no fault
        # active the target is the water temperature itself: one
        # lookup.
        f_idx: list[int | None] = [None] * n_tanks
        headroom: list[float] = [0.0] * n_tanks
        for i in range(n_tanks):
            if (plan.isolate_on_pump_loss and not pump_ok[i]
                    and not isolated[i] and water[i] >= trip_water_c):
                # runaway response: power the tank off and valve it
                # out of the loop before the water reaches the cap
                isolated[i] = True
                isolations += 1
                n_req = 0
                for b in range(i * bpt, (i + 1) * bpt):
                    n_req += _requeue_board(b, t_us)
                jobs_requeued += n_req
                _open_incident("tank_isolated", "tank", i, t_us, n_req)
                emit(canonical_event_line({"t_us": t_us, "ev": "isolate",
                                           "tank": i, "requeued": n_req}))
            if isolated[i]:
                f_idx[i] = None
                headroom[i] = ladder.stall_water_c - water[i]
                continue
            reading = sensor_stuck[i]
            if reading is None:
                reading = water[i] + sensor_delta[i]
            target = reading
            if not pump_ok[i]:
                target = reading + plan.emergency_margin_c
                emergency_clamp_steps += 1
            idx = ladder.step_for_water(water[i])     # on-die bound
            if target != water[i]:
                idx_s = ladder.step_for_water(target)
                if idx_s is None:
                    idx = None
                elif idx is None or idx < idx_s:
                    dtm_override_steps += 1   # the on-die bound wins
                else:
                    idx = idx_s
            f_idx[i] = idx
            headroom[i] = ladder.stall_water_c - reading

        # each tank's clock this step (0.0 where the DTM stalls it)
        f_ghz = np.array([ladder.freqs_ghz[idx] if idx is not None
                          else 0.0 for idx in f_idx])

        # --- dispatch pending jobs through the policy -----------------
        # the views: every up board with a free slot, in board order,
        # filed once in the policy's order; each job is one pick
        if pending:
            open_ = (running < slots) & ~board_down
            for tank in range(n_tanks):
                if isolated[tank]:       # powered-off tanks take no work
                    open_[tank * bpt:(tank + 1) * bpt] = False
            free_b = np.flatnonzero(open_)
            if free_b.size:
                tank_b = free_b // bpt
                run_b = running[free_b]
                free = policy.free_boards(StepBoards(
                    free_b.tolist(), tank_b.tolist(), run_b.tolist(),
                    (slots - run_b).tolist(), f_ghz[tank_b].tolist(),
                    np.array(headroom)[tank_b].tolist()))
                while pending and free:
                    choice = policy.select(free)
                    job = pending.popleft()
                    b, slot = choice.board, choice.running
                    job_ids[b, slot] = job.job_id
                    remaining[b, slot] = job.work_gcycles
                    running[b] = slot + 1
                    dispatched += 1
                    emit(canonical_event_line({
                        "t_us": t_us, "ev": "dispatch", "job": job.job_id,
                        "tank": choice.tank, "board": b}))

        # --- progress, power, completions -----------------------------
        # A stalled tank's boards progress 0.0, which leaves their jobs
        # exactly as they were. ``work_done`` adds each slot's share in
        # board-then-slot order: ``acc`` holds the running total then
        # every slot's share (0.0 for an empty slot, which leaves the
        # total unchanged), and cumsum adds them one after another
        # (np.sum would pair terms and move the bits).
        busy_per_tank = running.reshape(n_tanks, bpt).sum(axis=1).tolist()
        end_us = t_us + step_us
        progress = np.repeat(f_ghz * dt, bpt)
        occupied = slot_index < running[:, None]
        used.fill(0.0)
        np.minimum(progress[:, None], remaining, out=used, where=occupied)
        acc[0] = work_done
        work_done = float(np.cumsum(acc)[-1])
        remaining -= used
        finished = remaining <= 0.0
        finished &= occupied
        if finished.any():
            rows, cols = np.nonzero(finished)
            for job_id in job_ids[rows, cols].tolist():
                emit(canonical_event_line(
                    {"t_us": end_us, "ev": "complete", "job": job_id}))
            completed += len(rows)
            running -= np.bincount(rows, minlength=n_boards)
            if slots > 1:
                # close the gaps: a stable sort moves each touched
                # row's unfinished jobs to its front, in placement order
                rows = np.unique(rows)
                order = np.argsort(finished[rows], axis=1, kind="stable")
                remaining[rows] = remaining[rows[:, None], order]
                job_ids[rows] = job_ids[rows[:, None], order]

        # --- tank energy balance (explicit Euler, step-start temps) ---
        # Faults enter as plain coefficient changes on the same update:
        # dead/powered-off boards stop drawing (heat_in shrinks), a
        # lost pump or isolated tank zeroes the exchange capacity rate,
        # fouling scales it, and an isolated tank drops out of its
        # neighbors' coupling sums (the loop reroutes around it). Every
        # term stays evaluated at step start, so the generated ==
        # removed + stored ledger closes under every fault type.
        prev = water[:]
        for i in range(n_tanks):
            idx = f_idx[i]
            up = 0 if isolated[i] else bpt - dead_in_tank[i]
            down_board_steps += bpt - up
            if idx is None:
                active_w = 0.0
                stalled_steps += up
            else:
                active_w = busy_per_tank[i] * ladder.per_job_power_w[idx]
                if idx < top_step:
                    throttled_steps += up
            it_power = up * cfg.idle_power_w + active_w
            heat_in = it_power * dt
            generated_j += heat_in
            excess = 0.0
            for d in (-1, 1):    # nearest tank each way still on the loop
                j = i + d
                while 0 <= j < n_tanks and isolated[j]:
                    j += d
                if 0 <= j < n_tanks:
                    excess += max(0.0, prev[j] - supply)
            inlet_eff = supply + coupling * excess
            if isolated[i] or not pump_ok[i]:
                cap_eff = 0.0
            elif fouled[i]:
                cap_eff = cap_rate * plan.fouling_factor
            else:
                cap_eff = cap_rate
            removed = cap_eff * (prev[i] - inlet_eff) * dt
            removed_j += removed
            water[i] = prev[i] + (heat_in - removed) / heat_cap
            if water[i] > peak_water[i]:
                peak_water[i] = water[i]
            if up > 0:
                # worst-case die temperature this step (step-start
                # water, the same basis as the DTM decision): active
                # boards shift the ladder's reference hotspot by the
                # ambient identity, stalled boards sit at water temp
                die_t = (prev[i] if idx is None
                         else ladder.ref_max_temp_c[idx]
                         + (prev[i] - ladder.ref_ambient_c))
                if die_t > peak_board_temp:
                    peak_board_temp = die_t
        flush()
    flush()

    stored_j = sum(heat_cap * (water[i] - supply)
                   for i in range(n_tanks))
    it_energy = generated_j
    duration = n_steps * dt
    account = EnergyAccount(
        it_energy_j=it_energy,
        cooling_energy_j=n_tanks * cfg.pump_power_w * duration,
        other_energy_j=cfg.non_cooling_overhead_fraction * it_energy,
        reused_energy_j=cfg.reuse_fraction * max(0.0, removed_j),
    )
    on_boards = job_ids[slot_index < running[:, None]].tolist()
    completed_work = _completed_work(arrivals, on_boards, pending,
                                     completed)

    # only the report depends on whether the scenario carries a plan
    availability: dict[str, Any] | None = None
    if scenario.faults is not None:
        closed = [inc for inc in incidents
                  if inc["t_end_us"] is not None]
        mttr_h = None
        if closed:
            mttr_h = (sum(inc["t_end_us"] - inc["t_start_us"]
                          for inc in closed) / len(closed) / 3.6e9)
        by_kind: dict[str, int] = {}
        for inc in incidents:
            by_kind[inc["kind"]] = by_kind.get(inc["kind"], 0) + 1
        availability = {
            "availability": 1.0 - down_board_steps
            / (n_boards * n_steps),
            "board_steps_down": down_board_steps,
            "board_steps_total": n_boards * n_steps,
            "goodput_gcps": completed_work / duration,
            "mttr_hours": mttr_h,
            "incidents_total": len(incidents),
            "incidents_open": len(incidents) - len(closed),
            "repairs": len(closed),
            "by_kind": dict(sorted(by_kind.items())),
            "jobs_requeued": jobs_requeued,
            "dtm_override_steps": dtm_override_steps,
            "emergency_clamp_steps": emergency_clamp_steps,
            "isolations": isolations,
            "peak_board_temp_c": peak_board_temp,
        }

    return FleetResult(
        scenario=scenario,
        steps=n_steps,
        jobs_arrived=len(arrivals),
        jobs_dispatched=dispatched,
        jobs_completed=completed,
        jobs_pending_end=len(pending),
        jobs_running_end=len(on_boards),
        work_done_gcycles=work_done,
        completed_work_gcycles=completed_work,
        account=account,
        generated_j=generated_j,
        removed_j=removed_j,
        stored_j=stored_j,
        max_water_temp_c=max(peak_water),
        final_water_temp_c=tuple(water),
        peak_water_temp_c=tuple(peak_water),
        throttled_board_steps=throttled_steps,
        stalled_board_steps=stalled_steps,
        event_digest=digest.hexdigest(),
        events=tuple(kept) if kept is not None else None,
        availability=availability,
        incidents=tuple(incidents),
    )


def _completed_work(arrivals: Sequence[FleetJob],
                    on_boards: Sequence[int],
                    pending: Sequence[FleetJob],
                    completed: int) -> float:
    """Gcycles of fully finished jobs (vs. partial ``work_done``)."""
    if not completed:
        return 0.0
    unfinished = set(on_boards)
    unfinished.update(j.job_id for j in pending)
    return sum(j.work_gcycles for j in arrivals
               if j.job_id not in unfinished)


# ---------------------------------------------------------------------------
# Scenario campaigns on the parallel engine
# ---------------------------------------------------------------------------


def _scenario_task(payload: Any, scenario_dict: dict) -> FleetResult:
    """Module-level (picklable) pool task: one scenario end to end."""
    return simulate(FleetScenario.from_dict(scenario_dict))


def run_scenarios(scenarios: Sequence[FleetScenario], *,
                  workers: int = 1,
                  chunk_size: int | None = None,
                  fault_plan=None) -> list[FleetResult]:
    """Evaluate a scenario list, optionally on worker processes.

    Results come back in scenario order and are byte-identical at
    every worker count (``workers=1`` runs inline — the campaign
    engine's standing guarantee plus a deterministic simulator).

    ``fault_plan`` is a *process-level*
    :class:`~repro.resilience.ProcessFaultPlan` (worker kill/hang
    chaos against the pool itself), orthogonal to the *facility-level*
    :class:`~repro.fleet.faults.FleetFaultPlan` carried inside each
    scenario; ``repro fleet chaos`` composes both. Chunks quarantined
    after repeated crashes come back as
    :class:`~repro.parallel.Poisoned` markers in the result list.
    """
    items = [s.to_dict() for s in scenarios]
    config = ParallelConfig(workers=workers, chunk_size=chunk_size or 1)
    with span("fleet.campaign", scenarios=len(items),
              workers=config.workers):
        return run_chunked(items, _scenario_task, None, config=config,
                           fault_plan=fault_plan)


def results_document(results: Sequence[FleetResult]) -> dict[str, Any]:
    """Canonical campaign document (the fleet checkpoint payload)."""
    return {
        "version": 1,
        "kind": "fleet-campaign",
        "results": [r.to_dict() for r in results],
    }


def results_json(results: Sequence[FleetResult]) -> str:
    """Sorted, compact JSON of :func:`results_document` — the byte
    form the worker-count identity test compares."""
    return json.dumps(results_document(results), sort_keys=True,
                      separators=(",", ":"))
