"""fleet_day and fleet_chaos: 24 simulated hours of the 16-tank x
32-board plant at the ``bench_to_json --bench fleet`` operating point.

``fleet_day`` is fault-free and runs every placement policy once per
round. ``fleet_chaos`` runs the same plant and load under thermal-aware
placement with every fault kind live, one scenario per round. The timed
phase runs one ``simulate()`` at a time in this process, so a co-tenant
on the host slows one scenario rather than a whole batch; the traced
pass sends the first scenarios through ``run_scenarios`` on the process
pool for the parallel layer's metrics. The cold board ladder (one
response-operator build) is set-up; after it no solver runs, so the
timed phase is all per-step work.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from pathlib import Path

from common import (Report, covered_length, rate_of_medians, ratio,
                    stop_at_boundary, timed)
from layers import (LayerTimer, Patched, empty_layer_metrics, layer_metrics,
                    parallel_metrics)
from repro.fleet import (FleetConfig, FleetFaultPlan, FleetResult,
                         FleetScenario, POLICY_NAMES, WorkloadConfig)
from repro.fleet import sim as fleet_sim
from repro.obs import get_registry
from repro.parallel.pool import snapshot_delta
from repro.thermal.hotspot import model_cache
from repro.thermal.response import configure, response_cache

FLEET = FleetConfig(n_tanks=16, boards_per_tank=32, supply_temp_c=58.0,
                    exchange_flow_m3_s=1e-4)
LOAD = WorkloadConfig(rate_per_s=0.6, work_gcycles=600.0)
HOURS = 24.0
#: Rates that keep incidents firing all day while most capacity stays
#: up: about 800 incidents per simulated day, availability about 0.67.
CHAOS = FleetFaultPlan(aging_years_per_sim_hour=0.5, chip_mttf_years=8.0,
                       pump_loss_per_tank_hour=0.02,
                       fouling_per_tank_hour=0.02,
                       sensor_fault_per_tank_hour=0.05)
RESIDUAL_TOL = 1e-6
#: Pool workers of the traced pass: one per core this process may use.
POOL_WORKERS = len(os.sched_getaffinity(0))
#: Scenarios the traced pass runs: every policy twice on ``fleet_day``;
#: six keep two pool workers busy for three rounds each.
BATCH = 6
#: Incident kinds that take one board down; ``tank_isolated`` takes
#: down every board of its tank.
BOARD_DOWN_KINDS = ("board_retire", "chip_death")


def rounds(workload: str, seed: int):
    """Endless seeded rounds of scenarios: every policy once on
    ``fleet_day``, one faulted thermal-aware scenario on ``fleet_chaos``.
    Every scenario draws its own arrivals (and faults): the per-step
    cost depends on how the queue and the stalls evolve, so a run
    averages over as many arrival sequences as it simulates."""
    if workload == "fleet_day":
        policies, faults = POLICY_NAMES, None
    else:
        policies, faults = ("thermal-aware",), CHAOS
    k = 0
    while True:
        yield [FleetScenario(fleet=FLEET, workload=LOAD, policy=p,
                             seed=seed * 1000 + k + i,
                             duration_s=HOURS * 3600.0, faults=faults)
               for i, p in enumerate(policies)]
        k += len(policies)


def first_batch(workload: str, seed: int) -> list:
    """The first ``BATCH`` scenarios the timed phase runs."""
    gen, batch = rounds(workload, seed), []
    while len(batch) < BATCH:
        batch += next(gen)
    return batch[:BATCH]


def setup(workload: str, *, seed: int, work: Path) -> dict:
    """Build the board ladder from empty caches (one response-operator
    build); the simulator's own ladder lookups then hit the caches."""
    configure(None)
    model_cache().clear()
    response_cache().clear()
    t0 = time.perf_counter()
    fleet_sim.build_board_ladder(FLEET)
    return {"workload": workload, "ladder_s": time.perf_counter() - t0}


def close(state: dict) -> None:
    """Nothing outlives a simulation."""


def down_steps_from_incidents(result) -> int:
    """Board-steps down, worked out from the incident list alone.

    Board ``b`` is down at step ``k`` (time ``k * step``) when a
    ``board_retire`` or ``chip_death`` incident on ``b``, or a
    ``tank_isolated`` incident on ``b``'s tank, has started and not yet
    ended; overlapping incidents count once.
    """
    step_us = int(round(FLEET.step_s * 1e6))

    def steps_of(inc) -> tuple[int, int]:
        lo = -(-inc["t_start_us"] // step_us)
        end = inc["t_end_us"]
        hi = result.steps if end is None else -(-end // step_us)
        return lo, min(hi, result.steps)

    boards, tanks = defaultdict(list), defaultdict(list)
    for inc in result.incidents:
        if inc["kind"] in BOARD_DOWN_KINDS:
            boards[inc["index"]].append(steps_of(inc))
        elif inc["kind"] == "tank_isolated":
            tanks[inc["index"]].append(steps_of(inc))
    return sum(covered_length(boards[b] + tanks[b // FLEET.boards_per_tank])
               for b in range(FLEET.n_boards))


def check(result, chaos: bool) -> list[str]:
    """Energy ledger closes; on a faulted plant the down board-steps,
    availability and requeued jobs reconcile with the incident list,
    and a fault-free plant has no fault accounting."""
    if not isinstance(result, FleetResult):
        return [f"scenario came back as {result!r}"]
    tag = f"{result.scenario.policy}/seed {result.scenario.seed}"
    problems = []
    if not result.conservation_relative_residual < RESIDUAL_TOL:
        problems.append(f"{tag}: energy residual "
                        f"{result.conservation_relative_residual:.3g}")
    av, incidents = result.availability, result.incidents
    if not chaos:
        if av is not None or incidents:
            problems.append(f"{tag}: fault accounting on a fault-free run")
        return problems
    down = down_steps_from_incidents(result)
    expected = {
        "board_steps_down": down,
        "availability": 1.0 - down / (FLEET.n_boards * result.steps),
        "jobs_requeued": sum(i["jobs_requeued"] for i in incidents),
    }
    for key, want in expected.items():
        if av[key] != want:
            problems.append(f"{tag}: availability[{key!r}] = {av[key]!r}, "
                            f"incident list gives {want!r}")
    if not incidents or not 0.0 < av["availability"] <= 1.0:
        problems.append(f"{tag}: no incidents or availability "
                        f"{av['availability']!r} out of range")
    return problems


def simulate_one(scenario):
    """One scenario in this process: ``(result or the exception it
    raised, wall seconds, CPU seconds)``."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = fleet_sim.simulate(scenario)
    except Exception as exc:  # the failure is this scenario's outcome
        out = exc
    return out, time.perf_counter() - w0, time.process_time() - c0


def board_steps(results) -> int:
    return sum(FLEET.n_boards * r.steps for r in results
               if isinstance(r, FleetResult))


def per_policy(results, walls) -> dict:
    """``policy -> [(board-steps, wall seconds)]`` of the scenarios
    that finished."""
    groups = defaultdict(list)
    for result, wall in zip(results, walls):
        if isinstance(result, FleetResult):
            groups[result.scenario.policy].append(
                (FLEET.n_boards * result.steps, wall))
    return groups


def run(state: dict, *, seed: int, seconds: float, trace: bool,
        work: Path) -> Report:
    workload = state["workload"]
    chaos = workload == "fleet_chaos"
    meta = {"tanks": FLEET.n_tanks, "boards": FLEET.n_boards,
            "sim_hours": HOURS, "workers": 1,
            "cold_ladder_s": state["ladder_s"]}
    if trace:
        return _traced(first_batch(workload, seed), chaos, meta)
    gen = rounds(workload, seed)
    walls, cpus, results, round_walls = [], [], [], []
    started = time.perf_counter()
    while True:
        round_wall = 0.0
        for scenario in next(gen):
            result, wall, cpu = simulate_one(scenario)
            results.append(result)
            walls.append(wall)
            cpus.append(cpu)
            round_wall += wall
        round_walls.append(round_wall)
        if stop_at_boundary(time.perf_counter() - started, round_walls,
                            seconds):
            break
    problems = []
    ok = 0
    for result in results:
        probs = check(result, chaos)
        problems += probs
        ok += not probs
    meta.update(_shares(results, chaos))
    meta.update({"scenarios": len(results), "rounds": len(round_walls),
                 "scenario_walls_s": walls, "scenario_cpu_s": cpus,
                 "samples": {"scenarios": len(results)}})
    ok_frac = ratio(ok, len(results))
    return Report(
        attempted=len(results), failed=len(results) - ok,
        correct=not problems,
        metrics={"throughput_per_s": rate_of_medians(
                     per_policy(results, walls)),
                 "slo_met_frac": ok_frac, "ok_frac": ok_frac},
        meta=meta, problems=problems)


def _shares(results, chaos: bool) -> dict:
    results = [r for r in results if isinstance(r, FleetResult)]
    out = {"stalled_share": ratio(sum(r.stalled_board_steps
                                      for r in results),
                                  board_steps(results))}
    if chaos and results:
        out["incidents"] = sum(r.availability["incidents_total"]
                               for r in results)
        out["jobs_requeued"] = sum(r.availability["jobs_requeued"]
                                   for r in results)
        out["availability"] = (sum(r.availability["availability"]
                                   for r in results) / len(results))
    return out


def _traced(batch, chaos: bool, meta: dict) -> Report:
    """The batch through the pool, untraced, for the parallel layer's
    metrics; then the same batch untraced and traced, one
    ``simulate()`` at a time in this process so every wrapped call is
    seen here. All three must give byte-identical results, and the two
    serial passes give the overhead."""
    before = get_registry().snapshot()
    pooled, pool_wall, _ = timed(fleet_sim.run_scenarios, batch,
                                 workers=POOL_WORKERS)
    pool = parallel_metrics(snapshot_delta(
        before, get_registry().snapshot()), pool_wall, POOL_WORKERS)
    meta.update({"pool_wall_s": pool_wall, "pool_workers": POOL_WORKERS})
    plain, plain_walls = [], []
    for scenario in batch:
        result, wall, _ = timed(fleet_sim.simulate, scenario)
        plain.append(result)
        plain_walls.append(wall)
    timer = LayerTimer()
    results, walls = [], []
    before = get_registry().snapshot()
    with Patched(timer) as patched:
        for scenario in batch:
            result, wall, _ = timed(fleet_sim.simulate, scenario)
            results.append(result)
            walls.append(wall)
    delta = snapshot_delta(before, get_registry().snapshot())
    problems, failed = [], 0
    for i, (untraced, traced) in enumerate(zip(plain, results)):
        probs = check(traced, chaos)
        sc = traced.scenario
        if traced.to_json() != untraced.to_json():
            probs.append(f"{sc.policy}/seed {sc.seed}: traced result "
                         "differs from untraced")
        if (not isinstance(pooled[i], FleetResult)
                or pooled[i].to_json() != untraced.to_json()):
            probs.append(f"{sc.policy}/seed {sc.seed}: pool result "
                         "differs from serial")
        problems += probs
        failed += bool(probs)
    wall = sum(walls)
    metrics = empty_layer_metrics()
    metrics.update(layer_metrics(timer, wall, delta))
    metrics.update(pool)
    shares = _shares(results, chaos)
    metrics["fleet.stalled_share"] = shares["stalled_share"]
    metrics["fleet.incidents"] = shares.get("incidents", 0)
    metrics["fleet.jobs_requeued"] = shares.get("jobs_requeued", 0)
    metrics["fleet.availability"] = shares.get("availability", 1.0)
    metrics["obs.trace_overhead_frac"] = wall / sum(plain_walls) - 1.0
    meta.update({"untraced_walls_s": plain_walls, "traced_walls_s": walls,
                 "unwrapped": patched.missing})
    return Report(attempted=len(batch), failed=failed, correct=not problems,
                  metrics=metrics, meta=meta, problems=problems)
