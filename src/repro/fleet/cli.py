"""``repro fleet`` — the fleet simulator's command-line surface.

Kept out of :mod:`repro.cli` (which wires every subcommand) so the
fleet surface can grow without pushing the main module past readable:
:func:`register` is the single hook the root parser calls.

Three verbs:

* ``repro fleet run`` — one scenario end to end; prints the
  throughput / energy / thermal summary, optionally writes the
  canonical result JSON (``--out``) and streams the event log
  (``--events-out``).
* ``repro fleet sweep`` — a policy x seed campaign on the parallel
  engine (``--workers``); prints the policy comparison and optionally
  writes the canonical campaign document, byte-identical at every
  worker count.
* ``repro fleet chaos`` — the sweep under a seeded
  :class:`~repro.fleet.faults.FleetFaultPlan` (facility faults inside
  the simulation) optionally composed with ``--inject`` process
  faults against the worker pool itself; prints availability / MTTR /
  incident accounting and emits the incident ledger in the resilience
  failure-ledger format (``--ledger-out``, integrity-checked).

Exit codes follow the repo convention: 0 success, 1 nothing finished,
2 usage, 75 pool closed mid-run. A ``ConfigurationError`` (exit 2) or
``PoolClosedError`` (exit 75) propagates to :func:`repro.cli.main`,
which maps it — same as campaign/chaos/serve.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["register"]


def register(sub, *, add_obs_flags) -> None:
    """Attach the ``fleet`` subcommand to the root subparsers.

    Args:
        sub: the root parser's subparsers object.
        add_obs_flags: adds the global observability flags (the leaves
            need them too, so they parse after the verb).
    """
    fleet = sub.add_parser(
        "fleet",
        help="datacenter-scale fleet simulation: immersion tanks on a "
             "shared coolant loop, thermal-aware scheduling, "
             "energy/PUE accounting")
    verbs = fleet.add_subparsers(dest="fleet_command", required=True)

    run = verbs.add_parser(
        "run", help="simulate one scenario and print the summary")
    _add_scenario_flags(run)
    run.add_argument("--policy", default="thermal-aware",
                     help="placement policy (see `fleet sweep` for the "
                          "comparison)")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="write the canonical result JSON there")
    run.add_argument("--events-out", default=None, metavar="PATH",
                     help="stream the canonical event log (JSON lines) "
                          "there")
    add_obs_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = verbs.add_parser(
        "sweep",
        help="policy x seed campaign; prints the policy comparison")
    _add_scenario_flags(sweep)
    _add_campaign_flags(sweep)
    add_obs_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    chaos = verbs.add_parser(
        "chaos",
        help="policy x seed campaign under seeded facility faults "
             "(board wear, pump loss, fouling, sensor faults), "
             "optionally composed with process-level worker faults")
    _add_scenario_flags(chaos)
    _add_fault_flags(chaos)
    _add_campaign_flags(chaos)
    chaos.add_argument("--inject", nargs="*", default=None,
                       metavar="KIND[:PROB[:MAX]]",
                       help="process-level faults against the worker "
                            "pool (worker_kill / worker_hang / "
                            "slow_heartbeat), composing with the "
                            "facility faults above")
    chaos.add_argument("--ledger-out", default=None, metavar="PATH",
                       help="write the incident ledger there "
                            "(resilience failure-ledger JSON; "
                            "integrity-checked after writing)")
    add_obs_flags(chaos)
    chaos.set_defaults(func=_cmd_chaos)


def _add_campaign_flags(p: argparse.ArgumentParser) -> None:
    """The policy x seed campaign surface ``sweep`` and ``chaos``
    share."""
    p.add_argument("--policies", nargs="*", default=None,
                   help="policies to compare (default: all)")
    p.add_argument("--seeds", type=int, nargs="*", default=None,
                   help="seeds per policy (default: the --seed value)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="evaluate scenarios over N worker processes "
                        "(default 1: inline; the campaign document is "
                        "byte-identical at every worker count)")
    p.add_argument("--chunk-size", type=int, default=None, metavar="N",
                   help="scenarios per worker dispatch")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the canonical campaign JSON there "
                        "(completed scenarios only)")


def _add_fault_flags(p: argparse.ArgumentParser) -> None:
    """The :class:`~repro.fleet.faults.FleetFaultPlan` surface.

    Defaults describe a meaningful accelerated-wear campaign (a bare
    ``repro fleet chaos`` injects faults); zero every rate explicitly
    to reproduce the fault-free baseline byte-for-byte.
    """
    g = p.add_argument_group("faults")
    g.add_argument("--aging", type=float, default=5.0,
                   metavar="YEARS_PER_H",
                   help="years of component wear per simulated hour "
                        "(0 disables board retirement and chip death)")
    g.add_argument("--coating", choices=("masked", "coated"),
                   default="masked",
                   help="which Section 2.2 reliability model draws "
                        "board lifetimes")
    g.add_argument("--chip-mttf", type=float, default=8.0,
                   metavar="YEARS", help="mean chip lifetime before "
                                         "aging acceleration (0 "
                                         "disables chip death)")
    g.add_argument("--pump-loss", type=float, default=0.2,
                   metavar="PER_TANK_H",
                   help="pump-loss rate per tank-hour")
    g.add_argument("--fouling", type=float, default=0.0,
                   metavar="PER_TANK_H",
                   help="exchanger-fouling rate per tank-hour")
    g.add_argument("--fouling-factor", type=float, default=0.25,
                   help="capacity-rate multiplier while fouled")
    g.add_argument("--sensor", type=float, default=0.2,
                   metavar="PER_TANK_H",
                   help="water-sensor fault rate per tank-hour")
    g.add_argument("--sensor-offset", type=float, default=-8.0,
                   metavar="C", help="reading error of an offset-"
                                     "faulted sensor")
    g.add_argument("--repair-board", type=float, default=12.0,
                   metavar="H", help="mean board-swap time")
    g.add_argument("--repair-chip", type=float, default=6.0,
                   metavar="H", help="mean stack re-seat time")
    g.add_argument("--repair-pump", type=float, default=2.0,
                   metavar="H", help="mean pump repair time")
    g.add_argument("--repair-sensor", type=float, default=1.0,
                   metavar="H", help="mean sensor replacement time")
    g.add_argument("--emergency-margin", type=float, default=3.0,
                   metavar="C", help="extra DTM margin while a tank's "
                                     "pump is down")
    g.add_argument("--isolation-margin", type=float, default=5.0,
                   metavar="C", help="degrees below the DTM threshold "
                                     "at which a pump-lost tank is "
                                     "isolated")
    g.add_argument("--no-isolation", action="store_true",
                   help="disable tank isolation on pump loss (the "
                        "water then runs away — demonstration mode)")


def _fault_plan_from_args(args: argparse.Namespace):
    from .faults import FleetFaultPlan

    return FleetFaultPlan(
        aging_years_per_sim_hour=args.aging,
        coating=args.coating,
        chip_mttf_years=args.chip_mttf,
        pump_loss_per_tank_hour=args.pump_loss,
        fouling_per_tank_hour=args.fouling,
        fouling_factor=args.fouling_factor,
        sensor_fault_per_tank_hour=args.sensor,
        sensor_offset_c=args.sensor_offset,
        board_repair_hours=args.repair_board,
        chip_repair_hours=args.repair_chip,
        pump_repair_hours=args.repair_pump,
        sensor_repair_hours=args.repair_sensor,
        emergency_margin_c=args.emergency_margin,
        isolation_margin_c=args.isolation_margin,
        isolate_on_pump_loss=not args.no_isolation,
    )


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    """Plant + workload + duration flags shared by both verbs."""
    plant = p.add_argument_group("plant")
    plant.add_argument("--tanks", type=int, default=4,
                       help="immersion tanks on the facility loop")
    plant.add_argument("--boards", type=int, default=16,
                       help="boards per tank")
    plant.add_argument("--chip", default="low-power-cmp",
                       help="library chip per board stack")
    plant.add_argument("--chips", type=int, default=4,
                       help="chips stacked per board")
    plant.add_argument("--cooling", default="water",
                       help="per-board cooling option")
    plant.add_argument("--threshold", type=float, default=None,
                       metavar="C", help="DTM cap (default: the chip's)")
    plant.add_argument("--supply", type=float, default=30.0,
                       metavar="C", help="facility supply water "
                                         "temperature")
    plant.add_argument("--flow", type=float, default=2.0e-4,
                       metavar="M3_S", help="per-tank exchanger flow")
    plant.add_argument("--effectiveness", type=float, default=0.9,
                       help="heat-exchanger effectiveness in (0, 1]")
    plant.add_argument("--volume", type=float, default=0.5,
                       metavar="M3", help="water volume per tank")
    plant.add_argument("--coupling", type=float, default=0.35,
                       help="neighbor inlet-coupling fraction in [0, 1)")
    plant.add_argument("--pump-power", type=float, default=120.0,
                       metavar="W", help="per-tank pump draw (cooling "
                                         "overhead)")
    plant.add_argument("--slots", type=int, default=1,
                       help="concurrent jobs per board")
    plant.add_argument("--idle-power", type=float, default=15.0,
                       metavar="W", help="per-board power at zero load")
    plant.add_argument("--reuse", type=float, default=0.0,
                       help="fraction of rejected heat exported "
                            "(credited by ERE)")
    plant.add_argument("--overhead", type=float, default=0.02,
                       help="non-cooling facility overhead fraction")
    work = p.add_argument_group("workload")
    work.add_argument("--rate", type=float, default=0.5,
                      help="mean job arrivals per second")
    work.add_argument("--work", type=float, default=600.0,
                      metavar="GCYCLES", help="mean job length")
    work.add_argument("--jitter", type=float, default=0.5,
                      help="job-length spread fraction in [0, 1)")
    work.add_argument("--max-jobs", type=int, default=None,
                      help="cap on generated arrivals")
    p.add_argument("--hours", type=float, default=1.0,
                   help="simulated hours")
    p.add_argument("--step", type=float, default=30.0,
                   metavar="SECONDS", help="simulation step")
    p.add_argument("--seed", type=int, default=0,
                   help="base RNG seed (arrivals derive from it)")
    p.add_argument("--label", default="", help="tag carried into "
                                               "results and logs")


def _scenario_from_args(args: argparse.Namespace, *, policy: str,
                        seed: int, faults=None):
    from .model import FleetConfig, FleetScenario
    from .workload import WorkloadConfig

    fleet = FleetConfig(
        n_tanks=args.tanks,
        boards_per_tank=args.boards,
        chip=args.chip,
        n_chips=args.chips,
        cooling=args.cooling,
        threshold_c=args.threshold,
        supply_temp_c=args.supply,
        exchange_flow_m3_s=args.flow,
        exchanger_effectiveness=args.effectiveness,
        tank_volume_m3=args.volume,
        coupling=args.coupling,
        pump_power_w=args.pump_power,
        slots_per_board=args.slots,
        idle_power_w=args.idle_power,
        reuse_fraction=args.reuse,
        non_cooling_overhead_fraction=args.overhead,
        step_s=args.step,
    )
    workload = WorkloadConfig(rate_per_s=args.rate,
                              work_gcycles=args.work,
                              work_jitter=args.jitter,
                              max_jobs=args.max_jobs)
    return FleetScenario(fleet=fleet, workload=workload, policy=policy,
                         seed=seed, duration_s=args.hours * 3600.0,
                         label=args.label, faults=faults)


def _print_result(r) -> None:
    a = r.account
    print(f"policy {r.scenario.policy}  seed {r.scenario.seed}  "
          f"{r.scenario.fleet.n_tanks} tanks x "
          f"{r.scenario.fleet.boards_per_tank} boards  "
          f"{r.duration_s / 3600:.2f} sim-hours")
    print(f"  jobs       arrived {r.jobs_arrived}  dispatched "
          f"{r.jobs_dispatched}  completed {r.jobs_completed}  "
          f"pending {r.jobs_pending_end}  running {r.jobs_running_end}")
    print(f"  throughput {r.throughput_gcps:.2f} Gcycles/s sustained  "
          f"({r.work_done_gcycles:.0f} Gcycles total)")
    print(f"  energy     IT {a.it_energy_j / 1e6:.1f} MJ  cooling "
          f"{a.cooling_energy_j / 1e6:.1f} MJ  other "
          f"{a.other_energy_j / 1e6:.1f} MJ  PUE {a.pue:.4f}  "
          f"ERE {a.ere:.4f}  work/MJ {r.work_per_mj:.1f}")
    print(f"  thermal    water max {r.max_water_temp_c:.2f} C  "
          f"throttled board-steps {r.throttled_board_steps}  "
          f"stalled {r.stalled_board_steps}")
    print(f"  ledger     generated {r.generated_j / 1e6:.3f} MJ = "
          f"removed {r.removed_j / 1e6:.3f} + stored "
          f"{r.stored_j / 1e6:.3f} (residual "
          f"{r.conservation_relative_residual:.1e} rel)")


def _cmd_run(args: argparse.Namespace) -> int:
    from .sim import simulate

    scenario = _scenario_from_args(args, policy=args.policy,
                                   seed=args.seed)
    if args.events_out:
        with open(args.events_out, "w", encoding="utf-8") as fh:
            result = simulate(scenario, events_file=fh)
    else:
        result = simulate(scenario)
    _print_result(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json() + "\n")
        print(f"result JSON written to {args.out}")
    if args.events_out:
        print(f"event log written to {args.events_out}")
    return 0


def _campaign_axes(args: argparse.Namespace):
    """``(policies, seeds)`` of a campaign verb."""
    from .policies import POLICY_NAMES

    return (tuple(args.policies or POLICY_NAMES),
            tuple(args.seeds or (args.seed,)))


def _run_campaign(args: argparse.Namespace, *, faults=None,
                  fault_plan=None):
    """Run the policy x seed campaign, every scenario carrying the
    facility plan ``faults``, the pool under the process-level
    ``fault_plan``; ``(completed results, poisoned markers)``."""
    from ..parallel import Poisoned
    from .sim import run_scenarios

    policies, seeds = _campaign_axes(args)
    scenarios = [
        _scenario_from_args(args, policy=policy, seed=seed,
                            faults=faults)
        for policy in policies for seed in seeds
    ]
    results = run_scenarios(scenarios, workers=args.workers,
                            chunk_size=args.chunk_size,
                            fault_plan=fault_plan)
    done = [r for r in results if not isinstance(r, Poisoned)]
    poisoned = [r for r in results if isinstance(r, Poisoned)]
    return done, poisoned


def _write_campaign(args: argparse.Namespace, results) -> None:
    """Write the canonical campaign JSON to ``--out``, if given."""
    from .sim import results_json

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(results_json(results) + "\n")
        print(f"campaign JSON written to {args.out}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    results, poisoned = _run_campaign(args)

    header = (f"{'policy':<14} {'seed':>5} {'Gc/s':>8} {'work/MJ':>9} "
              f"{'PUE':>7} {'max C':>6} {'stall':>7} {'pend':>6}")
    print(header)
    print("-" * len(header))
    for r in results:
        print(f"{r.scenario.policy:<14} {r.scenario.seed:>5} "
              f"{r.throughput_gcps:>8.2f} {r.work_per_mj:>9.1f} "
              f"{r.account.pue:>7.4f} {r.max_water_temp_c:>6.2f} "
              f"{r.stalled_board_steps:>7} {r.jobs_pending_end:>6}")
    for p in poisoned:
        print(f"QUARANTINED {p.key}: {p.reason} ({p.crashes} crashes)")
    _write_campaign(args, results)
    return 0 if results else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """A fault campaign: facility faults in the simulation, optional
    process faults against the pool, incident-ledger output.

    Exit 0 when at least one scenario completed despite the chaos; 1
    when nothing did. ``PoolClosedError`` propagates (exit 75 in
    ``main``), matching campaign/chaos/serve conventions.
    """
    import json as _json

    from ..core.campaign import LedgerEntry
    from ..obs import get_registry
    from ..resilience import (PROCESS_FAULT_KINDS, FaultSpec,
                              ProcessFaultPlan)
    from .faults import incident_ledger_entries

    plan = _fault_plan_from_args(args)
    proc_plan = None
    if args.inject:
        specs = [FaultSpec.parse(s) for s in args.inject]
        bad = [s.kind for s in specs if s.kind not in PROCESS_FAULT_KINDS]
        if bad:
            print(f"fleet chaos --inject accepts process fault kinds "
                  f"{sorted(PROCESS_FAULT_KINDS)} only, got "
                  f"{sorted(set(bad))}", file=sys.stderr)
            return 2
        proc_plan = ProcessFaultPlan(specs=tuple(specs), seed=args.seed)

    policies, seeds = _campaign_axes(args)
    print(f"fleet chaos: {len(policies) * len(seeds)} scenarios "
          f"({len(policies)} policies x {len(seeds)} seeds), "
          f"facility faults "
          f"{'OFF (all rates 0)' if plan.is_null else 'on'}"
          f", process faults "
          f"{'on' if proc_plan is not None else 'off'}, "
          f"workers {args.workers}", flush=True)
    results, poisoned = _run_campaign(args, faults=plan,
                                      fault_plan=proc_plan)

    header = (f"{'policy':<14} {'seed':>5} {'Gc/s':>8} {'avail':>7} "
              f"{'MTTR h':>7} {'incid':>6} {'requeue':>8} "
              f"{'peak C':>7} {'pend':>6}")
    print(header)
    print("-" * len(header))
    for r in results:
        av = r.availability or {}
        mttr = av.get("mttr_hours")
        print(f"{r.scenario.policy:<14} {r.scenario.seed:>5} "
              f"{r.throughput_gcps:>8.2f} "
              f"{av.get('availability', 1.0):>7.4f} "
              f"{(f'{mttr:.2f}' if mttr is not None else '-'):>7} "
              f"{av.get('incidents_total', 0):>6} "
              f"{av.get('jobs_requeued', 0):>8} "
              f"{av.get('peak_board_temp_c', 0.0):>7.2f} "
              f"{r.jobs_pending_end:>6}")
    for p in poisoned:
        print(f"QUARANTINED {p.key}: {p.reason} ({p.crashes} crashes)")
    counters = get_registry().snapshot()["counters"]
    print("supervision: "
          f"restarts {counters.get('supervisor.restarts', 0)}, "
          f"worker crashes {counters.get('supervisor.worker_crashes', 0)}, "
          f"heartbeat misses {counters.get('supervisor.heartbeat_misses', 0)}, "
          f"task retries {counters.get('supervisor.task_retries', 0)}")

    entries = [e for r in results for e in incident_ledger_entries(r)]
    residual = max((r.conservation_relative_residual for r in results),
                   default=0.0)
    print(f"incidents {sum(len(r.incidents) for r in results)}, "
          f"jobs requeued "
          f"{sum((r.availability or {}).get('jobs_requeued', 0) for r in results)}, "
          f"worst energy-ledger residual {residual:.2e} rel")
    if args.ledger_out:
        with open(args.ledger_out, "w", encoding="utf-8") as fh:
            _json.dump([e.to_dict() for e in entries], fh, indent=1)
        # integrity check: every entry must round-trip through the
        # resilience failure-ledger schema (same check `repro chaos`
        # ledgers pass)
        with open(args.ledger_out, encoding="utf-8") as fh:
            reread = _json.load(fh)
        parsed = [LedgerEntry.from_dict(d) for d in reread]
        if [e.to_dict() for e in parsed] != reread:
            print("ledger INTEGRITY FAILURE: round-trip mismatch",
                  file=sys.stderr)
            return 1
        print(f"ledger: {args.ledger_out} (integrity ok, "
              f"{len(parsed)} entries)")
    _write_campaign(args, results)
    return 0 if results else 1

