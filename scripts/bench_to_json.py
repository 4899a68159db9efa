#!/usr/bin/env python
"""Measure performance trajectories -> BENCH_<bench>.json.

``--bench parallel`` (the default) times the same frequency-grid
campaign (the Figs. 7/8 families) on the campaign engine at each
worker count:

* ``serial_seed``   — one worker, every chunk inline (the reference);
* ``workers_N``     — N worker processes, for each requested N.

It also verifies the engine's core guarantee — the ``--workers 2``
checkpoint is byte-identical to the one-worker one once the
(timestamped) manifest is stripped — and records the outcome in the
JSON.

``--bench response`` times the same frequency-ladder campaigns through
the superposition kernel's power-to-temperature strategies —
``sparse_perstep`` (``REPRO_RESPONSE_DISABLE`` set, one factorized
sparse solve per ladder step), ``response_cold`` (empty caches: one
structured operator build per geometry, then dense matvecs), and
``response_warm`` (a pre-populated
on-disk operator store, the steady state of a worker fleet: mmap
loads, no sparse solver at all). It records the warm-vs-per-step
speedup per grid and exits nonzero unless every grid's frequency
frontier matches the sparse baseline and the slowest grid still
clears ``--speedup-target`` (default 5x).

``--bench serve`` drives the :mod:`repro.serve` broker with a mixed
concurrent batch of requests containing many duplicates (the CI smoke
load), and emits throughput, p50/p99 latency, and the hit / coalesce
rates. It exits nonzero unless the serving guarantees held on this
run: some requests coalesced, some hit the result cache, and each
unique config hash was computed exactly once
(``completed_total == unique_specs``).

``--bench supervisor`` times the same CPU-bound chunked map through
the supervised pool (the default execution path) and the retained bare
``ProcessPoolExecutor`` path, then replays it with one seeded
``worker_kill`` fault. It emits the supervision overhead fraction and
the crash-recovery latency, and exits nonzero unless the overhead is
below 5%, the faulted run's results are identical to the clean run's,
and the supervisor actually restarted a worker.

``--bench fleet`` runs the acceptance-bar fleet simulation (16 tanks /
512 boards, 24 simulated hours by default) once per placement policy —
serial, timed — then re-runs the whole policy set as a parallel
campaign on ``--fleet-workers`` processes. It emits per-policy
boards/sec and sim-hours/sec rates plus the policy comparison
(throughput, work per MJ, PUE, stalls), and exits nonzero unless
thermal-aware beats round-robin on sustained throughput at equal
energy, the parallel campaign document is byte-identical to the serial
one, and the campaign finishes under the 60 s acceptance bar.

Wall-clock speedups from extra workers obviously require extra cores;
``cpu_count`` is recorded so a 1-core container's numbers are not
mistaken for a regression.

``--compare BASELINE.json`` turns any bench into a **perf-regression
gate**: after writing the fresh result it diffs every timing metric
both documents share (campaign mode seconds, serve wall/percentile
latencies, supervisor seconds) and exits nonzero when any current
value exceeds baseline by more than ``--threshold`` (default 0.25,
i.e. +25% — wide enough for shared-CI jitter, narrow enough to catch a
real slowdown). ``--report-only`` prints the same table but never
fails the run (how CI introduces a new gate before trusting it).

Usage::

    PYTHONPATH=src python scripts/bench_to_json.py \
        [--out BENCH_parallel.json] [--workers 2 4] [--max-chips 15] \
        [--grids fig07 fig08] [--repeat 1] \
        [--compare BENCH_parallel.json [--threshold 0.25] [--report-only]]
    PYTHONPATH=src python scripts/bench_to_json.py --bench response \
        [--out BENCH_response.json] [--max-chips 15] \
        [--grids fig07 fig08] [--speedup-target 5.0] \
        [--compare BENCH_response.json [--threshold 0.25]]
    PYTHONPATH=src python scripts/bench_to_json.py --bench serve \
        [--out BENCH_serve.json] [--requests 200] [--unique 16] \
        [--serve-workers 2] [--client-threads 8]
    PYTHONPATH=src python scripts/bench_to_json.py --bench supervisor \
        [--out BENCH_supervisor.json] [--spin 300000] [--repeat 3]
    PYTHONPATH=src python scripts/bench_to_json.py --bench fleet \
        [--out BENCH_fleet.json] [--fleet-tanks 16] [--fleet-boards 32] \
        [--fleet-hours 24] [--fleet-workers 4]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.campaign import (                    # noqa: E402
    CampaignRunner,
    frequency_grid,
)
from repro.thermal.hotspot import model_cache        # noqa: E402
from repro.thermal.response import (                 # noqa: E402
    DISABLE_ENV,
    STORE_DIR_ENV,
    response_cache,
)

PAPER_COOLS = ("air", "water_pipe", "mineral_oil", "fluorinert", "water")
GRIDS = {
    "fig07": "low-power-cmp",
    "fig08": "high-frequency-cmp",
}


def _strip_manifest(path: Path) -> str:
    """Checkpoint text with the timestamped manifest removed."""
    data = json.loads(path.read_text())
    data.pop("manifest", None)
    return json.dumps(data, sort_keys=False)


def _cpu_warning(workers_list) -> str | None:
    """The banner CI and readers key on when cores are missing."""
    cores = os.cpu_count() or 1
    most = max(workers_list, default=0)
    if most and cores < most:
        return (f"cpu_count={cores} is below the benchmarked max "
                f"workers ({most}); workers_N timings measure engine "
                f"overhead, not parallel speedup")
    return None


def _run_campaign(points, *, workers, tmpdir) -> Path:
    """One full campaign from scratch; returns its checkpoint path."""
    model_cache().clear()
    response_cache().clear()
    checkpoint = Path(tmpdir) / f"cp_w{workers}.json"
    if checkpoint.exists():
        checkpoint.unlink()
    CampaignRunner(points, checkpoint_path=checkpoint,
                   workers=workers).run(resume=False)
    return checkpoint


def _time_mode(points, *, workers, tmpdir,
               repeat: int) -> tuple[float, Path]:
    best = float("inf")
    checkpoint = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        checkpoint = _run_campaign(points, workers=workers, tmpdir=tmpdir)
        best = min(best, time.perf_counter() - t0)
    return best, checkpoint


class _response_env:
    """Scoped REPRO_RESPONSE_* environment for one benchmark mode."""

    def __init__(self, *, disable: bool = False, store=None):
        self._want = {DISABLE_ENV: "1" if disable else None,
                      STORE_DIR_ENV: str(store) if store else None}
        self._saved: dict[str, str | None] = {}

    def __enter__(self):
        for key, val in self._want.items():
            self._saved[key] = os.environ.get(key)
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val
        return self

    def __exit__(self, *exc):
        for key, val in self._saved.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val
        return False


def bench_grid(grid: str, chip: str, max_chips: int,
               workers_list: list[int], repeat: int) -> dict:
    """The worker-count trajectory for one figure grid.

    Every mode runs against a shared warm response-operator store (one
    untimed warmup populates it), so the worker modes measure the
    steady state where the pool and the broker warm each other.
    """
    points = frequency_grid(chip, tuple(range(1, max_chips + 1)),
                            PAPER_COOLS)
    modes: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        store = Path(tmpdir) / "opstore"
        with _response_env(store=store):
            _run_campaign(points, workers=1,
                          tmpdir=tmpdir)       # warm the operator store
            modes["serial_seed"], serial_cp = _time_mode(
                points, workers=1, tmpdir=tmpdir, repeat=repeat)
            identical = None
            for n in workers_list:
                modes[f"workers_{n}"], cp = _time_mode(
                    points, workers=n, tmpdir=tmpdir, repeat=repeat)
                if identical is None:
                    identical = (_strip_manifest(cp)
                                 == _strip_manifest(serial_cp))
    base = modes["serial_seed"]
    return {
        "chip": chip,
        "points": len(points),
        "seconds": {k: round(v, 4) for k, v in modes.items()},
        "speedup_vs_serial_seed": (
            {k: round(base / v, 3) for k, v in modes.items()}
            if base > 0 else {}),
        "checkpoint_identical_to_serial": identical,
    }


def _frontier(checkpoint: Path) -> dict[str, tuple[float, float]]:
    """key -> (f_ghz, max_temp_c) from a campaign checkpoint."""
    data = json.loads(checkpoint.read_text())
    return {key: (rec.get("f_ghz", 0.0), rec.get("max_temp_c", 0.0))
            for key, rec in data.get("points", {}).items()}


def _frontier_matches(a: Path, b: Path, *, temp_tol: float) -> bool:
    """Same ladder frequency everywhere, temperatures within tolerance.

    The sparse and dense paths are different arithmetic, so this is a
    numeric comparison; the bitwise guarantee (cache on vs off with
    the kernel enabled) is pinned by ``tests/test_response.py``.
    """
    fa, fb = _frontier(a), _frontier(b)
    if set(fa) != set(fb):
        return False
    return all(fa[k][0] == fb[k][0]
               and abs(fa[k][1] - fb[k][1]) <= temp_tol
               for k in fa)


def bench_response_grid(grid: str, chip: str, max_chips: int,
                        repeat: int) -> dict:
    """Sparse-solve vs response-operator trajectory for one grid.

    ``sparse_perstep`` (the speedup denominator) is the pre-kernel
    path the paper figures were first reproduced with: kernel disabled,
    one factorized sparse solve per ladder step. The response modes
    replace the solves with dense matvecs. The fast modes take the minimum of at least three
    runs (a single 0.5s run is jitter-bound on shared CI); the cold
    mode times one run — its operator builds dwarf the noise.
    """
    import shutil
    points = frequency_grid(chip, tuple(range(1, max_chips + 1)),
                            PAPER_COOLS)
    repeat_fast = max(repeat, 3)
    modes: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        store = Path(tmpdir) / "opstore"

        with _response_env(disable=True):
            modes["sparse_perstep"], sparse_cp = _time_mode(
                points, workers=1, tmpdir=tmpdir, repeat=repeat_fast)
            sparse_frontier = Path(tmpdir) / "sparse_frontier.json"
            shutil.copy(sparse_cp, sparse_frontier)

        with _response_env(store=store):
            # cold: an empty store, so the timing includes one
            # structured operator build per geometry
            shutil.rmtree(store, ignore_errors=True)
            t0 = time.perf_counter()
            _run_campaign(points, workers=1, tmpdir=tmpdir)
            modes["response_cold"] = time.perf_counter() - t0

            # warm: the store the cold run left behind — mmap loads
            # and dense matvecs, no sparse solver at all
            modes["response_warm"], warm_cp = _time_mode(
                points, workers=1, tmpdir=tmpdir, repeat=repeat_fast)
            matches = _frontier_matches(sparse_frontier, warm_cp,
                                        temp_tol=1e-6)
            operators = len(list(store.glob("*.npy")))
    base = modes["sparse_perstep"]
    return {
        "chip": chip,
        "points": len(points),
        "operators_in_store": operators,
        "seconds": {k: round(v, 4) for k, v in modes.items()},
        "speedup_vs_sparse": (
            {k: round(base / v, 3) for k, v in modes.items()}
            if base > 0 else {}),
        "frontier_matches_sparse": matches,
    }


def run_response(args) -> int:
    """--bench response: trajectory, speedup gate, frontier check."""
    out = {
        "bench": "response",
        "cpu_count": os.cpu_count(),
        "speedup_target": args.speedup_target,
        "grids": {},
    }
    for grid in args.grids:
        out["grids"][grid] = bench_response_grid(
            grid, GRIDS[grid], args.max_chips, args.repeat)
        g = out["grids"][grid]
        print(f"{grid} ({g['chip']}, {g['points']} points, "
              f"{g['operators_in_store']} operators): "
              + ", ".join(f"{k}={v:.3f}s"
                          for k, v in g["seconds"].items())
              + f", warm speedup x"
                f"{g['speedup_vs_sparse']['response_warm']:.1f}"
              + f", frontier matches sparse: "
                f"{g['frontier_matches_sparse']}")
    worst = min(g["speedup_vs_sparse"]["response_warm"]
                for g in out["grids"].values())
    out["speedup_warm_vs_sparse_min"] = worst
    out["speedup_target_met"] = worst >= args.speedup_target
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}")
    ok = out["speedup_target_met"] and all(
        g["frontier_matches_sparse"] for g in out["grids"].values())
    if not ok:
        print(f"response bench FAILED: min warm speedup x{worst:.2f} "
              f"(target x{args.speedup_target}) or frontier mismatch",
              file=sys.stderr)
    return 0 if ok else 1


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1,
              max(0, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def bench_serve(args) -> dict:
    """Drive the broker with a mixed duplicate-heavy concurrent load."""
    import threading

    from repro.config import ExperimentSpec
    from repro.errors import OverloadedError
    from repro.serve import Broker, BrokerConfig

    fast = {"die_grid": 8, "package_grid": 4}
    heights = range(1, max(1, args.unique // 2) + 1)
    uniques = [ExperimentSpec(chip="low-power-cmp", n_chips=n,
                              cooling=cool, package_overrides=fast,
                              benchmarks=("ep",))
               for n in heights for cool in ("water", "air")]
    # Round-robin mix with heavy duplication; each closed-loop client
    # walks a contiguous chunk, so the walks start at staggered offsets
    # and overlap on in-flight specs (duplicates coalesce) while warm
    # repeats hit the result cache.
    sequence = [uniques[i % len(uniques)] for i in range(args.requests)]
    chunk = (len(sequence) + args.client_threads - 1) \
        // args.client_threads

    broker = Broker(BrokerConfig(workers=args.serve_workers,
                                 max_queue=args.max_queue))
    latencies: list[float] = []
    shed = [0]
    lock = threading.Lock()

    # Deterministic duplicate burst: back-to-back submissions of one
    # cold spec attach to a single queued job before any can finish.
    burst = [broker.submit(uniques[0]) for _ in range(8)]

    def client(thread_idx: int) -> None:
        lo = thread_idx * chunk
        for i in range(lo, min(lo + chunk, len(sequence))):
            t0 = time.perf_counter()
            while True:
                try:
                    job = broker.submit(sequence[i])
                    break
                except OverloadedError:
                    with lock:
                        shed[0] += 1
                    time.sleep(0.01)
            job.wait(timeout=600)
            dt = time.perf_counter() - t0
            with lock:
                latencies.append(dt)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client, args=(t,))
               for t in range(args.client_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for job in burst:
        job.wait(timeout=600)
    wall = time.perf_counter() - t0

    # An int-vs-float duplicate submitted through the dict boundary
    # must land on the same config hash — i.e. answer from the cache.
    float_dup = dict(uniques[0].to_dict())
    float_dup["n_chips"] = float(float_dup["n_chips"])
    float_hit = broker.submit(float_dup).from_cache

    manifest_path = Path(args.out).with_suffix(".manifest.json")
    stats = broker.shutdown(drain=True, manifest_path=manifest_path)

    latencies.sort()
    exactly_once = stats["completed_total"] == len(uniques)
    return {
        "bench": "serve",
        "cpu_count": os.cpu_count(),
        "serve_workers": args.serve_workers,
        "client_threads": args.client_threads,
        "requests": args.requests,
        "unique_specs": len(uniques),
        "wall_s": round(wall, 4),
        "throughput_rps": round(args.requests / wall, 2) if wall else 0,
        "latency_s": {
            "p50": round(_percentile(latencies, 0.50), 5),
            "p90": round(_percentile(latencies, 0.90), 5),
            "p99": round(_percentile(latencies, 0.99), 5),
            "max": round(latencies[-1], 5) if latencies else 0.0,
        },
        "counters": {
            "requests_total": stats["requests_total"],
            "completed_total": stats["completed_total"],
            "coalesced_total": stats["coalesced_total"],
            "shed_total": stats["shed_total"],
            "degraded_total": stats["degraded_total"],
            "client_retries_after_shed": shed[0],
        },
        "cache": stats["cache"],
        "hit_rate": round(stats["cache"]["hits"]
                          / max(1, stats["requests_total"]), 4),
        "coalesce_rate": round(stats["coalesced_total"]
                               / max(1, stats["requests_total"]), 4),
        "exactly_one_computation_per_hash": exactly_once,
        "float_int_duplicate_hit_cache": float_hit,
        "manifest": str(manifest_path),
    }


def run_serve(args) -> int:
    out = bench_serve(args)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"serve: {out['requests']} requests "
          f"({out['unique_specs']} unique) in {out['wall_s']}s -> "
          f"{out['throughput_rps']} req/s, "
          f"p50 {out['latency_s']['p50']}s, "
          f"p99 {out['latency_s']['p99']}s, "
          f"hit rate {out['hit_rate']}, "
          f"coalesce rate {out['coalesce_rate']}")
    print(f"wrote {args.out}")
    ok = (out["counters"]["coalesced_total"] > 0
          and out["cache"]["hits"] > 0
          and out["exactly_one_computation_per_hash"]
          and out["float_int_duplicate_hit_cache"])
    if not ok:
        print("serve bench FAILED its serving-guarantee assertions",
              file=sys.stderr)
    return 0 if ok else 1


def _spin_item(payload: int, item: int) -> int:
    """Deterministic CPU-bound unit of work for the supervisor bench."""
    acc = item & 0xFFFFFFFF
    for _ in range(payload):
        acc = (acc * 1664525 + 1013904223) & 0xFFFFFFFF
    return acc


def bench_supervisor(args) -> dict:
    """Supervision overhead (no faults) + recovery latency (one kill)."""
    from repro.obs import get_registry
    from repro.parallel import ParallelConfig, run_chunked
    from repro.resilience.faults import FaultSpec, ProcessFaultPlan

    items = list(range(24))

    def run(*, supervised: bool, fault_plan=None):
        cfg = ParallelConfig(workers=2, chunk_size=2,
                             supervised=supervised)
        return run_chunked(items, _spin_item, args.spin,
                           config=cfg, fault_plan=fault_plan)

    def best(**kw) -> float:
        t = float("inf")
        for _ in range(max(1, args.repeat)):
            t0 = time.perf_counter()
            run(**kw)
            t = min(t, time.perf_counter() - t0)
        return t

    expected = [_spin_item(args.spin, i) for i in items]
    bare = best(supervised=False)
    supervised = best(supervised=True)
    overhead = supervised / bare - 1.0

    # probability=0.1, seed=31 fires on exactly one of this workload's
    # twelve chunk keys (chunk/0-1, first attempt only) -- see
    # benchmarks/bench_supervisor.py, which pins the same scenario.
    plan = ProcessFaultPlan(
        specs=(FaultSpec("worker_kill", probability=0.1, max_fires=1),),
        seed=31)
    before = get_registry().snapshot().get("counters", {})
    t0 = time.perf_counter()
    faulted_results = run(supervised=True, fault_plan=plan)
    faulted = time.perf_counter() - t0
    after = get_registry().snapshot().get("counters", {})
    deltas = {name: after.get(name, 0) - before.get(name, 0)
              for name in ("supervisor.restarts",
                           "supervisor.worker_crashes",
                           "supervisor.task_retries")}

    return {
        "bench": "supervisor",
        "cpu_count": os.cpu_count(),
        "workers": 2,
        "items": len(items),
        "chunk_size": 2,
        "spin": args.spin,
        "repeat": args.repeat,
        "seconds": {
            "bare_executor": round(bare, 4),
            "supervised": round(supervised, 4),
            "supervised_one_kill": round(faulted, 4),
        },
        "overhead_pct": round(overhead * 100, 2),
        "recovery_latency_s": round(max(0.0, faulted - supervised), 4),
        "supervisor_counters": deltas,
        "overhead_under_5pct": overhead < 0.05,
        "faulted_results_identical": faulted_results == expected,
    }


def run_supervisor(args) -> int:
    out = bench_supervisor(args)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    s = out["seconds"]
    print(f"supervisor: bare {s['bare_executor']}s, "
          f"supervised {s['supervised']}s "
          f"(overhead {out['overhead_pct']:+.1f}%), "
          f"one kill {s['supervised_one_kill']}s "
          f"(recovery {out['recovery_latency_s']}s, "
          f"{out['supervisor_counters']['supervisor.restarts']} restart)")
    print(f"wrote {args.out}")
    ok = (out["overhead_under_5pct"]
          and out["faulted_results_identical"]
          and out["supervisor_counters"]["supervisor.restarts"] >= 1)
    if not ok:
        print("supervisor bench FAILED its supervision assertions",
              file=sys.stderr)
    return 0 if ok else 1


def bench_fleet(args) -> dict:
    """The fleet acceptance benchmark: timing + policy comparison."""
    from repro.fleet import (
        FleetConfig,
        FleetScenario,
        POLICY_NAMES,
        WorkloadConfig,
        results_json,
        run_scenarios,
        simulate,
    )

    fleet = FleetConfig(n_tanks=args.fleet_tanks,
                        boards_per_tank=args.fleet_boards,
                        supply_temp_c=58.0, exchange_flow_m3_s=1e-4)
    # offered load scales with the board count so the operating point
    # (utilization in the stall-prone band) survives resizing
    workload = WorkloadConfig(
        rate_per_s=0.6 * fleet.n_boards / 512.0, work_gcycles=600.0)
    scenarios = [
        FleetScenario(fleet=fleet, workload=workload, policy=policy,
                      seed=7, duration_s=args.fleet_hours * 3600.0)
        for policy in POLICY_NAMES
    ]

    sim_hours = args.fleet_hours
    policies: dict[str, dict] = {}
    serial_results = []
    for scenario in scenarios:
        best = float("inf")
        result = None
        for _ in range(max(1, args.repeat)):
            t0 = time.perf_counter()
            result = simulate(scenario)
            best = min(best, time.perf_counter() - t0)
        serial_results.append(result)
        policies[scenario.policy] = {
            "seconds": round(best, 4),
            "boards_per_s": round(fleet.n_boards * result.steps / best, 1),
            "sim_hours_per_s": round(sim_hours / best, 2),
            "throughput_gcps": round(result.throughput_gcps, 3),
            "work_per_mj": round(result.work_per_mj, 2),
            "pue": round(result.account.pue, 5),
            "total_energy_j": result.account.total_energy_j,
            "stalled_board_steps": result.stalled_board_steps,
            "throttled_board_steps": result.throttled_board_steps,
            "jobs_pending_end": result.jobs_pending_end,
        }

    t0 = time.perf_counter()
    campaign_results = run_scenarios(scenarios,
                                     workers=args.fleet_workers)
    campaign_wall = time.perf_counter() - t0
    identical = (results_json(campaign_results)
                 == results_json(serial_results))

    ta = policies["thermal-aware"]
    rr = policies["round-robin"]
    energy_close = (abs(ta["total_energy_j"] - rr["total_energy_j"])
                    <= 0.05 * rr["total_energy_j"])
    return {
        "bench": "fleet",
        "cpu_count": os.cpu_count(),
        "tanks": fleet.n_tanks,
        "boards": fleet.n_boards,
        "sim_hours": sim_hours,
        "steps": scenarios[0].n_steps,
        "policies": policies,
        "campaign": {
            "workers": args.fleet_workers,
            "scenarios": len(scenarios),
            "wall_s": round(campaign_wall, 4),
            "under_60s": campaign_wall < 60.0,
            "byte_identical_to_serial": identical,
        },
        "thermal_aware_beats_round_robin": (
            ta["throughput_gcps"] > rr["throughput_gcps"]
            and ta["work_per_mj"] > rr["work_per_mj"]),
        "energy_within_5pct": energy_close,
    }


def run_fleet(args) -> int:
    out = bench_fleet(args)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    for policy, p in out["policies"].items():
        print(f"{policy}: {p['seconds']}s "
              f"({p['sim_hours_per_s']} sim-h/s, "
              f"{p['boards_per_s']:.0f} board-steps/s), "
              f"{p['throughput_gcps']} Gc/s, "
              f"{p['work_per_mj']} Gc/MJ, "
              f"{p['stalled_board_steps']} stalled board-steps")
    c = out["campaign"]
    print(f"campaign: {c['scenarios']} scenarios on "
          f"{c['workers']} workers in {c['wall_s']}s "
          f"(byte-identical to serial: "
          f"{c['byte_identical_to_serial']})")
    print(f"wrote {args.out}")
    ok = (out["thermal_aware_beats_round_robin"]
          and out["energy_within_5pct"]
          and c["byte_identical_to_serial"]
          and c["under_60s"])
    if not ok:
        print("fleet bench FAILED its acceptance assertions",
              file=sys.stderr)
    return 0 if ok else 1


def _flatten_timings(doc: dict) -> dict[str, float]:
    """Pull the comparable timing metrics out of a bench document.

    Keys are dotted paths; only wall-clock-style metrics where *larger
    is worse* are included, so the comparison is a plain ratio. Counts,
    rates, and boolean assertions are the bench's own pass/fail
    business and stay out of the regression gate.
    """
    metrics: dict[str, float] = {}
    bench = doc.get("bench", "parallel_campaign")
    if bench in ("parallel_campaign", "response"):
        for grid, g in doc.get("grids", {}).items():
            for mode, secs in g.get("seconds", {}).items():
                metrics[f"grids.{grid}.seconds.{mode}"] = float(secs)
    elif bench == "serve":
        metrics["wall_s"] = float(doc.get("wall_s", 0.0))
        # p90 falls where cache hits give way to computed requests, so
        # it moves with how many evaluations rank below it: 1.16-1.99x
        # the checked-in baseline over 20 runs of unchanged code on a
        # shared 2-core host, 5 of them past +50%. It stays in the
        # document and out of the gate. (p50 0.79-1.07x, p99
        # 0.83-1.18x, max 0.84-1.20x, wall_s 0.85-1.15x.)
        for q, v in doc.get("latency_s", {}).items():
            if q != "p90":
                metrics[f"latency_s.{q}"] = float(v)
    elif bench == "supervisor":
        for mode, secs in doc.get("seconds", {}).items():
            metrics[f"seconds.{mode}"] = float(secs)
    elif bench == "fleet":
        for policy, p in doc.get("policies", {}).items():
            metrics[f"policies.{policy}.seconds"] = \
                float(p.get("seconds", 0.0))
        metrics["campaign.wall_s"] = float(
            doc.get("campaign", {}).get("wall_s", 0.0))
    return {k: v for k, v in metrics.items() if v > 0}


def compare_to_baseline(current: dict, baseline: dict,
                        threshold: float) -> tuple[int, list[dict]]:
    """Diff two bench documents; nonzero when a metric regressed.

    Returns ``(rc, rows)`` where each row is ``{"metric", "baseline",
    "current", "ratio", "regressed"}``. Metrics present in only one
    document are skipped (benches evolve; the gate compares what both
    runs measured). ``rc`` is 1 iff any shared metric's current/base
    ratio exceeds ``1 + threshold``.
    """
    cur = _flatten_timings(current)
    base = _flatten_timings(baseline)
    rows: list[dict] = []
    for name in sorted(set(cur) & set(base)):
        ratio = cur[name] / base[name]
        rows.append({
            "metric": name,
            "baseline": base[name],
            "current": cur[name],
            "ratio": ratio,
            "regressed": ratio > 1.0 + threshold,
        })
    return (1 if any(r["regressed"] for r in rows) else 0), rows


def _run_compare(args) -> int:
    """The --compare step: fresh result (just written) vs. baseline."""
    current = json.loads(Path(args.out).read_text())
    baseline = json.loads(Path(args.compare).read_text())
    if baseline.get("bench", "parallel_campaign") != \
            current.get("bench", "parallel_campaign"):
        print(f"compare: baseline {args.compare} is a "
              f"{baseline.get('bench')!r} bench, current is "
              f"{current.get('bench')!r} — nothing comparable",
              file=sys.stderr)
        return 0 if args.report_only else 1
    rc, rows = compare_to_baseline(current, baseline, args.threshold)
    if not rows:
        print(f"compare: no shared timing metrics with {args.compare}")
        return 0
    width = max(len(r["metric"]) for r in rows)
    print(f"compare vs {args.compare} "
          f"(threshold +{args.threshold * 100:.0f}%):")
    for r in rows:
        verdict = "REGRESSED" if r["regressed"] else "ok"
        print(f"  {r['metric']:<{width}}  "
              f"base {r['baseline']:>9.4f}s  "
              f"now {r['current']:>9.4f}s  "
              f"x{r['ratio']:.3f}  {verdict}")
    n_bad = sum(r["regressed"] for r in rows)
    if n_bad:
        print(f"compare: {n_bad}/{len(rows)} metric(s) regressed past "
              f"+{args.threshold * 100:.0f}%"
              + (" (report-only; not failing)" if args.report_only
                 else ""),
              file=sys.stderr)
    else:
        print(f"compare: all {len(rows)} shared metrics within "
              f"+{args.threshold * 100:.0f}% of baseline")
    return 0 if args.report_only else rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench",
                    choices=("parallel", "response", "serve",
                             "supervisor", "fleet"),
                    default="parallel")
    ap.add_argument("--out", default=None,
                    help="output path (default BENCH_<bench>.json)")
    ap.add_argument("--workers", type=int, nargs="*", default=[2])
    ap.add_argument("--max-chips", type=int, default=15)
    ap.add_argument("--grids", nargs="*", default=list(GRIDS),
                    choices=list(GRIDS))
    ap.add_argument("--repeat", type=int, default=1,
                    help="timed runs per mode (the minimum is kept)")
    ap.add_argument("--requests", type=int, default=200,
                    help="serve: total submissions (duplicates included)")
    ap.add_argument("--unique", type=int, default=16,
                    help="serve: distinct specs in the mix")
    ap.add_argument("--serve-workers", type=int, default=2,
                    help="serve: broker dispatcher threads")
    ap.add_argument("--client-threads", type=int, default=8,
                    help="serve: concurrent submitting clients")
    ap.add_argument("--max-queue", type=int, default=64,
                    help="serve: broker admission bound")
    ap.add_argument("--spin", type=int, default=300_000,
                    help="supervisor: busy-loop iterations per item")
    ap.add_argument("--fleet-tanks", type=int, default=16,
                    help="fleet: immersion tanks in the simulated plant")
    ap.add_argument("--fleet-boards", type=int, default=32,
                    help="fleet: boards per tank")
    ap.add_argument("--fleet-hours", type=float, default=24.0,
                    help="fleet: simulated hours per scenario")
    ap.add_argument("--fleet-workers", type=int, default=4,
                    help="fleet: campaign worker processes")
    ap.add_argument("--speedup-target", type=float, default=5.0,
                    help="response: minimum warm-vs-sparse speedup "
                         "before the bench fails")
    ap.add_argument("--compare", default=None, metavar="BASELINE.json",
                    help="after the run, diff timing metrics against "
                         "this baseline bench JSON and fail past "
                         "--threshold")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional slowdown vs. baseline "
                         "before --compare fails (0.25 = +25%%)")
    ap.add_argument("--report-only", action="store_true",
                    help="print the comparison but never fail on it")
    args = ap.parse_args(argv)
    if args.out is None:
        args.out = f"BENCH_{args.bench}.json"

    if args.bench == "serve":
        rc = run_serve(args)
    elif args.bench == "supervisor":
        rc = run_supervisor(args)
    elif args.bench == "response":
        rc = run_response(args)
    elif args.bench == "fleet":
        rc = run_fleet(args)
    else:
        out = {
            "bench": "parallel_campaign",
            "cpu_count": os.cpu_count(),
            "workers": args.workers,
            "grids": {},
        }
        warning = _cpu_warning(args.workers)
        if warning:
            out["cpu_count_warning"] = warning
            print(f"WARNING: {warning}")
        for grid in args.grids:
            out["grids"][grid] = bench_grid(
                grid, GRIDS[grid], args.max_chips, args.workers,
                args.repeat)
            g = out["grids"][grid]
            print(f"{grid} ({g['chip']}, {g['points']} points): "
                  + ", ".join(f"{k}={v:.3f}s"
                              for k, v in g["seconds"].items())
                  + f", checkpoint identical: "
                    f"{g['checkpoint_identical_to_serial']}")
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
        print(f"wrote {args.out}")
        ok = all(g["checkpoint_identical_to_serial"]
                 for g in out["grids"].values())
        rc = 0 if ok else 1

    if args.compare:
        rc = rc or _run_compare(args)
    return rc


if __name__ == "__main__":
    sys.exit(main())
