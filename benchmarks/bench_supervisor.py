"""Supervised pool overhead and crash-recovery latency.

The supervision tree (:mod:`repro.parallel.supervisor`) buys crash and
hang recovery by adding per-worker heartbeats, a monitor thread, and a
message protocol on top of raw process pools. This bench pins down the
two numbers that trade-off turns on:

* **overhead** — the same no-fault chunked map through the supervised
  pool (``ParallelConfig(supervised=True)``, the default everywhere)
  vs the retained bare ``ProcessPoolExecutor`` path
  (``supervised=False``). Both run the same worker chunk body, so the
  two differ only in supervision. The acceptance bar is < 5%
  supervision overhead on a CPU-bound workload;
* **recovery latency** — extra wall-clock a run pays when a worker is
  SIGKILLed once mid-chunk (``worker_kill`` with ``max_fires=1``): the
  supervisor must notice the death, restart the worker after backoff,
  and replay the chunk.

``scripts/bench_to_json.py --bench supervisor`` measures the same two
quantities and emits ``BENCH_supervisor.json`` for the CI artifact
trail, failing the build if the overhead bar is missed.
"""

from __future__ import annotations

import time

from repro.parallel import ParallelConfig, run_chunked
from repro.resilience.faults import FaultSpec, ProcessFaultPlan

#: Busy-loop iterations per item — roughly 10-20 ms of pure-python
#: work, so per-chunk supervision costs are measured against a real
#: compute grain, not against an empty message round-trip.
SPIN = 300_000
ITEMS = list(range(24))
REPEAT = 3


def _spin(payload: int, item: int) -> int:
    """Deterministic CPU-bound unit of work (module-level: picklable)."""
    acc = item & 0xFFFFFFFF
    for _ in range(payload):
        acc = (acc * 1664525 + 1013904223) & 0xFFFFFFFF
    return acc


def _config(*, supervised: bool) -> ParallelConfig:
    return ParallelConfig(workers=2, chunk_size=2, supervised=supervised,
                          heartbeat_interval_s=0.2)


def run_map(*, supervised: bool, fault_plan=None):
    """One chunked map (the timed unit)."""
    return run_chunked(ITEMS, _spin, SPIN,
                       config=_config(supervised=True) if supervised
                       else _config(supervised=False),
                       fault_plan=fault_plan)


def _best_of(fn, repeat: int = REPEAT) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


EXPECTED = [_spin(SPIN, i) for i in ITEMS]


def test_supervised_map(benchmark):
    results = benchmark(run_map, supervised=True)
    assert results == EXPECTED


def test_bare_executor_map(benchmark):
    results = benchmark(run_map, supervised=False)
    assert results == EXPECTED


def test_supervision_overhead_under_5pct(save_artifact):
    """The acceptance bar: heartbeats + monitor cost < 5% with no faults."""
    bare = _best_of(lambda: run_map(supervised=False))
    supervised = _best_of(lambda: run_map(supervised=True))
    overhead = supervised / bare - 1.0
    save_artifact(
        "supervisor_overhead",
        f"supervised {supervised:.3f}s vs bare executor {bare:.3f}s "
        f"({len(ITEMS)} items, 2 workers, min of {REPEAT}): "
        f"overhead {overhead * 100:+.1f}%")
    assert overhead < 0.05, (
        f"supervision overhead {overhead * 100:.1f}% exceeds the 5% bar")


#: At ``probability=0.1, seed=31`` the stateless fault plan fires on
#: exactly one of this workload's twelve chunk keys (``chunk/0-1``,
#: first attempt only), so the run pays for exactly one SIGKILL.
KILL_ONE = ProcessFaultPlan(
    specs=(FaultSpec("worker_kill", probability=0.1, max_fires=1),),
    seed=31)


def test_recovery_latency_after_kill(save_artifact):
    """Wall-clock cost of one SIGKILL: detect, restart, replay."""
    clean = _best_of(lambda: run_map(supervised=True))
    t0 = time.perf_counter()
    results = run_map(supervised=True, fault_plan=KILL_ONE)
    faulted = time.perf_counter() - t0
    recovery = max(0.0, faulted - clean)
    save_artifact(
        "supervisor_recovery",
        f"no-fault {clean:.3f}s vs one worker_kill mid-chunk "
        f"{faulted:.3f}s: recovery latency {recovery:.3f}s")
    # One transient crash: the chunk's replay succeeds, so results
    # must be byte-identical to the clean run -- never poisoned.
    assert results == EXPECTED
