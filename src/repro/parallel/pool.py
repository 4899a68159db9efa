"""Chunked process-pool execution with deterministic result ordering.

The engine is deliberately generic: callers hand it a list of items, a
module-level function ``fn(payload, item) -> result``, and a picklable
payload; it returns one result per item *in item order*, however the
chunks were scheduled. The campaign runner and the sweep drivers build
their hot loops on it.

Three properties the rest of the system relies on:

* **Deterministic ordering** — results are collected by item index, so
  a 4-worker run and a 1-worker run produce identical output lists
  (any per-item randomness must come from seeds derived per item, see
  :mod:`repro.parallel.seeds`).
* **Chunked scheduling** — items are grouped into contiguous chunks;
  ``on_chunk`` fires as each chunk completes, which is where the
  campaign runner rewrites its checkpoint. Chunk size trades
  scheduling overhead against checkpoint granularity.
* **Worker metrics repatriation** — each chunk returns the delta of
  the worker's metrics registry, and the parent folds it into its own
  (:meth:`repro.obs.metrics.MetricsRegistry.merge_snapshot`), so
  worker-side solver counters land in campaign manifests. When the
  parent tracer is enabled, finished worker spans travel the same
  channel and are merged with :meth:`repro.obs.Tracer.adopt_spans`,
  remote-parented to the span open at submit time — one Chrome trace
  covers every contributing process.

``workers=1`` runs every chunk inline — no pool, no pickling — and is
the reference the multi-worker paths are tested bit-for-bit against.
A chunk with a deadline (``task_timeout_s``) or a process fault plan
always runs under the supervised pool, even at one worker: an inline
chunk cannot be killed.

Every chunk runs at one OpenBLAS thread per process
(:mod:`repro.parallel.blas`): pool workers set it once when they
start, and the inline engine sets it around its chunk loop and then
restores the caller's counts. The ``parallel.blas_pinned`` gauge
counts the libraries set (0 when none was found).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError
from ..obs import (counter, gauge, get_registry, get_tracer, histogram,
                   log_event, span)
from .blas import set_blas_threads

__all__ = [
    "ParallelConfig",
    "chunk_indices",
    "run_chunked",
    "snapshot_delta",
]


@dataclass(frozen=True)
class ParallelConfig:
    """How a parallel run schedules and supervises its work.

    The one pool configuration: :func:`run_chunked` reads every field,
    and :class:`~repro.parallel.supervisor.SupervisedPool` reads the
    worker count and the supervision fields.

    Attributes:
        workers: process count; 1 = inline (no pool).
        chunk_size: items per scheduled chunk (None = auto: enough
            chunks for ~4 rounds per worker, capped at 8 items so
            checkpoints stay reasonably fresh).
        supervised: run multi-worker chunks under the supervision
            tree (:mod:`repro.parallel.supervisor`) — crash/hang
            detection, restart, quarantine. ``False`` keeps the bare
            executor (bench comparison only; a worker crash then
            aborts the whole run).
        heartbeat_interval_s: worker heartbeat period (supervised).
        heartbeat_timeout_s: silence budget before a worker is
            declared hung (None disables; supervised only).
        task_timeout_s: wall-clock budget per chunk before its worker
            is killed and the chunk retried (None disables). Setting
            it runs every chunk under the supervised pool, even at one
            worker.
        max_task_crashes: crash count at which a chunk is quarantined
            as poison instead of retried.
    """

    workers: int = 1
    chunk_size: int | None = None
    supervised: bool = True
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float | None = 30.0
    task_timeout_s: float | None = None
    max_task_crashes: int = 2

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1 or None")
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError("heartbeat_interval_s must be > 0")
        if (self.heartbeat_timeout_s is not None
                and self.heartbeat_timeout_s <= self.heartbeat_interval_s):
            raise ConfigurationError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigurationError("task_timeout_s must be > 0 or None")
        if self.max_task_crashes < 1:
            raise ConfigurationError("max_task_crashes must be >= 1")

    def resolve_chunk_size(self, n_items: int) -> int:
        """The chunk size actually used for ``n_items`` items."""
        if self.chunk_size is not None:
            return self.chunk_size
        if n_items <= 0:
            return 1
        per_round = -(-n_items // (self.workers * 4))  # ceil
        return max(1, min(8, per_round))

    def context(self) -> multiprocessing.context.BaseContext:
        """The multiprocessing context for the pool: ``fork`` where
        available (cheap, and inherits imports), else the platform
        default."""
        try:
            return multiprocessing.get_context("fork")
        except ValueError:               # no fork on this platform
            return multiprocessing.get_context()


def chunk_indices(n_items: int, chunk_size: int) -> list[range]:
    """Contiguous index ranges covering ``0..n_items-1``."""
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    return [range(lo, min(lo + chunk_size, n_items))
            for lo in range(0, n_items, chunk_size)]


def snapshot_delta(before: dict[str, Any],
                   after: dict[str, Any]) -> dict[str, Any]:
    """The metrics accumulated between two registry snapshots.

    Counters and histogram bucket counts subtract element-wise;
    histogram min/max are forwarded only when the interval moved them
    (a chunk that did not change the extremum cannot be blamed for
    it). Gauges forward their latest value.
    """
    out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for name, value in after.get("counters", {}).items():
        d = value - before.get("counters", {}).get(name, 0)
        if d:
            out["counters"][name] = d
    out["gauges"] = dict(after.get("gauges", {}))
    for name, h in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(name)
        if prev is None:
            out["histograms"][name] = h
            continue
        if h["count"] == prev["count"]:
            continue
        out["histograms"][name] = {
            "edges": h["edges"],
            "counts": [a - b for a, b in zip(h["counts"], prev["counts"])],
            "count": h["count"] - prev["count"],
            "sum": h["sum"] - prev["sum"],
            "min": (h["min"] if prev["min"] is None
                    or (h["min"] is not None and h["min"] < prev["min"])
                    else None),
            "max": (h["max"] if prev["max"] is None
                    or (h["max"] is not None and h["max"] > prev["max"])
                    else None),
        }
    return out


# -- worker side -------------------------------------------------------------

_WORKER_FN: Callable[[Any, Any], Any] | None = None
_WORKER_PAYLOAD: Any = None


def _init_worker(fn: Callable[[Any, Any], Any], payload: Any) -> None:
    """Pool initializer: pin the task function and payload per process.

    Also resets the tracer a forked child inherited from its parent —
    without this a worker would repatriate copies of spans the parent
    already holds, duplicating them in the merged trace. Tracing is
    re-enabled per task when a trace context arrives with it. And it
    sets every OpenBLAS to one thread for the life of the process.
    """
    global _WORKER_FN, _WORKER_PAYLOAD
    _WORKER_FN = fn
    _WORKER_PAYLOAD = payload
    tracer = get_tracer()
    tracer.disable()
    tracer.reset()
    _one_blas_thread()


def _one_blas_thread() -> dict[str, int]:
    """Set every loaded OpenBLAS to one thread; return the counts it
    replaced."""
    prior = set_blas_threads(1)
    gauge("parallel.blas_pinned").set(len(prior))
    return prior


def _run_chunk(chunk: list[tuple[int, Any]],
               trace_ctx: dict[str, Any] | None, key: str,
               attempt: int = 0
               ) -> tuple[list[tuple[int, Any]], dict[str, Any], float,
                          list[dict[str, Any]]]:
    """Evaluate one chunk in a worker: the chunk body of both pools.

    Returns the ``(index, result)`` pairs, the worker's metrics delta,
    the wall time, and the finished span dicts (empty unless a trace
    context was shipped). With a context, the worker tracer is enabled
    for the chunk and its ``supervisor.chunk`` span is remote-parented
    to the submitting span. A task exception propagates after the
    chunk's spans are dropped.
    """
    assert _WORKER_FN is not None, "worker not initialized"
    registry = get_registry()
    tracer = get_tracer()
    tracer.enabled = trace_ctx is not None
    if trace_ctx is not None:
        tracer.set_remote_parent(trace_ctx.get("parent_id"))
    before = registry.snapshot()
    t0 = time.perf_counter()
    try:
        results = []
        with tracer.span("supervisor.chunk", key=key, items=len(chunk),
                         attempt=attempt):
            for idx, item in chunk:
                with tracer.span("worker.point", index=idx):
                    results.append((idx, _WORKER_FN(_WORKER_PAYLOAD, item)))
        wall = time.perf_counter() - t0
        spans = tracer.drain_span_dicts() if trace_ctx is not None else []
    except BaseException:
        tracer.drain_span_dicts()         # drop the failed chunk's spans
        raise
    finally:
        tracer.set_remote_parent(None)
    return results, snapshot_delta(before, registry.snapshot()), wall, spans


def _adopt_chunk(delta: dict[str, Any], spans: list[dict[str, Any]]) -> None:
    """Fold a finished chunk's worker metrics delta and spans into this
    process's registry and tracer."""
    get_registry().merge_snapshot(delta)
    if spans:
        get_tracer().adopt_spans(spans)
        counter("trace.spans_repatriated").inc(len(spans))


# -- parent side -------------------------------------------------------------

def run_chunked(items: Sequence[Any],
                fn: Callable[[Any, Any], Any],
                payload: Any, *,
                config: ParallelConfig | None = None,
                on_chunk: Callable[[list[tuple[int, Any]]], None] | None
                = None,
                fault_plan=None) -> list[Any]:
    """Evaluate ``fn(payload, item)`` for every item, possibly in a pool.

    Args:
        items: the work list; results come back in this order.
        fn: module-level (picklable) task function.
        payload: shared picklable context handed to every call.
        config: worker/chunking configuration (None = inline).
        on_chunk: called after each chunk completes with its
            ``[(index, result), ...]`` (in-chunk order). Chunks may
            complete out of order under ``workers > 1``; callers
            needing deterministic *aggregate* state must rebuild it
            from accumulated results keyed by index (the campaign
            runner rebuilds its checkpoint this way).
        fault_plan: optional
            :class:`~repro.resilience.faults.ProcessFaultPlan`
            executed inside supervised workers (chaos testing). Like a
            chunk deadline (``config.task_timeout_s``), it forces the
            supervised pool path even at ``workers == 1``.

    Returns:
        ``[fn(payload, item) for item in items]`` — same values, any
        scheduling. Items of a quarantined chunk (crashed its worker
        past the threshold) come back as
        :class:`~repro.parallel.supervisor.Poisoned` markers instead
        of results; callers that never see crashes never see them.
    """
    cfg = config if config is not None else ParallelConfig()
    n = len(items)
    if n == 0:
        return []
    chunk_size = cfg.resolve_chunk_size(n)
    chunks = [[(i, items[i]) for i in r]
              for r in chunk_indices(n, chunk_size)]
    results: dict[int, Any] = {}
    with span("parallel.run", items=n, workers=cfg.workers,
              chunks=len(chunks), chunk_size=chunk_size):
        # an inline chunk cannot be killed or crashed on purpose
        must_supervise = (fault_plan is not None
                          or cfg.task_timeout_s is not None)
        if cfg.workers == 1 and not must_supervise:
            prior = _one_blas_thread()
            try:
                for chunk in chunks:
                    t0 = time.perf_counter()
                    done = [(idx, fn(payload, item)) for idx, item in chunk]
                    _note_chunk(done, time.perf_counter() - t0, inline=True)
                    results.update(done)
                    if on_chunk is not None:
                        on_chunk(done)
            finally:
                set_blas_threads(prior)
        elif cfg.supervised or must_supervise:
            _run_supervised(chunks, fn, payload, cfg, results,
                            on_chunk, fault_plan)
        else:
            _run_pool(chunks, fn, payload, cfg, results, on_chunk)
    return [results[i] for i in range(n)]


def _note_chunk(done: list[tuple[int, Any]], wall: float, *,
                inline: bool) -> None:
    counter("parallel.chunks_completed").inc()
    counter("parallel.items_completed").inc(len(done))
    histogram("parallel.chunk_size").observe(len(done))
    histogram("parallel.chunk_seconds").observe(wall)
    log_event("parallel_chunk", items=len(done),
              wall_ms=round(wall * 1e3, 3), inline=inline)


def _chunk_key(chunk: list[tuple[int, Any]]) -> str:
    """Stable task key for a chunk — depends only on item indices, so
    fault plans fire identically at any worker count."""
    return f"chunk/{chunk[0][0]}-{chunk[-1][0]}"


def _run_supervised(chunks, fn, payload, cfg: ParallelConfig,
                    results: dict[int, Any], on_chunk,
                    fault_plan) -> None:
    from .supervisor import Poisoned, SupervisedPool
    from ..errors import WorkerCrashError
    with SupervisedPool(fn, payload, cfg, fault_plan=fault_plan) as pool:
        futures = {pool.submit(chunk, key=_chunk_key(chunk)): chunk
                   for chunk in chunks}
        for fut, chunk in futures.items():
            try:
                done, wall = fut.result()
            except WorkerCrashError as exc:
                done = [(idx, Poisoned(key=exc.task_key,
                                       crashes=exc.crashes,
                                       reason=exc.reason))
                        for idx, _ in chunk]
                wall = 0.0
            with span("parallel.chunk_merge", items=len(done)):
                _note_chunk(done, wall, inline=False)
                results.update(done)
                if on_chunk is not None:
                    on_chunk(done)


def _run_pool(chunks, fn, payload, cfg: ParallelConfig,
              results: dict[int, Any],
              on_chunk) -> None:
    trace_ctx = get_tracer().propagation_context()
    with ProcessPoolExecutor(max_workers=cfg.workers,
                             mp_context=cfg.context(),
                             initializer=_init_worker,
                             initargs=(fn, payload)) as pool:
        pending = {pool.submit(_run_chunk, chunk, trace_ctx,
                               _chunk_key(chunk))
                   for chunk in chunks}
        while pending:
            finished, pending = wait(pending,
                                     return_when=FIRST_COMPLETED)
            for fut in finished:
                done, metrics_delta, wall, spans = fut.result()
                with span("parallel.chunk_merge", items=len(done)):
                    _adopt_chunk(metrics_delta, spans)
                    _note_chunk(done, wall, inline=False)
                    results.update(done)
                    if on_chunk is not None:
                        on_chunk(done)
