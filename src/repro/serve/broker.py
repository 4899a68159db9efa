"""The request broker: priority queue, coalescing, admission control.

One :class:`Broker` turns the repo's batch pipeline into an online,
multi-tenant service. The contract, in submission order:

1. **Cache** — a spec whose config hash has a live entry in the
   bounded TTL :class:`~repro.serve.cache.ResultCache` is answered
   immediately with the cached outcome (no queue slot consumed).
2. **Coalesce** — a spec whose hash is already queued or running
   attaches to that job; every attached submitter receives the
   *identical* outcome object, and the computation runs exactly once.
3. **Admit or shed** — otherwise the request needs a queue slot; past
   ``max_queue`` the broker sheds it with a structured
   :class:`~repro.errors.OverloadedError` instead of queueing
   unboundedly. In-flight work is bounded by the dispatcher count.
4. **Schedule** — admitted jobs wait in a priority heap (lower
   ``priority`` first, FIFO within a class). A job whose queue wait
   exceeds its deadline is expired with
   :class:`~repro.errors.DeadlineExceededError` when it surfaces.
5. **Evaluate** — dispatcher threads run jobs through the resilient
   runner (:mod:`repro.serve.runner`), inline or on a persistent
   :class:`~repro.parallel.SupervisedPool` of processes; worker faults
   retry/degrade per :mod:`repro.resilience` and a failed job fails
   alone — the broker keeps serving.
6. **Drain** — shutdown stops admissions, finishes queued and
   in-flight work (or cancels the queue with ``drain=False``), closes
   the pool, and can persist a run manifest embedding the serve and
   cache statistics.

Every decision increments a ``serve.*`` instrument in the metrics
registry, so a load test can *prove* coalescing and caching happened
(see ``docs/serving.md``).
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable

from ..config import ExperimentSpec, require_finite
from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    PoolClosedError,
    ServeError,
    WorkerCrashError,
)
from ..obs import (
    SloAggregator,
    build_manifest,
    counter,
    gauge,
    get_registry,
    histogram,
    log_event,
    span,
    write_manifest,
)
from ..resilience import ResilienceOptions
from .cache import ResultCache
from .request import Job, JobState, ServeRequest
from .runner import PoolPayload, SpecOutcome, pool_task, \
    run_fleet_resilient, run_spec_resilient

__all__ = ["Broker", "BrokerConfig"]

#: How many terminal jobs stay addressable by id after completion.
_RETAINED_JOBS = 1024


def _is_fleet(spec: Any) -> bool:
    """Whether a request is a fleet scenario (routed on the wire tag,
    no :mod:`repro.fleet` import needed)."""
    return getattr(spec, "kind", None) == "fleet"


@dataclass(frozen=True)
class BrokerConfig:
    """Serving knobs (tuning guidance in ``docs/serving.md``).

    Attributes:
        workers: dispatcher threads; also the in-flight bound.
        max_queue: admitted-but-not-running bound; the admission
            controller sheds past it.
        cache_capacity: result-cache entries.
        cache_ttl_s: result-cache time-to-live (None = no expiry).
        use_processes: evaluate on a persistent
            :class:`~repro.parallel.SupervisedPool` of ``workers``
            processes instead of in the dispatcher threads. Same
            results either way; processes buy CPU parallelism at
            pickling cost.
        default_deadline_s: deadline applied to requests that do not
            set one (None = no default).
        slo_window_s: rolling window for the live SLO aggregates
            (p50/p99 per stage, error/shed rates) surfaced by
            :meth:`Broker.stats` and the ``/metrics`` endpoint.
    """

    workers: int = 2
    max_queue: int = 64
    cache_capacity: int = 256
    cache_ttl_s: float | None = None
    use_processes: bool = False
    default_deadline_s: float | None = None
    slo_window_s: float = 60.0

    def __post_init__(self) -> None:
        require_finite(self, "broker config")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if self.slo_window_s <= 0:
            raise ConfigurationError("slo_window_s must be > 0")

    def to_dict(self) -> dict:
        """JSON-ready form (embedded in the shutdown manifest)."""
        return asdict(self)


class Broker:
    """In-process job-serving layer over the experiment pipeline.

    Args:
        config: serving knobs (None = :class:`BrokerConfig` defaults).
        resilience: retry / degradation options for evaluations.
        runner: evaluation override ``spec -> SpecOutcome`` (tests,
            custom pipelines). Ignored when ``use_processes`` is set —
            the pool schedules the module-level resilient runner.
        clock: monotonic time source (injectable for deadline tests).
    """

    def __init__(self, config: BrokerConfig | None = None, *,
                 resilience: ResilienceOptions | None = None,
                 runner: Callable[[ExperimentSpec], SpecOutcome]
                 | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config if config is not None else BrokerConfig()
        self.resilience = (resilience if resilience is not None
                           else ResilienceOptions())
        self._runner = runner
        self._clock = clock
        self._cv = threading.Condition()
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = 0
        self._active: dict[str, Job] = {}   # hash -> queued/running job
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight = 0
        self._closed = False
        self._joined = False
        self._started_at = self._clock()
        self.slo = SloAggregator(self.config.slo_window_s, clock=clock)
        self.cache = ResultCache(self.config.cache_capacity,
                                 self.config.cache_ttl_s, clock=clock)
        self._pool = None
        self._pool_lock = threading.Lock()
        if self.config.use_processes:
            self._pool = self._make_pool()
        self._threads = [
            threading.Thread(target=self._dispatch_loop,
                             name=f"serve-dispatch-{i}", daemon=True)
            for i in range(self.config.workers)
        ]
        for t in self._threads:
            t.start()

    def _make_pool(self):
        """Build the persistent (supervised) evaluation pool."""
        from ..parallel import ParallelConfig, SupervisedPool
        return SupervisedPool(
            pool_task,
            PoolPayload(retry_policy=self.resilience.retry_policy,
                        allow_degraded=self.resilience.allow_degraded),
            ParallelConfig(workers=self.config.workers))

    def _pool_submit(self, item):
        """Submit one item to the pool as the one-item chunk
        ``[(0, item)]``, transparently rebuilding a dead pool.

        The supervised pool survives worker crashes on its own; the
        only way it refuses work is after ``close()`` (shutdown race,
        or an operator recycling it out of band). One rebuild attempt
        keeps the broker serving through that; a second refusal is a
        real shutdown and propagates.
        """
        chunk = [(0, item)]
        with self._pool_lock:
            try:
                return self._pool.submit(chunk)
            except PoolClosedError:
                if self._closed:
                    raise
                counter("serve.pool_rebuilds").inc()
                log_event("serve_pool_rebuilt",
                          workers=self.config.workers, level=0)
                self._pool = self._make_pool()
                return self._pool.submit(chunk)

    # -- submission ---------------------------------------------------------

    def submit(self, spec: ExperimentSpec | dict, *,
               priority: int = 0, deadline_s: float | None = None,
               label: str = "") -> Job:
        """Admit one request; returns its (possibly shared) job.

        Accepts experiment specs and fleet scenarios alike: a dict
        tagged ``"kind": "fleet"`` (or a
        :class:`~repro.fleet.model.FleetScenario`) is routed to the
        fleet simulator and gets the same cache / coalesce / shed
        treatment, keyed by the same canonical config hash.

        Raises:
            OverloadedError: the queue is full (structured shed).
            ServeError: the broker is shut down.
            ConfigurationError: the spec dict is invalid.
        """
        if isinstance(spec, dict):
            if spec.get("kind") == "fleet":
                from ..fleet.model import FleetScenario
                spec = FleetScenario.from_dict(spec)
            else:
                spec = ExperimentSpec.from_dict(spec)
        if _is_fleet(spec):
            counter("fleet.requests_total").inc()
            self.slo.record("fleet_request")
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        request = ServeRequest(spec=spec, priority=priority,
                               deadline_s=deadline_s, label=label)
        key = request.key       # hashed once at construction
        now = self._clock()
        with self._cv, span("serve.submit", key=key, priority=priority):
            if self._closed:
                raise ServeError("broker is shut down")
            counter("serve.requests_total").inc()
            self.slo.record("request")

            cached = self.cache.get(key)
            if cached is not None:
                job = Job(request, key=key, submitted_at=now)
                job.finish(cached, now, from_cache=True)
                self._remember(job)
                self.slo.record("cache_hit")
                log_event("serve_cache_hit", key=key, job_id=job.id)
                return job

            active = self._active.get(key)
            if active is not None:
                active.attached += 1
                counter("serve.coalesced_total").inc()
                self.slo.record("coalesced")
                log_event("serve_coalesced", key=key, job_id=active.id,
                          attached=active.attached)
                return active

            if len(self._heap) >= self.config.max_queue:
                counter("serve.shed_total").inc()
                self.slo.record("shed")
                log_event("serve_shed", key=key,
                          queued=len(self._heap),
                          in_flight=self._inflight)
                raise OverloadedError(
                    f"queue full ({len(self._heap)} queued, "
                    f"{self._inflight} in flight, "
                    f"limit {self.config.max_queue})",
                    queued=len(self._heap),
                    in_flight=self._inflight,
                    limit=self.config.max_queue)

            job = Job(request, key=key, submitted_at=now)
            self._seq += 1
            heapq.heappush(self._heap, (priority, self._seq, job))
            self._active[key] = job
            self._remember(job)
            gauge("serve.queue_depth").set(len(self._heap))
            self._cv.notify()
            return job

    def _remember(self, job: Job) -> None:
        """Keep the job addressable by id, retiring the oldest."""
        self._jobs[job.id] = job
        while len(self._jobs) > _RETAINED_JOBS:
            _, old = self._jobs.popitem(last=False)
            if not old.done:          # never retire a live job
                self._jobs[old.id] = old
                self._jobs.move_to_end(old.id, last=False)
                break

    def job(self, job_id: str) -> Job:
        """Look up a job by id.

        Raises:
            ServeError: unknown (or already-retired) job id.
        """
        with self._cv:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServeError(
                    f"unknown job id {job_id!r}") from None

    # -- dispatch -----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cv:
                while not self._heap and not self._closed:
                    self._cv.wait()
                if not self._heap:
                    return            # closed and drained
                _, _, job = heapq.heappop(self._heap)
                gauge("serve.queue_depth").set(len(self._heap))
                now = self._clock()
                waited = now - job.submitted_at
                deadline = job.request.deadline_s
                if deadline is not None and waited > deadline:
                    self._active.pop(job.key, None)
                    counter("serve.expired_total").inc()
                    self.slo.record("expired")
                    self._cv.notify_all()
                    expired = True
                else:
                    self._inflight += 1
                    gauge("serve.inflight").set(self._inflight)
                    expired = False
            if expired:
                job.fail(DeadlineExceededError(
                    f"waited {waited:.3f} s past the {deadline:g} s "
                    f"deadline", deadline_s=deadline, waited_s=waited),
                    now, state=JobState.EXPIRED)
                log_event("serve_expired", job_id=job.id, key=job.key,
                          waited_s=round(waited, 6))
                continue
            histogram("serve.wait_seconds").observe(waited)
            self.slo.observe("wait", waited)
            job.mark_running(now)
            self._evaluate(job)

    def _evaluate(self, job: Job) -> None:
        t0 = self._clock()
        try:
            with span("serve.request", key=job.key, job_id=job.id):
                # the dispatch span is the remote parent worker spans
                # graft onto in process mode (the pool submit happens
                # while it is the innermost open span of this thread)
                with span("broker.dispatch", key=job.key,
                          pooled=self._pool is not None):
                    if self._pool is not None:
                        done, wall = self._pool_submit(
                            job.request.spec.to_dict()).result()
                        histogram("parallel.item_seconds").observe(wall)
                        outcome = done[0][1]
                    elif self._runner is not None:
                        outcome = self._runner(job.request.spec)
                    elif _is_fleet(job.request.spec):
                        outcome = run_fleet_resilient(job.request.spec,
                                                      self.resilience)
                    else:
                        outcome = run_spec_resilient(job.request.spec,
                                                     self.resilience)
        except BaseException as exc:
            with self._cv:
                self._inflight -= 1
                gauge("serve.inflight").set(self._inflight)
                self._active.pop(job.key, None)
                self._cv.notify_all()
            counter("serve.failed_total").inc()
            self.slo.record("error")
            if isinstance(exc, WorkerCrashError):
                counter("serve.worker_crashes").inc()
                self.slo.record("worker_crash")
            job.fail(exc, self._clock())
            log_event("serve_failed", job_id=job.id, key=job.key,
                      error=type(exc).__name__, message=str(exc))
            return
        now = self._clock()
        with self._cv:
            self._inflight -= 1
            gauge("serve.inflight").set(self._inflight)
            self._active.pop(job.key, None)
            self.cache.put(job.key, outcome)
            self._cv.notify_all()
        counter("serve.completed_total").inc()
        self.slo.record("completed")
        if _is_fleet(job.request.spec):
            counter("fleet.completed_total").inc()
            histogram("fleet.run_seconds").observe(now - t0)
            self.slo.record("fleet_completed")
            self.slo.observe("fleet_run", now - t0)
        if getattr(outcome, "degraded", False):
            counter("serve.degraded_total").inc()
        histogram("serve.run_seconds").observe(now - t0)
        histogram("serve.latency_seconds").observe(
            now - job.submitted_at)
        self.slo.observe("run", now - t0)
        self.slo.observe("latency", now - job.submitted_at)
        job.finish(outcome, now)
        log_event("serve_done", job_id=job.id, key=job.key,
                  attached=job.attached,
                  run_ms=round((now - t0) * 1e3, 3))

    # -- lifecycle ----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until the queue is empty and nothing is in flight."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cv:
            while self._heap or self._inflight:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(timeout=remaining)
        return True

    def shutdown(self, *, drain: bool = True,
                 manifest_path: Any = None,
                 timeout: float | None = None) -> dict[str, Any]:
        """Stop admissions, settle outstanding work, release resources.

        Args:
            drain: finish queued and in-flight jobs first; ``False``
                cancels queued jobs (each fails with a
                :class:`~repro.errors.ServeError`) and only waits for
                in-flight ones.
            manifest_path: when set, write a run manifest there with
                the serve/cache statistics embedded (see
                :mod:`repro.obs.manifest`).
            timeout: drain budget; on expiry remaining queued jobs are
                cancelled rather than abandoned.

        Returns:
            The final :meth:`stats` snapshot (idempotent on repeat
            calls).
        """
        with self._cv:
            already = self._joined
            self._closed = True
            if not drain:
                self._cancel_queued_locked()
            self._cv.notify_all()
        if already:
            return self.stats()
        if drain and not self.drain(timeout):
            with self._cv:
                self._cancel_queued_locked()
                self._cv.notify_all()
        for t in self._threads:
            t.join()
        if self._pool is not None:
            self._pool.close()
        self._joined = True
        stats = self.stats()
        log_event("serve_shutdown", **{
            k: v for k, v in stats.items() if isinstance(v, (int, float))})
        if manifest_path is not None:
            manifest = build_manifest(
                name="serve",
                config=self.config.to_dict(),
                seed=(self.resilience.retry_policy.seed
                      if self.resilience.retry_policy else None),
                metrics=get_registry().snapshot(),
                wall_time_s=self._clock() - self._started_at,
                extra={"serve_stats": stats},
            )
            write_manifest(manifest, manifest_path)
        return stats

    def _cancel_queued_locked(self) -> None:
        """Fail every still-queued job (caller holds the lock)."""
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            self._active.pop(job.key, None)
            counter("serve.cancelled_total").inc()
            self.slo.record("cancelled")
            job.fail(ServeError("cancelled at shutdown"), self._clock(),
                     state=JobState.CANCELLED)
        gauge("serve.queue_depth").set(0)

    def stats(self) -> dict[str, Any]:
        """Current serve-layer statistics (JSON-ready).

        Besides the lifetime counters this includes the rolling-window
        ``"slo"`` summary (:class:`~repro.obs.SloAggregator`), whose
        stage percentiles and event rates are also mirrored into
        ``serve.slo.*`` gauges here — so a ``/metrics`` scrape (which
        calls :meth:`stats` first) exposes them to Prometheus.
        """
        reg = get_registry()
        with self._cv:
            queued, inflight = len(self._heap), self._inflight
        def _c(name: str) -> int:
            return reg.counter(name).value
        slo = self.slo.summary()
        for stage, agg in slo["stages"].items():
            gauge(f"serve.slo.{stage}_p50").set(agg["p50"])
            gauge(f"serve.slo.{stage}_p99").set(agg["p99"])
        for event, agg in slo["events"].items():
            gauge(f"serve.slo.{event}_per_s").set(agg["per_s"])
        return {
            "queued": queued,
            "in_flight": inflight,
            "closed": self._closed,
            "uptime_s": self._clock() - self._started_at,
            "requests_total": _c("serve.requests_total"),
            "completed_total": _c("serve.completed_total"),
            "failed_total": _c("serve.failed_total"),
            "coalesced_total": _c("serve.coalesced_total"),
            "shed_total": _c("serve.shed_total"),
            "expired_total": _c("serve.expired_total"),
            "cancelled_total": _c("serve.cancelled_total"),
            "degraded_total": _c("serve.degraded_total"),
            "worker_crashes_total": _c("serve.worker_crashes"),
            "pool_rebuilds_total": _c("serve.pool_rebuilds"),
            "slo": slo,
            "cache": self.cache.stats(),
        }

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown(drain=True)
