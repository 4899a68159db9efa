"""Requests, jobs, and the config hash that keys the serving layer.

A *request* is an :class:`~repro.config.ExperimentSpec` plus serving
metadata (priority, deadline). A *job* is the broker's handle for one
computation: submissions whose specs hash identically coalesce onto a
single job, every attached client reads the identical result object,
and the job's event log is what :meth:`~repro.serve.client.ServeClient.
stream_progress` streams.

The hash reuses the manifest hashing from :mod:`repro.obs.manifest`
(SHA-256 over canonical JSON) after numeric normalization, so two
ways of writing the *same* experiment — permuted key order,
``"threshold_c": 80`` vs ``80.0`` — key the same cache entry and
coalesce onto the same computation. (An int field written as a float,
``"n_chips": 6.0``, is refused by :meth:`ExperimentSpec.from_dict`
before it is hashed.)
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Iterator

from ..config import ExperimentSpec, require_finite
from ..errors import ConfigurationError
from ..obs import canonical_config, config_hash

__all__ = [
    "Job",
    "JobState",
    "ServeRequest",
    "canonical_spec_dict",
    "spec_hash",
]


def canonical_spec_dict(value: Any) -> Any:
    """Recursively normalize a JSON-ish config for hashing.

    Delegates to :func:`repro.obs.canonical_config`, the normalization
    run manifests hash through. Kept as a re-export
    because the serving layer's public API grew up around this name.
    """
    return canonical_config(value)


def spec_hash(spec: ExperimentSpec | Any) -> str:
    """SHA-256 config hash of a request (the cache / coalescing key).

    Any object with a ``to_dict()`` wire form hashes — experiment
    specs and fleet scenarios alike — as does a raw dict.
    """
    d = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
    return config_hash(canonical_spec_dict(d))


@dataclass(frozen=True)
class ServeRequest:
    """One submission: the experiment plus its serving metadata.

    Attributes:
        spec: the computation to run — an
            :class:`~repro.config.ExperimentSpec` or a
            :class:`~repro.fleet.model.FleetScenario`.
        priority: scheduling class; *lower runs first* (0 = normal).
        deadline_s: max seconds the request may wait in the queue
            before the broker expires it (None = no deadline).
        label: free-form client tag carried into job events.
        key: the request's config hash — computed exactly once at
            construction (specs are frozen, so the hash cannot drift)
            and threaded through coalescing, the result cache, and job
            ids instead of re-normalizing the spec per lookup.
    """

    spec: Any
    priority: int = 0
    deadline_s: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        require_finite(self, "serve request")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ConfigurationError("deadline_s must be >= 0 or None")
        object.__setattr__(self, "key", spec_hash(self.spec))


class JobState:
    """Lifecycle states of a :class:`Job` (plain strings, JSON-ready)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    EXPIRED = "expired"
    CANCELLED = "cancelled"

    TERMINAL = (DONE, FAILED, EXPIRED, CANCELLED)


_JOB_SEQ = itertools.count(1)


class Job:
    """One computation the broker owns; possibly many submitters.

    Thread-safe: the broker's dispatcher transitions the state, any
    number of client threads :meth:`wait` on it or iterate
    :meth:`events_since`. Coalesced submissions share one ``Job``, so
    every waiter receives the *identical* outcome object.
    """

    def __init__(self, request: ServeRequest, *, key: str,
                 submitted_at: float) -> None:
        self.id = f"j{next(_JOB_SEQ):06d}-{key[:12]}"
        self.request = request
        self.key = key
        self.submitted_at = submitted_at
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.attached = 1           # submissions sharing this job
        self.from_cache = False
        self.state = JobState.QUEUED
        self.outcome: Any = None    # SpecOutcome once DONE
        self.error: BaseException | None = None
        self.cv = threading.Condition()
        self.events: list[dict[str, Any]] = []
        self._note(JobState.QUEUED, submitted_at)

    # -- transitions (broker side) ------------------------------------------

    def _note(self, event: str, t: float, **attrs: Any) -> None:
        entry = {"event": event, "t_s": round(t - self.submitted_at, 6),
                 "job_id": self.id}
        if self.request.label:
            entry["label"] = self.request.label
        entry.update(attrs)
        self.events.append(entry)

    def mark_running(self, now: float) -> None:
        """QUEUED -> RUNNING."""
        with self.cv:
            self.started_at = now
            self.state = JobState.RUNNING
            self._note(JobState.RUNNING, now)
            self.cv.notify_all()

    def finish(self, outcome: Any, now: float, *,
               from_cache: bool = False) -> None:
        """-> DONE with the computation's outcome."""
        with self.cv:
            self.outcome = outcome
            self.finished_at = now
            self.from_cache = from_cache
            self.state = JobState.DONE
            self._note(JobState.DONE, now, from_cache=from_cache)
            self.cv.notify_all()

    def fail(self, exc: BaseException, now: float, *,
             state: str = JobState.FAILED) -> None:
        """-> FAILED / EXPIRED / CANCELLED with the offending error."""
        with self.cv:
            self.error = exc
            self.finished_at = now
            self.state = state
            self._note(state, now, error=type(exc).__name__,
                       message=str(exc))
            self.cv.notify_all()

    # -- client side --------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the job reached any terminal state."""
        return self.state in JobState.TERMINAL

    def wait(self, timeout: float | None = None) -> Any:
        """Block until terminal; return the outcome or raise the error.

        Raises:
            TimeoutError: the job is still pending after ``timeout``.
            The job's recorded exception for FAILED/EXPIRED/CANCELLED.
        """
        with self.cv:
            if not self.cv.wait_for(lambda: self.done, timeout=timeout):
                raise TimeoutError(
                    f"job {self.id} still {self.state} after "
                    f"{timeout:g} s")
            if self.error is not None:
                raise self.error
            return self.outcome

    def events_since(self, index: int) -> list[dict[str, Any]]:
        """Snapshot of events from ``index`` on (for progress streams)."""
        with self.cv:
            return list(self.events[index:])

    def stream(self, *, timeout: float | None = None,
               poll_s: float = 0.05) -> Iterator[dict[str, Any]]:
        """Yield lifecycle events as they happen, ending at terminal.

        Args:
            timeout: overall budget; ``TimeoutError`` when the job is
                still pending after it elapses.
            poll_s: condition-wait granularity between event batches.
        """
        import time as _time
        seen = 0
        t0 = _time.monotonic()
        while True:
            batch = self.events_since(seen)
            seen += len(batch)
            yield from batch
            if self.done and not self.events_since(seen):
                return
            if timeout is not None and _time.monotonic() - t0 > timeout:
                raise TimeoutError(
                    f"job {self.id} still {self.state} after "
                    f"{timeout:g} s")
            with self.cv:
                self.cv.wait(timeout=poll_s)

    def describe(self) -> dict[str, Any]:
        """JSON-ready status summary (the HTTP /status payload)."""
        with self.cv:
            out: dict[str, Any] = {
                "job_id": self.id,
                "config_hash": self.key,
                "state": self.state,
                "priority": self.request.priority,
                "attached": self.attached,
                "from_cache": self.from_cache,
                "events": list(self.events),
            }
            if self.error is not None:
                out["error"] = type(self.error).__name__
                out["message"] = str(self.error)
            return out
