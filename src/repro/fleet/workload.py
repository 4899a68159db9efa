"""Workload arrival processes for the fleet simulator.

Jobs arrive either from a seeded Poisson process (``kind="rate"``) or
from an explicit trace (``kind="trace"``). Either way the arrival list
is generated *up front* as a deterministic function of
``(workload, seed, duration)`` — the simulator never draws randomness
mid-run, which is what keeps the event stream a pure function of the
scenario (see :mod:`repro.fleet.events`).

Seeding follows the campaign convention: the per-scenario stream is
``random.Random(derive_seed(seed, "fleet.arrivals"))``
(:func:`repro.parallel.derive_seed` — SHA-256, so nearby integer seeds
give unrelated streams and the stream is stable across platforms and
worker counts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..config import require_finite
from ..errors import ConfigurationError
from ..parallel import derive_seed

__all__ = ["FleetJob", "WorkloadConfig", "generate_arrivals"]

_KINDS = ("rate", "trace")


@dataclass(frozen=True)
class FleetJob:
    """One unit of work submitted to the fleet.

    Attributes:
        job_id: dense index in arrival order (the log's job key).
        time_us: arrival time, integer microseconds.
        work_gcycles: cycles the job needs, in units of 10^9 (a board
            running at f GHz retires f Gcycles per second per slot).
    """

    job_id: int
    time_us: int
    work_gcycles: float

    def __post_init__(self) -> None:
        if self.work_gcycles <= 0:
            raise ConfigurationError(
                f"job {self.job_id}: work must be positive, got "
                f"{self.work_gcycles}")


@dataclass(frozen=True)
class WorkloadConfig:
    """Arrival-process description.

    Attributes:
        kind: ``"rate"`` (seeded Poisson) or ``"trace"`` (explicit).
        rate_per_s: mean arrivals per second (rate kind).
        work_gcycles: mean job length in Gcycles (rate kind).
        work_jitter: uniform fractional spread around the mean job
            length, in [0, 1) — 0.5 means lengths in [0.5x, 1.5x].
        max_jobs: optional cap on generated arrivals (rate kind).
        trace: ``((time_s, work_gcycles), ...)`` explicit arrivals
            (trace kind); times must be non-decreasing.
    """

    kind: str = "rate"
    rate_per_s: float = 0.5
    work_gcycles: float = 600.0
    work_jitter: float = 0.5
    max_jobs: int | None = None
    trace: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        require_finite(self, "workload")
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"workload kind must be one of {_KINDS}, got "
                f"{self.kind!r}")
        if self.kind == "rate":
            if self.rate_per_s <= 0:
                raise ConfigurationError(
                    f"rate_per_s must be positive, got "
                    f"{self.rate_per_s}")
            if self.work_gcycles <= 0:
                raise ConfigurationError(
                    f"work_gcycles must be positive, got "
                    f"{self.work_gcycles}")
            if not 0.0 <= self.work_jitter < 1.0:
                raise ConfigurationError(
                    f"work_jitter must be in [0, 1), got "
                    f"{self.work_jitter}")
            if self.max_jobs is not None and self.max_jobs < 0:
                raise ConfigurationError(
                    f"max_jobs cannot be negative, got {self.max_jobs}")
        else:
            if not self.trace:
                raise ConfigurationError(
                    'a "trace" workload needs at least one arrival')
            last = -1.0
            for i, entry in enumerate(self.trace):
                if len(entry) != 2:
                    raise ConfigurationError(
                        f"trace entry {i} must be (time_s, "
                        f"work_gcycles), got {entry!r}")
                t, w = entry
                if t < 0 or t < last:
                    raise ConfigurationError(
                        f"trace times must be non-decreasing and "
                        f">= 0; entry {i} is {t}")
                if w <= 0:
                    raise ConfigurationError(
                        f"trace entry {i}: work must be positive, "
                        f"got {w}")
                last = t

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        out: dict = {"kind": self.kind}
        if self.kind == "rate":
            out.update(rate_per_s=self.rate_per_s,
                       work_gcycles=self.work_gcycles,
                       work_jitter=self.work_jitter)
            if self.max_jobs is not None:
                out["max_jobs"] = self.max_jobs
        else:
            out["trace"] = [[float(t), float(w)] for t, w in self.trace]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadConfig":
        """Strict parse: unknown keys are named and rejected."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"workload must be a JSON object, got "
                f"{type(data).__name__}")
        known = {"kind", "rate_per_s", "work_gcycles", "work_jitter",
                 "max_jobs", "trace"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown workload key(s): {', '.join(unknown)}")
        kwargs: dict = {"kind": str(data.get("kind", "rate"))}
        if "rate_per_s" in data:
            kwargs["rate_per_s"] = float(data["rate_per_s"])
        if "work_gcycles" in data:
            kwargs["work_gcycles"] = float(data["work_gcycles"])
        if "work_jitter" in data:
            kwargs["work_jitter"] = float(data["work_jitter"])
        if data.get("max_jobs") is not None:
            kwargs["max_jobs"] = int(data["max_jobs"])
        if "trace" in data:
            kwargs["trace"] = tuple(
                (float(t), float(w)) for t, w in data["trace"])
        return cls(**kwargs)


def generate_arrivals(workload: WorkloadConfig, seed: int,
                      duration_s: float) -> tuple[FleetJob, ...]:
    """The full arrival list for one scenario, in time order.

    Deterministic in ``(workload, seed, duration_s)``; arrivals at or
    past ``duration_s`` are dropped (the simulation has ended).
    """
    horizon_us = int(round(duration_s * 1e6))
    jobs: list[FleetJob] = []
    if workload.kind == "trace":
        for t_s, work in workload.trace:
            t_us = int(round(t_s * 1e6))
            if t_us >= horizon_us:
                break
            jobs.append(FleetJob(job_id=len(jobs), time_us=t_us,
                                 work_gcycles=float(work)))
        return tuple(jobs)

    rng = random.Random(derive_seed(seed, "fleet.arrivals"))
    t_s = 0.0
    while True:
        t_s += rng.expovariate(workload.rate_per_s)
        t_us = int(round(t_s * 1e6))
        if t_us >= horizon_us:
            break
        if (workload.max_jobs is not None
                and len(jobs) >= workload.max_jobs):
            break
        spread = workload.work_jitter
        factor = 1.0 + spread * (2.0 * rng.random() - 1.0)
        jobs.append(FleetJob(
            job_id=len(jobs), time_us=t_us,
            work_gcycles=workload.work_gcycles * factor))
    return tuple(jobs)
