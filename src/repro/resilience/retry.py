"""Bounded retry with exponential backoff and deterministic jitter.

The policy is keyed on the :class:`repro.errors.ReproError` hierarchy
(classification table in :mod:`repro.errors`): transient solver
failures are retried, configuration mistakes fail fast, and model-tier
failures are surfaced to the degradation ladder.

Jitter is drawn from a :class:`random.Random` seeded by the policy, so
two runs with the same policy produce the same backoff schedule — a
campaign re-run is bit-for-bit replayable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import (
    CalibrationError,
    ConfigurationError,
    FloorplanError,
    InfeasibleError,
    ReproError,
    TransientSolverError,
    VFSRangeError,
)
from ..obs import counter, log_event

#: Exception classes the default policy retries.
RETRYABLE_ERRORS: tuple[type[BaseException], ...] = (TransientSolverError,)

#: Exception classes that can never be fixed by retrying or degrading.
FATAL_ERRORS: tuple[type[BaseException], ...] = (
    ConfigurationError,
    FloorplanError,
    VFSRangeError,
    CalibrationError,
)


def classify_error(exc: BaseException) -> str:
    """``"retry"``, ``"fatal"``, ``"infeasible"``, or ``"degrade"``.

    The buckets are documented in :mod:`repro.errors`:
    :class:`TransientSolverError` retries; configuration-class errors
    (and anything outside the :class:`ReproError` hierarchy) are fatal;
    :class:`InfeasibleError` is a recordable *result*; every other
    library error is a model-tier failure the degradation ladder may
    absorb.
    """
    if isinstance(exc, RETRYABLE_ERRORS):
        return "retry"
    if isinstance(exc, FATAL_ERRORS):
        return "fatal"
    if isinstance(exc, InfeasibleError):
        return "infeasible"
    if isinstance(exc, ReproError):
        return "degrade"
    return "fatal"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and seeded jitter.

    Attributes:
        max_attempts: total tries, including the first (>= 1).
        base_delay_s: backoff before the second attempt.
        backoff_factor: multiplier per further attempt.
        jitter_fraction: each delay is scaled by a uniform factor in
            ``[1 - j, 1 + j]`` drawn from the seeded stream.
        seed: jitter stream seed (determinism).
        max_delay_s: backoff ceiling.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    seed: int = 0
    max_delay_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if not (0.0 <= self.jitter_fraction < 1.0):
            raise ConfigurationError("jitter_fraction must be in [0, 1)")

    def delays_s(self) -> tuple[float, ...]:
        """The deterministic backoff schedule (len = max_attempts - 1)."""
        rng = random.Random(self.seed)
        out = []
        for i in range(self.max_attempts - 1):
            d = min(self.base_delay_s * self.backoff_factor ** i,
                    self.max_delay_s)
            if self.jitter_fraction > 0:
                d *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
            out.append(d)
        return tuple(out)


@dataclass(frozen=True)
class RetryOutcome:
    """What one guarded call went through.

    Attributes:
        value: the successful return value.
        attempts: how many tries it took.
        delays_s: backoff actually applied between tries.
        errors: stringified exceptions of the failed tries.
    """

    value: Any
    attempts: int
    delays_s: tuple[float, ...] = ()
    errors: tuple[str, ...] = ()


def with_retry(fn: Callable[[], Any], *,
               policy: RetryPolicy | None = None,
               sleep: Callable[[float], None] | None = None,
               classify: Callable[[BaseException], str] = classify_error
               ) -> RetryOutcome:
    """Call ``fn`` under the retry policy.

    Only errors classified ``"retry"`` are re-attempted; everything
    else propagates immediately (the degradation ladder and the
    campaign runner decide what to do with it). When the attempt budget
    is exhausted the last retryable error propagates too.

    Args:
        fn: zero-argument callable (close over the real arguments).
        policy: retry policy (default :class:`RetryPolicy`).
        sleep: backoff sleep function; injectable so tests don't wait.
        classify: error classifier (exposed for custom policies).
    """
    if policy is None:
        policy = RetryPolicy()
    do_sleep = time.sleep if sleep is None else sleep
    schedule: tuple[float, ...] = ()    # drawn at the first retry
    applied: list[float] = []
    errors: list[str] = []
    for attempt in range(1, policy.max_attempts + 1):
        try:
            value = fn()
        except BaseException as exc:
            if classify(exc) != "retry" or attempt == policy.max_attempts:
                raise
            counter("resilience.retries").inc()
            log_event("retry", attempt=attempt,
                      error=type(exc).__name__, message=str(exc))
            errors.append(f"{type(exc).__name__}: {exc}")
            schedule = schedule or policy.delays_s()
            delay = schedule[attempt - 1]
            if delay > 0:
                do_sleep(delay)
            applied.append(delay)
            continue
        return RetryOutcome(value=value, attempts=attempt,
                            delays_s=tuple(applied),
                            errors=tuple(errors))
    raise AssertionError("unreachable")  # pragma: no cover
