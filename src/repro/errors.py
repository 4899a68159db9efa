"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without masking programming errors
(``TypeError``/``ValueError`` raised by misuse are still allowed where the
standard library would raise them).

Retry / degradation classification
----------------------------------

The resilient campaign runner (:mod:`repro.resilience`) sorts these
classes into three buckets (see
:func:`repro.resilience.retry.classify_error`):

* **retryable** — the same call may succeed on a second attempt:
  :class:`TransientSolverError` (simulated solver timeouts, iteration
  stalls). Retried with bounded exponential backoff.
* **fatal** — the configuration itself is wrong, so retrying or
  degrading cannot help: :class:`ConfigurationError`,
  :class:`FloorplanError`, :class:`VFSRangeError`,
  :class:`CalibrationError`, and any non-:class:`ReproError`.
* **degradable** — this model tier failed but a lower-fidelity tier may
  still produce a usable answer: :class:`SingularNetworkError`,
  :class:`ThermalModelError`, :class:`PowerModelError`,
  :class:`SimulationError`, and any other :class:`ReproError`. The
  degradation ladder falls to the next rung and tags the result with a
  :class:`DegradedResultWarning`.

:class:`InfeasibleError` is none of the three: an infeasible operating
point is a *result* (the paper simply omits the bar), so campaigns
record it rather than retrying it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """An experiment or model configuration is inconsistent or incomplete."""


class FloorplanError(ReproError):
    """A floorplan violates a geometric invariant (overlap, coverage...)."""


class ThermalModelError(ReproError):
    """The thermal network could not be assembled or solved."""


class SingularNetworkError(ThermalModelError):
    """The conductance matrix is singular (no path to ambient)."""


class PowerModelError(ReproError):
    """The power model was queried outside its valid domain."""


class VFSRangeError(PowerModelError):
    """A frequency outside the chip's voltage-frequency-scaling ladder."""


class InfeasibleError(ReproError):
    """No operating point satisfies the thermal constraint.

    Raised by the frequency optimizer when even the lowest VFS step
    exceeds the temperature threshold — e.g. air cooling of a 5-chip
    low-power stack in the paper's Fig. 7.
    """


class SimulationError(ReproError):
    """The performance simulator entered an invalid state."""


class CalibrationError(ReproError):
    """A calibration routine failed to converge to its anchors."""


class TransientSolverError(ReproError):
    """A solver failed for a reason that may not recur (retryable).

    Covers simulated solver timeouts and iteration stalls — conditions
    where re-running the identical call can legitimately succeed. The
    retry policy in :mod:`repro.resilience.retry` treats this class (and
    only this class) as retryable by default.
    """


class CheckpointError(ReproError):
    """A campaign checkpoint file is missing, corrupt, or incompatible."""


class PoolClosedError(ConfigurationError):
    """Work was submitted to a worker pool that is already closed.

    Raised by :class:`repro.parallel.SupervisedPool`. Remediation:
    create a fresh pool (the serve broker does this transparently), or
    stop submitting after ``close()`` / broker shutdown. The CLI maps
    this to exit code 75 (``EX_TEMPFAIL``) — the service is
    restartable, the request is not wrong.
    """

    def __init__(self, message: str = "worker pool is closed") -> None:
        super().__init__(
            f"{message} — submissions after close() are dropped by "
            f"design; build a new pool (or let the serve broker "
            f"rebuild one) and resubmit")


class WorkerCrashError(ReproError):
    """A worker process died or hung while holding a task.

    Raised by the supervised pool (:mod:`repro.parallel.supervisor`)
    when one task has crashed its worker ``crashes`` times — the
    quarantine threshold — so re-running it would keep killing
    workers. Campaigns record the points of such a task as ``poison``
    outcomes in the failure ledger instead of aborting; the serve
    layer maps this to HTTP 503 (the request failed, the service did
    not).
    """

    def __init__(self, message: str = "worker crashed", *,
                 task_key: str = "", crashes: int = 0,
                 reason: str = "") -> None:
        super().__init__(message)
        self.task_key = task_key
        self.crashes = crashes
        self.reason = reason or message

    def to_dict(self) -> dict:
        """Structured payload for logs and HTTP 503 responses."""
        return {"error": "worker_crash", "message": str(self),
                "task_key": self.task_key, "crashes": self.crashes}


class ServeError(ReproError):
    """A request-serving (``repro.serve``) operation failed.

    The serving layer's errors describe the *broker's* state (closed,
    overloaded, deadline passed), not a model failure, so the retry /
    degradation classifier never sees them: they are raised at the
    submission and wait boundaries, outside any evaluation ladder.
    """


class OverloadedError(ServeError):
    """The broker shed a request instead of queueing it unboundedly.

    Carries the structured admission-control state at the moment of
    shedding so clients (and the HTTP 429 payload) can report and
    back off intelligently.
    """

    def __init__(self, message: str = "broker overloaded", *,
                 queued: int = 0, in_flight: int = 0,
                 limit: int = 0) -> None:
        super().__init__(message)
        self.queued = queued
        self.in_flight = in_flight
        self.limit = limit

    def to_dict(self) -> dict:
        """Structured payload for logs and HTTP responses."""
        return {"error": "overloaded", "message": str(self),
                "queued": self.queued, "in_flight": self.in_flight,
                "limit": self.limit}


class DeadlineExceededError(ServeError):
    """A request's deadline passed before the broker could run it."""

    def __init__(self, message: str = "deadline exceeded", *,
                 deadline_s: float = 0.0, waited_s: float = 0.0) -> None:
        super().__init__(message)
        self.deadline_s = deadline_s
        self.waited_s = waited_s

    def to_dict(self) -> dict:
        """Structured payload for logs and HTTP responses."""
        return {"error": "deadline_exceeded", "message": str(self),
                "deadline_s": self.deadline_s,
                "waited_s": self.waited_s}


class DegradedResultWarning(Warning):
    """A result was produced by a degraded model rung.

    Emitted by the degradation ladder when the full-fidelity thermal
    tier (the grid network, rung ``full``) failed and the closed-form
    analytic stack model (rung ``analytic``) supplied the value. The
    result carries
    ``degraded=True`` provenance; this warning makes the substitution
    visible to interactive users as well.
    """
