"""Fault tolerance for long sweep campaigns.

Long multi-point campaigns (Figs. 7-18 regenerate hundreds of
operating points) must survive singular networks, NaN power maps,
dropped VFS steps, and transient solver failures without losing
completed work. This package provides the three independent pieces:

* :mod:`repro.resilience.faults` — a deterministic, seeded
  fault-injection harness used by tests (and the CI smoke job) to prove
  every recovery path actually recovers;
* :mod:`repro.resilience.retry` — bounded-attempt retry with
  exponential backoff, deterministic jitter, and per-exception-class
  classification over the :class:`repro.errors.ReproError` hierarchy;
* :mod:`repro.resilience.degrade` — the graceful-degradation ladder
  that falls from the grid thermal model to the closed-form analytic
  model, recording which rung produced each result.

:class:`ResilienceOptions` bundles the three for the sweep / cosim
entry points and the campaign runner (:mod:`repro.core.campaign`).

Two sibling fault layers compose with this one: the *process-level*
faults here (:data:`PROCESS_FAULT_KINDS`, worker kill/hang against the
parallel pool) and the *facility-level* fault engine in
:mod:`repro.fleet.faults` (board retirement, pump loss, fouling,
sensor faults inside the fleet simulator). ``repro fleet chaos``
drives both at once, and the fleet incident ledger reuses this
package's failure-ledger schema
(:class:`~repro.core.campaign.LedgerEntry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .degrade import DegradationLadder, LadderOutcome, freq_point_rungs
from .faults import (
    FAULT_KINDS,
    PROCESS_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSpec,
    FaultyThermalModel,
    ProcessFaultPlan,
    corrupt_power_maps,
    drop_vfs_steps,
    make_floating_island,
)
from .retry import RetryOutcome, RetryPolicy, classify_error, with_retry


@dataclass(frozen=True)
class ResilienceOptions:
    """How a sweep / campaign should behave when a point misbehaves.

    Attributes:
        retry_policy: bounded-backoff policy for retryable errors.
        allow_degraded: permit lower-fidelity ladder rungs. When False a
            point whose full-fidelity rung fails lands in the failure
            ledger instead of degrading.
        injector: optional fault-injection harness (tests / CI smoke).
        sleep: backoff sleep function (injectable; None = real sleep).
    """

    retry_policy: RetryPolicy = field(default_factory=lambda: RetryPolicy())
    allow_degraded: bool = False
    injector: FaultInjector | None = None
    sleep: Callable[[float], None] | None = None


__all__ = [
    "ResilienceOptions",
    "FAULT_KINDS",
    "PROCESS_FAULT_KINDS",
    "ProcessFaultPlan",
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "FaultyThermalModel",
    "corrupt_power_maps",
    "drop_vfs_steps",
    "make_floating_island",
    "RetryPolicy",
    "RetryOutcome",
    "with_retry",
    "classify_error",
    "DegradationLadder",
    "LadderOutcome",
    "freq_point_rungs",
]
