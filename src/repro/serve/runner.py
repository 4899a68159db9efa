"""Resilient evaluation of one served experiment request.

The broker never calls :meth:`ExperimentSpec.run` directly: requests
go through :func:`run_spec_resilient`, which evaluates the spec's point
(:func:`repro.core.point.evaluate`, the one body campaigns and
``spec.run()`` use too) under the serving retry / degradation options,
so a transient solver fault retries and a model-tier fault falls to
the analytic rung instead of killing the server. Degradation
provenance travels on the :class:`SpecOutcome` (rung, degraded,
attempts), *not* on the result object — the happy path returns exactly
what a direct ``spec.run()`` returns, which is what keeps served
results byte-identical to the underlying API.

:func:`pool_task` is the module-level (picklable) task the broker's
process mode runs on its :class:`~repro.parallel.SupervisedPool`.

Fleet scenarios (:class:`~repro.fleet.model.FleetScenario`, wire kind
``"fleet"``) ride the same rails through
:func:`run_fleet_resilient`: one deterministic rung (the simulator has
no lower-fidelity fallback), the same retry policy for transients, and
the same :class:`SpecOutcome` envelope — so coalescing, caching, and
the HTTP surface treat experiments and fleet runs uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ExperimentResult, ExperimentSpec
from ..obs import span
from ..resilience import ResilienceOptions
from ..resilience.degrade import DegradationLadder, quiet_degradation

__all__ = ["SpecOutcome", "pool_task", "run_fleet_resilient",
           "run_spec_resilient"]


@dataclass(frozen=True)
class SpecOutcome:
    """A served evaluation plus its resilience provenance.

    Attributes:
        result: the experiment result (identical to a direct
            ``spec.run()`` whenever ``rung == "full"``) — or a
            :class:`~repro.fleet.sim.FleetResult` for fleet requests.
        rung: which ladder rung answered (``"full"`` / ``"analytic"``).
        degraded: True when a lower-fidelity rung supplied the value.
        attempts: total call attempts across rungs (retries included).
        errors: stringified errors absorbed on the way.
    """

    result: ExperimentResult
    rung: str
    degraded: bool
    attempts: int
    errors: tuple[str, ...] = ()


def run_spec_resilient(spec: ExperimentSpec,
                       options: ResilienceOptions | None = None
                       ) -> SpecOutcome:
    """Evaluate a spec under retry + (optional) graceful degradation.

    Args:
        spec: the experiment.
        options: retry policy / degradation switch / fault injector
            (None = defaults: retry transients, no degradation).
    """
    opts = options if options is not None else ResilienceOptions()
    with span("serve.evaluate", chip=spec.chip, n_chips=spec.n_chips,
              cooling=spec.cooling):
        # Provenance is returned structurally; the warning would land
        # in a dispatcher thread no client observes. The flag is this
        # thread's alone: the broker runs two dispatchers at once.
        with quiet_degradation():
            outcome = spec.evaluate(opts)
    return SpecOutcome(result=ExperimentResult.of(spec, outcome),
                       rung=outcome.rung,
                       degraded=outcome.degraded,
                       attempts=outcome.attempts,
                       errors=outcome.errors)


def run_fleet_resilient(scenario, options: ResilienceOptions | None = None
                        ) -> SpecOutcome:
    """Evaluate a fleet scenario under the serving retry policy.

    The simulator is deterministic and has no lower-fidelity rung, so
    the ladder is single-rung: retries absorb transients (worker
    crashes in process mode), degradation never applies — with one
    provenance exception. A scenario carrying a fault plan whose run
    recorded incidents ran at *degraded capacity* (boards retired,
    tanks isolated): the outcome keeps ``rung == "full"`` (the model
    fidelity was full) but reports ``degraded=True`` so clients see
    the result came from a plant that wasn't whole. The result object
    itself is still byte-identical to a direct ``simulate()``.

    Args:
        scenario: a :class:`~repro.fleet.model.FleetScenario`.
        options: retry policy (None = defaults).
    """
    from ..fleet.sim import simulate

    opts = options if options is not None else ResilienceOptions()

    def full():
        return simulate(scenario)

    ladder = DegradationLadder((("full", full),))
    with span("serve.evaluate_fleet", policy=scenario.policy,
              tanks=scenario.fleet.n_tanks,
              boards=scenario.fleet.n_boards):
        outcome = ladder.run(retry_policy=opts.retry_policy,
                             sleep=opts.sleep,
                             allow_degraded=opts.allow_degraded)
    result = outcome.value
    degraded = outcome.degraded
    if getattr(result, "incidents", ()):
        degraded = True
    return SpecOutcome(result=result, rung=outcome.rung,
                       degraded=degraded,
                       attempts=outcome.attempts,
                       errors=outcome.errors)


@dataclass(frozen=True)
class PoolPayload:
    """Picklable resilience settings for process-mode evaluation
    (mirrors the campaign's worker payload: the ``sleep`` callable and
    any injector stay on the parent side)."""

    retry_policy: object
    allow_degraded: bool


def pool_task(payload: PoolPayload, spec_dict: dict) -> SpecOutcome:
    """The process-mode pool task: rebuild the request from its wire
    form and evaluate it resiliently (module-level for pickling).
    Routes on the ``"kind"`` tag — ``"fleet"`` dicts rebuild a fleet
    scenario, everything else an experiment spec."""
    options = ResilienceOptions(retry_policy=payload.retry_policy,
                                allow_degraded=payload.allow_degraded)
    if spec_dict.get("kind") == "fleet":
        from ..fleet.model import FleetScenario
        return run_fleet_resilient(FleetScenario.from_dict(spec_dict),
                                   options)
    return run_spec_resilient(ExperimentSpec.from_dict(spec_dict),
                              options)
