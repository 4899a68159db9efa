"""Graceful-degradation ladders.

A ladder is an ordered list of (rung name, thunk) pairs, highest
fidelity first. :meth:`DegradationLadder.run` tries each rung under the
retry policy; rung failures classified *degradable* (or retryable
errors that exhausted their attempts) fall to the next rung, fatal
errors propagate, and the outcome records which rung produced the
value, whether it is degraded, and every error absorbed on the way
down.

One concrete ladder covers the pipeline's expensive tier:
:func:`freq_point_rungs` — the grid
:class:`~repro.thermal.hotspot.ThermalModel` (rung ``full``), answering
through its shared stack factors
(:mod:`repro.thermal.response`), falling back to the closed-form
:class:`~repro.thermal.analytic.AnalyticStackModel` (rung
``analytic``). Checkpoints, ledgers and served answers record the rung
names. Every (chip, h, cooling) point runs it through
:func:`repro.core.point.evaluate`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..cooling.options import get_cooling
from ..errors import ConfigurationError, DegradedResultWarning
from ..obs import counter, gauge, log_event, span
from ..power.processors import get_chip
from ..stack.chipstack import StackConfig
from ..thermal.analytic import AnalyticStackModel
from ..thermal.hotspot import model_for
from ..thermal.package import DEFAULT_PACKAGE
from .faults import FaultInjector, FaultyThermalModel, drop_vfs_steps
from .retry import RetryPolicy, classify_error, with_retry

Rung = tuple[str, Callable[[], Any]]


@dataclass(frozen=True)
class LadderOutcome:
    """Provenance of one laddered evaluation.

    Attributes:
        value: the rung's return value.
        rung: name of the rung that produced it.
        rung_index: 0 = full fidelity.
        degraded: True when any rung below the first produced the value.
        attempts: total call attempts across all rungs tried.
        errors: stringified errors absorbed along the way.
    """

    value: Any
    rung: str
    rung_index: int
    degraded: bool
    attempts: int
    errors: tuple[str, ...] = ()


class DegradationLadder:
    """Ordered fallback rungs, highest fidelity first."""

    def __init__(self, rungs: Sequence[Rung]) -> None:
        if not rungs:
            raise ConfigurationError("a ladder needs at least one rung")
        names = [name for name, _ in rungs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate rung names in {names}")
        self.rungs: tuple[Rung, ...] = tuple(rungs)

    def run(self, *, retry_policy: RetryPolicy | None = None,
            sleep: Callable[[float], None] | None = None,
            allow_degraded: bool = True) -> LadderOutcome:
        """Evaluate down the ladder until a rung succeeds.

        Args:
            retry_policy: per-rung retry policy for transient errors.
            sleep: backoff sleep function (injectable for tests).
            allow_degraded: when False only the first rung may answer;
                its failure propagates to the caller (the campaign
                runner then records the point in the failure ledger).

        Raises:
            The offending exception when a fatal error occurs, when
            ``allow_degraded`` forbids falling, or when the last rung
            fails too.
        """
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        absorbed: list[str] = []
        attempts = 0
        last = len(self.rungs) - 1
        for idx, (name, fn) in enumerate(self.rungs):
            try:
                with span("resilience.rung", rung=name, rung_index=idx):
                    out = with_retry(fn, policy=policy, sleep=sleep)
            except BaseException as exc:
                kind = classify_error(exc)
                attempts += (policy.max_attempts if kind == "retry" else 1)
                if (kind not in ("retry", "degrade")
                        or idx == last or not allow_degraded):
                    # Provenance for the caller's failure ledger.
                    exc._ladder_attempts = attempts
                    exc._ladder_rungs = tuple(
                        n for n, _ in self.rungs[:idx + 1])
                    raise
                absorbed.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            attempts += out.attempts
            degraded = idx > 0
            if degraded:
                counter("resilience.degrade_rung").inc()
                gauge("resilience.last_degrade_rung").set(idx)
                log_event("degraded", rung=name, rung_index=idx,
                          absorbed=len(absorbed))
                warnings.warn(DegradedResultWarning(
                    f"rung {name!r} (index {idx}) supplied the result "
                    f"after: {'; '.join(absorbed)}"
                ), stacklevel=2)
            return LadderOutcome(
                value=out.value, rung=name, rung_index=idx,
                degraded=degraded, attempts=attempts,
                errors=tuple(absorbed) + out.errors,
            )
        raise AssertionError("unreachable")  # pragma: no cover


# -- thermal ladder ---------------------------------------------------------

def _search_max_frequency(model, threshold_c, injector: FaultInjector | None):
    """Max-frequency search with optional VFS-step-drop faults.

    The bisection in :func:`repro.core.freqopt.max_frequency`; when a
    ``drop_vfs`` fault fires, it bisects the surviving sub-ladder
    instead (temperature is monotone in frequency on any sub-ladder).
    """
    from ..core.freqopt import max_frequency
    freqs = None
    if injector is not None:
        spec = injector.draw("vfs")
        if spec is not None and spec.kind == "drop_vfs":
            freqs = drop_vfs_steps(
                tuple(float(f) for f in
                      model.stack.chip.ladder.frequencies()),
                injector.vfs_rng())
    return max_frequency(model, threshold_c, freqs=freqs)


def freq_point_rungs(chip: str, n_chips: int, cooling: str, *,
                     threshold_c: float | None = None,
                     rotations: tuple[bool, ...] = (),
                     params=None,
                     injector: FaultInjector | None = None
                     ) -> tuple[Rung, ...]:
    """The thermal ladder for one max-frequency point.

    Rung 0 (``full``) answers through :func:`~repro.thermal.
    hotspot.model_for`: the model is fetched from the process-wide
    bounded :func:`~repro.thermal.hotspot.model_cache` keyed on (chip,
    stack, rotations, cooling, package), so repeated visits to one
    geometry — retries, npb+freq grids over the same stacks, pool
    workers chewing through chunks — reuse it instead of re-assembling
    G. The fault harness wraps the (shared, never-mutated) model when
    an injector is active, and cache hits/misses surface as
    ``thermal.model_cache_*`` counters. Rung 1 (``analytic``) answers
    from the closed-form
    :class:`~repro.thermal.analytic.AnalyticStackModel`.
    """
    pkg = params if params is not None else DEFAULT_PACKAGE

    def full():
        model = model_for(chip, n_chips, cooling,
                          rotations=rotations, params=pkg)
        if injector is not None and injector.enabled:
            model = FaultyThermalModel(model, injector)
        return _search_max_frequency(model, threshold_c, injector)

    def analytic():
        from ..core.freqopt import max_frequency
        stack = StackConfig(chip=get_chip(chip), n_chips=n_chips,
                            rotations=rotations)
        model = AnalyticStackModel(stack, get_cooling(cooling), pkg)
        return max_frequency(model, threshold_c)

    return (("full", full), ("analytic", analytic))

