"""One (chip, stack height, cooling) point, evaluated end to end.

The paper's Figs. 10-13 pipeline for one point: McPAT power, then
HotSpot picks the highest VFS step the stack holds under the limit,
then gem5 runs NPB on that stack's CMP. :func:`evaluate` is its one
body here; campaign points, served specs, NPB comparisons and
frequency sweeps all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..obs import span
from ..perfsim.analytic import AnalyticModel
from ..perfsim.npb import get_profile
from ..perfsim.system import config_for_stack
from ..power.processors import get_chip
from ..resilience import ResilienceOptions
from ..resilience.degrade import DegradationLadder, freq_point_rungs
from ..resilience.retry import RetryPolicy
from ..thermal.package import DEFAULT_PACKAGE, PackageParams
from .freqopt import OperatingPoint

#: A plain evaluation: the full-fidelity rung once, its error raised.
_PLAIN = ResilienceOptions(retry_policy=RetryPolicy(max_attempts=1))


@dataclass(frozen=True)
class PointOutcome:
    """One evaluated point: the operating point, the NPB time of each
    requested program (none at an infeasible point), and the thermal
    ladder's provenance (rung ``"full"`` or ``"analytic"``)."""

    point: OperatingPoint
    npb_time_s: dict[str, float]
    rung: str
    degraded: bool
    attempts: int
    errors: tuple[str, ...] = ()


def evaluate(chip: str, n_chips: int, cooling: str, *,
             threshold_c: float | None = None,
             rotations: tuple[bool, ...] = (),
             params: PackageParams = DEFAULT_PACKAGE,
             threads: int | None = None,
             programs: Sequence[str] = (),
             resilience: ResilienceOptions | None = None) -> PointOutcome:
    """Evaluate one point: the thermal ladder, then at most one NPB step.

    1. With ``programs`` given, build the stack's CMP
       (:func:`~repro.perfsim.system.config_for_stack`) first, so a chip
       whose cores do not fit the mesh is a
       :class:`~repro.errors.ConfigurationError` before any thermal
       work. No programs asks for the frequency alone.
    2. Run the thermal ladder (:func:`~repro.resilience.degrade.
       freq_point_rungs`) under ``resilience``; None runs the
       full-fidelity rung once and raises its error.
    3. At a feasible point, time each program on one
       :class:`~repro.perfsim.analytic.AnalyticModel` with ``threads``
       threads (None = every core of the stack).
    """
    config = None
    if programs:
        with span("power.system_config", chip=chip, n_chips=n_chips):
            config = config_for_stack(get_chip(chip), n_chips)
    opts = resilience if resilience is not None else _PLAIN
    ladder = DegradationLadder(freq_point_rungs(
        chip, n_chips, cooling, threshold_c=threshold_c,
        rotations=rotations, params=params, injector=opts.injector))
    with span("thermal.ladder", chip=chip, n_chips=n_chips,
              cooling=cooling):
        outcome = ladder.run(retry_policy=opts.retry_policy,
                             sleep=opts.sleep,
                             allow_degraded=opts.allow_degraded)
    op: OperatingPoint = outcome.value
    times: dict[str, float] = {}
    if config is not None and op.feasible:
        perf = AnalyticModel(config, threads=threads)
        with span("perf.npb_times", f_ghz=op.f_ghz, threads=perf.threads):
            times = {name: perf.execution_time_s(get_profile(name),
                                                 op.f_hz)
                     for name in programs}
    return PointOutcome(point=op, npb_time_s=times, rung=outcome.rung,
                        degraded=outcome.degraded,
                        attempts=outcome.attempts, errors=outcome.errors)
