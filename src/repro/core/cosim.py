"""Power -> thermal -> performance co-simulation (Figs. 10-13).

The paper's pipeline: McPAT gives per-block power at each VFS step;
HotSpot finds the highest step each cooling option sustains under the
80 C threshold; gem5 runs the NPB programs at that step. Execution
times are reported relative to a reference cooling option (water pipe
for Figs. 10/12/13; mineral oil for Fig. 11 because the water pipe
cannot sustain the 8-chip low-power stack at all).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

from ..errors import InfeasibleError, ReproError
from ..obs import span
from ..perfsim.npb import NPB_ORDER
from ..perfsim.system import config_for_stack
from ..power.processors import get_chip
from ..thermal.package import DEFAULT_PACKAGE, PackageParams
from .freqopt import OperatingPoint
from .point import evaluate

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..resilience import ResilienceOptions


@dataclass(frozen=True)
class CoolingOutcome:
    """One cooling option's end-to-end result for a stack.

    ``rung`` / ``degraded`` / ``attempts`` record how the thermal
    operating point was obtained: which degradation-ladder rung
    produced it (``"full"`` on the default path, ``"analytic"`` when
    degraded, ``"failed"`` when a resilient run could not evaluate the
    option at all) and how many solver attempts it took.
    """

    cooling: str
    point: OperatingPoint
    npb_time_s: dict[str, float]
    rung: str = "full"
    degraded: bool = False
    attempts: int = 1

    @property
    def feasible(self) -> bool:
        """False when no VFS step satisfied the threshold."""
        return self.point.feasible


@dataclass(frozen=True)
class NpbComparison:
    """A full Figs. 10-13-style experiment.

    Attributes:
        chip: chip name.
        n_chips: stack height.
        threads: simulated thread count (24 or 32 in the paper).
        reference: the cooling option execution times are divided by.
        outcomes: per-option results in the paper's order.
    """

    chip: str
    n_chips: int
    threads: int
    reference: str
    outcomes: tuple[CoolingOutcome, ...]

    def outcome(self, cooling: str) -> CoolingOutcome:
        """Look up one cooling option's outcome."""
        for o in self.outcomes:
            if o.cooling == cooling:
                return o
        raise InfeasibleError(
            f"no outcome for cooling option {cooling!r}"
        )

    def relative_times(self, cooling: str) -> dict[str, float]:
        """Per-benchmark T(cooling)/T(reference) — the figure's bars."""
        ref = self.outcome(self.reference)
        tgt = self.outcome(cooling)
        if not (ref.feasible and tgt.feasible):
            raise InfeasibleError(
                f"relative times need both {cooling!r} and "
                f"{self.reference!r} feasible at {self.n_chips} chips"
            )
        return {
            name: tgt.npb_time_s[name] / ref.npb_time_s[name]
            for name in NPB_ORDER
        }

    def average_relative(self, cooling: str) -> float:
        """Mean of the relative times over the nine programs."""
        rel = self.relative_times(cooling)
        return sum(rel.values()) / len(rel)

    def best_improvement(self, cooling: str) -> float:
        """Largest per-benchmark time reduction vs the reference (0..1)."""
        rel = self.relative_times(cooling)
        return 1.0 - min(rel.values())


def run_npb_comparison(chip_name: str, n_chips: int, *,
                       reference: str,
                       coolings: tuple[str, ...] = (
                           "water_pipe", "mineral_oil", "fluorinert",
                           "water"),
                       threads: int | None = None,
                       params: PackageParams = DEFAULT_PACKAGE,
                       resilience: "ResilienceOptions | None" = None
                       ) -> NpbComparison:
    """Run the full co-simulation for one figure's configuration.

    Each cooling option is one :func:`repro.core.point.evaluate` call.
    Infeasible options are included with ``feasible=False`` and empty
    time tables (the paper leaves their bars out of the figure).

    With ``resilience`` given, each option's thermal search runs
    through the retry policy and degradation ladder; an option that
    fails outright becomes an infeasible outcome tagged
    ``rung="failed"`` instead of aborting the comparison. Without it,
    errors raise.

    Raises:
        ConfigurationError: the chip has no NPB system at this height
            (its cores do not fit the mesh), in either mode.
    """
    config = config_for_stack(get_chip(chip_name), n_chips)
    outcomes = []
    for cooling in coolings:
        with span("cosim.cooling_option", cooling=cooling,
                  resilient=resilience is not None):
            outcomes.append(_cooling_outcome(
                chip_name, n_chips, cooling, threads, params, resilience))
    return NpbComparison(
        chip=chip_name,
        n_chips=n_chips,
        threads=threads if threads is not None else config.total_cores,
        reference=reference,
        outcomes=tuple(outcomes),
    )


def _cooling_outcome(chip_name: str, n_chips: int, cooling: str,
                     threads: int | None, params: PackageParams,
                     resilience: "ResilienceOptions | None"
                     ) -> CoolingOutcome:
    """One cooling option of a comparison; a resilient run turns a
    failed evaluation into a ``rung="failed"`` outcome."""
    try:
        o = evaluate(chip_name, n_chips, cooling, params=params,
                     threads=threads, programs=NPB_ORDER,
                     resilience=resilience)
    except ReproError:
        if resilience is None:
            raise
        failed = OperatingPoint(f_hz=0.0, max_temp_c=0.0, feasible=False,
                                chip_power_w=0.0, total_power_w=0.0)
        return CoolingOutcome(cooling=cooling, point=failed,
                              npb_time_s={}, rung="failed",
                              degraded=False, attempts=0)
    return CoolingOutcome(cooling=cooling, point=o.point,
                          npb_time_s=o.npb_time_s, rung=o.rung,
                          degraded=o.degraded, attempts=o.attempts)


#: Figs. 10-13 in order: chip, stack height, and the cooling option
#: each figure's times are relative to.
NPB_FIGURES = (
    ("low-power-cmp", 6, "water_pipe"),
    ("low-power-cmp", 8, "mineral_oil"),
    ("high-frequency-cmp", 6, "water_pipe"),
    ("high-frequency-cmp", 8, "water_pipe"),
)


def headline_summary(comparisons: Iterable[NpbComparison] | None = None
                     ) -> dict[str, float]:
    """The paper's headline numbers from the four NPB configurations.

    Returns a dict with the best average improvement of water over the
    water pipe and over mineral oil across the Figs. 10-13 set (the
    paper: "up to 14% and 4.5% ... on average"). ``comparisons`` are
    the figures' :func:`run_npb_comparison` results (None runs the
    :data:`NPB_FIGURES` at the calibrated package).
    """
    if comparisons is None:
        comparisons = [run_npb_comparison(chip, n, reference=ref)
                       for chip, n, ref in NPB_FIGURES]
    best_vs_pipe = 0.0
    best_vs_oil = 0.0
    for cmp_ in comparisons:
        if cmp_.reference == "water_pipe":
            best_vs_pipe = max(best_vs_pipe,
                               1.0 - cmp_.average_relative("water"))
        if cmp_.outcome("mineral_oil").feasible:
            oil = replace(cmp_, reference="mineral_oil")
            best_vs_oil = max(best_vs_oil,
                              1.0 - oil.average_relative("water"))
    return {
        "water_vs_water_pipe_avg_reduction": best_vs_pipe,
        "water_vs_mineral_oil_avg_reduction": best_vs_oil,
    }
