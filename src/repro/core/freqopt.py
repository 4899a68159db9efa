"""Maximum-frequency-under-threshold search (the paper's core loop).

Given a number of stacked chips, a cooling option, and a temperature
threshold, find the highest VFS ladder step at which the hottest die
cell stays at/below the threshold, with all chips clocked identically —
exactly the quantity plotted in the paper's Figs. 1, 7, 8, 15, 17.

Temperature is strictly increasing in frequency (power is increasing in
f and the network is linear with a positive inverse), so the search is a
bisection over the discrete ladder; each probe is one query on the
geometry's shared stack factors (one triangular solve against the
cached factorization on the sparse path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cooling.options import CoolingOption
from ..errors import InfeasibleError
from ..thermal.hotspot import ThermalModel
from ..thermal.package import DEFAULT_PACKAGE, PackageParams
from ..stack.chipstack import StackConfig


@dataclass(frozen=True)
class OperatingPoint:
    """The outcome of a max-frequency search.

    Attributes:
        f_hz: the selected VFS step (0.0 when infeasible).
        max_temp_c: hottest die-cell temperature at that step.
        feasible: False when even the lowest step violates the threshold
            (the paper then simply omits the point from its figures).
        chip_power_w: per-chip power at the operating point.
        total_power_w: stack power at the operating point.
    """

    f_hz: float
    max_temp_c: float
    feasible: bool
    chip_power_w: float
    total_power_w: float

    @property
    def f_ghz(self) -> float:
        """Frequency in GHz (0.0 when infeasible)."""
        return self.f_hz / 1e9


def max_frequency(model: ThermalModel,
                  threshold_c: float | None = None, *,
                  freqs: Sequence[float] | None = None) -> OperatingPoint:
    """Highest feasible VFS step for a prepared thermal model.

    A bisection over the ladder, one temperature query per probe. Any
    model with ``stack`` and ``max_temperature_c`` works: the grid
    :class:`~repro.thermal.hotspot.ThermalModel`, the analytic
    fallback, and the fault-injection wrapper, whose seeded faults
    replay against this exact query sequence.

    Args:
        model: the (stack, cooling) thermal model.
        threshold_c: temperature limit; defaults to the chip's own
            (80 C for the CMPs, 78 C for the Xeon E5).
        freqs: the ascending ladder to search (None = the chip's full
            VFS ladder; a ``drop_vfs`` fault passes a sub-ladder).

    Returns:
        The operating point; ``feasible=False`` with ``f_hz=0`` when no
        ladder step satisfies the constraint.
    """
    chip = model.stack.chip
    limit = threshold_c if threshold_c is not None else chip.threshold_c
    if freqs is None:
        freqs = chip.ladder.frequencies()

    def temp(idx: int) -> float:
        return model.max_temperature_c(float(freqs[idx]))

    # Infeasible even at the bottom step?
    t_bottom = temp(0)
    if t_bottom > limit + 1e-9:
        return OperatingPoint(f_hz=0.0, max_temp_c=t_bottom,
                              feasible=False, chip_power_w=0.0,
                              total_power_w=0.0)
    # Feasible at the top step?
    if temp(len(freqs) - 1) <= limit + 1e-9:
        best = len(freqs) - 1
    else:
        # Bisect the boundary: temp(lo) <= limit < temp(hi).
        lo, hi = 0, len(freqs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if temp(mid) <= limit + 1e-9:
                lo = mid
            else:
                hi = mid
        best = lo
    f = float(freqs[best])
    return OperatingPoint(
        f_hz=f,
        max_temp_c=temp(best),
        feasible=True,
        chip_power_w=chip.total_power_w(f),
        total_power_w=model.stack.total_power_w(f),
    )


def max_frequency_for(stack: StackConfig, cooling: CoolingOption,
                      threshold_c: float | None = None,
                      params: PackageParams = DEFAULT_PACKAGE
                      ) -> OperatingPoint:
    """Convenience wrapper: build the model, then search.

    Prefer :func:`repro.thermal.model_for` + :func:`max_frequency` inside
    sweeps so factorizations are cached across calls.
    """
    model = ThermalModel(stack, cooling, params)
    return max_frequency(model, threshold_c)


def require_feasible(point: OperatingPoint, context: str) -> OperatingPoint:
    """Raise :class:`InfeasibleError` when a point is infeasible.

    Benches for figures where the paper omits infeasible bars use this to
    turn a missing configuration into an explicit, typed failure.
    """
    if not point.feasible:
        raise InfeasibleError(
            f"{context}: no VFS step satisfies the temperature threshold "
            f"(coolest achievable maximum is {point.max_temp_c:.1f} C)"
        )
    return point
