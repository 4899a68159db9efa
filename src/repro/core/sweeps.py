"""Sweep drivers behind the paper's figures.

Each function regenerates the data series of one figure family:

* :func:`frequency_vs_chips` — Figs. 1, 7, 8, 17;
* :func:`temperature_vs_h` — Fig. 14;
* :func:`temperature_vs_frequency` — Fig. 15;
* :func:`thermal_maps` — Figs. 9, 16, 18.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..cooling.options import CoolingOption, get_cooling
from ..errors import ConfigurationError
from ..obs import span
from ..power.processors import get_chip
from ..stack.chipstack import StackConfig, flip_even_layers
from ..thermal.coolants import custom_coolant
from ..thermal.hotspot import ThermalModel
from ..thermal.package import DEFAULT_PACKAGE, PackageParams
from .point import evaluate

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..resilience import ResilienceOptions


@dataclass(frozen=True)
class FrequencySeries:
    """One cooling option's max-frequency-vs-chips curve.

    Attributes:
        cooling: the cooling option name.
        chips: stack heights, ascending.
        f_ghz: max frequency per height (0.0 where infeasible or, on a
            resilient run, where the point failed outright).
        degraded: per-point flags — True when the value came from a
            degraded ladder rung (empty on non-resilient runs).
        rungs: per-point provenance — the ladder rung name, or
            ``"failed"`` (empty on non-resilient runs).
    """

    cooling: str
    chips: tuple[int, ...]
    f_ghz: tuple[float, ...]   # 0.0 where infeasible
    degraded: tuple[bool, ...] = ()
    rungs: tuple[str, ...] = ()

    def feasible_up_to(self) -> int:
        """Largest chip count with a feasible operating point.

        Deliberately the largest feasible height *even across
        infeasible gaps*: with feasible n=2, infeasible n=3, feasible
        n=4 the answer is 4. The paper's curves (Figs. 7/8/17) plot
        every feasible point and simply omit infeasible ones, so the
        headline "water sustains up to N chips" must not be clipped by
        an interior gap (which can appear under aggressive thresholds
        or degraded-model evaluation). Use :meth:`contiguous_up_to`
        for the gap-free prefix.
        """
        best = 0
        for n, f in zip(self.chips, self.f_ghz):
            if f > 0:
                best = n
        return best

    def contiguous_up_to(self) -> int:
        """Largest chip count of the gap-free feasible prefix."""
        best = 0
        for n, f in zip(self.chips, self.f_ghz):
            if f <= 0:
                break
            best = n
        return best


def _freq_point_task(payload, item) -> float:
    """Pool task: one (cooling, n_chips) max-frequency point, evaluated
    by :func:`repro.core.point.evaluate` with no programs.

    Module-level for pickling; workers inherit nothing but the payload,
    so each process grows its own model and factor caches (only results
    cross the pickle boundary).
    """
    chip_name, threshold_c, params = payload
    cooling, n = item
    p = evaluate(chip_name, n, cooling, threshold_c=threshold_c,
                 params=params).point
    return p.f_ghz if p.feasible else 0.0


def frequency_vs_chips(chip_name: str, chips: tuple[int, ...],
                       coolings: tuple[str, ...],
                       *, threshold_c: float | None = None,
                       params: PackageParams = DEFAULT_PACKAGE,
                       resilience: "ResilienceOptions | None" = None,
                       workers: int = 1
                       ) -> tuple[FrequencySeries, ...]:
    """Max frequency vs stack height for several cooling options.

    With ``resilience`` given, the grid runs as a
    :class:`~repro.core.campaign.CampaignRunner` campaign: every point
    is evaluated through the retry policy and degradation ladder, a
    point whose full thermal rung fails can fall back to the analytic
    thermal model (when ``allow_degraded``), and a point that fails
    outright becomes a 0.0 GHz entry tagged ``"failed"`` instead of
    aborting the sweep.

    ``workers`` fans the independent (cooling, height) points over the
    :mod:`repro.parallel` pool; the returned series are identical at
    every worker count (the points share nothing, and a resilient
    sweep's fault streams are drawn per point).

    Raises:
        ConfigurationError: ``chips`` is empty.
    """
    if not chips:
        raise ConfigurationError("need at least one stack height")
    if resilience is not None:
        from .campaign import CampaignRunner, frequency_grid
        result = CampaignRunner(
            frequency_grid(chip_name, tuple(chips), tuple(coolings),
                           threshold_c=threshold_c),
            resilience=resilience, params=params,
            workers=workers).run(resume=False)
        return tuple(result.frequency_series(chip_name, cooling)
                     for cooling in coolings)
    from ..parallel import ParallelConfig, run_chunked
    items = [(cooling, n) for cooling in coolings for n in chips]
    with span("sweep.frequency_vs_chips", chip=chip_name,
              n_points=len(items), workers=workers):
        freqs = run_chunked(items, _freq_point_task,
                            (chip_name, threshold_c, params),
                            config=ParallelConfig(workers=workers))
    out = []
    for i, cooling in enumerate(coolings):
        block = freqs[i * len(chips):(i + 1) * len(chips)]
        out.append(FrequencySeries(cooling=cooling, chips=tuple(chips),
                                   f_ghz=tuple(block)))
    return tuple(out)


@dataclass(frozen=True)
class HSweepSeries:
    """One chip's max-temperature-vs-h curve (Fig. 14)."""

    chip: str
    h_values: tuple[float, ...]
    max_temp_c: tuple[float, ...]


def h_sweep_cooling(h: float) -> CoolingOption:
    """Fig. 14's hypothetical coolant at ``h`` W/m2K.

    Full immersion in one fluid with no film, so the sweep isolates the
    coolant itself.
    """
    coolant = custom_coolant(f"h={h:g}", h_w_m2k=float(h))
    return CoolingOption(name=f"sweep-h{h:g}", style="immersion",
                         primary_coolant=coolant, board_coolant=coolant)


def _h_point_task(payload, h: float) -> float:
    """Pool task: max stack temperature at one heat-transfer coefficient.

    Each h changes only the convection entries on the package's
    boundary diagonal, so every h shares the chip's die factor and adds
    one small package factor (:mod:`repro.thermal.response`): a sweep
    is one die factor per chip plus one package factor and one query
    per h. Inline, the die factor is built once; each pool worker
    builds its own.
    """
    chip_name, n_chips, params = payload
    chip = get_chip(chip_name)
    stack = StackConfig(chip=chip, n_chips=n_chips)
    model = ThermalModel(stack, h_sweep_cooling(h), params)
    return model.max_temperature_c(chip.ladder.f_max_hz)


def temperature_vs_h(chip_name: str, h_values: tuple[float, ...],
                     *, n_chips: int = 4,
                     params: PackageParams = DEFAULT_PACKAGE,
                     workers: int = 1
                     ) -> HSweepSeries:
    """Maximum stack temperature vs coolant heat-transfer coefficient.

    Reproduces Fig. 14: a 4-chip stack at the chip's maximum frequency,
    fully immersed (no film — the sweep isolates the coolant itself),
    with h swept across the air-to-beyond-water range. ``workers``
    spreads the per-h factorizations over the :mod:`repro.parallel`
    pool (see :func:`_h_point_task` for why they cannot share one).
    """
    from ..parallel import ParallelConfig, run_chunked
    hs = [float(h) for h in h_values]
    with span("sweep.temperature_vs_h", chip=chip_name,
              n_points=len(hs), workers=workers):
        temps = run_chunked(hs, _h_point_task, (chip_name, n_chips, params),
                            config=ParallelConfig(workers=workers))
    return HSweepSeries(chip=chip_name, h_values=tuple(hs),
                        max_temp_c=tuple(temps))


@dataclass(frozen=True)
class FreqTempSeries:
    """Temperature vs frequency, with or without rotation (Fig. 15)."""

    cooling: str
    flipped: bool
    f_ghz: tuple[float, ...]
    max_temp_c: tuple[float, ...]


def temperature_vs_frequency(chip_name: str, cooling_name: str,
                             *, n_chips: int = 4, flipped: bool = False,
                             params: PackageParams = DEFAULT_PACKAGE
                             ) -> FreqTempSeries:
    """Max temperature across the VFS ladder for a (possibly flipped) stack."""
    chip = get_chip(chip_name)
    stack = (flip_even_layers(chip, n_chips) if flipped
             else StackConfig(chip=chip, n_chips=n_chips))
    model = ThermalModel(stack, get_cooling(cooling_name), params)
    freqs = chip.ladder.steps
    # One batched query: the factors resolved once, then one query per
    # ladder step (one sparse solve per step on the fallback path).
    temps = model.max_temperatures_many(freqs)
    return FreqTempSeries(
        cooling=cooling_name,
        flipped=flipped,
        f_ghz=tuple(f / 1e9 for f in freqs),
        max_temp_c=temps,
    )


def thermal_maps(chip_name: str, cooling_name: str, f_hz: float,
                 *, n_chips: int = 4, flipped: bool = False,
                 params: PackageParams = DEFAULT_PACKAGE
                 ) -> dict[str, np.ndarray]:
    """Per-die temperature fields (Figs. 9, 16, 18)."""
    chip = get_chip(chip_name)
    stack = (flip_even_layers(chip, n_chips) if flipped
             else StackConfig(chip=chip, n_chips=n_chips))
    model = ThermalModel(stack, get_cooling(cooling_name), params)
    return model.die_temperature_fields(f_hz)


def thermal_maps_many(chip_name: str, cooling_name: str,
                      f_hz_seq, *, n_chips: int = 4,
                      flipped: bool = False,
                      params: PackageParams = DEFAULT_PACKAGE
                      ) -> list[dict[str, np.ndarray]]:
    """Per-die temperature fields at several VFS steps, batched.

    One geometry, its factors resolved once, one query per frequency
    (one sparse solve per frequency on the fallback path). Returns one
    field dict per frequency, in input order.
    """
    chip = get_chip(chip_name)
    stack = (flip_even_layers(chip, n_chips) if flipped
             else StackConfig(chip=chip, n_chips=n_chips))
    model = ThermalModel(stack, get_cooling(cooling_name), params)
    return model.die_temperature_fields_many([float(f) for f in f_hz_seq])


def rotation_gain_c(chip_name: str, cooling_name: str, f_hz: float,
                    *, n_chips: int = 4,
                    params: PackageParams = DEFAULT_PACKAGE) -> float:
    """Temperature reduction the flip buys at one operating point."""
    plain = temperature_vs_frequency(chip_name, cooling_name,
                                     n_chips=n_chips, flipped=False,
                                     params=params)
    flip = temperature_vs_frequency(chip_name, cooling_name,
                                    n_chips=n_chips, flipped=True,
                                    params=params)
    f_ghz = f_hz / 1e9
    for f, tp, tf in zip(plain.f_ghz, plain.max_temp_c, flip.max_temp_c):
        if abs(f - f_ghz) < 1e-9:
            return tp - tf
    raise ValueError(f"{f_ghz} GHz is not a ladder step")
