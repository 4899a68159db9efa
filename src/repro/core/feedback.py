"""Leakage-temperature feedback (extension).

The paper evaluates power at a fixed worst-case temperature: McPAT's
leakage is computed once and HotSpot solves with that power. In
reality subthreshold leakage grows with temperature, so power and
temperature form a fixed point:

    P(T) = P_dyn + P_stat0 * (1 + k (T - T_ref))
    T    = Thermal(P)

This extension iterates that loop to convergence and quantifies the
error of the paper's one-shot evaluation. The iteration is a
contraction whenever the loop gain (dP/dT x dT/dP) is below one; the
solver detects and reports thermal-runaway configurations where it is
not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ThermalModelError
from ..thermal.hotspot import ThermalModel
from ..thermal.response import block_power_vector, response_enabled

LEAKAGE_TEMP_COEFF_PER_K = 0.012
"""Fractional leakage growth per kelvin (~1-1.5 %/K is typical for
subthreshold-dominated leakage around 80 C)."""

REFERENCE_TEMP_C = 80.0
"""Temperature at which the chip's static power anchor is quoted (the
paper's worst-case threshold)."""


@dataclass(frozen=True)
class FeedbackResult:
    """Converged power-temperature fixed point.

    Attributes:
        f_hz: evaluated VFS step.
        max_temp_c: converged hottest die cell.
        one_shot_temp_c: the paper-style single-pass answer.
        chip_power_w: converged per-chip power.
        iterations: loop count until convergence.
        runaway: True when the loop diverged (thermal runaway); the
            remaining fields then hold the last iterate.
    """

    f_hz: float
    max_temp_c: float
    one_shot_temp_c: float
    chip_power_w: float
    iterations: int
    runaway: bool

    @property
    def feedback_penalty_c(self) -> float:
        """Extra degrees the paper's one-shot evaluation misses."""
        return self.max_temp_c - self.one_shot_temp_c


def solve_with_leakage_feedback(model: ThermalModel, f_hz: float, *,
                                coeff_per_k: float = LEAKAGE_TEMP_COEFF_PER_K,
                                t_ref_c: float = REFERENCE_TEMP_C,
                                tol_c: float = 0.01,
                                max_iterations: int = 60
                                ) -> FeedbackResult:
    """Iterate power(T) <-> thermal to the fixed point.

    Leakage scales each die's power by the *mean* die temperature of
    the previous iterate (leakage is distributed like the static
    budget, which our power model already carries; scaling the whole
    die by the mean-temperature factor keeps the model first-order
    consistent without re-running the power split).

    The loop runs in block-power space: every iterate is one query on
    the model's shared stack factors, and the sparse solver is never
    touched. With ``REPRO_RESPONSE_DISABLE`` set it runs on rasterized
    maps and sparse solves instead, the reference the factors are
    checked against.
    """
    if coeff_per_k < 0:
        raise ThermalModelError("leakage coefficient cannot be negative")
    chip = model.stack.chip
    dyn_w, stat_w = chip.dynamic_static_w(f_hz)
    stat_fraction = stat_w / (dyn_w + stat_w)

    if response_enabled():
        return _solve_feedback_factored(model, f_hz,
                                        stat_fraction=stat_fraction,
                                        coeff_per_k=coeff_per_k,
                                        t_ref_c=t_ref_c, tol_c=tol_c,
                                        max_iterations=max_iterations)

    base_maps = model.power_maps(f_hz)
    one_shot = model.network.solve(base_maps)
    die_names = [f"die{i}" for i in range(model.stack.n_chips)]
    one_shot_max = one_shot.max_over(die_names)

    temp = one_shot
    prev_max = one_shot_max
    for it in range(1, max_iterations + 1):
        scaled = {}
        for name in die_names:
            mean_t = float(temp.layer(name).mean())
            factor = _leak_factor(mean_t, stat_fraction, coeff_per_k,
                                  t_ref_c)
            scaled[name] = base_maps[name] * factor
        temp = model.network.solve(scaled)
        new_max = temp.max_over(die_names)
        total = sum(float(m.sum()) for m in scaled.values())
        outcome = _classify(f_hz, new_max, prev_max, one_shot_max, total,
                            model.stack.n_chips, it, tol_c)
        if outcome is not None:
            return outcome
        prev_max = new_max
    raise ThermalModelError(
        f"leakage feedback did not converge in {max_iterations} "
        f"iterations (last delta vs previous iterate exceeded {tol_c} C)"
    )


def _leak_factor(mean_t_c: float, stat_fraction: float,
                 coeff_per_k: float, t_ref_c: float) -> float:
    """Whole-die power scale factor at a given mean die temperature."""
    leak_scale = max(1.0 + coeff_per_k * (mean_t_c - t_ref_c), 0.1)
    return (1.0 - stat_fraction) + stat_fraction * leak_scale


def _classify(f_hz: float, new_max: float, prev_max: float,
              one_shot_max: float, total_power_w: float, n_chips: int,
              it: int, tol_c: float) -> FeedbackResult | None:
    """Terminal check for one iterate: converged, runaway, or neither."""
    if abs(new_max - prev_max) < tol_c:
        runaway = False
    elif new_max > 400.0 or not np.isfinite(new_max):
        runaway = True
    else:
        return None
    return FeedbackResult(
        f_hz=f_hz,
        max_temp_c=new_max,
        one_shot_temp_c=one_shot_max,
        chip_power_w=total_power_w / n_chips,
        iterations=it,
        runaway=runaway,
    )


def _solve_feedback_factored(model: ThermalModel, f_hz: float, *,
                             stat_fraction: float, coeff_per_k: float,
                             t_ref_c: float, tol_c: float,
                             max_iterations: int) -> FeedbackResult:
    """The fixed-point loop in block-power space (one query per turn)."""
    n_chips = model.stack.n_chips
    base_p = block_power_vector(model.stack, f_hz)

    t = model.temperatures(base_p)
    one_shot_max = float(t.max())

    prev_max = one_shot_max
    for it in range(1, max_iterations + 1):
        scaled_p = base_p.copy()
        per_die = scaled_p.reshape(n_chips, -1)
        for i, die_t in enumerate(t.reshape(n_chips, -1)):
            per_die[i] *= _leak_factor(float(die_t.mean()), stat_fraction,
                                       coeff_per_k, t_ref_c)
        t = model.temperatures(scaled_p)
        new_max = float(t.max())
        outcome = _classify(f_hz, new_max, prev_max, one_shot_max,
                            float(scaled_p.sum()), n_chips, it, tol_c)
        if outcome is not None:
            return outcome
        prev_max = new_max
    raise ThermalModelError(
        f"leakage feedback did not converge in {max_iterations} "
        f"iterations (last delta vs previous iterate exceeded {tol_c} C)"
    )


def max_frequency_with_feedback(model: ThermalModel,
                                threshold_c: float | None = None,
                                **kwargs) -> tuple[float, FeedbackResult | None]:
    """Feedback-aware version of the max-frequency search.

    Returns (f_hz, result); f_hz = 0.0 when no step is feasible.

    Relative to the paper-style answer the feedback can push either
    way: above the reference temperature leakage grows (feasibility
    shrinks), below it leakage is *smaller* than the worst-case anchor
    (feasibility can extend upward). The search therefore starts at the
    one-shot answer and walks in whichever direction the feedback
    allows.
    """
    from .freqopt import max_frequency
    chip = model.stack.chip
    limit = threshold_c if threshold_c is not None else chip.threshold_c
    freqs = chip.ladder.frequencies()
    start = max_frequency(model, threshold_c)
    idx = (int(np.argmin(np.abs(freqs - start.f_hz)))
           if start.feasible else 0)

    def feasible(i: int) -> FeedbackResult | None:
        res = solve_with_leakage_feedback(model, float(freqs[i]), **kwargs)
        ok = not res.runaway and res.max_temp_c <= limit + 1e-9
        return res if ok else None

    res = feasible(idx)
    if res is not None:
        # Walk upward while the (reduced-leakage) feedback permits.
        best = (float(freqs[idx]), res)
        for i in range(idx + 1, len(freqs)):
            nxt = feasible(i)
            if nxt is None:
                break
            best = (float(freqs[i]), nxt)
        return best
    # Walk downward until feasible.
    for i in range(idx - 1, -1, -1):
        res = feasible(i)
        if res is not None:
            return float(freqs[i]), res
    return 0.0, None
