"""Voltage-and-frequency scaling via the alpha-power delay law.

The paper approximates each voltage/frequency pair with

    T_delay ∝ C V / (V - Vth)**alpha

so the maximum frequency at supply voltage V is

    f(V) = K (V - Vth)**alpha / V

with K fixed by anchoring f(Vdd_max) = f_max. Inverting f -> V has no
closed form for general alpha; the mapping is strictly increasing on
(Vth, inf), so we invert with scalar bisection (scipy.optimize.brentq).

Power at an operating point splits into

    P_dyn(V, f) = P_dyn_max (V / V_max)**2 (f / f_max)     (C V^2 f a)
    P_stat(V)   = P_stat_max (V / V_max)                   (leakage ~ V)

with the static share at the maximum point taken from the technology
record. Leakage is evaluated at the worst-case temperature (the paper
considers steady-state worst case only), so no temperature feedback loop
is needed; the transient extension supports an optional linear
temperature coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from ..errors import VFSRangeError
from .technology import Technology

#: ``(curve, frequency)`` pairs whose supply voltage is kept.
VOLTAGE_MEMO_SIZE = 1024


@dataclass(frozen=True)
class VFSCurve:
    """The voltage-frequency relationship of one chip design.

    Attributes:
        tech: process technology (supplies V limits, Vth, alpha).
        f_max_hz: frequency delivered at ``tech.vdd_max_v``.
    """

    tech: Technology
    f_max_hz: float

    def _shape(self, v: float) -> float:
        """(V - Vth)**alpha / V — the alpha-power frequency shape."""
        t = self.tech
        return (v - t.vth_v) ** t.alpha / v

    def frequency_at(self, v: float) -> float:
        """Maximum frequency (Hz) sustainable at supply voltage ``v``."""
        t = self.tech
        if not (t.vth_v < v <= t.vdd_max_v * (1.0 + 1e-9)):
            raise VFSRangeError(
                f"supply {v} V outside ({t.vth_v}, {t.vdd_max_v}] for "
                f"technology {t.name!r}"
            )
        return self.f_max_hz * self._shape(v) / self._shape(t.vdd_max_v)

    @lru_cache(maxsize=VOLTAGE_MEMO_SIZE)
    def voltage_for(self, f_hz: float) -> float:
        """Lowest supply voltage (V) that sustains frequency ``f_hz``.

        Memoized per (curve, frequency), errors excepted: every
        answer's chip and stack power asks for the voltage of the same
        few ladder steps.

        Raises:
            VFSRangeError: if the frequency demands a voltage outside
                [vdd_min, vdd_max] (no extrapolation).
        """
        t = self.tech
        if f_hz <= 0:
            raise VFSRangeError(f"frequency must be positive, got {f_hz}")
        f_at_min = self.frequency_at(t.vdd_min_v)
        f_at_max = self.f_max_hz
        if f_hz > f_at_max * (1.0 + 1e-9):
            raise VFSRangeError(
                f"frequency {f_hz / 1e9:.3f} GHz exceeds the chip maximum "
                f"{f_at_max / 1e9:.3f} GHz"
            )
        if f_hz < f_at_min * (1.0 - 1e-9):
            raise VFSRangeError(
                f"frequency {f_hz / 1e9:.3f} GHz requires a supply below "
                f"vdd_min = {t.vdd_min_v} V "
                f"(minimum supported is {f_at_min / 1e9:.3f} GHz)"
            )
        f_clamped = min(max(f_hz, f_at_min), f_at_max)
        if f_clamped == f_at_max:
            return t.vdd_max_v
        if f_clamped == f_at_min:
            return t.vdd_min_v
        return brentq(
            lambda v: self.frequency_at(v) - f_clamped,
            t.vdd_min_v, t.vdd_max_v, xtol=1e-9,
        )

    def dynamic_scale(self, f_hz: float) -> float:
        """Dynamic-power ratio P_dyn(f) / P_dyn(f_max) = (V/Vmax)^2 (f/fmax)."""
        v = self.voltage_for(f_hz)
        t = self.tech
        return (v / t.vdd_max_v) ** 2 * (f_hz / self.f_max_hz)

    def static_scale(self, f_hz: float) -> float:
        """Static-power ratio P_stat(f) / P_stat(f_max) = V/Vmax."""
        v = self.voltage_for(f_hz)
        return v / self.tech.vdd_max_v


@dataclass(frozen=True)
class VFSLadder:
    """A discrete ladder of VFS steps, as the paper configures McPAT.

    The paper's two designs:

    * low-power CMP: 11 steps, 1.0 to 2.0 GHz in 0.1 GHz increments;
    * high-frequency CMP: 13 steps, 1.2 to 3.6 GHz in 0.2 GHz increments.

    Attributes:
        f_min_hz, f_max_hz: ladder endpoints, inclusive.
        step_hz: increment between adjacent steps.
    """

    f_min_hz: float
    f_max_hz: float
    step_hz: float

    def __post_init__(self) -> None:
        if not (0 < self.f_min_hz < self.f_max_hz):
            raise VFSRangeError(
                f"ladder endpoints must satisfy 0 < f_min < f_max, got "
                f"{self.f_min_hz}..{self.f_max_hz}"
            )
        if self.step_hz <= 0:
            raise VFSRangeError(f"step must be positive, got {self.step_hz}")
        n = (self.f_max_hz - self.f_min_hz) / self.step_hz
        if abs(n - round(n)) > 1e-6:
            raise VFSRangeError(
                "ladder span must be an integer number of steps: "
                f"({self.f_max_hz} - {self.f_min_hz}) / {self.step_hz} = {n}"
            )

    @property
    def num_steps(self) -> int:
        """Number of discrete steps, endpoints inclusive."""
        return int(round((self.f_max_hz - self.f_min_hz) / self.step_hz)) + 1

    def frequencies(self) -> np.ndarray:
        """All step frequencies in ascending order (Hz)."""
        return self.f_min_hz + self.step_hz * np.arange(self.num_steps)

    def contains(self, f_hz: float, *, tol: float = 1e3) -> bool:
        """True if ``f_hz`` is (within tol Hz of) a ladder step."""
        return bool(np.any(np.abs(self.frequencies() - f_hz) <= tol))

    def floor(self, f_hz: float) -> float:
        """Largest ladder step <= ``f_hz``.

        Raises:
            VFSRangeError: if ``f_hz`` is below the lowest step.
        """
        freqs = self.frequencies()
        eligible = freqs[freqs <= f_hz * (1.0 + 1e-12)]
        if eligible.size == 0:
            raise VFSRangeError(
                f"{f_hz / 1e9:.3f} GHz is below the ladder minimum "
                f"{self.f_min_hz / 1e9:.3f} GHz"
            )
        return float(eligible[-1])
