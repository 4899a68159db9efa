"""Transient thermal simulation (extension).

The paper evaluates the worst-case steady state only, noting that
transient analysis (3D-ICE, FloTHERM, DATE'14) and DTM evaluation need
the time-dependent temperature field. This extension adds that
capability on top of the same compact network:

    C dT/dt = -G T + P(t) + B T_amb

integrated with the unconditionally-stable backward-Euler scheme

    (C/dt + G) T_{k+1} = C/dt T_k + P_k + B T_amb

The iteration matrix (C/dt + G) is factorized once per time step size
— the same factorize-and-reuse pattern as the steady solver — so long
power traces integrate at one pair of triangular solves per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags

from ..errors import ThermalModelError
from .network import ThermalNetwork, ThermalResult, splu


@dataclass(frozen=True)
class TransientTrace:
    """Result of a transient integration.

    Attributes:
        times_s: sample instants (step boundaries), including t=0.
        max_temp_c: hottest-node temperature at each instant.
        fields: temperature vectors at each instant (samples x nodes);
            kept only when ``keep_fields`` was requested.
    """

    times_s: np.ndarray
    max_temp_c: np.ndarray
    fields: np.ndarray | None = None

    @property
    def peak_c(self) -> float:
        """Hottest temperature anywhere in the trace."""
        return float(self.max_temp_c.max())

    def time_above(self, threshold_c: float) -> float:
        """Total time spent above a threshold, seconds."""
        if len(self.times_s) < 2:
            return 0.0
        dt = np.diff(self.times_s)
        hot = self.max_temp_c[1:] > threshold_c
        return float(dt[hot].sum())


class TransientSolver:
    """Backward-Euler integrator over a prepared thermal network.

    Args:
        network: the (already assembled) compact network.
        dt_s: time step. Backward Euler is A-stable, so dt trades
            resolution only; package time constants are seconds while
            die constants are milliseconds — 10-50 ms resolves both DTM
            dynamics and the heating transient shape.
    """

    def __init__(self, network: ThermalNetwork, dt_s: float) -> None:
        if dt_s <= 0:
            raise ThermalModelError(f"time step must be positive, got {dt_s}")
        self.network = network
        self.dt_s = dt_s
        g = network.conductance_matrix()
        self._caps = network.capacitance_vector()
        c_over_dt = diags(self._caps / dt_s)
        self._lu = splu((c_over_dt + g).tocsc())
        self._rhs_amb = network._rhs_vector({})   # B * T_amb only

    def initial_state(self, t_c: float | None = None) -> np.ndarray:
        """A uniform starting temperature vector (ambient by default)."""
        value = self._ambient() if t_c is None else float(t_c)
        return np.full(self.network.num_nodes, value)

    def _ambient(self) -> float:
        # All boundaries share one ambient in the package builder.
        return float(self.network.boundaries[0].t_ambient_c)

    def step(self, t_vec: np.ndarray,
             power_w: dict[str, np.ndarray]) -> np.ndarray:
        """Advance one time step under a (held) power map."""
        if t_vec.shape != (self.network.num_nodes,):
            raise ThermalModelError(
                f"state vector must have {self.network.num_nodes} nodes, "
                f"got {t_vec.shape}"
            )
        rhs = (self._caps / self.dt_s) * t_vec
        rhs += self.network._rhs_vector(power_w)
        return self._lu.solve(rhs)

    def integrate(self, power_schedule, n_steps: int, *,
                  t0_c: float | None = None,
                  keep_fields: bool = False) -> TransientTrace:
        """Integrate ``n_steps`` with a possibly time-varying power map.

        Args:
            power_schedule: either a static per-layer power dict or a
                callable ``(step_index, time_s) -> power dict`` for
                time-varying input (DTM, duty-cycled workloads).
            n_steps: number of backward-Euler steps.
            t0_c: uniform initial temperature (ambient by default).
            keep_fields: retain the full field history.
        """
        if n_steps < 1:
            raise ThermalModelError("need at least one step")
        t = (np.full(self.network.num_nodes, float(t0_c))
             if t0_c is not None
             else np.full(self.network.num_nodes, self._ambient()))
        times = [0.0]
        max_t = [float(t.max())]
        fields = [t.copy()] if keep_fields else None
        for k in range(n_steps):
            power = (power_schedule(k, k * self.dt_s)
                     if callable(power_schedule) else power_schedule)
            t = self.step(t, power)
            times.append((k + 1) * self.dt_s)
            max_t.append(float(t.max()))
            if keep_fields:
                fields.append(t.copy())
        return TransientTrace(
            times_s=np.array(times),
            max_temp_c=np.array(max_t),
            fields=np.stack(fields) if keep_fields else None,
        )

    def settle(self, power_w: dict[str, np.ndarray], *,
               tol_c: float = 1e-3, max_steps: int = 200_000
               ) -> tuple[np.ndarray, int]:
        """Integrate until the state stops changing; returns (T, steps).

        Used by tests to confirm the transient solution converges to the
        steady solver's answer (a strong consistency check between the
        two code paths).
        """
        t = np.full(self.network.num_nodes, self._ambient())
        for k in range(max_steps):
            t_next = self.step(t, power_w)
            if float(np.abs(t_next - t).max()) < tol_c:
                return t_next, k + 1
            t = t_next
        raise ThermalModelError(
            f"transient did not settle within {max_steps} steps"
        )

    def result_from_state(self, t_vec: np.ndarray) -> ThermalResult:
        """Wrap a state vector as per-layer fields."""
        fields = {}
        off = 0
        for la in self.network.layers:
            fields[la.name] = t_vec[off:off + la.num_cells].reshape(
                la.ny, la.nx)
            off += la.num_cells
        return ThermalResult(fields)

    def thermal_time_constant_s(self) -> float:
        """Crude dominant time constant: total C over total boundary G.

        Useful for choosing trace lengths; the package settles within a
        few of these.
        """
        g = self.network.boundary_conductances().sum()
        if g <= 0:
            raise ThermalModelError("network has no boundary conductance")
        return float(self._caps.sum() / g)
