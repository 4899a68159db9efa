"""Analytic (closed-form) performance tier.

For the paper's experiment — identical binaries, identical memory
system, only the clock differs — execution time decomposes per
instruction into a clocked part and a fixed-time part:

    t_instr(f) = (CPI_base + C_onchip) / f  +  t_dram_fixed

where C_onchip collects L2-hit and NoC cycles (which scale with f) and
t_dram_fixed collects DRAM nanoseconds per instruction (which do not).
A barrier-imbalance factor accounts for the slowest-thread effect.

The tier evaluates in microseconds, which lets the benches sweep 9
programs x 5 coolants x many stack heights instantly; the ablation
bench cross-checks it against the event-driven simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import SimulationError
from .cache import CacheHierarchyTiming, DEFAULT_HIERARCHY
from .memory import DEFAULT_DRAM, DramParams
from .noc.network import expected_noc_cycles
from .noc.topology import MeshTopology
from .npb import get_profile
from .system import SystemConfig
from .workload import WorkloadProfile


@dataclass(frozen=True)
class AnalyticBreakdown:
    """Per-instruction time decomposition at one frequency."""

    f_hz: float
    clocked_cycles: float
    fixed_seconds: float
    imbalance_factor: float

    @property
    def seconds_per_instruction(self) -> float:
        """Average time per instruction including imbalance."""
        return ((self.clocked_cycles / self.f_hz + self.fixed_seconds)
                * self.imbalance_factor)

    @property
    def memory_bound_fraction(self) -> float:
        """Share of time in the fixed (DRAM) component."""
        total = self.clocked_cycles / self.f_hz + self.fixed_seconds
        return self.fixed_seconds / total if total > 0 else 0.0


#: ``(imbalance_cv, threads)`` pairs whose imbalance factor is kept.
IMBALANCE_MEMO_SIZE = 1024


@lru_cache(maxsize=IMBALANCE_MEMO_SIZE)
def _imbalance_factor(cv: float, threads: int) -> float:
    """Expected slowest-of-N inflation for per-barrier work.

    For N unit-mean log-normals with coefficient of variation cv,
    E[max] ~= exp(sigma * Phi^{-1}(N/(N+1)) - sigma^2/2); we use the
    standard extreme-value approximation. Memoized: the normal quantile
    is the analytic tier's one costly step, and it depends only on the
    thread count.
    """
    if cv <= 0 or threads == 1:
        return 1.0
    from scipy.stats import norm
    sigma = float(np.sqrt(np.log(1.0 + cv * cv)))
    q = norm.ppf(threads / (threads + 1.0))
    return float(np.exp(sigma * q - 0.5 * sigma * sigma))


class AnalyticModel:
    """Closed-form execution-time model for one system configuration.

    Args:
        config: hardware configuration (for mesh size / tier count —
            deeper stacks have longer average NoC paths).
        threads: thread count (enters through the imbalance factor:
            the expected maximum of N unit-mean log-normals).

    Per-transaction NoC cycles come from the packet formula
    (:func:`~repro.perfsim.noc.network.expected_noc_cycles`), which
    equals the flit-level reference on the configuration's router
    (pinned in the NoC test suite).
    """

    def __init__(self, config: SystemConfig, *,
                 threads: int | None = None) -> None:
        self.config = config
        self.threads = threads if threads is not None else config.total_cores
        if self.threads < 1:
            raise SimulationError("need at least one thread")
        topo = MeshTopology(config.mesh_width, config.mesh_height,
                            config.n_chips)
        self._noc2 = expected_noc_cycles(topo, config.router, legs=2)
        self._noc3 = expected_noc_cycles(topo, config.router, legs=3)
        self._hier: CacheHierarchyTiming = config.hierarchy
        self._dram: DramParams = config.dram

    def breakdown(self, profile: WorkloadProfile, f_hz: float
                  ) -> AnalyticBreakdown:
        """Decompose per-instruction time at a clock frequency."""
        if f_hz <= 0:
            raise SimulationError(f"frequency must be positive, got {f_hz}")
        l1_only = (profile.l1_mpki - profile.l2_mpki) / 1000.0
        l2_miss = profile.l2_mpki / 1000.0
        shared = l2_miss * profile.sharing_fraction
        clocked = (
            profile.base_cpi
            + l1_only * (self._hier.l2_cycles + self._noc2)
            + l2_miss * (self._hier.l2_cycles + self._noc2)
            + shared * (self._noc3 - self._noc2)
        )
        # DRAM idle latency plus expected queueing. Controller
        # utilization is computed self-consistently from the stall-
        # inclusive instruction time (an optimistic f/CPI rate would
        # saturate the queue and make memory-bound programs *anti-scale*
        # with frequency, which neither gem5 nor hardware shows).
        fixed = l2_miss * self._dram.idle_latency_s
        t0 = clocked / f_hz + fixed
        fixed += l2_miss * self._queue_wait_s(profile, t0)
        return AnalyticBreakdown(
            f_hz=f_hz,
            clocked_cycles=clocked,
            fixed_seconds=fixed,
            imbalance_factor=_imbalance_factor(profile.imbalance_cv,
                                               self.threads),
        )

    def _queue_wait_s(self, profile: WorkloadProfile,
                      t_instr_s: float) -> float:
        """Expected M/D/1 wait at a memory controller.

        Args:
            t_instr_s: stall-inclusive per-instruction time used to
                derive the aggregate request rate.
        """
        if profile.l2_mpki <= 0 or t_instr_s <= 0:
            return 0.0
        per_thread_rate = profile.l2_mpki / 1000.0 / t_instr_s
        req_rate = (self.threads * per_thread_rate
                    / self._dram.num_controllers)
        s = self._dram.service_time_s
        rho = min(req_rate * s, 0.90)                 # stability clamp
        return rho * s / (2.0 * (1.0 - rho))

    def execution_time_s(self, profile: WorkloadProfile, f_hz: float
                         ) -> float:
        """Parallel execution time of the profile's instruction budget."""
        b = self.breakdown(profile, f_hz)
        return profile.instructions_per_thread * b.seconds_per_instruction

    def relative_time(self, profile: WorkloadProfile, f_hz: float,
                      f_ref_hz: float) -> float:
        """T(f) / T(f_ref) — the paper's Figs. 10-13 bar heights."""
        return (self.execution_time_s(profile, f_hz)
                / self.execution_time_s(profile, f_ref_hz))


def npb_relative_times(config: SystemConfig, f_hz: float, f_ref_hz: float,
                       *, threads: int | None = None) -> dict[str, float]:
    """Relative NPB execution times at f vs a reference frequency."""
    from .npb import NPB_ORDER
    model = AnalyticModel(config, threads=threads)
    return {
        name: model.relative_time(get_profile(name), f_hz, f_ref_hz)
        for name in NPB_ORDER
    }
