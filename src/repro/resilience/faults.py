"""Deterministic fault injection for the thermal/performance pipeline.

The harness perturbs the pipeline at the places field campaigns break:

* ``singular`` — perturb the thermal conductance matrix toward
  singularity (a floating island with no path to any boundary), so the
  sparse-LU factorization or its probe solve raises
  :class:`~repro.errors.SingularNetworkError`;
* ``nan_power`` / ``inf_power`` — corrupt one cell of a per-die power
  map, tripping the network's non-finite guard
  (:class:`~repro.errors.ThermalModelError`);
* ``drop_vfs`` — randomly remove steps from the VFS ladder before the
  max-frequency search;
* ``timeout`` — simulate a solver timeout
  (:class:`~repro.errors.TransientSolverError`, the retryable class).

Every decision is drawn from a per-site :class:`random.Random` stream
derived from the injector seed, so the same seed replays the same fault
sequence (given the same call sequence) and a disabled injector is an
exact no-op — both properties are pinned by the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    ConfigurationError,
    SingularNetworkError,
    TransientSolverError,
)
from ..obs import counter, log_event

#: Recognized fault kinds and the site each one perturbs.
FAULT_KINDS: dict[str, str] = {
    "singular": "thermal",
    "nan_power": "power",
    "inf_power": "power",
    "drop_vfs": "vfs",
    "timeout": "thermal",
    "worker_kill": "process",
    "worker_hang": "process",
    "slow_heartbeat": "process",
}

#: The kinds executed *inside a worker process* by the supervised pool
#: (:mod:`repro.parallel.supervisor`) rather than inside the model
#: pipeline: ``worker_kill`` SIGKILLs the worker mid-chunk,
#: ``worker_hang`` wedges it (caught by the chunk wall-clock deadline),
#: ``slow_heartbeat`` suppresses its heartbeats (caught by the
#: heartbeat deadline).
PROCESS_FAULT_KINDS: tuple[str, ...] = tuple(
    k for k, site in FAULT_KINDS.items() if site == "process")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault family.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        probability: chance the fault fires at each visit of its site.
        max_fires: stop firing after this many injections (None =
            unlimited). ``max_fires=1`` with ``probability=1`` models a
            transient failure that succeeds on retry.
    """

    kind: str
    probability: float = 1.0
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(sorted(FAULT_KINDS))}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigurationError("max_fires must be >= 1 or None")

    @property
    def site(self) -> str:
        """The pipeline site this fault perturbs."""
        return FAULT_KINDS[self.kind]

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a CLI spec: ``kind``, ``kind:prob``, ``kind:prob:max``."""
        parts = text.split(":")
        if len(parts) > 3:
            raise ConfigurationError(f"malformed fault spec {text!r}")
        kind = parts[0]
        prob = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        max_fires = (int(parts[2])
                     if len(parts) > 2 and parts[2] else None)
        return cls(kind=kind, probability=prob, max_fires=max_fires)


@dataclass(frozen=True)
class ProcessFaultPlan:
    """Stateless, deterministic schedule of process-level faults.

    Unlike :class:`FaultInjector` — whose per-site streams advance
    with traffic and therefore live in exactly one process — the plan
    is *stateless*: the decision for a task is a pure function of
    ``(seed, fault kind, task key, attempt)``, so every worker, every
    restart, and every worker count agrees on which chunks crash. That
    is what makes poison quarantine reproducible: a chunk that crashes
    at attempt 0 and 1 is quarantined on every run with the same seed
    and chunk size, and every other point is byte-identical.

    ``max_fires`` here bounds fires *per task*: a spec fires only on
    attempts ``0 .. max_fires-1`` (given the probability draw), so
    ``worker_kill:1:1`` models a transient crash that succeeds on the
    supervisor's retry, and ``worker_kill:1:2`` (with the default
    quarantine threshold of 2) deterministically poisons its chunk.

    Attributes:
        specs: process-site fault families (see
            :data:`PROCESS_FAULT_KINDS`).
        seed: master seed for the per-(kind, task, attempt) draws.
        stall_s: how long a ``slow_heartbeat`` fault mutes the
            worker's heartbeats — keep it above the supervisor's
            heartbeat deadline or the fault is a no-op.
        enabled: False makes every draw a no-op.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    stall_s: float = 60.0
    enabled: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if spec.site != "process":
                raise ConfigurationError(
                    f"ProcessFaultPlan only schedules process faults; "
                    f"{spec.kind!r} perturbs site {spec.site!r}")
        if self.stall_s <= 0:
            raise ConfigurationError("stall_s must be > 0")

    def draw(self, task_key: str, attempt: int) -> str | None:
        """The fault kind (if any) firing for this attempt of a task.

        Called in the worker just before it evaluates the chunk; the
        supervisor passes the task's crash count as ``attempt``.
        """
        if not self.enabled:
            return None
        for spec in self.specs:
            if spec.max_fires is not None and attempt >= spec.max_fires:
                continue
            # str seeds hash deterministically (SHA-512 path), exactly
            # like FaultInjector's per-site streams.
            rng = random.Random(
                f"{self.seed}:process:{spec.kind}:{task_key}:{attempt}")
            if rng.random() < spec.probability:
                return spec.kind
        return None


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: which kind, at which visit of which site."""

    site: str
    kind: str
    visit: int


class FaultInjector:
    """Seeded, replayable fault scheduler.

    Args:
        specs: fault families to schedule.
        seed: master seed; per-site streams are derived from it, so the
            decision at a site does not depend on traffic at others.
        enabled: False makes every query a no-op (zero perturbation).
    """

    def __init__(self, specs: tuple[FaultSpec, ...] | list[FaultSpec] = (),
                 *, seed: int = 0, enabled: bool = True) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self.enabled = enabled
        self._events: list[FaultEvent] = []
        self._fired: dict[FaultSpec, int] = {}
        self._visits: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            # str seeds hash deterministically (SHA-512 path), so the
            # stream depends only on (seed, site).
            rng = random.Random(f"{self.seed}:{site}")
            self._rngs[site] = rng
        return rng

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Every fault fired so far, in order."""
        return tuple(self._events)

    def reset(self) -> None:
        """Forget all history; the next run replays the same sequence."""
        self._events.clear()
        self._fired.clear()
        self._visits.clear()
        self._rngs.clear()

    def draw(self, site: str) -> FaultSpec | None:
        """The fault (if any) firing at this visit of a site.

        Each registered spec for the site consumes one uniform draw per
        visit whether or not it fires, so sequences stay aligned across
        runs with different probabilities of *other* specs.
        """
        if not self.enabled:
            return None
        visit = self._visits.get(site, 0)
        self._visits[site] = visit + 1
        rng = self._rng(site)
        chosen: FaultSpec | None = None
        for spec in self.specs:
            if spec.site != site:
                continue
            u = rng.random()
            if chosen is not None:
                continue
            fired = self._fired.get(spec, 0)
            if spec.max_fires is not None and fired >= spec.max_fires:
                continue
            if u < spec.probability:
                self._fired[spec] = fired + 1
                chosen = spec
        if chosen is not None:
            self._events.append(FaultEvent(site=site, kind=chosen.kind,
                                           visit=visit))
            counter("resilience.faults_injected").inc()
            log_event("fault_injected", site=site, kind=chosen.kind,
                      visit=visit)
        return chosen

    def vfs_rng(self) -> random.Random:
        """The dedicated stream for VFS-step dropping."""
        return self._rng("vfs-steps")

    def power_rng(self) -> random.Random:
        """The dedicated stream for power-map cell selection."""
        return self._rng("power-cells")


def corrupt_power_maps(maps: dict[str, np.ndarray], kind: str,
                       rng: random.Random) -> dict[str, np.ndarray]:
    """A copy of per-layer power maps with one cell made non-finite."""
    if kind not in ("nan_power", "inf_power"):
        raise ConfigurationError(f"not a power fault kind: {kind!r}")
    bad = np.nan if kind == "nan_power" else np.inf
    names = sorted(maps)
    if not names:
        return dict(maps)
    target = names[rng.randrange(len(names))]
    out = {name: np.array(arr, dtype=float, copy=True)
           for name, arr in maps.items()}
    arr = out[target]
    flat = arr.reshape(-1)
    flat[rng.randrange(flat.size)] = bad
    return out


def drop_vfs_steps(freqs: tuple[float, ...] | list[float],
                   rng: random.Random, *,
                   drop_probability: float = 0.5) -> tuple[float, ...]:
    """A sub-ladder with steps randomly removed (at least one survives).

    The lowest step is always kept: dropping it would turn a feasible
    configuration infeasible, which is a different failure mode than
    the "ladder lookup misses" this fault models.
    """
    if not freqs:
        raise ConfigurationError("cannot drop steps from an empty ladder")
    kept = [freqs[0]]
    kept.extend(f for f in freqs[1:]
                if rng.random() >= drop_probability)
    return tuple(kept)


def make_floating_island(network):
    """A copy of a thermal network with a disconnected extra layer.

    The island has lateral conductances but no interface and no
    boundary, so the assembled conductance matrix gains a singular
    block: ``splu`` either raises outright (exact zero pivot) or
    "succeeds" and is caught by the probe solve — both surface as
    :class:`~repro.errors.SingularNetworkError`.
    """
    from ..floorplan.geometry import Rect
    from ..thermal.layers import GridLayer
    from ..thermal.network import ThermalNetwork
    template = network.layers[0]
    island = GridLayer(
        name="__fault_island__",
        outline=Rect(template.outline.x, template.outline.y,
                     template.outline.w, template.outline.h),
        thickness_m=template.thickness_m,
        material=template.material,
        nx=2, ny=2,
    )
    return ThermalNetwork(
        layers=list(network.layers) + [island],
        interfaces=list(network.interfaces),
        boundaries=list(network.boundaries),
    )


class FaultyThermalModel:
    """A thermal model whose queries pass through the fault harness.

    Wraps a :class:`~repro.thermal.hotspot.ThermalModel` and consults
    the injector on every temperature query:

    * a ``singular`` fault re-solves against a floating-island variant
      of the real network, so the genuine singularity detection path
      (factorization failure or probe solve) raises;
    * a ``timeout`` fault raises
      :class:`~repro.errors.TransientSolverError`;
    * a ``nan_power`` / ``inf_power`` fault corrupts the real power
      maps and feeds them through the real network, tripping its
      non-finite guard.

    Clean queries delegate to the wrapped model (keeping its
    per-frequency result cache and amortized factorization).
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    @property
    def stack(self):
        """The wrapped model's stack (frequency-optimizer interface)."""
        return self.inner.stack

    @property
    def die_names(self) -> tuple[str, ...]:
        """The wrapped model's die layer names."""
        return self.inner.die_names

    def max_temperature_c(self, f_hz: float) -> float:
        """Hottest die-cell temperature, with scheduled faults applied."""
        spec = self.injector.draw("thermal")
        if spec is not None:
            if spec.kind == "singular":
                island = make_floating_island(self.inner.network)
                island.solve({})   # raises SingularNetworkError
                raise SingularNetworkError(
                    "injected floating island was unexpectedly solvable"
                )
            if spec.kind == "timeout":
                raise TransientSolverError(
                    "fault injection: simulated solver timeout"
                )
        pspec = self.injector.draw("power")
        if pspec is not None:
            maps = corrupt_power_maps(self.inner.power_maps(f_hz),
                                      pspec.kind, self.injector.power_rng())
            res = self.inner.network.solve(maps)   # raises on non-finite
            return res.max_over(self.inner.die_names)
        return self.inner.max_temperature_c(f_hz)
