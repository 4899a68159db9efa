"""Fleet plant description: tanks, boards, coolant loop, scenario.

The physical model, bottom-up:

* **Board** — one immersed node: a :class:`~repro.stack.chipstack.
  StackConfig` of ``n_chips`` library chips plus board overhead
  (``idle_power_w``). A board offers ``slots_per_board`` execution
  slots; each running job drives one slot at the board's current VFS
  frequency.
* **Tank** — ``boards_per_tank`` boards sharing one water volume.
  The water is a lumped thermal mass (``rho * c_p * volume``) cooled
  by a heat-exchanger loop whose capacity rate is
  ``effectiveness * flow * rho * c_p`` (the epsilon-NTU first-order
  reading: an imperfect exchanger removes a fraction of the ideal
  counterflow heat). This is the dynamic generalization of
  :meth:`repro.cooling.tank.TankConfig.bulk_water_temp_c` — at steady
  state with effectiveness 1 the two agree exactly (pinned in
  ``tests/test_fleet.py``).
* **Loop coupling** — tanks sit on a shared facility loop in row
  order; a fraction ``coupling`` of each neighbor's excess water
  temperature (over the facility supply) leaks into a tank's
  effective inlet. One hot tank therefore raises its neighbors'
  inlets, center tanks (two neighbors) run warmer than edge tanks,
  and placement policy starts to matter (see
  :mod:`repro.fleet.policies`).
* **Scenario** — plant + workload + policy + seed + duration: the
  complete, hashable description of one simulation.
  :meth:`FleetScenario.to_dict` / :meth:`~FleetScenario.from_dict`
  are the strict JSON wire form (unknown keys named and rejected,
  like :class:`~repro.config.ExperimentSpec`), tagged
  ``"kind": "fleet"`` so the serve broker can route scenario
  submissions (see :mod:`repro.serve.broker`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

from ..config import (fields_from_dict, fields_to_dict,
                      require_finite, typed_value)
from ..cooling.options import cooling_names
from ..errors import ConfigurationError
from ..power.processors import chip_names, get_chip
from ..stack.chipstack import check_stack_height
from ..thermal.coolants import WATER

__all__ = ["FleetConfig", "FleetScenario"]

from .faults import FleetFaultPlan
from .policies import POLICY_NAMES
from .workload import WorkloadConfig


@dataclass(frozen=True)
class FleetConfig:
    """The plant: tank array, boards, chips, and the coolant loop.

    Attributes:
        n_tanks: immersion tanks on the facility loop (a row).
        boards_per_tank: immersed boards sharing each tank's water.
        chip: library chip name (see :mod:`repro.power.processors`).
        n_chips: chips stacked per board.
        cooling: cooling option of the per-board thermal model
            (normally ``"water"`` — these are immersion tanks).
        threshold_c: DTM temperature cap (None = the chip's own).
        supply_temp_c: facility supply water temperature. Warm-water
            designs (iDataCool) run 30-45 C to make the return heat
            reusable.
        exchange_flow_m3_s: per-tank exchanger loop flow.
        exchanger_effectiveness: epsilon in (0, 1] scaling the
            exchanger's capacity rate.
        tank_volume_m3: water volume per tank (the thermal mass).
        coupling: fraction of each neighbor's excess temperature
            added to a tank's effective inlet, in [0, 1).
        pump_power_w: per-tank circulation/exchanger pump draw —
            cooling overhead in the energy account, not heat into the
            water.
        slots_per_board: concurrent jobs a board can run.
        idle_power_w: per-board power at zero load (VRMs, NICs; also
            what a DTM-stalled board keeps burning).
        step_s: simulation step length, seconds.
        reuse_fraction: fraction of rejected heat exported to a
            consumer (credited by ERE, not PUE), in [0, 1].
        non_cooling_overhead_fraction: distribution/lighting overhead
            as a fraction of IT energy (same convention as
            :class:`~repro.cooling.pue.CoolingFacility`).
    """

    n_tanks: int = 4
    boards_per_tank: int = 16
    chip: str = "low-power-cmp"
    n_chips: int = 4
    cooling: str = "water"
    threshold_c: float | None = None
    supply_temp_c: float = 30.0
    exchange_flow_m3_s: float = 2.0e-4
    exchanger_effectiveness: float = 0.9
    tank_volume_m3: float = 0.5
    coupling: float = 0.35
    pump_power_w: float = 120.0
    slots_per_board: int = 1
    idle_power_w: float = 15.0
    step_s: float = 30.0
    reuse_fraction: float = 0.0
    non_cooling_overhead_fraction: float = 0.02

    def __post_init__(self) -> None:
        require_finite(self, "fleet config")
        if self.n_tanks < 1:
            raise ConfigurationError("need at least one tank")
        if self.boards_per_tank < 1:
            raise ConfigurationError("need at least one board per tank")
        if self.chip not in chip_names():
            raise ConfigurationError(
                f"unknown chip {self.chip!r}; expected one of "
                f"{', '.join(chip_names())}")
        if self.n_chips < 1:
            raise ConfigurationError("need at least one chip per board")
        check_stack_height(self.n_chips)
        if self.cooling not in cooling_names():
            raise ConfigurationError(
                f"unknown cooling {self.cooling!r}; expected one of "
                f"{', '.join(cooling_names())}")
        if self.threshold_c is not None and self.threshold_c <= 0:
            raise ConfigurationError(
                f"threshold must be positive, got {self.threshold_c}")
        if self.exchange_flow_m3_s <= 0:
            raise ConfigurationError("exchange flow must be positive")
        if not 0.0 < self.exchanger_effectiveness <= 1.0:
            raise ConfigurationError(
                f"exchanger effectiveness must be in (0, 1], got "
                f"{self.exchanger_effectiveness}")
        if self.tank_volume_m3 <= 0:
            raise ConfigurationError("tank volume must be positive")
        if not 0.0 <= self.coupling < 1.0:
            raise ConfigurationError(
                f"coupling must be in [0, 1), got {self.coupling}")
        if self.pump_power_w < 0:
            raise ConfigurationError("pump power cannot be negative")
        if self.slots_per_board < 1:
            raise ConfigurationError("need at least one slot per board")
        if self.idle_power_w < 0:
            raise ConfigurationError("idle power cannot be negative")
        if self.step_s <= 0:
            raise ConfigurationError("step must be positive")
        if not 0.0 <= self.reuse_fraction <= 1.0:
            raise ConfigurationError(
                f"reuse fraction must be in [0, 1], got "
                f"{self.reuse_fraction}")
        if self.non_cooling_overhead_fraction < 0:
            raise ConfigurationError(
                "non-cooling overhead cannot be negative")
        # explicit-Euler stability of the tank update: the water time
        # constant C / (eps * Q * rho * cp) must exceed the step
        if self.step_s >= self.tank_time_constant_s():
            raise ConfigurationError(
                f"step_s={self.step_s} is not below the tank time "
                f"constant {self.tank_time_constant_s():.1f} s; "
                f"shrink the step or grow tank_volume_m3")

    @property
    def n_boards(self) -> int:
        """Total boards in the fleet."""
        return self.n_tanks * self.boards_per_tank

    def effective_threshold_c(self) -> float:
        """The DTM cap actually applied (chip default or override)."""
        if self.threshold_c is not None:
            return self.threshold_c
        return get_chip(self.chip).threshold_c

    def heat_capacity_rate_w_k(self) -> float:
        """Exchanger capacity rate ``eps * Q * rho * c_p`` (W/K)."""
        return (self.exchanger_effectiveness
                * self.exchange_flow_m3_s
                * WATER.density_kg_m3 * WATER.specific_heat_j_kgk)

    def tank_heat_capacity_j_k(self) -> float:
        """Lumped water thermal mass ``rho * c_p * V`` (J/K)."""
        return (WATER.density_kg_m3 * WATER.specific_heat_j_kgk
                * self.tank_volume_m3)

    def tank_time_constant_s(self) -> float:
        """First-order water time constant (stability bound)."""
        return self.tank_heat_capacity_j_k() / self.heat_capacity_rate_w_k()

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetConfig":
        """Strict parse: unknown keys are named and rejected."""
        return fields_from_dict(cls, data, "fleet config")


@dataclass(frozen=True)
class FleetScenario:
    """One complete simulation: plant + workload + policy + seed.

    Attributes:
        fleet: the plant (:class:`FleetConfig`).
        workload: the arrival process (:class:`~repro.fleet.workload.
            WorkloadConfig`).
        policy: placement policy name (:data:`~repro.fleet.policies.
            POLICY_NAMES`).
        seed: base RNG seed (arrivals derive from it via
            :func:`~repro.parallel.derive_seed`).
        duration_s: simulated wall time.
        label: free-form tag carried into results and logs.
        faults: optional seeded failure/repair campaign
            (:class:`~repro.fleet.faults.FleetFaultPlan`). A plan with
            all rates zero is normalized to ``None`` so a zero-rate
            scenario is *the same scenario* as a fault-free one —
            identical wire form, identical event log, identical result
            bytes (the zero-rate-equals-baseline acceptance test holds
            by construction).
    """

    #: wire/routing tag (matches the ``"kind"`` key of :meth:`to_dict`;
    #: the serve broker dispatches on it without importing this module).
    kind: ClassVar[str] = "fleet"

    fleet: FleetConfig = field(default_factory=FleetConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    policy: str = "thermal-aware"
    seed: int = 0
    duration_s: float = 3600.0
    label: str = ""
    faults: FleetFaultPlan | None = None

    def __post_init__(self) -> None:
        require_finite(self, "fleet scenario")
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{', '.join(POLICY_NAMES)}")
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration_s}")
        if self.duration_s < self.fleet.step_s:
            raise ConfigurationError(
                "duration shorter than one simulation step")
        if self.faults is not None and self.faults.is_null:
            object.__setattr__(self, "faults", None)

    @property
    def n_steps(self) -> int:
        """Whole steps the simulation runs."""
        return int(self.duration_s / self.fleet.step_s)

    def to_dict(self) -> dict:
        """JSON wire form, tagged for broker routing."""
        out = {
            "kind": "fleet",
            "fleet": self.fleet.to_dict(),
            "workload": self.workload.to_dict(),
            "policy": self.policy,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "label": self.label,
        }
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FleetScenario":
        """Strict parse of :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fleet scenario must be a JSON object, got "
                f"{type(data).__name__}")
        kind = data.get("kind", "fleet")
        if kind != "fleet":
            raise ConfigurationError(
                f'fleet scenario "kind" must be "fleet", got {kind!r}')
        known = {"kind", "fleet", "workload", "policy", "seed",
                 "duration_s", "label", "faults"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown fleet scenario key(s): {', '.join(unknown)}")
        faults = None
        if data.get("faults") is not None:
            faults = FleetFaultPlan.from_dict(data["faults"])
        scalars = {name: typed_value(kind, data[name], name,
                                     "fleet scenario")
                   for name, kind in (("policy", str), ("seed", int),
                                      ("duration_s", float),
                                      ("label", str))
                   if name in data}
        return cls(
            fleet=FleetConfig.from_dict(data.get("fleet", {})),
            workload=WorkloadConfig.from_dict(
                data.get("workload", {"kind": "rate"})),
            faults=faults,
            **scalars,
        )

    def with_policy(self, policy: str) -> "FleetScenario":
        """Same scenario under a different policy (sweeps, benches)."""
        return replace(self, policy=policy)
