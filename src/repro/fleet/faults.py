"""Deterministic failure/repair engine for the fleet simulator.

The paper's reliability case (Section 2.2: five coated boards, two
years under water, per-component failure counts) already lives in
:mod:`repro.prototype.reliability` as fitted Weibull lifetime models.
This module turns those fits — plus the facility failure modes the
immersion literature reports (pump loss, exchanger fouling, sensor
drift) — into a *seeded, replayable* fault timeline the fleet DES
executes as first-class events.

Fault processes
---------------

* **Board coating-pinhole retirement** (``board_retire``) — a board's
  lifetime is the series-system minimum over its submerged component
  classes, each drawn from the paper-calibrated Weibull inverse CDF
  (:meth:`~repro.prototype.reliability.WeibullLife.quantile`). The
  fits are in *years*; ``aging_years_per_sim_hour`` compresses them
  onto simulation horizons (an accelerated-wear campaign, exactly like
  thermal-cycling a part in a week to learn about a decade).
* **Chip death** (``chip_death``) — silicon/package mortality as an
  exponential process with mean ``chip_mttf_years``, aged by the same
  acceleration factor. Both wear processes retire the whole board (a
  dead chip takes its stack out of service) but carry different repair
  classes: a coating failure means a board swap, a chip death a stack
  re-seat.
* **Pump loss** (``pump_loss``) — a tank's exchanger-loop circulation
  stops: its heat-removal capacity rate collapses to zero and the
  lumped water mass integrates pure heat input (thermal runaway). The
  simulator's incident response clamps DTM with an emergency margin
  and, by default, isolates the tank before its water crosses the DTM
  threshold (see :mod:`repro.fleet.sim`).
* **Exchanger fouling** (``fouling``) — biofilm/scale on the exchanger:
  the capacity rate is multiplied by ``fouling_factor`` until cleaned.
* **Sensor faults** (``sensor_stuck`` / ``sensor_offset``) — the tank's
  water-temperature sensor freezes at its last reading or reads a
  constant offset. The placement policy and the routine DTM path
  consume *sensor* readings, so a lying sensor mis-routes work — but
  an on-die thermal override (true-temperature clamp) keeps silicon
  under the threshold regardless (pinned in the fault tests).

Determinism
-----------

Every fault and repair time is generated **up front** as a pure
function of ``(plan, config, seed)``: per-resource streams are
``random.Random(derive_seed(seed, "fleet.faults.<site>", index))``
(SHA-256 derivation, stdlib-only arithmetic — no platform- or
version-dependent RNG), repairs are drawn from seeded exponentials,
and a resource's next fault is always drawn *after* its repair
completes, so per-resource fault intervals never overlap. A plan whose
rates are all zero has an empty timeline, and the simulator runs the
same step loop over it as over a fault-free scenario's. The scenario
still normalizes such a plan to ``None`` (:attr:`FleetFaultPlan.
is_null`), so its wire form, serve cache key and result (which then
carries no availability report) are the fault-free scenario's too.

The incident ledger
-------------------

:func:`incident_ledger_entries` renders a faulted run's incident list
in the :mod:`repro.resilience` failure-ledger schema
(:class:`~repro.core.campaign.LedgerEntry` over a ``kind="fleet"``
:class:`~repro.core.campaign.CampaignPoint`), so ``repro fleet chaos
--ledger-out`` emits files the existing ledger tooling parses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..config import fields_from_dict, fields_to_dict, require_finite
from ..errors import ConfigurationError
from ..parallel import derive_seed

__all__ = [
    "FLEET_FAULT_KINDS",
    "INCIDENT_EXCEPTIONS",
    "FleetFaultEvent",
    "FleetFaultPlan",
    "generate_fault_timeline",
    "incident_ledger_entries",
]

#: Scheduled fault kinds and the resource scope each one hits.
FLEET_FAULT_KINDS: dict[str, str] = {
    "board_retire": "board",
    "chip_death": "board",
    "pump_loss": "tank",
    "fouling": "tank",
    "sensor_stuck": "tank",
    "sensor_offset": "tank",
}

#: Ledger ``exception`` names per incident kind (``tank_isolated`` is
#: raised by the simulator's incident response, not the timeline).
INCIDENT_EXCEPTIONS: dict[str, str] = {
    "board_retire": "CoatingPinholeFault",
    "chip_death": "ChipDeathFault",
    "pump_loss": "PumpLossFault",
    "fouling": "ExchangerFoulingFault",
    "sensor_stuck": "SensorStuckFault",
    "sensor_offset": "SensorOffsetFault",
    "tank_isolated": "TankIsolated",
}

_COATINGS = ("masked", "coated")

#: Microseconds per simulated hour.
_US_PER_HOUR = 3_600_000_000


@dataclass(frozen=True)
class FleetFaultPlan:
    """The complete, hashable description of one fault campaign.

    Rates are per resource (board or tank) per *simulated* hour; wear
    processes additionally scale through the aging acceleration. All
    rates zero means the plan is inert (:attr:`is_null`) and the
    scenario normalizes it to ``None``.

    Attributes:
        aging_years_per_sim_hour: years of component wear per simulated
            hour (0 disables board retirement and chip death). The
            Section 2.2 fits live on year scales; this is the
            accelerated-life knob that maps them onto sim horizons.
        coating: ``"masked"`` (risky connectors above water — the
            paper's recommendation) or ``"coated"`` (everything
            submerged); selects which reliability model draws board
            lifetimes.
        chip_mttf_years: mean (exponential) chip/stack lifetime in
            years before acceleration (0 disables chip death).
        pump_loss_per_tank_hour: Poisson rate of exchanger-pump loss
            per tank-hour.
        fouling_per_tank_hour: Poisson rate of exchanger fouling per
            tank-hour.
        fouling_factor: capacity-rate multiplier while fouled, in
            [0, 1).
        sensor_fault_per_tank_hour: Poisson rate of water-sensor
            faults per tank-hour (stuck or offset, seeded coin flip).
        sensor_offset_c: the constant error an offset-faulted sensor
            reads (negative = reads cold, luring the thermal-aware
            policy toward hot tanks).
        board_repair_hours: mean board-swap time after a coating
            failure.
        chip_repair_hours: mean stack re-seat time after a chip death.
        pump_repair_hours: mean pump/exchanger repair time.
        sensor_repair_hours: mean sensor replacement time.
        emergency_margin_c: extra water-temperature margin the DTM
            clamp assumes while a tank's pump is down (the emergency
            derate).
        isolation_margin_c: degrees below the DTM threshold at which a
            pump-lost tank is isolated (boards powered off, tank valved
            off the loop) to stop the runaway.
        isolate_on_pump_loss: False disables tank isolation (the water
            then runs away — useful to demonstrate why the response
            exists).
    """

    aging_years_per_sim_hour: float = 0.0
    coating: str = "masked"
    chip_mttf_years: float = 0.0
    pump_loss_per_tank_hour: float = 0.0
    fouling_per_tank_hour: float = 0.0
    fouling_factor: float = 0.25
    sensor_fault_per_tank_hour: float = 0.0
    sensor_offset_c: float = -8.0
    board_repair_hours: float = 12.0
    chip_repair_hours: float = 6.0
    pump_repair_hours: float = 2.0
    sensor_repair_hours: float = 1.0
    emergency_margin_c: float = 3.0
    isolation_margin_c: float = 5.0
    isolate_on_pump_loss: bool = True

    def __post_init__(self) -> None:
        require_finite(self, "fault plan")
        for name in ("aging_years_per_sim_hour", "chip_mttf_years",
                     "pump_loss_per_tank_hour", "fouling_per_tank_hour",
                     "sensor_fault_per_tank_hour", "emergency_margin_c",
                     "isolation_margin_c"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} cannot be negative, got "
                    f"{getattr(self, name)}")
        if self.coating not in _COATINGS:
            raise ConfigurationError(
                f"coating must be one of {_COATINGS}, got "
                f"{self.coating!r}")
        if not 0.0 <= self.fouling_factor < 1.0:
            raise ConfigurationError(
                f"fouling_factor must be in [0, 1), got "
                f"{self.fouling_factor}")
        for name in ("board_repair_hours", "chip_repair_hours",
                     "pump_repair_hours", "sensor_repair_hours"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}")

    @property
    def is_null(self) -> bool:
        """True when no fault process can ever fire (zero rates)."""
        return (self.aging_years_per_sim_hour == 0.0
                and self.pump_loss_per_tank_hour == 0.0
                and self.fouling_per_tank_hour == 0.0
                and self.sensor_fault_per_tank_hour == 0.0)

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return fields_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetFaultPlan":
        """Strict parse: unknown keys are named and rejected."""
        return fields_from_dict(cls, data, "fault plan")


@dataclass(frozen=True)
class FleetFaultEvent:
    """One scheduled fault or repair on one resource.

    Attributes:
        time_us: when it happens (integer microseconds).
        action: ``"fault"`` or ``"repair"``.
        kind: one of :data:`FLEET_FAULT_KINDS`.
        scope: ``"board"`` or ``"tank"`` (the kind's resource scope).
        index: global board index or tank index.
    """

    time_us: int
    action: str
    kind: str
    scope: str
    index: int

    def __post_init__(self) -> None:
        if self.action not in ("fault", "repair"):
            raise ConfigurationError(
                f"fault event action must be fault/repair, got "
                f"{self.action!r}")
        if self.kind not in FLEET_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fleet fault kind {self.kind!r}")
        if FLEET_FAULT_KINDS[self.kind] != self.scope:
            raise ConfigurationError(
                f"fault kind {self.kind!r} has scope "
                f"{FLEET_FAULT_KINDS[self.kind]!r}, got {self.scope!r}")


def _schedule(out: list[FleetFaultEvent], fail_h: float, repair_h: float,
              horizon_us: int, kind: str, scope: str,
              index: int) -> float | None:
    """Append a fault and its repair (strictly after it, so the repair-
    before-fault rank order never orphans a failure); the hour the next
    fault draws from, or None once past the horizon."""
    fail_us = int(round(fail_h * _US_PER_HOUR))
    repair_us = max(int(round(repair_h * _US_PER_HOUR)), fail_us + 1)
    if fail_us >= horizon_us:
        return None
    out.append(FleetFaultEvent(fail_us, "fault", kind, scope, index))
    if repair_us >= horizon_us:
        return None             # down through the horizon: no repair
    out.append(FleetFaultEvent(repair_us, "repair", kind, scope, index))
    return repair_us / _US_PER_HOUR


def _wear_timeline(plan: FleetFaultPlan, n_boards: int, seed: int,
                   horizon_us: int,
                   out: list[FleetFaultEvent]) -> None:
    """Board retirement + chip death: alternating-renewal per board."""
    from ..prototype.reliability import fully_coated_board, masked_board

    aging = plan.aging_years_per_sim_hour
    if aging <= 0.0:
        return
    rel = (masked_board() if plan.coating == "masked"
           else fully_coated_board())
    n_classes = len(rel.submerged)
    for b in range(n_boards):
        rng = random.Random(derive_seed(seed, "fleet.faults.wear", b))
        t_h = 0.0
        while True:
            life_board_h = rel.lifetime_from_uniforms(
                [rng.random() for _ in range(n_classes)]) / aging
            if plan.chip_mttf_years > 0.0:
                life_chip_h = rng.expovariate(
                    1.0 / plan.chip_mttf_years) / aging
            else:
                life_chip_h = math.inf
            if life_board_h <= life_chip_h:
                kind, repair_mean = "board_retire", plan.board_repair_hours
                life_h = life_board_h
            else:
                kind, repair_mean = "chip_death", plan.chip_repair_hours
                life_h = life_chip_h
            fail_h = t_h + life_h
            fixed_h = fail_h + rng.expovariate(1.0 / repair_mean)
            t_h = _schedule(out, fail_h, fixed_h, horizon_us, kind,
                            "board", b)
            if t_h is None:
                break


def _renewal_timeline(site: str, kinds, rate_per_h: float,
                      repair_mean_h: float, n_tanks: int, seed: int,
                      horizon_us: int,
                      out: list[FleetFaultEvent]) -> None:
    """Per-tank Poisson fault process with seeded repair times.

    ``kinds`` is either a single kind or a callable drawing one from
    the stream (sensor faults flip a seeded coin between stuck and
    offset).
    """
    if rate_per_h <= 0.0:
        return
    for i in range(n_tanks):
        rng = random.Random(derive_seed(seed, f"fleet.faults.{site}", i))
        t_h = 0.0
        while True:
            fail_h = t_h + rng.expovariate(rate_per_h)
            kind = kinds(rng) if callable(kinds) else kinds
            fixed_h = fail_h + rng.expovariate(1.0 / repair_mean_h)
            t_h = _schedule(out, fail_h, fixed_h, horizon_us, kind,
                            "tank", i)
            if t_h is None:
                break


def generate_fault_timeline(plan: FleetFaultPlan, config,
                            seed: int, duration_s: float
                            ) -> tuple[FleetFaultEvent, ...]:
    """The full fault/repair schedule for one scenario, up front.

    A pure function of ``(plan, config geometry, seed, duration)`` —
    the simulator pushes these as events and never draws randomness
    mid-run, preserving the event stream's byte determinism. Per
    resource, faults and repairs strictly alternate (the next fault is
    drawn after the previous repair), so apply/undo logic needs no
    overlap handling.

    Args:
        plan: the fault campaign description.
        config: the :class:`~repro.fleet.model.FleetConfig` (only its
            geometry is read).
        seed: the scenario seed; per-resource streams derive from it.
        duration_s: simulated horizon; events at or past it are not
            scheduled.
    """
    horizon_us = int(round(duration_s * 1e6))
    out: list[FleetFaultEvent] = []
    _wear_timeline(plan, config.n_boards, seed, horizon_us, out)
    _renewal_timeline("pump", "pump_loss", plan.pump_loss_per_tank_hour,
                      plan.pump_repair_hours, config.n_tanks, seed,
                      horizon_us, out)
    _renewal_timeline("fouling", "fouling", plan.fouling_per_tank_hour,
                      plan.pump_repair_hours, config.n_tanks, seed,
                      horizon_us, out)
    _renewal_timeline(
        "sensor",
        lambda rng: ("sensor_stuck" if rng.random() < 0.5
                     else "sensor_offset"),
        plan.sensor_fault_per_tank_hour, plan.sensor_repair_hours,
        config.n_tanks, seed, horizon_us, out)
    return tuple(out)


def incident_ledger_entries(result) -> list:
    """A faulted run's incidents in the resilience failure-ledger form.

    Every incident becomes a :class:`~repro.core.campaign.LedgerEntry`
    over a ``kind="fleet"`` :class:`~repro.core.campaign.CampaignPoint`
    carrying the board geometry — the same schema family the campaign
    checkpoint's ``ledger`` section uses, so
    ``LedgerEntry.from_dict`` round-trips these entries exactly like
    ``repro chaos`` output (asserted by the fleet chaos CLI's
    integrity check).

    Args:
        result: a :class:`~repro.fleet.sim.FleetResult` whose scenario
            carried a fault plan (empty list otherwise).
    """
    from ..core.campaign import CampaignPoint, LedgerEntry
    from ..obs import span

    if not result.incidents:
        return []
    scenario = result.scenario
    cfg = scenario.fleet
    point = CampaignPoint(kind="fleet", chip=cfg.chip,
                          n_chips=cfg.n_chips, cooling=cfg.cooling,
                          threshold_c=cfg.threshold_c)
    entries = []
    with span("fleet.incident.ledger", incidents=len(result.incidents)):
        for inc in result.incidents:
            start_s = inc["t_start_us"] / 1e6
            end_us = inc["t_end_us"]
            if end_us is None:
                outcome = "unrepaired at horizon"
            else:
                outcome = (f"repaired after "
                           f"{(end_us - inc['t_start_us']) / 3.6e9:.3f} h")
            message = (f"{inc['kind']} on {inc['scope']} "
                       f"{inc['index']} at t={start_s:.1f} s; "
                       f"{inc['jobs_requeued']} jobs requeued; "
                       f"{outcome}")
            entries.append(LedgerEntry(
                key=(f"{point.key}/seed{scenario.seed}/{inc['kind']}/"
                     f"{inc['scope']}{inc['index']}@{inc['t_start_us']}"),
                point=point,
                exception=INCIDENT_EXCEPTIONS[inc["kind"]],
                message=message,
                attempts=1,
                rungs_tried=("incident-response",),
                allow_degraded=True,
            ))
    return entries
