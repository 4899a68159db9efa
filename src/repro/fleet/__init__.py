"""repro.fleet — datacenter-scale fleet simulation.

The paper's macro argument made executable: a datacenter of
water-immersion tanks (``tanks -> boards -> chips``) on a shared
coolant loop, fed by a seeded workload and scheduled by pluggable
placement policies, with facility-level energy/PUE/energy-reuse
accounting that reconciles against :mod:`repro.cooling.pue` and
:mod:`repro.core.energy` through the shared
:class:`~repro.cooling.accounting.EnergyAccount` ledger.

Layer map:

* :mod:`repro.fleet.model` — the plant (:class:`FleetConfig`) and the
  complete scenario (:class:`FleetScenario`, the strict JSON wire
  form the serve broker routes on ``"kind": "fleet"``);
* :mod:`repro.fleet.workload` — seeded rate- or trace-driven arrivals;
* :mod:`repro.fleet.policies` — round-robin / least-loaded /
  thermal-aware placement;
* :mod:`repro.fleet.events` — the deterministic event order (one
  merged stream with an explicit ``(time, kind, seq)`` tie-break) and
  canonical log lines;
* :mod:`repro.fleet.faults` — the seeded failure/repair engine
  (:class:`FleetFaultPlan`): paper-calibrated board wear, pump loss,
  exchanger fouling, and sensor faults, plus the incident ledger
  bridge into the resilience failure-ledger schema;
* :mod:`repro.fleet.sim` — the simulator (:func:`simulate`), scenario
  campaigns on the parallel engine (:func:`run_scenarios`), and the
  canonical campaign document;
* :mod:`repro.fleet.cli` — ``repro fleet run`` / ``repro fleet
  sweep`` / ``repro fleet chaos``.

See ``docs/fleet.md`` for the model, its calibration, and its limits.
"""

from .events import canonical_event_line
from .faults import (
    FLEET_FAULT_KINDS,
    FleetFaultEvent,
    FleetFaultPlan,
    generate_fault_timeline,
    incident_ledger_entries,
)
from .model import FleetConfig, FleetScenario
from .policies import POLICY_NAMES, BoardView, PlacementPolicy, \
    get_policy
from .sim import (
    BoardLadder,
    FleetResult,
    build_board_ladder,
    results_document,
    results_json,
    run_scenarios,
    simulate,
)
from .workload import FleetJob, WorkloadConfig, generate_arrivals

__all__ = [
    "BoardLadder",
    "BoardView",
    "FLEET_FAULT_KINDS",
    "FleetConfig",
    "FleetFaultEvent",
    "FleetFaultPlan",
    "FleetJob",
    "FleetResult",
    "FleetScenario",
    "POLICY_NAMES",
    "PlacementPolicy",
    "WorkloadConfig",
    "build_board_ladder",
    "canonical_event_line",
    "generate_arrivals",
    "generate_fault_timeline",
    "get_policy",
    "incident_ledger_entries",
    "results_document",
    "results_json",
    "run_scenarios",
    "simulate",
]
