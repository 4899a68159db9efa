"""Fleet fault injection and incident response.

The acceptance surface of the fault layer:

* plan validation / strict wire round-trip / null-plan normalization,
  and the zero-rate-equals-baseline byte identity;
* timeline generation: deterministic, horizon-bounded, strictly
  alternating fault/repair per resource;
* determinism of faulted runs (same-seed byte identity, worker-count
  byte identity through the wire form);
* the energy ledger closing (< 1e-6 relative) across fault types x
  policies x seeds, including mid-run board retirement and tank
  isolation, after every step as well as at the end of a run;
* every logged line, fault-free and under every fault kind, equal to
  its own canonical ``json.dumps`` re-dump;
* incident response: jobs requeued and re-placed, pump loss handled
  by the emergency DTM clamp and tank isolation so no board crosses
  the threshold (and demonstrably *does* without isolation), sensor
  faults fooling the policy while the on-die override protects
  silicon;
* availability / MTTR reconciliation against the incident ledger, the
  resilience-ledger bridge, and the ``repro fleet chaos`` CLI
  (including exit 75 on ``PoolClosedError``).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    FLEET_FAULT_KINDS,
    FleetConfig,
    FleetFaultEvent,
    FleetFaultPlan,
    FleetScenario,
    WorkloadConfig,
    generate_fault_timeline,
    incident_ledger_entries,
    simulate,
)
from repro.fleet import sim as fleet_sim

WORKLOAD = WorkloadConfig(rate_per_s=0.3, work_gcycles=400.0)

#: every fault process active at rates that actually fire in-horizon
ALL_FAULTS = FleetFaultPlan(
    aging_years_per_sim_hour=8.0,
    chip_mttf_years=8.0,
    pump_loss_per_tank_hour=0.5,
    fouling_per_tank_hour=0.3,
    sensor_fault_per_tank_hour=0.5,
)

#: small, fast-heating plant where pump loss actually threatens the
#: cap within the horizon (tau ~ 556 s, isolation must trip)
RUNAWAY_FLEET = FleetConfig(
    n_tanks=3, boards_per_tank=8, supply_temp_c=45.0,
    exchange_flow_m3_s=1.0e-4, tank_volume_m3=0.05, idle_power_w=60.0)
RUNAWAY_WORKLOAD = WorkloadConfig(rate_per_s=0.5, work_gcycles=900.0)
PUMP_ONLY = FleetFaultPlan(pump_loss_per_tank_hour=0.8,
                           pump_repair_hours=48.0)
#: every fault process on the runaway plant: with seed 4 over four
#: hours each fault kind fires, and a pump loss isolates a tank that
#: its repair then reopens
RUNAWAY_ALL_FAULTS = FleetFaultPlan(
    aging_years_per_sim_hour=1.0, chip_mttf_years=8.0,
    pump_loss_per_tank_hour=0.8, pump_repair_hours=3.0,
    fouling_per_tank_hour=0.3, sensor_fault_per_tank_hour=0.5)


def small_scenario(plan=None, *, policy="thermal-aware", seed=11,
                   hours=0.5):
    return FleetScenario(
        fleet=FleetConfig(n_tanks=3, boards_per_tank=4),
        workload=WORKLOAD, policy=policy, seed=seed,
        duration_s=hours * 3600.0, faults=plan)


def runaway_scenario(plan, *, seed=3, hours=6.0):
    return FleetScenario(fleet=RUNAWAY_FLEET, workload=RUNAWAY_WORKLOAD,
                         seed=seed, duration_s=hours * 3600.0,
                         faults=plan)


def simulate_logged(scenario):
    """``(result, event-log lines)``, the log read from the stream."""
    stream = io.StringIO()
    result = simulate(scenario, events_file=stream)
    return result, stream.getvalue().splitlines()


class TestFaultPlan:
    def test_null_plan_normalized_away(self):
        sc = small_scenario(FleetFaultPlan())
        assert sc.faults is None
        assert "faults" not in sc.to_dict()

    def test_zero_rate_plan_reproduces_baseline_bytes(self):
        base, base_log = simulate_logged(small_scenario(None))
        zero, zero_log = simulate_logged(small_scenario(FleetFaultPlan()))
        assert base.to_json() == zero.to_json()
        assert base_log == zero_log
        assert base.availability is None and zero.availability is None

    def test_wire_round_trip(self):
        sc = small_scenario(ALL_FAULTS)
        data = json.loads(json.dumps(sc.to_dict()))
        back = FleetScenario.from_dict(data)
        assert back == sc
        assert back.faults == ALL_FAULTS
        # bool and str fields round-trip; an int on the wire fills a
        # float field
        plan = FleetFaultPlan(coating="coated", isolate_on_pump_loss=False,
                              pump_loss_per_tank_hour=0.5)
        assert FleetFaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))) == plan
        data["faults"]["pump_repair_hours"] = 2
        assert FleetScenario.from_dict(data) == sc
        with pytest.raises(ConfigurationError,
                           match="'pump_loss_per_tank_hour'"):
            FleetFaultPlan.from_dict({"pump_loss_per_tank_hour": "fast"})
        with pytest.raises(ConfigurationError,
                           match="'isolate_on_pump_loss'"):
            FleetFaultPlan.from_dict({"isolate_on_pump_loss": None})
        with pytest.raises(ConfigurationError,
                           match=r"^unknown fault plan key\(s\): "
                                 r"pump_rate$"):
            FleetFaultPlan.from_dict({"pump_rate": 1.0})

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded",
                                        "thermal-aware"])
    def test_empty_timeline_runs_the_fault_free_path(self, policy):
        # a live plan whose timeline is empty within the horizon gives
        # the fault-free run's log and figures, plus full availability;
        # the stall-prone plant walks the water across several ladder
        # steps, so every DTM and placement decision is exercised
        plan = FleetFaultPlan(sensor_fault_per_tank_hour=1e-9)
        fleet = FleetConfig(n_tanks=8, boards_per_tank=16,
                            supply_temp_c=58.0, exchange_flow_m3_s=5e-5,
                            tank_volume_m3=0.1)
        base_sc = FleetScenario(
            fleet=fleet, policy=policy, seed=7, duration_s=3 * 3600.0,
            workload=WorkloadConfig(rate_per_s=0.15, work_gcycles=600.0))
        faulted = replace(base_sc, faults=plan)
        assert faulted.faults == plan
        assert generate_fault_timeline(
            plan, fleet, faulted.seed,
            faulted.n_steps * fleet.step_s) == ()
        base, base_log = simulate_logged(base_sc)
        live, live_log = simulate_logged(faulted)
        assert base.stalled_board_steps > 0
        assert live_log == base_log
        assert live.event_digest == base.event_digest
        skip = {"scenario", "availability", "incidents"}
        want = {k: v for k, v in base.to_dict().items() if k not in skip}
        got = {k: v for k, v in live.to_dict().items() if k not in skip}
        assert got == want
        assert live.availability["availability"] == 1.0
        assert live.availability["incidents_total"] == 0
        assert live.incidents == ()

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(ConfigurationError, match="pump_rate"):
            FleetFaultPlan.from_dict({"pump_rate": 1.0})

    @pytest.mark.parametrize("field,value", [
        ("aging_years_per_sim_hour", -1.0),
        ("pump_loss_per_tank_hour", -0.1),
        ("fouling_factor", 1.0),
        ("board_repair_hours", 0.0),
        ("coating", "bare"),
        ("emergency_margin_c", -1.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            FleetFaultPlan(**{field: value})

    def test_fault_event_validation(self):
        with pytest.raises(ConfigurationError):
            FleetFaultEvent(0, "fault", "meteor_strike", "tank", 0)
        with pytest.raises(ConfigurationError):
            FleetFaultEvent(0, "fault", "pump_loss", "board", 0)


class TestTimeline:
    def test_deterministic_and_horizon_bounded(self):
        cfg = FleetConfig(n_tanks=3, boards_per_tank=4)
        a = generate_fault_timeline(ALL_FAULTS, cfg, 11, 1800.0)
        b = generate_fault_timeline(ALL_FAULTS, cfg, 11, 1800.0)
        assert a == b and len(a) > 0
        assert all(fe.time_us < 1_800_000_000 for fe in a)
        assert generate_fault_timeline(ALL_FAULTS, cfg, 12, 1800.0) != a

    def test_per_stream_alternation(self):
        # alternation holds per independent renewal stream: one wear
        # stream per board, and pump / fouling / sensor streams per
        # tank (sensor_stuck and sensor_offset share the sensor one)
        streams = {"board_retire": "wear", "chip_death": "wear",
                   "pump_loss": "pump", "fouling": "fouling",
                   "sensor_stuck": "sensor", "sensor_offset": "sensor"}
        cfg = FleetConfig(n_tanks=4, boards_per_tank=8)
        tl = generate_fault_timeline(ALL_FAULTS, cfg, 5, 4 * 3600.0)
        per_resource: dict[tuple, list] = {}
        for fe in tl:
            per_resource.setdefault(
                (fe.scope, fe.index, streams[fe.kind]), []).append(fe)
        for events in per_resource.values():
            events.sort(key=lambda fe: fe.time_us)
            for i, fe in enumerate(events):
                assert fe.action == ("fault" if i % 2 == 0 else "repair")
                if fe.action == "repair":
                    assert fe.kind == events[i - 1].kind
                    assert fe.time_us > events[i - 1].time_us

    def test_scopes_match_kind_table(self):
        cfg = FleetConfig(n_tanks=3, boards_per_tank=4)
        for fe in generate_fault_timeline(ALL_FAULTS, cfg, 7, 3600.0):
            assert FLEET_FAULT_KINDS[fe.kind] == fe.scope
            limit = (cfg.n_boards if fe.scope == "board"
                     else cfg.n_tanks)
            assert 0 <= fe.index < limit

    def test_coated_boards_fail_faster_than_masked(self):
        cfg = FleetConfig(n_tanks=2, boards_per_tank=16)
        masked = generate_fault_timeline(
            FleetFaultPlan(aging_years_per_sim_hour=4.0),
            cfg, 9, 4 * 3600.0)
        coated = generate_fault_timeline(
            FleetFaultPlan(aging_years_per_sim_hour=4.0,
                           coating="coated"),
            cfg, 9, 4 * 3600.0)
        n_masked = sum(fe.action == "fault" for fe in masked)
        n_coated = sum(fe.action == "fault" for fe in coated)
        assert n_coated > n_masked


class TestFaultedDeterminism:
    def test_same_seed_byte_identity(self):
        sc = small_scenario(ALL_FAULTS)
        a, a_log = simulate_logged(sc)
        b, b_log = simulate_logged(sc)
        assert a_log == b_log
        assert a.event_digest == b.event_digest
        assert a.to_json() == b.to_json()

    def test_wire_round_trip_identity(self):
        sc = small_scenario(ALL_FAULTS)
        direct = simulate(sc)
        rebuilt = simulate(FleetScenario.from_dict(
            json.loads(json.dumps(sc.to_dict()))))
        assert direct.to_json() == rebuilt.to_json()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_identity(self, workers):
        from repro.fleet import results_json, run_scenarios

        scenarios = [small_scenario(ALL_FAULTS, policy=p, seed=s)
                     for p in ("thermal-aware", "round-robin")
                     for s in (0, 1)]
        doc = results_json(run_scenarios(scenarios, workers=workers))
        if not hasattr(type(self), "_reference"):
            type(self)._reference = doc
        assert doc == type(self)._reference

    def test_fault_events_in_canonical_log(self):
        _, log = simulate_logged(small_scenario(ALL_FAULTS))
        kinds = {json.loads(line)["ev"] for line in log}
        assert "fault" in kinds and "repair" in kinds
        for line in log:
            rec = json.loads(line)
            if rec["ev"] == "fault":
                assert rec["kind"] in FLEET_FAULT_KINDS


def every_kind_scenario():
    return runaway_scenario(RUNAWAY_ALL_FAULTS, seed=4, hours=4.0)


class TestStepLedger:
    """The ledger closes after every tank-balance phase, not only at
    the end of the run: generated == removed + stored each step."""

    @pytest.mark.parametrize("name", ["fault-free", "all-faults",
                                      "every-kind-with-isolation"])
    def test_ledger_closes_after_every_step(self, name, monkeypatch):
        scenario = {"fault-free": small_scenario(None),
                    "all-faults": small_scenario(ALL_FAULTS),
                    "every-kind-with-isolation": every_kind_scenario(),
                    }[name]
        balance = fleet_sim.FleetState.balance
        heat_cap = scenario.fleet.tank_heat_capacity_j_k()
        supply = scenario.fleet.supply_temp_c
        residuals = []

        def balance_then_check(state, *args):
            balance(state, *args)
            generated = state.generated_j
            stored = sum(heat_cap * (w - supply) for w in state.water)
            residuals.append(abs(generated - state.removed_j - stored)
                             / max(generated, 1.0))

        monkeypatch.setattr(fleet_sim.FleetState, "balance",
                            balance_then_check)
        r = simulate(scenario)
        assert len(residuals) == r.steps
        assert max(residuals) < 1e-6
        if name == "every-kind-with-isolation":
            assert set(r.availability["by_kind"]) == {
                *FLEET_FAULT_KINDS, "tank_isolated"}


class TestCanonicalLines:
    """Every logged line is its own canonical JSON re-dump."""

    @pytest.mark.parametrize("name", ["fault-free",
                                      "every-kind-with-isolation"])
    def test_lines_equal_their_json_redump(self, name):
        scenario = (small_scenario(None) if name == "fault-free"
                    else every_kind_scenario())
        _, log = simulate_logged(scenario)
        kinds = set()
        for line in log:
            record = json.loads(line)
            kinds.add(record["ev"])
            assert line == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))
        assert {"arrival", "dispatch", "complete"} <= kinds
        if name == "every-kind-with-isolation":
            assert {"fault", "repair", "isolate", "deisolate"} <= kinds


class TestConservationUnderFaults:
    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded",
                                        "thermal-aware"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ledger_closes_all_fault_types(self, policy, seed):
        r = simulate(small_scenario(ALL_FAULTS, policy=policy,
                                    seed=seed))
        assert r.conservation_relative_residual < 1e-6
        assert (r.generated_j
                == pytest.approx(r.removed_j + r.stored_j, rel=1e-9))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_ledger_closes_through_isolation(self, seed):
        r = simulate(runaway_scenario(PUMP_ONLY, seed=seed))
        assert r.availability["isolations"] > 0
        assert r.conservation_relative_residual < 1e-6

    def test_ledger_closes_without_isolation_runaway(self):
        plan = FleetFaultPlan(pump_loss_per_tank_hour=0.8,
                              pump_repair_hours=48.0,
                              isolate_on_pump_loss=False)
        r = simulate(runaway_scenario(plan))
        assert r.conservation_relative_residual < 1e-6

    def test_ledger_closes_mid_run_retirement(self):
        plan = FleetFaultPlan(aging_years_per_sim_hour=12.0,
                              chip_mttf_years=6.0)
        r = simulate(small_scenario(plan, hours=1.0))
        assert r.availability["incidents_total"] > 0
        assert r.conservation_relative_residual < 1e-6


class TestIncidentResponse:
    def test_board_retirement_requeues_and_replaces(self):
        plan = FleetFaultPlan(aging_years_per_sim_hour=12.0)
        r = simulate(small_scenario(plan, hours=1.0))
        av = r.availability
        assert av["by_kind"].get("board_retire", 0) > 0
        assert av["jobs_requeued"] >= 0
        # nothing lost: every arrival is completed, queued, or running
        assert (r.jobs_completed + r.jobs_pending_end
                + r.jobs_running_end == r.jobs_arrived)
        assert av["availability"] < 1.0

    def test_pump_loss_keeps_boards_under_threshold(self):
        r = simulate(runaway_scenario(PUMP_ONLY))
        av = r.availability
        threshold = RUNAWAY_FLEET.effective_threshold_c()
        assert av["by_kind"].get("pump_loss", 0) > 0
        assert av["emergency_clamp_steps"] > 0
        assert av["isolations"] > 0
        assert av["peak_board_temp_c"] <= threshold
        assert r.max_water_temp_c <= threshold

    def test_runaway_without_isolation(self):
        plan = FleetFaultPlan(pump_loss_per_tank_hour=0.8,
                              pump_repair_hours=48.0,
                              isolate_on_pump_loss=False)
        r = simulate(runaway_scenario(plan))
        threshold = RUNAWAY_FLEET.effective_threshold_c()
        # the emergency clamp alone cannot stop idle-power runaway:
        # stalled boards sit at water temperature past the cap
        assert r.availability["peak_board_temp_c"] > threshold
        assert r.max_water_temp_c > threshold

    def test_sensor_fault_fools_policy_not_silicon(self):
        plan = FleetFaultPlan(sensor_fault_per_tank_hour=2.0,
                              sensor_offset_c=-30.0,
                              sensor_repair_hours=6.0)
        sc = FleetScenario(fleet=RUNAWAY_FLEET,
                           workload=RUNAWAY_WORKLOAD, seed=1,
                           duration_s=3 * 3600.0, faults=plan)
        r = simulate(sc)
        av = r.availability
        threshold = RUNAWAY_FLEET.effective_threshold_c()
        assert (av["by_kind"].get("sensor_stuck", 0)
                + av["by_kind"].get("sensor_offset", 0)) > 0
        # the cold-reading sensor would allow too high a step; the
        # on-die override must have tightened it at least once
        assert av["dtm_override_steps"] > 0
        assert av["peak_board_temp_c"] <= threshold

    def test_fouling_degrades_heat_removal(self):
        plan = FleetFaultPlan(fouling_per_tank_hour=1.0,
                              fouling_factor=0.1,
                              pump_repair_hours=30.0)
        r_f = simulate(small_scenario(plan, hours=1.0))
        r_0 = simulate(small_scenario(None, hours=1.0))
        assert r_f.availability["by_kind"].get("fouling", 0) > 0
        assert r_f.max_water_temp_c > r_0.max_water_temp_c

    def test_repairs_restore_capacity(self):
        plan = FleetFaultPlan(aging_years_per_sim_hour=12.0,
                              board_repair_hours=0.2,
                              chip_repair_hours=0.2,
                              chip_mttf_years=6.0)
        r = simulate(small_scenario(plan, hours=2.0))
        av = r.availability
        assert av["repairs"] > 0
        assert av["mttr_hours"] is not None
        assert av["mttr_hours"] > 0.0


class TestAvailabilityReconciliation:
    @staticmethod
    def _down_steps_from_incidents(result) -> int:
        """Recompute board-steps down from the incident ledger alone:
        board b is down at step k when any covering incident retires it
        or isolates its tank (union semantics — no double counting)."""
        cfg = result.scenario.fleet
        step_us = int(round(cfg.step_s * 1e6))
        bpt = cfg.boards_per_tank
        down = 0
        for k in range(result.steps):
            t = k * step_us
            for b in range(cfg.n_boards):
                for inc in result.incidents:
                    if inc["t_start_us"] > t:
                        continue
                    if (inc["t_end_us"] is not None
                            and inc["t_end_us"] <= t):
                        continue
                    if (inc["scope"] == "board" and inc["index"] == b
                            and inc["kind"] in ("board_retire",
                                                "chip_death")):
                        down += 1
                        break
                    if (inc["kind"] == "tank_isolated"
                            and inc["index"] == b // bpt):
                        down += 1
                        break
        return down

    @pytest.mark.parametrize("scenario_fn", [
        lambda: small_scenario(
            FleetFaultPlan(aging_years_per_sim_hour=12.0,
                           chip_mttf_years=6.0), hours=1.0),
        lambda: runaway_scenario(PUMP_ONLY, hours=4.0),
    ])
    def test_availability_matches_incident_ledger(self, scenario_fn):
        r = simulate(scenario_fn())
        av = r.availability
        assert av["incidents_total"] == len(r.incidents)
        expected_down = self._down_steps_from_incidents(r)
        assert av["board_steps_down"] == expected_down
        total = r.steps * r.scenario.fleet.n_boards
        assert av["board_steps_total"] == total
        assert av["availability"] == pytest.approx(
            1.0 - expected_down / total)

    def test_mttr_matches_closed_incidents(self):
        r = simulate(runaway_scenario(PUMP_ONLY, hours=4.0,
                                      seed=3))
        closed = [i for i in r.incidents
                  if i["t_end_us"] is not None]
        av = r.availability
        assert av["repairs"] == len(closed)
        assert av["incidents_open"] == len(r.incidents) - len(closed)
        if closed:
            expected = (sum(i["t_end_us"] - i["t_start_us"]
                            for i in closed) / len(closed) / 3.6e9)
            assert av["mttr_hours"] == pytest.approx(expected)

    def test_goodput_is_completed_work_rate(self):
        r = simulate(small_scenario(ALL_FAULTS))
        assert r.availability["goodput_gcps"] == pytest.approx(
            r.completed_work_gcycles / r.duration_s)


class TestLedgerBridge:
    def test_entries_round_trip_resilience_schema(self):
        from repro.core.campaign import LedgerEntry

        r = simulate(small_scenario(ALL_FAULTS))
        entries = incident_ledger_entries(r)
        assert len(entries) == len(r.incidents)
        for e in entries:
            d = json.loads(json.dumps(e.to_dict()))
            back = LedgerEntry.from_dict(d)
            assert back.to_dict() == e.to_dict()
            assert back.point.kind == "fleet"
            assert back.rungs_tried == ("incident-response",)

    def test_campaign_point_accepts_fleet_kind(self):
        from repro.core.campaign import CampaignPoint

        p = CampaignPoint(kind="fleet", chip="low-power-cmp",
                          n_chips=4, cooling="water")
        assert p.key == "fleet/low-power-cmp/n4/water"
        with pytest.raises(ConfigurationError):
            CampaignPoint(kind="tank", chip="low-power-cmp",
                          n_chips=4, cooling="water")

    def test_faultless_result_yields_no_entries(self):
        r = simulate(small_scenario(None))
        assert incident_ledger_entries(r) == []


class TestServeDegradedProvenance:
    def test_faulted_run_marks_degraded_capacity(self):
        from repro.serve.runner import run_fleet_resilient

        sc = small_scenario(ALL_FAULTS)
        outcome = run_fleet_resilient(sc)
        assert outcome.rung == "full"
        assert outcome.degraded is True
        assert outcome.result.to_json() == simulate(sc).to_json()

    def test_fault_free_run_stays_undegraded(self):
        from repro.serve.runner import run_fleet_resilient

        outcome = run_fleet_resilient(small_scenario(None))
        assert outcome.rung == "full"
        assert outcome.degraded is False


class TestChaosCli:
    CHAOS_ARGS = ["fleet", "chaos", "--tanks", "2", "--boards", "4",
                  "--hours", "1", "--rate", "0.2", "--seed", "0"]

    def test_chaos_writes_checked_ledger_and_campaign(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        ledger = tmp_path / "ledger.json"
        out = tmp_path / "campaign.json"
        rc = main(self.CHAOS_ARGS
                  + ["--policies", "thermal-aware",
                     "--ledger-out", str(ledger), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "integrity ok" in printed
        assert "avail" in printed
        entries = json.loads(ledger.read_text(encoding="utf-8"))
        assert entries and all(e["point"]["kind"] == "fleet"
                               for e in entries)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["kind"] == "fleet-campaign"
        assert all("availability" in r for r in doc["results"])

    def test_chaos_zero_rates_match_plain_sweep(self, tmp_path,
                                                capsys):
        from repro.cli import main

        chaos_out = tmp_path / "chaos.json"
        sweep_out = tmp_path / "sweep.json"
        zeroed = ["--aging", "0", "--chip-mttf", "0", "--pump-loss",
                  "0", "--fouling", "0", "--sensor", "0"]
        assert main(self.CHAOS_ARGS + zeroed
                    + ["--policies", "thermal-aware",
                       "--out", str(chaos_out)]) == 0
        assert main(["fleet", "sweep", "--tanks", "2", "--boards", "4",
                     "--hours", "1", "--rate", "0.2", "--seed", "0",
                     "--policies", "thermal-aware",
                     "--out", str(sweep_out)]) == 0
        assert chaos_out.read_bytes() == sweep_out.read_bytes()

    def test_chaos_rejects_model_site_injection(self, capsys):
        from repro.cli import main

        rc = main(self.CHAOS_ARGS + ["--inject", "nan_power:1.0"])
        assert rc == 2

    def test_chaos_composes_process_faults(self, capsys):
        from repro.cli import main

        rc = main(self.CHAOS_ARGS
                  + ["--policies", "thermal-aware", "--workers", "2",
                     "--inject", "worker_kill:1.0:1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "process faults on" in printed

    @pytest.mark.parametrize("verb,extra", [
        ("run", []),
        ("sweep", ["--policies", "thermal-aware"]),
        ("chaos", ["--policies", "thermal-aware"]),
    ])
    def test_pool_closed_exits_75(self, verb, extra, monkeypatch):
        from repro.cli import main
        from repro.errors import PoolClosedError

        def boom(*args, **kwargs):
            raise PoolClosedError("pool shut down mid-campaign")

        monkeypatch.setattr("repro.fleet.sim.simulate", boom)
        monkeypatch.setattr("repro.fleet.sim.run_scenarios", boom)
        rc = main(["fleet", verb, "--tanks", "2", "--boards", "3",
                   "--hours", "0.25", "--rate", "0.2"] + extra)
        assert rc == 75


class TestReliabilityQuantile:
    def test_quantile_inverts_cdf(self):
        from repro.prototype.reliability import WeibullLife

        life = WeibullLife(scale_years=5.0, shape=1.6)
        for p in (0.0, 0.1, 0.5, 0.9):
            assert life.failure_probability(
                life.quantile(p)) == pytest.approx(p, abs=1e-12)
        with pytest.raises(ConfigurationError):
            life.quantile(1.0)

    def test_lifetime_from_uniforms_is_series_minimum(self):
        from repro.prototype.reliability import masked_board

        rel = masked_board()
        us = [0.5] * len(rel.submerged)
        expected = min(rel.component_lives[name].quantile(0.5)
                       for name in rel.submerged)
        assert rel.lifetime_from_uniforms(us) == pytest.approx(expected)
        with pytest.raises(ConfigurationError):
            rel.lifetime_from_uniforms([0.5])

    def test_empty_series_is_immortal(self):
        from repro.prototype.reliability import (BoardReliability,
                                                 fitted_lifetimes)

        rel = BoardReliability(component_lives=fitted_lifetimes(),
                               submerged=())
        assert rel.lifetime_from_uniforms([]) == math.inf
