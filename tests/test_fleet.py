"""The fleet simulator: determinism, conservation, policies, serving.

The load-bearing guarantees pinned here:

* event-queue ordering is total and explicit — time, then kind rank
  (arrival < step < stop), then insertion sequence;
* the event log (and its digest) is byte-identical across same-seed
  runs, and the campaign document is byte-identical at every worker
  count;
* energy conservation: generated == removed + stored within 1e-6
  relative, across every policy and seed (property test);
* the ambient-shift identity the DTM fast path rests on — package
  temperatures are *exactly* linear in the water temperature — holds
  against a full model solve at a shifted ambient;
* the dynamic tank converges to :meth:`repro.cooling.tank.TankConfig.
  bulk_water_temp_c` at steady state with a perfect exchanger;
* the shared :class:`~repro.cooling.accounting.EnergyAccount` ledger
  reconciles the fleet's PUE with :mod:`repro.cooling.pue`;
* thermal-aware placement beats round-robin on sustained throughput
  in the coupled, stall-prone regime;
* fleet scenarios ride the serve broker: routing on the ``"kind"``
  tag, coalescing/caching by config hash, ``fleet.*`` metrics.
"""

from __future__ import annotations

import json

import pytest

from repro.cooling import (
    EnergyAccount,
    facility_account,
    pue_from_overheads,
    wall_energy_j,
)
from repro.cooling.pue import FACILITIES
from repro.cooling.tank import TankConfig
from repro.errors import ConfigurationError
from repro.fleet import (
    Event,
    EventQueue,
    FleetConfig,
    FleetScenario,
    POLICY_NAMES,
    BoardView,
    WorkloadConfig,
    build_board_ladder,
    canonical_event_line,
    generate_arrivals,
    get_policy,
    results_json,
    run_scenarios,
    simulate,
)

# ---------------------------------------------------------------------------
# Shared scenarios (small and fast; module-scoped results where reused)
# ---------------------------------------------------------------------------

SMALL = FleetScenario(
    fleet=FleetConfig(n_tanks=3, boards_per_tank=4),
    workload=WorkloadConfig(rate_per_s=0.3, work_gcycles=400.0),
    policy="thermal-aware", seed=11, duration_s=1800.0,
)

#: Hot, weakly-exchanged, strongly-coupled plant: the regime where
#: placement decides whether center tanks stall (tuned so round-robin
#: trips DTM stalls and falls behind while thermal-aware keeps up).
STALL_PRONE = FleetScenario(
    fleet=FleetConfig(n_tanks=8, boards_per_tank=16,
                      supply_temp_c=58.0, exchange_flow_m3_s=5e-5,
                      tank_volume_m3=0.1),
    workload=WorkloadConfig(rate_per_s=0.15, work_gcycles=600.0),
    policy="thermal-aware", seed=7, duration_s=3 * 3600.0,
)


# ---------------------------------------------------------------------------
# Events: explicit tie-breaking (satellite: event-queue determinism)
# ---------------------------------------------------------------------------


class TestEventQueue:
    def test_orders_by_time_first(self):
        q = EventQueue()
        q.push(Event(200, "arrival"))
        q.push(Event(100, "stop"))
        assert [e.time_us for e in q.drain()] == [100, 200]

    def test_kind_rank_breaks_time_ties(self):
        """At one instant: arrivals land, then the step runs, then stop."""
        q = EventQueue()
        q.push(Event(50, "stop"))
        q.push(Event(50, "step", 0))
        q.push(Event(50, "arrival"))
        assert [e.kind for e in q.drain()] == ["arrival", "step", "stop"]

    def test_sequence_breaks_kind_ties_fifo(self):
        q = EventQueue()
        for i in range(5):
            q.push(Event(7, "arrival", i))
        assert [e.payload for e in q.drain()] == [0, 1, 2, 3, 4]

    def test_peek_and_len(self):
        q = EventQueue()
        assert not q
        q.push(Event(3, "step", 0))
        assert len(q) == 1 and q.peek_time_us() == 3

    def test_rejects_bad_events(self):
        with pytest.raises(ConfigurationError):
            Event(-1, "arrival")
        with pytest.raises(ConfigurationError):
            Event(0, "nonsense")

    def test_canonical_line_is_key_sorted_and_compact(self):
        line = canonical_event_line({"b": 1, "a": {"d": 2, "c": 3}})
        assert line == '{"a":{"c":3,"d":2},"b":1}'


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


class TestWorkload:
    def test_same_seed_same_arrivals(self):
        wl = WorkloadConfig(rate_per_s=1.0)
        a = generate_arrivals(wl, 5, 600.0)
        b = generate_arrivals(wl, 5, 600.0)
        assert a == b
        assert generate_arrivals(wl, 6, 600.0) != a

    def test_arrivals_sorted_and_inside_horizon(self):
        jobs = generate_arrivals(WorkloadConfig(rate_per_s=2.0), 1,
                                 300.0)
        times = [j.time_us for j in jobs]
        assert times == sorted(times)
        assert all(0 <= t < 300_000_000 for t in times)

    def test_max_jobs_caps_generation(self):
        wl = WorkloadConfig(rate_per_s=10.0, max_jobs=7)
        assert len(generate_arrivals(wl, 0, 3600.0)) == 7

    def test_trace_kind_round_trips(self):
        wl = WorkloadConfig(kind="trace",
                            trace=((0.0, 100.0), (5.5, 250.0)))
        again = WorkloadConfig.from_dict(wl.to_dict())
        assert again == wl
        jobs = generate_arrivals(wl, 0, 10.0)
        assert [(j.time_us, j.work_gcycles) for j in jobs] == [
            (0, 100.0), (5_500_000, 250.0)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(rate_per_s=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(work_jitter=1.0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(kind="trace", trace=())
        with pytest.raises(ConfigurationError):
            WorkloadConfig(kind="trace", trace=((5.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ConfigurationError, match="unknown workload"):
            WorkloadConfig.from_dict({"kind": "rate", "rps": 2})


# ---------------------------------------------------------------------------
# Model: validation and the strict wire form
# ---------------------------------------------------------------------------


class TestModel:
    def test_config_round_trips(self):
        from repro.serve import spec_hash

        cfg = FleetConfig(n_tanks=2, boards_per_tank=3,
                          threshold_c=70.0, reuse_fraction=0.4)
        assert FleetConfig.from_dict(cfg.to_dict()) == cfg
        # an int on the wire for a float field is the same scenario
        wire = SMALL.to_dict()
        wire["fleet"]["supply_temp_c"] = 40
        back = FleetScenario.from_dict(json.loads(json.dumps(wire)))
        want = FleetScenario(
            fleet=FleetConfig(n_tanks=3, boards_per_tank=4,
                              supply_temp_c=40.0),
            workload=SMALL.workload, policy=SMALL.policy,
            seed=SMALL.seed, duration_s=SMALL.duration_s)
        assert back == want
        assert type(back.fleet.supply_temp_c) is float
        assert spec_hash(back) == spec_hash(want)
        # null or a wrong type for a required field names the key
        with pytest.raises(ConfigurationError, match="'n_tanks'"):
            FleetConfig.from_dict({"n_tanks": None})
        with pytest.raises(ConfigurationError, match="'n_chips'"):
            FleetConfig.from_dict({"n_chips": True})
        with pytest.raises(ConfigurationError,
                           match=r"^unknown fleet config key\(s\): "
                                 r"n_tankss$"):
            FleetConfig.from_dict({"n_tankss": 2})

    def test_scenario_round_trips_tagged(self):
        d = STALL_PRONE.to_dict()
        assert d["kind"] == "fleet"
        assert FleetScenario.from_dict(d) == STALL_PRONE

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="n_tankss"):
            FleetConfig.from_dict({"n_tankss": 2})
        with pytest.raises(ConfigurationError, match="polcy"):
            FleetScenario.from_dict({"kind": "fleet", "polcy": "x"})
        with pytest.raises(ConfigurationError, match="kind"):
            FleetScenario.from_dict({"kind": "experiment"})

    def test_euler_stability_guard(self):
        with pytest.raises(ConfigurationError, match="time constant"):
            FleetConfig(step_s=3600.0, tank_volume_m3=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(n_tanks=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(chip="not-a-chip")
        with pytest.raises(ConfigurationError):
            FleetConfig(coupling=1.0)
        with pytest.raises(ConfigurationError):
            FleetScenario(policy="hottest-first")
        with pytest.raises(ConfigurationError):
            FleetScenario(duration_s=1.0)  # shorter than one step

    def test_with_policy(self):
        assert SMALL.with_policy("round-robin").policy == "round-robin"


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def _view(board, running=0, f=1.5, headroom=10.0, tank=None):
    return BoardView(board=board, tank=tank if tank is not None else board,
                     running=running, free_slots=1, f_ghz=f,
                     headroom_c=headroom)


class TestPolicies:
    def test_registry(self):
        assert set(POLICY_NAMES) == {"round-robin", "least-loaded",
                                     "thermal-aware"}
        with pytest.raises(ConfigurationError, match="unknown policy"):
            get_policy("hottest-first")

    def test_round_robin_rotates(self):
        p = get_policy("round-robin")
        views = [_view(0), _view(1), _view(2)]
        picks = [p.select(views).board for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_round_robin_skips_missing_boards(self):
        p = get_policy("round-robin")
        p.select([_view(0), _view(1), _view(2)])  # cursor -> 1
        assert p.select([_view(0), _view(2)]).board == 2

    def test_least_loaded_picks_fewest_running(self):
        p = get_policy("least-loaded")
        assert p.select([_view(0, running=2), _view(1, running=1),
                         _view(2, running=1)]).board == 1

    def test_thermal_aware_picks_most_headroom(self):
        p = get_policy("thermal-aware")
        assert p.select([_view(0, headroom=2.0), _view(1, headroom=9.0),
                         _view(2, headroom=9.0, running=1)]).board == 1


# ---------------------------------------------------------------------------
# The DTM fast path: ladder + ambient-shift identity
# ---------------------------------------------------------------------------


class TestBoardLadder:
    def test_step_search_matches_linear_scan(self):
        ladder = build_board_ladder(SMALL.fleet)
        for water in (0.0, 20.0, 35.0, 50.0, 64.9, 67.0, 67.2, 90.0):
            feasible = [i for i, mw in enumerate(ladder.max_water_c)
                        if mw >= water]
            expected = feasible[-1] if feasible else None
            assert ladder.step_for_water(water) == expected

    def test_stall_point_is_lowest_step(self):
        ladder = build_board_ladder(SMALL.fleet)
        assert ladder.stall_water_c == ladder.max_water_c[0]
        assert ladder.step_for_water(ladder.stall_water_c) == 0
        assert ladder.step_for_water(ladder.stall_water_c + 1e-9) is None

    def test_ambient_shift_identity_against_full_solve(self, lp_water_4,
                                                        fast_params):
        """T(P, water) == T(P, ref) + (water - ref), exactly.

        The simulator's per-step DTM decision rests on this identity;
        here it is checked against an honest second model solved at a
        shifted ambient, not against the simulator's own arithmetic.
        """
        from dataclasses import replace

        from repro.cooling.options import get_cooling
        from repro.power.processors import get_chip
        from repro.stack.chipstack import StackConfig
        from repro.thermal.hotspot import ThermalModel

        f_hz = 1.5e9
        shift = 17.0
        base = lp_water_4.max_temperature_c(f_hz)
        shifted_model = ThermalModel(
            StackConfig(chip=get_chip("low-power-cmp"), n_chips=4),
            get_cooling("water"),
            replace(fast_params, ambient_c=fast_params.ambient_c + shift),
        )
        shifted = shifted_model.max_temperature_c(f_hz)
        assert shifted == pytest.approx(base + shift, abs=1e-6)

    def test_ladder_threshold_consistency(self):
        """At water == max_water_c[s], step s's hotspot sits exactly at
        the DTM threshold (the defining property of the table)."""
        cfg = SMALL.fleet
        ladder = build_board_ladder(cfg)
        threshold = cfg.effective_threshold_c()
        for ref_t, max_w in zip(ladder.ref_max_temp_c,
                                ladder.max_water_c):
            assert ref_t + (max_w - ladder.ref_ambient_c) == \
                pytest.approx(threshold, abs=1e-9)


# ---------------------------------------------------------------------------
# Simulator: determinism, conservation, physics
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_byte_identical_event_log(self, tmp_path):
        """Satellite guarantee: two same-seed runs produce the same
        event-log bytes (and the same digest, and the same result)."""
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        results = []
        for p in paths:
            with open(p, "w", encoding="utf-8") as fh:
                results.append(simulate(SMALL, events_file=fh,
                                         keep_events=True))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert results[0].events == results[1].events
        assert results[0].event_digest == results[1].event_digest
        assert results[0].to_json() == results[1].to_json()

    def test_different_seed_different_log(self):
        from dataclasses import replace
        a = simulate(SMALL)
        b = simulate(replace(SMALL, seed=SMALL.seed + 1))
        assert a.event_digest != b.event_digest

    def test_streamed_log_matches_kept_events(self, tmp_path):
        p = tmp_path / "ev.jsonl"
        with open(p, "w", encoding="utf-8") as fh:
            r = simulate(SMALL, events_file=fh, keep_events=True)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert tuple(lines) == r.events

    def test_worker_count_byte_identity(self):
        """Satellite guarantee: the campaign document is byte-identical
        inline, 2-way, and 4-way parallel."""
        scenarios = [SMALL.with_policy(p) for p in POLICY_NAMES]
        docs = {
            workers: results_json(run_scenarios(scenarios,
                                                workers=workers))
            for workers in (1, 2, 4)
        }
        assert docs[1] == docs[2] == docs[4]


class TestConservation:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_energy_conserved_every_policy_and_seed(self, policy, seed):
        """Satellite property test: generated == removed + stored to
        within 1e-6 relative, whatever the policy or seed."""
        from dataclasses import replace
        r = simulate(replace(SMALL, policy=policy, seed=seed))
        assert r.conservation_relative_residual < 1e-6
        assert r.generated_j > 0

    def test_account_reconciles_with_ledger(self):
        r = simulate(SMALL)
        a = r.account
        assert a.it_energy_j == pytest.approx(r.generated_j)
        duration = r.duration_s
        assert a.cooling_energy_j == pytest.approx(
            SMALL.fleet.n_tanks * SMALL.fleet.pump_power_w * duration)
        assert a.pue == pytest.approx(
            (a.it_energy_j + a.cooling_energy_j + a.other_energy_j)
            / a.it_energy_j)

    def test_job_bookkeeping_invariants(self):
        r = simulate(SMALL)
        assert (r.jobs_completed + r.jobs_running_end
                + r.jobs_pending_end) == r.jobs_arrived
        assert r.jobs_dispatched == r.jobs_completed + r.jobs_running_end
        assert 0.0 < r.completed_work_gcycles <= r.work_done_gcycles


class TestTankPhysics:
    def test_steady_state_matches_static_tank_model(self):
        """With a perfect exchanger, zero coupling, and constant load
        the dynamic tank must settle on the closed-form
        :meth:`TankConfig.bulk_water_temp_c`."""
        fleet = FleetConfig(
            n_tanks=1, boards_per_tank=4, threshold_c=500.0,
            exchanger_effectiveness=1.0, coupling=0.0,
            tank_volume_m3=0.05, exchange_flow_m3_s=2e-4,
            supply_temp_c=25.0, step_s=20.0,
        )
        # one everlasting job per board: constant top-step power
        workload = WorkloadConfig(kind="trace",
                                  trace=tuple((0.0, 1e9)
                                              for _ in range(4)))
        r = simulate(FleetScenario(fleet=fleet, workload=workload,
                                   policy="least-loaded", seed=0,
                                   duration_s=4 * 3600.0))
        ladder = build_board_ladder(fleet)
        board_w = ladder.per_job_power_w[-1] + fleet.idle_power_w
        tank = TankConfig(inlet_temp_c=25.0, exchange_flow_m3_s=2e-4,
                          board_power_w=board_w)
        assert r.final_water_temp_c[0] == pytest.approx(
            tank.bulk_water_temp_c(4), rel=1e-9)

    def test_coupling_makes_center_tanks_hotter(self):
        """The loop signature: interior tanks see neighbor heat from
        two sides and run warmer than the row ends under uniform load."""
        from dataclasses import replace
        r = simulate(replace(SMALL, policy="round-robin",
                             duration_s=7200.0))
        peaks = r.peak_water_temp_c
        center = max(peaks[1:-1])
        assert center > peaks[0]
        assert center > peaks[-1]

    def test_hotter_supply_runs_slower(self):
        """Hotter supply water -> lower DTM steps -> less work done
        (the warm-water-vs-performance trade the knob exists for)."""
        from dataclasses import replace
        cool = simulate(SMALL)
        hot = simulate(replace(
            SMALL, fleet=replace(SMALL.fleet, supply_temp_c=55.0)))
        assert hot.max_water_temp_c > cool.max_water_temp_c
        assert hot.throughput_gcps < cool.throughput_gcps


class TestPolicyComparison:
    def test_thermal_aware_beats_round_robin_when_stalls_matter(self):
        """Tentpole claim: in the hot, coupled, stall-prone regime the
        thermal-aware policy sustains more throughput than round-robin
        at equal offered load — because it routes work away from tanks
        the coolant loop has already degraded."""
        ta = simulate(STALL_PRONE)
        rr = simulate(STALL_PRONE.with_policy("round-robin"))
        assert ta.throughput_gcps > rr.throughput_gcps
        assert ta.stalled_board_steps < rr.stalled_board_steps
        assert ta.jobs_pending_end < rr.jobs_pending_end
        # same plant, same arrivals: energy within a few percent — the
        # win is work per joule, not joules avoided
        assert ta.account.total_energy_j == pytest.approx(
            rr.account.total_energy_j, rel=0.05)
        assert ta.work_per_mj > rr.work_per_mj


# ---------------------------------------------------------------------------
# Accounting satellite: one ledger for pue.py, energy.py, and the fleet
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_pue_from_overheads(self):
        assert pue_from_overheads(0.5, 0.07) == pytest.approx(1.57)
        with pytest.raises(ConfigurationError):
            pue_from_overheads(-0.1, 0.0)

    def test_wall_energy(self):
        assert wall_energy_j(100.0, 1.25) == pytest.approx(125.0)
        with pytest.raises(ConfigurationError):
            wall_energy_j(100.0, 0.9)
        with pytest.raises(ConfigurationError):
            wall_energy_j(-1.0, 1.2)

    def test_account_ratios_and_addition(self):
        a = EnergyAccount(it_energy_j=100.0, cooling_energy_j=30.0,
                          other_energy_j=10.0, reused_energy_j=20.0)
        assert a.total_energy_j == pytest.approx(140.0)
        assert a.pue == pytest.approx(1.4)
        assert a.ere == pytest.approx(1.2)
        both = a + a
        assert both.pue == pytest.approx(a.pue)
        assert both.it_energy_j == pytest.approx(200.0)
        with pytest.raises(ConfigurationError):
            EnergyAccount(it_energy_j=0.0).pue
        with pytest.raises(ConfigurationError):
            EnergyAccount(it_energy_j=-1.0)

    def test_account_to_dict_includes_ratios_when_defined(self):
        d = EnergyAccount(it_energy_j=10.0, cooling_energy_j=5.0).to_dict()
        assert d["pue"] == pytest.approx(1.5)
        assert "pue" not in EnergyAccount(it_energy_j=0.0).to_dict()

    @pytest.mark.parametrize("name", sorted(FACILITIES))
    def test_facility_account_reconciles_with_pue(self, name):
        """The unified ledger and the facility styles agree exactly."""
        facility = FACILITIES[name]
        assert facility_account(1.0e9, facility).pue == pytest.approx(
            facility.pue(), rel=1e-12)

    def test_fleet_pue_is_the_overhead_formula(self):
        """The simulated account's PUE equals the stage-fraction form
        computed from what the simulation actually spent."""
        r = simulate(SMALL)
        a = r.account
        assert a.pue == pytest.approx(pue_from_overheads(
            a.cooling_energy_j / a.it_energy_j,
            a.other_energy_j / a.it_energy_j))

    def test_reuse_credits_ere_not_pue(self):
        from dataclasses import replace
        r = simulate(replace(
            SMALL, fleet=replace(SMALL.fleet, reuse_fraction=0.5)))
        base = simulate(SMALL)
        assert r.account.pue == pytest.approx(base.account.pue)
        assert r.account.ere < r.account.pue


# ---------------------------------------------------------------------------
# Serving fleet scenarios through the broker
# ---------------------------------------------------------------------------


TINY = FleetScenario(
    fleet=FleetConfig(n_tanks=2, boards_per_tank=3),
    workload=WorkloadConfig(rate_per_s=0.2),
    policy="thermal-aware", seed=5, duration_s=600.0,
)


class TestServeFleet:
    def test_submitted_result_identical_to_direct_call(self):
        from repro.serve import Broker, BrokerConfig

        direct = simulate(TINY)
        with Broker(BrokerConfig(workers=1)) as broker:
            job = broker.submit(TINY.to_dict())
            outcome = job.wait(timeout=60)
        assert outcome.rung == "full" and not outcome.degraded
        assert outcome.result.to_json() == direct.to_json()

    def test_fleet_metrics_and_cache_hit(self):
        from repro.obs import get_registry
        from repro.serve import Broker, BrokerConfig

        reg = get_registry()
        req0 = reg.counter("fleet.requests_total").value
        done0 = reg.counter("fleet.completed_total").value
        with Broker(BrokerConfig(workers=1)) as broker:
            first = broker.submit(TINY.to_dict())
            first.wait(timeout=60)
            second = broker.submit(TINY)       # object form, same hash
            assert second.wait(timeout=60) is first.wait(timeout=60)
            assert second.from_cache
        assert reg.counter("fleet.requests_total").value == req0 + 2
        assert reg.counter("fleet.completed_total").value == done0 + 1

    def test_spec_hash_covers_fleet_scenarios(self):
        from repro.serve import spec_hash

        assert spec_hash(TINY) == spec_hash(TINY.to_dict())
        assert spec_hash(TINY) != spec_hash(
            TINY.with_policy("round-robin"))

    def test_result_to_dict_ducks_fleet_results(self):
        from repro.serve.client import result_to_dict

        r = simulate(TINY)
        assert result_to_dict(r) == r.to_dict()

    def test_process_pool_serves_fleet(self):
        from repro.serve import Broker, BrokerConfig

        direct = simulate(TINY)
        with Broker(BrokerConfig(workers=2,
                                 use_processes=True)) as broker:
            outcome = broker.submit(TINY.to_dict()).wait(timeout=120)
        assert outcome.result.to_json() == direct.to_json()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFleetCli:
    def test_run_writes_result_and_events(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        events = tmp_path / "events.jsonl"
        rc = main(["fleet", "run", "--tanks", "2", "--boards", "3",
                   "--hours", "0.25", "--rate", "0.2", "--seed", "5",
                   "--out", str(out), "--events-out", str(events)])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["scenario"]["kind"] == "fleet"
        assert doc["event_digest"]
        lines = events.read_text(encoding="utf-8").splitlines()
        assert all(json.loads(line) for line in lines)
        assert "throughput" in capsys.readouterr().out

    def test_usage_error_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fleet", "sweep", "--tanks", "0"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: need at least one tank"]
        assert "Traceback" not in err

    def test_run_error_exits_1(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.errors import SimulationError

        def boom(*args, **kwargs):
            raise SimulationError("diverged")

        monkeypatch.setattr("repro.fleet.sim.simulate", boom)
        assert main(["fleet", "run", "--tanks", "2", "--boards", "3",
                     "--hours", "0.25"]) == 1
        assert capsys.readouterr().err == "error: diverged\n"

    def test_sweep_compares_policies(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        rc = main(["fleet", "sweep", "--tanks", "2", "--boards", "3",
                   "--hours", "0.25", "--rate", "0.2", "--seeds", "1",
                   "--workers", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["kind"] == "fleet-campaign"
        assert len(doc["results"]) == len(POLICY_NAMES)
        printed = capsys.readouterr().out
        for name in POLICY_NAMES:
            assert name in printed
