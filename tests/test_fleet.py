"""The fleet simulator: determinism, conservation, policies, serving.

The load-bearing guarantees pinned here:

* event ordering is total and explicit — time, then kind rank
  (arrival < repair < fault < step < stop), then input sequence;
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

import dataclasses
import hashlib
import io
import json
import typing
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    FleetConfig,
    FleetScenario,
    POLICY_NAMES,
    BoardView,
    FleetFaultPlan,
    WorkloadConfig,
    build_board_ladder,
    canonical_event_line,
    generate_arrivals,
    get_policy,
    results_json,
    run_scenarios,
    simulate,
)
from repro.fleet import events as fleet_events
from repro.fleet import sim as fleet_sim
from repro.fleet.events import event_stream
from repro.fleet.faults import FLEET_FAULT_KINDS, FleetFaultEvent
from repro.fleet.policies import StepBoards
from repro.fleet.workload import FleetJob

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


def _job(job_id, time_us):
    return FleetJob(job_id=job_id, time_us=time_us, work_gcycles=1.0)


def _stream(arrivals=(), faults=(), step_us=100, n_steps=1):
    return list(event_stream(list(arrivals), list(faults), step_us,
                             n_steps))


class TestEventQueue:
    """The event order: what a queue keyed on ``(time_us, kind rank,
    sequence)`` pops, produced by the merge in :func:`event_stream`."""

    def test_orders_by_time_first(self):
        events = _stream([_job(0, 200)],
                         [FleetFaultEvent(100, "fault", "fouling", "tank",
                                          0)],
                         step_us=1000)
        assert [(t, kind) for t, kind, _ in events] == [
            (0, "step"), (100, "fault"), (200, "arrival"), (1000, "stop")]

    def test_kind_rank_breaks_time_ties(self):
        """At one instant: arrivals land, then repairs, then faults,
        then the step runs (or the run stops)."""
        fault = FleetFaultEvent(50, "fault", "fouling", "tank", 0)
        repair = FleetFaultEvent(50, "repair", "pump_loss", "tank", 1)
        events = _stream([_job(0, 50)], [fault, repair], step_us=50,
                         n_steps=2)
        assert [kind for t, kind, _ in events if t == 50] == [
            "arrival", "repair", "fault", "step"]
        assert events[-1] == (100, "stop", None)

    def test_sequence_breaks_kind_ties_fifo(self):
        events = _stream([_job(i, 7) for i in range(5)])
        assert [p.job_id for _, kind, p in events
                if kind == "arrival"] == [0, 1, 2, 3, 4]
        faults = [FleetFaultEvent(7, "fault", "fouling", "tank", i)
                  for i in (2, 0, 1)]
        assert [p.index for _, kind, p in _stream(faults=faults)
                if kind == "fault"] == [2, 0, 1]

    def test_nothing_after_stop(self):
        events = _stream([_job(0, 100), _job(1, 101)], step_us=50,
                         n_steps=2)
        assert [(t, kind) for t, kind, _ in events] == [
            (0, "step"), (50, "step"), (100, "arrival"), (100, "stop")]

    def test_canonical_line_is_key_sorted_and_compact(self):
        line = canonical_event_line(
            {"t_us": 30, "ev": "dispatch", "job": 4, "tank": 1, "board": 9})
        assert line == '{"board":9,"ev":"dispatch","job":4,"t_us":30,"tank":1}'


def _dumps(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


#: ints up to 2**63 either way, and finite floats with the awkward
#: corners of float.__repr__ drawn explicitly
_INTS = st.integers(min_value=-2**63, max_value=2**63)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([600.0, 1e16, 1e-7, 5e-324, 2.2250738585072014e-308,
                     -0.0, 0.1, 1e22, 123456789012345678.0]))
_FAULT_KIND = st.sampled_from(sorted(FLEET_FAULT_KINDS))
_FAULT_SCOPE = st.sampled_from(sorted(set(FLEET_FAULT_KINDS.values())))

#: one strategy per record shape the simulator emits
_EVENT_RECORDS = {
    "arrival": st.fixed_dictionaries({
        "t_us": _INTS, "ev": st.just("arrival"), "job": _INTS,
        "work": _FLOATS}),
    "dispatch": st.fixed_dictionaries({
        "t_us": _INTS, "ev": st.just("dispatch"), "job": _INTS,
        "tank": _INTS, "board": _INTS}),
    "complete": st.fixed_dictionaries({
        "t_us": _INTS, "ev": st.just("complete"), "job": _INTS}),
    "fault": st.fixed_dictionaries({
        "t_us": _INTS, "ev": st.just("fault"), "kind": _FAULT_KIND,
        "scope": _FAULT_SCOPE, "idx": _INTS, "requeued": _INTS}),
    "repair": st.fixed_dictionaries({
        "t_us": _INTS, "ev": st.sampled_from(["fault", "repair"]),
        "kind": _FAULT_KIND, "scope": _FAULT_SCOPE, "idx": _INTS}),
    "isolate": st.fixed_dictionaries({
        "t_us": _INTS, "ev": st.just("isolate"), "tank": _INTS,
        "requeued": _INTS}),
    "deisolate": st.fixed_dictionaries({
        "t_us": _INTS, "ev": st.just("deisolate"), "tank": _INTS}),
}

#: one record of each shape the simulator emits
_EXAMPLE_RECORDS = {
    "arrival": {"t_us": 30, "ev": "arrival", "job": 4, "work": 600.5},
    "dispatch": {"t_us": 30, "ev": "dispatch", "job": 4, "tank": 1,
                 "board": 9},
    "complete": {"t_us": 60, "ev": "complete", "job": 4},
    "fault": {"t_us": 7, "ev": "fault", "kind": "pump_loss",
              "scope": "tank", "idx": 2, "requeued": 3},
    "repair": {"t_us": 9, "ev": "repair", "kind": "chip_death",
               "scope": "board", "idx": 5},
    "isolate": {"t_us": 30, "ev": "isolate", "tank": 0, "requeued": 8},
    "deisolate": {"t_us": 90, "ev": "deisolate", "tank": 0},
}


class TestEventLines:
    """The per-kind f-string lines are ``json.dumps``'s bytes."""

    @pytest.mark.parametrize("shape", sorted(_EVENT_RECORDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fast_line_matches_json(self, shape, data):
        record = data.draw(_EVENT_RECORDS[shape])
        fast = fleet_events._RENDERERS[record["ev"]](record)
        assert fast is not None          # the f-string path took it
        assert fast == _dumps(record)
        assert canonical_event_line(record) == fast

    def test_unknown_kind_raises(self):
        for record in ({"t_us": 1, "ev": "meteor"}, {"t_us": 1}):
            with pytest.raises(ValueError, match="not a fleet event"):
                canonical_event_line(record)

    @pytest.mark.parametrize("shape", sorted(_EXAMPLE_RECORDS))
    def test_missing_or_extra_key_raises(self, shape):
        record = _EXAMPLE_RECORDS[shape]
        with pytest.raises(ValueError, match="not a fleet event"):
            canonical_event_line({**record, "extra": 1})
        # a fault without ``requeued`` is a record of the repair shape
        optional = {"requeued"} if shape == "fault" else set()
        for key in set(record) - optional:
            short = {k: v for k, v in record.items() if k != key}
            with pytest.raises(ValueError, match="not a fleet event"):
                canonical_event_line(short)


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
        # the scenario's own keys follow the same rule
        wire = SMALL.to_dict()
        wire["duration_s"] = int(SMALL.duration_s)
        back = FleetScenario.from_dict(json.loads(json.dumps(wire)))
        assert back == SMALL and type(back.duration_s) is float
        assert spec_hash(back) == spec_hash(SMALL)
        for name, bad in (("seed", "5"), ("seed", 5.7), ("seed", True),
                          ("duration_s", "7200"), ("duration_s", True),
                          ("label", 3), ("label", None),
                          ("policy", None)):
            with pytest.raises(ConfigurationError,
                               match=rf"fleet scenario key '{name}'"):
                FleetScenario.from_dict({"kind": "fleet", name: bad})

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


def _float_fields(cls):
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls)
            if float in (typing.get_args(hints[f.name]) or (hints[f.name],))]


#: every float field of the four fleet config classes
_FLOAT_FIELDS = [(cls, name)
                 for cls in (WorkloadConfig, FleetConfig, FleetFaultPlan,
                             FleetScenario)
                 for name in _float_fields(cls)]
_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteRejected:
    """NaN and ±inf stop at the config boundary as a ConfigurationError
    naming the field (exit 2 from the CLI, 400 from serve)."""

    @pytest.mark.parametrize(
        "cls,name", _FLOAT_FIELDS,
        ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
    @pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_float_field(self, cls, name, bad):
        with pytest.raises(ConfigurationError,
                           match=rf"'{name}' must be finite"):
            cls(**{name: bad})

    @pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_trace_entry(self, bad):
        for entry in ((bad, 5.0), (2.0, bad)):
            with pytest.raises(ConfigurationError,
                               match=r"'trace\[1\]' must be finite"):
                WorkloadConfig(kind="trace", trace=((0.0, 5.0), entry))

    def test_wire_infinity(self):
        wire = json.loads('{"kind": "fleet", "duration_s": 600, '
                          '"workload": {"rate_per_s": Infinity}}')
        with pytest.raises(ConfigurationError,
                           match="'rate_per_s' must be finite"):
            FleetScenario.from_dict(wire)
        with pytest.raises(ConfigurationError, match="seed"):
            FleetScenario.from_dict(json.loads('{"seed": Infinity}'))


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def _view(board, running=0, f=1.5, headroom=10.0, tank=None):
    return BoardView(board=board, tank=tank if tank is not None else board,
                     running=running, free_slots=1, f_ghz=f,
                     headroom_c=headroom)


def _columns(views):
    """``views`` (board order) as the simulator's per-step columns."""
    return StepBoards(*(list(column) for column in zip(*views)))


def _pick(policy, views):
    """The board ``policy`` places the next job on, among ``views``."""
    return policy.select(policy.free_boards(_columns(views))).board


class TestPolicies:
    def test_registry(self):
        assert set(POLICY_NAMES) == {"round-robin", "least-loaded",
                                     "thermal-aware"}
        with pytest.raises(ConfigurationError, match="unknown policy"):
            get_policy("hottest-first")

    def test_round_robin_rotates(self):
        p = get_policy("round-robin")
        views = [_view(0), _view(1), _view(2)]
        picks = [_pick(p, views) for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_round_robin_skips_missing_boards(self):
        p = get_policy("round-robin")
        _pick(p, [_view(0), _view(1), _view(2)])  # cursor -> 1
        assert _pick(p, [_view(0), _view(2)]) == 2

    def test_round_robin_wraps_to_the_lowest_free_board(self):
        """A cursor past every free board wraps to the lowest one, not
        to the cursor modulo the highest free board + 1."""
        p = get_policy("round-robin")
        _pick(p, [_view(499)])  # cursor -> 500
        assert _pick(p, [_view(b) for b in range(300)]) == 0

    def test_least_loaded_picks_fewest_running(self):
        p = get_policy("least-loaded")
        assert _pick(p, [_view(0, running=2), _view(1, running=1),
                         _view(2, running=1)]) == 1

    def test_thermal_aware_picks_most_headroom(self):
        p = get_policy("thermal-aware")
        assert _pick(p, [_view(0, headroom=2.0), _view(1, headroom=9.0),
                         _view(2, headroom=9.0, running=1)]) == 1

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_picks_match_a_scan_of_the_views(self, name):
        """Each pick is what a scan of every free board under the
        policy's rule picks, with the chosen board one job busier
        afterwards (or gone once full)."""
        import random
        rng = random.Random(name)
        views = {}
        for b in range(40):
            running = rng.randrange(3)
            views[b] = BoardView(b, b // 8, running, 3 - running, 1.5,
                                 float(rng.randrange(4)))
        p = get_policy(name)
        free = p.free_boards(_columns(views.values()))
        cursor = 0
        while free:
            offered = sorted(views.values())
            if name == "round-robin":
                after = [v for v in offered if v.board >= cursor]
                want = (after or offered)[0]
                cursor = want.board + 1
            elif name == "least-loaded":
                want = min(offered, key=lambda v: (v.running, v.board))
            else:
                want = min(offered, key=lambda v: (-v.headroom_c,
                                                   v.running, v.board))
            assert p.select(free) == want
            if want.free_slots == 1:
                del views[want.board]
            else:
                views[want.board] = want._replace(
                    running=want.running + 1,
                    free_slots=want.free_slots - 1)
        assert not views


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
                results.append(simulate(SMALL, events_file=fh))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert results[0].event_digest == results[1].event_digest
        assert results[0].to_json() == results[1].to_json()

    def test_different_seed_different_log(self):
        from dataclasses import replace
        a = simulate(SMALL)
        b = simulate(replace(SMALL, seed=SMALL.seed + 1))
        assert a.event_digest != b.event_digest

    def test_streamed_log_matches_event_digest(self, tmp_path):
        p = tmp_path / "ev.jsonl"
        with open(p, "w", encoding="utf-8") as fh:
            r = simulate(SMALL, events_file=fh)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == r.event_digest

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


#: The byte-pin plants, frozen here rather than shared with other tests
#: so that editing another test's constants cannot move a pin: a hot
#: 3 x 4 plant whose water walks the DTM ladder (fault-free, and with
#: all five fault processes firing), and the runaway plant of
#: ``tests/test_fleet_faults.py``, where pump loss trips tank isolation
#: (seed 9 also repairs a pump and de-isolates its tank).
#: ``name -> (fleet, workload, fault plan, seed, hours)``.
_PIN_HOT = FleetConfig(n_tanks=3, boards_per_tank=4, supply_temp_c=58.0,
                       exchange_flow_m3_s=5e-5, tank_volume_m3=0.1)
_PIN_RUNAWAY = FleetConfig(n_tanks=3, boards_per_tank=8,
                           supply_temp_c=45.0, exchange_flow_m3_s=1.0e-4,
                           tank_volume_m3=0.05, idle_power_w=60.0)
_PIN_ALL_FAULTS = FleetFaultPlan(
    aging_years_per_sim_hour=8.0, chip_mttf_years=8.0,
    pump_loss_per_tank_hour=0.5, fouling_per_tank_hour=0.3,
    sensor_fault_per_tank_hour=0.5)
_PIN_PUMP_ONLY = FleetFaultPlan(pump_loss_per_tank_hour=0.8,
                                pump_repair_hours=48.0)
_PIN_PLANTS = {
    "hot": (_PIN_HOT, WorkloadConfig(rate_per_s=0.05, work_gcycles=400.0),
            None, 20, 2.0),
    "hot-faults": (_PIN_HOT,
                   WorkloadConfig(rate_per_s=0.05, work_gcycles=400.0),
                   _PIN_ALL_FAULTS, 20, 2.0),
    "runaway-isolate": (_PIN_RUNAWAY,
                        WorkloadConfig(rate_per_s=0.5, work_gcycles=900.0),
                        _PIN_PUMP_ONLY, 9, 4.0),
    "runaway-no-isolate": (
        _PIN_RUNAWAY, WorkloadConfig(rate_per_s=0.5, work_gcycles=900.0),
        replace(_PIN_PUMP_ONLY, isolate_on_pump_loss=False), 9, 4.0),
}
_PIN_KEYS = [f"{plant}/{policy}/slots{slots}" for plant in _PIN_PLANTS
             for policy in POLICY_NAMES for slots in (1, 2)]

#: ``key -> (SHA-256 of to_json(), SHA-256 of the kept event log)``,
#: recorded before the step loop moved to array state. The eight
#: round-robin rows were re-recorded once, when round-robin's wrap
#: moved to the lowest free board. Do not edit: a change here is a
#: change in the simulator's answers.
FLEET_BYTE_PINS = {
    "hot/round-robin/slots1": (
        "71a843aac296ce161ad5a8f96f7da78d025a7a6e50ff47caf782d273223357f2",
        "8c3c783dda26540795756cd19de8ddf9109666260fe7478c9b92a12260cec14b"),
    "hot/round-robin/slots2": (
        "c37bd152a32f1b1e0aaf3ac7e24bd2a6536a28e44bf8040aee9f99a2c825a7ee",
        "a23ef28c251d14534d6afa6af262278a46b71f76e46e8c2a778ad32bafc58517"),
    "hot/least-loaded/slots1": (
        "dc6cde7ba19df6c2f88e36276f9a69e047151bf67352fb4cb2cd9caaea30edd8",
        "9543c47fa58d47142d0b7f169e49b64fbb59848afd2631636be514401e2f5869"),
    "hot/least-loaded/slots2": (
        "cbdbcc0bdebe00ce0cac75f2551432d3f4f7d798e0a506921a2f81b7695a8681",
        "67a980e8fa0f33b228d2424db494fd09cfde26e23441c11e690fcf3dce2d49fe"),
    "hot/thermal-aware/slots1": (
        "e96922beb7e65b0be303cbe6d5d504d479148ecb8e8d5149d3cbf966727f9fc7",
        "e6b75b06f49d5003edcd7343cd9cb5cc4718e5113fb2cc88f39be17b597aa104"),
    "hot/thermal-aware/slots2": (
        "c778f7672f989ddaa883c86a02edfba0ecce1ca6364c7278bf7897a4508de061",
        "a129ccc78bfee21a169e38957cf63ab4a7b28e9b47fcc434b075732d4394f61d"),
    "hot-faults/round-robin/slots1": (
        "bc55344ba3ad35a41d897846d92223daf4f43cbc919766d962a8aa89de5fa695",
        "905a75b864d269c26a3f8eef9759598950854879d214a092ee368b78ee3f8176"),
    "hot-faults/round-robin/slots2": (
        "1a12a107e1601fa9ff81b72746f4dd62f000168fa9f6d67019b42328b55a5762",
        "7fbec4ff500a63f7c50121e652426e496da49829fa14699e9763e5b372c0d535"),
    "hot-faults/least-loaded/slots1": (
        "956b33530abed09556a13bb14d91bd6f4d78dadff17a35278c47bfa73dd801db",
        "fb92a430fa468f2fd2a4d88c563d01253e7f992a89e427fa2a731de16927f064"),
    "hot-faults/least-loaded/slots2": (
        "1998c03b3503127420ce8baef756a84b35f49dee87088fb23aa4907e0f37cdc1",
        "213e550c8acb7511d3121733a76a44c0b8b03d82fa9259373159905be7cc7f71"),
    "hot-faults/thermal-aware/slots1": (
        "a5c7a2370156ec7941141293551bc6c40ae299e8ea2ab8edadff15598c152ebb",
        "1a0c275ca0f90560aa588d9252ccecb764705db3d00e638d8823a4a3e0a1a2e3"),
    "hot-faults/thermal-aware/slots2": (
        "4777c4c926d7b4f0fd92a98a1560067b5caf396e39c8909a6aef318442ae03e0",
        "f7cd7a39fc0c9bd4be345255bc34fa13c150fade8ac182d9fa25be292aaba2a7"),
    "runaway-isolate/round-robin/slots1": (
        "1c6905f84ce239944723b189800a708ce7c9f3ee9a783d42cfc70cc7a0718ae8",
        "b1cd0d9f82a034ddcd031a7e249d305728ebf3936dd3187ee446f322955d4b2a"),
    "runaway-isolate/round-robin/slots2": (
        "a953413994ac9325506b665479339321cb5fbf9fecd339694e145ab4cd90cdf9",
        "088fd95dd6beb80b31f652d4e6465efe6d16e1b136cec1fc38ea75b8291a99f8"),
    "runaway-isolate/least-loaded/slots1": (
        "97abe164cc9afc5271f045759a253c41596e8246e43febd2f6495291e80be991",
        "6a0d37648c146ea0272c358084cb06ac40870f4eb4c2c9622d0b4da0cdac0a0b"),
    "runaway-isolate/least-loaded/slots2": (
        "bca7db3c6885a6100bc766af21caf4c8deeafd9359a53480669ccacbe92ade4a",
        "497dd9bf3b63ebabcbfd2146b49e6ccc6151a50b62411339635ecf3dad6bf6dd"),
    "runaway-isolate/thermal-aware/slots1": (
        "732ed5bb6ba1aeb9069daa4c4b3cb493dc05c0f33601948c604f621559aa402a",
        "fea0e133f21fe52b05f92e1191f3127690c59d5ebbd31c83c8fc62e076eca369"),
    "runaway-isolate/thermal-aware/slots2": (
        "498a2feeab19bf415cb05573c2711a8a524fa036283d1a899eb383d0f1297578",
        "9aea6777a565ec6f1b1396fff05a12a9f2e6cd2e2483ce0bf2ba6fc96948fe95"),
    "runaway-no-isolate/round-robin/slots1": (
        "636e6e635ca02897c6b951a620873e709987bce368588dc18e879c79cf594802",
        "cfa2e1f67ab1ef775b301b632b4361791b509d02d4983ad0511088048ebef77b"),
    "runaway-no-isolate/round-robin/slots2": (
        "434eb43dafcbf462cbedd0a70439b6b5696b16590ce43cbc38ab70ce9f42b97d",
        "a09db2f1257ed4ebd3dfa8ff097ba3a7c156e32d793710f1fd92353a1dfd8591"),
    "runaway-no-isolate/least-loaded/slots1": (
        "7a6a48f7a70121a3039248eeac665eabae86619b5d036ea5ea7865802e734368",
        "9d1c995b57d1661a15723e8cb4354e3a13019dcc8bac5d980c06c2b1d244bf55"),
    "runaway-no-isolate/least-loaded/slots2": (
        "9f5910b147677c5b844a5bc77b144c408b04b616d64e67e1264fca0231174fc5",
        "fb863b75946de3d9b815ac0210acbfa29af95291f31aceea6d0e0b83b4bb55cf"),
    "runaway-no-isolate/thermal-aware/slots1": (
        "152ee66123dacc6e1618443e49f4a90bddc4e4807498bc5b4b240cce7b1f266d",
        "fd89bd5e8ed96963e24067b6fc0dd14f36bce4f305bffc761cc5625dc91bab43"),
    "runaway-no-isolate/thermal-aware/slots2": (
        "8ddd87ffd8de462eaa1a1a525d2c2f2db56b590a94588a389a1393e6db01f92f",
        "e296b7bf6197f17b4197247879c3ad6e582a82506c7ce293647aae8642e152a6"),
}


def _pin_scenario(key: str) -> FleetScenario:
    plant, policy, slots = key.split("/")
    fleet, workload, plan, seed, hours = _PIN_PLANTS[plant]
    return FleetScenario(
        fleet=replace(fleet, slots_per_board=int(slots[len("slots"):])),
        workload=workload, policy=policy, seed=seed,
        duration_s=hours * 3600.0, faults=plan)


def _rounded_ladder(config: FleetConfig):
    """The board ladder with every float rounded to 1e-9.

    Its reference temperatures come out of a BLAS/LAPACK build, whose
    last bits differ between CPU kernels; rounding them keeps the pins
    a statement about the step loop on any host.
    """
    ladder = build_board_ladder(config)
    return type(ladder)(
        freqs_ghz=ladder.freqs_ghz,
        per_job_power_w=tuple(round(p, 9) for p in ladder.per_job_power_w),
        max_water_c=tuple(round(w, 9) for w in ladder.max_water_c),
        ref_ambient_c=round(ladder.ref_ambient_c, 9),
        ref_max_temp_c=tuple(round(t, 9) for t in ladder.ref_max_temp_c))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestBytePins:
    """Result and event-log bytes pinned across commits: every policy x
    one and two slots per board x fault-free, all-faults and runaway
    plants (with and without isolation)."""

    @pytest.mark.parametrize("key", _PIN_KEYS)
    def test_bytes_match_pins(self, key, monkeypatch):
        monkeypatch.setattr(fleet_sim, "build_board_ladder",
                            _rounded_ladder)
        stream = io.StringIO()
        r = simulate(_pin_scenario(key), events_file=stream)
        log = stream.getvalue()
        assert _sha256(log) == r.event_digest
        assert (_sha256(r.to_json()), _sha256(log)) == FLEET_BYTE_PINS[key]


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

    def test_non_finite_rate_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fleet", "run", "--rate", "inf"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: workload 'rate_per_s' must be finite, got inf"]

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
