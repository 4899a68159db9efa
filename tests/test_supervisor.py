"""Tests for the supervised worker pool and crash-consistent checkpoints.

The three acceptance behaviours of the supervision tree, asserted
end to end:

1. a SIGKILLed worker mid-chunk is restarted and the campaign
   completes with byte-identical results for every surviving point,
   plus restart/poison records in the ledger;
2. a chunk that keeps crashing its worker is quarantined as ``poison``
   instead of aborting the run — and the poisoned set is identical at
   every worker count;
3. a truncated / torn-write checkpoint resumes from the last good
   state instead of crashing.

Campaign-level tests use cheap module-level evaluators (no thermal
solves) so the process churn, not the physics, dominates runtime.
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import (
    CHECKPOINT_VERSION,
    CampaignRunner,
    LedgerEntry,
    PointRecord,
    frequency_grid,
    verify_checkpoint,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    PoolClosedError,
    WorkerCrashError,
)
from repro.obs import get_registry
from repro.parallel import (
    ParallelConfig,
    Poisoned,
    SupervisedPool,
    run_chunked,
)
from repro.parallel.supervisor import restart_delay_s
from repro.resilience import FaultSpec, ProcessFaultPlan, ResilienceOptions, \
    RetryPolicy

FAST_POLICY = RetryPolicy(max_attempts=2, base_delay_s=0.0,
                          jitter_fraction=0.0)

#: Fast supervision knobs for tests (short beats, quick hang detection).
FAST = dict(heartbeat_interval_s=0.05, heartbeat_timeout_s=3.0)


def _square(payload, item):
    """Cheap module-level pool task."""
    return payload + item * item


def _sleepy(payload, item):
    """Pool task slow enough to outlast a short heartbeat deadline."""
    import time
    time.sleep(payload)
    return item


def _cheap_eval(point, resilience, params):
    """Module-level campaign evaluator: no solver, deterministic."""
    return PointRecord(point=point, status="ok",
                       f_ghz=float(point.n_chips), rung="full",
                       attempts=1)


def kill_plan(max_fires, *, probability=1.0, seed=7, kind="worker_kill"):
    return ProcessFaultPlan(
        specs=(FaultSpec(kind=kind, probability=probability,
                         max_fires=max_fires),),
        seed=seed)


def options():
    return ResilienceOptions(retry_policy=FAST_POLICY,
                             sleep=lambda s: None)


# -- the pool itself ---------------------------------------------------------

class TestSupervisedPool:
    def test_round_trip(self):
        with SupervisedPool(_square, 100,
                            ParallelConfig(workers=2, **FAST)) as p:
            results, wall = p.submit([(0, 1), (1, 2)],
                                     key="chunk/0-1").result(timeout=60)
        assert results == [(0, 101), (1, 104)]
        assert wall >= 0.0

    def test_sigkill_mid_chunk_recovers(self):
        """A killed worker restarts and the retried chunk succeeds."""
        before = get_registry().counter("supervisor.restarts").value
        out = run_chunked(
            list(range(6)), _square, 0,
            config=ParallelConfig(workers=2, chunk_size=2, **FAST),
            fault_plan=kill_plan(max_fires=1))
        assert out == [i * i for i in range(6)]
        assert get_registry().counter("supervisor.restarts").value > before

    def test_crash_threshold_poisons_chunk(self):
        """Crashing past max_task_crashes quarantines, not aborts."""
        out = run_chunked(
            list(range(4)), _square, 0,
            config=ParallelConfig(workers=2, chunk_size=2, **FAST),
            fault_plan=kill_plan(max_fires=2))
        assert all(isinstance(x, Poisoned) for x in out)
        assert all(x.crashes == 2 for x in out)

    def test_hang_detected_by_task_timeout(self):
        """A wedged worker is killed at the chunk deadline and retried."""
        before = get_registry().counter("supervisor.task_timeouts").value
        out = run_chunked(
            list(range(2)), _square, 0,
            config=ParallelConfig(workers=1, chunk_size=2,
                                  task_timeout_s=1.0, **FAST),
            fault_plan=kill_plan(max_fires=1, kind="worker_hang"))
        assert out == [0, 1]
        assert get_registry().counter(
            "supervisor.task_timeouts").value > before

    def test_slow_heartbeat_detected(self):
        """A busy-but-silent worker trips the heartbeat deadline.

        The fault mutes heartbeats while the (slow) task runs, so the
        supervisor sees silence with a task in flight — the starved-
        process signature — kills the worker, and the retry succeeds.
        """
        before = get_registry().counter(
            "supervisor.heartbeat_misses").value
        plan = ProcessFaultPlan(
            specs=(FaultSpec(kind="slow_heartbeat", probability=1.0,
                             max_fires=1),),
            seed=7, stall_s=30.0)
        out = run_chunked(
            list(range(2)), _sleepy, 1.0,
            config=ParallelConfig(workers=1, chunk_size=2,
                                  heartbeat_interval_s=0.05,
                                  heartbeat_timeout_s=0.4,
                                  task_timeout_s=None),
            fault_plan=plan)
        assert out == [0, 1]
        assert get_registry().counter(
            "supervisor.heartbeat_misses").value > before

    def test_submit_after_close_raises_structured(self):
        pool = SupervisedPool(_square, 0,
                              ParallelConfig(workers=1, **FAST))
        pool.close()
        assert pool.closed
        with pytest.raises(PoolClosedError, match="resubmit"):
            pool.submit([(0, 1)])

    def test_empty_chunk_rejected(self):
        with SupervisedPool(_square, 0,
                            ParallelConfig(workers=1, **FAST)) as p:
            with pytest.raises(ConfigurationError):
                p.submit([])

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ParallelConfig(max_task_crashes=0)

    @pytest.mark.parametrize("bad", [
        dict(heartbeat_interval_s=0.2, heartbeat_timeout_s=0.1),
        dict(heartbeat_interval_s=0.0),
        dict(task_timeout_s=0.0),
    ], ids=["timeout-under-interval", "interval", "task-timeout"])
    def test_inline_config_checks_supervision_fields(self, bad):
        """The supervision checks hold for every config, inline too."""
        with pytest.raises(ConfigurationError):
            ParallelConfig(**bad)

    def test_restart_delay_grows_and_is_capped(self):
        delays = [restart_delay_s(n) for n in range(1, 12)]
        assert delays[:3] == [0.05, 0.1, 0.2]
        assert delays == sorted(delays)
        assert delays[-1] == 2.0

    def test_default_config_is_one_worker(self):
        with SupervisedPool(_square, 0) as p:
            assert p.config.workers == 1
            assert p.submit([(0, 3)]).result(timeout=60)[0] == [(0, 9)]


class TestProcessFaultPlan:
    def test_stateless_and_deterministic(self):
        plan = kill_plan(max_fires=1, probability=0.5, seed=11)
        draws = [plan.draw(f"chunk/{i}", 0) for i in range(64)]
        assert draws == [plan.draw(f"chunk/{i}", 0) for i in range(64)]
        assert any(d == "worker_kill" for d in draws)
        assert any(d is None for d in draws)

    def test_max_fires_caps_attempts(self):
        plan = kill_plan(max_fires=1)
        assert plan.draw("chunk/0", 0) == "worker_kill"
        assert plan.draw("chunk/0", 1) is None      # retry survives

    def test_disabled_is_noop(self):
        plan = ProcessFaultPlan(
            specs=(FaultSpec(kind="worker_kill", probability=1.0),),
            enabled=False)
        assert plan.draw("chunk/0", 0) is None

    def test_rejects_model_site_specs(self):
        with pytest.raises(ConfigurationError):
            ProcessFaultPlan(specs=(FaultSpec(kind="singular"),))


# -- the serving pool --------------------------------------------------------

class TestServiceWorkerPool:
    """The pool as the serve broker drives it: long-lived, fed one-item
    chunks."""

    def test_crash_fails_item_but_pool_survives(self):
        """The poisoned item fails structurally; the pool stays open."""
        with SupervisedPool(_square, 0, ParallelConfig(**FAST),
                            fault_plan=kill_plan(max_fires=2)) as pool:
            with pytest.raises(WorkerCrashError) as err:
                pool.submit([(0, 3)]).result(timeout=60)
            assert err.value.crashes == 2
            assert err.value.to_dict()["error"] == "worker_crash"
            assert not pool.closed

    def test_transient_crash_retried_transparently(self):
        with SupervisedPool(_square, 0, ParallelConfig(**FAST),
                            fault_plan=kill_plan(max_fires=1)) as pool:
            done, _ = pool.submit([(0, 4)]).result(timeout=60)
        assert done == [(0, 16)]

    def test_closed_pool_raises_pool_closed(self):
        pool = SupervisedPool(_square, 0)
        pool.close()
        assert pool.closed
        with pytest.raises(PoolClosedError):
            pool.submit([(0, 1)])


# -- campaigns under process faults ------------------------------------------

@pytest.fixture
def grid():
    return frequency_grid("low-power-cmp", (1, 2, 3, 4), ("water",))


def _run(grid, ck, *, plan=None, workers=2, chunk_size=1, resume=True):
    return CampaignRunner(
        grid, resilience=options(), checkpoint_path=ck,
        evaluator=_cheap_eval, workers=workers, chunk_size=chunk_size,
        process_faults=plan, heartbeat_timeout_s=5.0,
    ).run(resume=resume)


class TestCampaignUnderChaos:
    def test_sigkill_preserves_byte_identical_results(self, tmp_path,
                                                      grid):
        """Transient kills change nothing about the output bytes."""
        clean = _run(grid, tmp_path / "clean.json")
        chaotic = _run(grid, tmp_path / "chaos.json",
                       plan=kill_plan(max_fires=1, probability=0.7))
        assert chaotic.summary()["ok"] == len(grid)
        a = json.loads((tmp_path / "clean.json").read_text())
        b = json.loads((tmp_path / "chaos.json").read_text())
        a.pop("manifest"), b.pop("manifest")
        assert a == b

    def test_poison_quarantined_with_ledger_record(self, tmp_path, grid):
        """Deterministic crashes land in the ledger, not an abort."""
        clean = _run(grid, tmp_path / "clean.json")
        result = _run(grid, tmp_path / "chaos.json",
                      plan=kill_plan(max_fires=2, probability=0.6, seed=5))
        s = result.summary()
        assert s.get("poison", 0) >= 1
        assert s["ok"] + s["poison"] == len(grid)
        poisoned = {e.key for e in result.ledger
                    if e.exception == "WorkerCrashError"}
        assert len(poisoned) == s["poison"]
        assert all(e.rungs_tried == ("poison",) for e in result.ledger)
        # every surviving point is identical to the clean run
        for key, rec in result.records.items():
            if rec.status == "ok":
                assert rec == clean.records[key]

    def test_poison_set_identical_at_any_worker_count(self, tmp_path,
                                                      grid):
        plan = kill_plan(max_fires=2, probability=0.6, seed=5)
        r1 = _run(grid, tmp_path / "w1.json", plan=plan, workers=1)
        r2 = _run(grid, tmp_path / "w2.json", plan=plan, workers=3)
        poisoned = lambda r: {k for k, rec in r.records.items()
                              if rec.status == "poison"}
        assert poisoned(r1) == poisoned(r2)
        assert poisoned(r1)            # the plan does poison something

    def test_poisoned_points_reattempted_on_resume(self, tmp_path, grid):
        ck = tmp_path / "c.json"
        first = _run(grid, ck, plan=kill_plan(max_fires=2,
                                              probability=0.6,
                                              seed=5))
        assert first.summary().get("poison", 0) >= 1
        # rerun without faults: only the poisoned points recompute
        second = _run(grid, ck)
        assert second.summary()["ok"] == len(grid)
        assert second.evaluated == first.summary()["poison"]
        assert second.ledger == ()

    def test_quarantine_metric_incremented(self, tmp_path, grid):
        before = get_registry().counter(
            "campaign.points_quarantined").value
        result = _run(grid, tmp_path / "c.json",
                      plan=kill_plan(max_fires=2, probability=0.6, seed=5))
        after = get_registry().counter(
            "campaign.points_quarantined").value
        assert after - before == result.summary()["poison"]


# -- checkpoint integrity and recovery ---------------------------------------

class TestCheckpointRecovery:
    def test_truncated_checkpoint_resumes(self, tmp_path, grid):
        """A torn write falls back to .bak instead of crashing."""
        ck = tmp_path / "c.json"
        _run(grid, ck)
        good = ck.read_text()
        ck.write_text(good[:len(good) // 2])       # simulated torn write
        before = get_registry().counter("checkpoint.recoveries").value
        result = _run(grid, ck)
        assert result.summary()["ok"] == len(grid)
        assert result.skipped >= 1                 # .bak state was reused
        assert get_registry().counter(
            "checkpoint.recoveries").value == before + 1
        assert ck.with_name(ck.name + ".corrupt").exists()

    def test_checksum_mismatch_detected(self, tmp_path, grid):
        """Valid JSON with silently flipped payload bits is rejected."""
        ck = tmp_path / "c.json"
        _run(grid, ck)
        data = json.loads(ck.read_text())
        key = next(iter(data["points"]))
        data["points"][key]["f_ghz"] = 9999.0      # bit rot
        ck.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="checksum"):
            verify_checkpoint(ck)
        # and the runner recovers rather than trusting the bytes
        result = _run(grid, ck)
        assert result.summary()["ok"] == len(grid)
        assert all(r.f_ghz != 9999.0 for r in result.records.values())

    def test_verify_checkpoint_roundtrip(self, tmp_path, grid):
        ck = tmp_path / "c.json"
        _run(grid, ck)
        info = verify_checkpoint(ck)
        assert info == {"version": CHECKPOINT_VERSION,
                        "points": len(grid), "ledger_entries": 0,
                        "checksum_ok": True}
        with pytest.raises(CheckpointError):
            verify_checkpoint(tmp_path / "missing.json")

    def test_bak_holds_previous_generation(self, tmp_path, grid):
        ck = tmp_path / "c.json"
        _run(grid, ck)
        bak = ck.with_name(ck.name + ".bak")
        assert bak.exists()
        # .bak is exactly one checkpoint generation behind
        assert len(json.loads(bak.read_text())["points"]) \
            == len(grid) - 1

    def test_both_generations_corrupt_starts_empty(self, tmp_path,
                                                   grid):
        ck = tmp_path / "c.json"
        _run(grid, ck)
        ck.write_text("{torn")
        ck.with_name(ck.name + ".bak").write_text("{also torn")
        result = _run(grid, ck)
        assert result.summary()["ok"] == len(grid)
        assert result.evaluated == len(grid)       # nothing resumable

    def test_writer_unlinks_temp_on_failure(self, tmp_path, grid):
        """A json.dump crash mid-write leaves no .tmp litter behind."""
        ck = tmp_path / "c.json"
        runner = CampaignRunner(grid, resilience=options(),
                                checkpoint_path=ck,
                                evaluator=_cheap_eval)
        record = _cheap_eval(grid[0], None, None)
        bad_entry = LedgerEntry(
            key=grid[0].key, point=grid[0], exception="X",
            message="boom", attempts=1, rungs_tried=("a",),
            allow_degraded=False)
        object.__setattr__(bad_entry, "message", object())  # unserializable
        with pytest.raises(TypeError):
            runner._write_checkpoint({grid[0].key: record}, [bad_entry])
        assert not list(tmp_path.glob("*.tmp"))
        assert not ck.exists()
