"""Tests for the checkpointed, fault-tolerant campaign runner."""

from __future__ import annotations

import json
import time
import warnings

import pytest

from repro.core.campaign import (
    CHECKPOINT_VERSION,
    CampaignPoint,
    CampaignRunner,
    LedgerEntry,
    PointRecord,
    evaluate_point,
    frequency_grid,
    npb_grid,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    DegradedResultWarning,
)
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceOptions,
    RetryPolicy,
)

FAST_POLICY = RetryPolicy(max_attempts=2, base_delay_s=0.0,
                          jitter_fraction=0.0)


def options(*specs, allow_degraded=False, seed=0):
    injector = FaultInjector(specs, seed=seed) if specs else None
    return ResilienceOptions(retry_policy=FAST_POLICY,
                             allow_degraded=allow_degraded,
                             injector=injector,
                             sleep=lambda s: None)


#: A seeded fractional fault that fires on exactly one point of
#: ``TestCampaignRuns.grid`` (water n=2) at fault seed 1. Fault budgets
#: apply per point, so ``max_fires=1`` at probability 1 would fault
#: every point of the grid.
ONE_POINT_SINGULAR = FaultSpec("singular", probability=0.1, max_fires=1)


def _overrunning_evaluator(point, resilience, params):
    """Outlives any sub-second chunk deadline (module-level, so a
    supervised worker can run it)."""
    time.sleep(1.5)
    raise AssertionError("the chunk deadline should have killed this")


# -- grid builders and record plumbing --------------------------------------

class TestGrids:
    def test_frequency_grid_shape(self):
        pts = frequency_grid("low-power-cmp", (1, 2), ("water", "air"))
        assert len(pts) == 4
        assert {p.key for p in pts} == {
            "freq/low-power-cmp/n1/water", "freq/low-power-cmp/n2/water",
            "freq/low-power-cmp/n1/air", "freq/low-power-cmp/n2/air"}

    def test_npb_grid_kind_and_threads(self):
        pts = npb_grid("low-power-cmp", (2,), ("water",), threads=8)
        assert pts[0].kind == "npb"
        assert pts[0].threads == 8
        assert pts[0].key == "npb/low-power-cmp/n2/water"

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            CampaignPoint(kind="magic", chip="x", n_chips=1,
                          cooling="water")

    def test_bad_n_chips_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignPoint(kind="freq", chip="x", n_chips=0,
                          cooling="water")

    def test_point_round_trip(self):
        p = CampaignPoint(kind="npb", chip="c", n_chips=3,
                          cooling="air", threads=4)
        assert CampaignPoint.from_dict(p.to_dict()) == p

    def test_record_round_trip(self):
        p = CampaignPoint(kind="freq", chip="c", n_chips=2, cooling="w")
        r = PointRecord(point=p, status="ok", f_ghz=1.5, max_temp_c=60.0,
                        rung="analytic", degraded=True, attempts=3,
                        errors=("a", "b"), npb_time_s={"ft": 1.0})
        back = PointRecord.from_dict(
            json.loads(json.dumps(r.to_dict())))
        assert back == r
        assert back.finished

    def test_ledger_round_trip(self):
        p = CampaignPoint(kind="freq", chip="c", n_chips=2, cooling="w")
        e = LedgerEntry(key=p.key, point=p, exception="X", message="m",
                        attempts=2, rungs_tried=("full",),
                        allow_degraded=False)
        assert LedgerEntry.from_dict(
            json.loads(json.dumps(e.to_dict()))) == e

    def test_operating_point_reconstruction(self):
        p = CampaignPoint(kind="freq", chip="c", n_chips=2, cooling="w")
        r = PointRecord(point=p, status="ok", f_ghz=1.5, max_temp_c=60.0,
                        chip_power_w=30.0, total_power_w=70.0)
        op = r.operating_point()
        assert op.feasible and op.f_ghz == pytest.approx(1.5)
        failed = PointRecord(point=p, status="failed")
        assert not failed.operating_point().feasible


class TestRunnerValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(())

    def test_duplicate_points_rejected(self):
        p = CampaignPoint(kind="freq", chip="c", n_chips=1, cooling="w")
        with pytest.raises(ConfigurationError, match="duplicate"):
            CampaignRunner((p, p))


# -- end-to-end campaigns (acceptance criteria) -----------------------------

class TestCampaignRuns:
    def grid(self):
        """2 clean points, 1 infeasible (low-power/air/n6, fast grid)."""
        return frequency_grid("low-power-cmp", (2, 6), ("water", "air"))

    def test_faulted_grid_completes_with_ledger(self, tmp_path,
                                                fast_params):
        """Acceptance: a grid with a singular-injected point and an
        infeasible point runs to completion, writing checkpoint +
        ledger."""
        ck = tmp_path / "c.json"
        runner = CampaignRunner(
            self.grid(),
            resilience=options(ONE_POINT_SINGULAR, seed=1),
            checkpoint_path=ck, params=fast_params)
        result = runner.run()
        s = result.summary()
        assert s["failed"] == 1            # the single fire hits point 1
        assert s["infeasible"] == 1        # air n=6
        assert s["ok"] == 2
        assert len(result.ledger) == 1
        entry = result.ledger[0]
        assert entry.exception == "SingularNetworkError"
        assert entry.rungs_tried == ("full",)
        assert not entry.allow_degraded
        data = json.loads(ck.read_text())
        assert data["version"] == CHECKPOINT_VERSION
        assert len(data["points"]) == 4
        assert len(data["ledger"]) == 1

    def test_allow_degraded_yields_analytic_result(self, tmp_path,
                                                   fast_params):
        """Acceptance: with allow_degraded the faulted point returns an
        analytic-rung result tagged degraded=True; without it the point
        lands in the failure ledger (previous test)."""
        runner = CampaignRunner(
            self.grid(),
            resilience=options(ONE_POINT_SINGULAR, seed=1,
                               allow_degraded=True),
            checkpoint_path=tmp_path / "c.json", params=fast_params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = runner.run()
        assert result.ledger == ()
        degraded = [r for r in result.records.values() if r.degraded]
        assert len(degraded) == 1
        rec = degraded[0]
        assert rec.status == "ok"
        assert rec.rung == "analytic"
        assert rec.attempts >= 2
        clean = [r for r in result.records.values()
                 if not r.degraded and r.status == "ok"]
        assert all(r.rung == "full" for r in clean)

    def test_resume_skips_finished_without_solving(self, tmp_path,
                                                   fast_params):
        """Acceptance: resume recomputes nothing for finished points,
        verified from cold caches by counting stack-factor builds and
        sparse solves."""
        from repro.obs import get_registry
        from repro.thermal.hotspot import model_cache
        from repro.thermal.response import response_cache

        def work() -> int:
            """Factor builds plus sparse solves so far, caches emptied."""
            model_cache().clear()
            response_cache().clear()
            c = get_registry().snapshot()["counters"]
            return c.get("response.builds", 0) + c.get("thermal.solves", 0)

        ck = tmp_path / "c.json"
        before = work()
        first = CampaignRunner(self.grid(), resilience=options(),
                               checkpoint_path=ck,
                               params=fast_params).run()
        assert first.evaluated == 4 and first.skipped == 0
        assert work() > before

        before = work()
        second = CampaignRunner(self.grid(), resilience=options(),
                                checkpoint_path=ck,
                                params=fast_params).run(resume=True)
        assert second.evaluated == 0 and second.skipped == 4
        assert work() == before
        assert second.summary()["ok"] == first.summary()["ok"]

    def test_resume_reattempts_failed_and_clears_ledger(self, tmp_path,
                                                        fast_params):
        ck = tmp_path / "c.json"
        faulted = CampaignRunner(
            self.grid(),
            resilience=options(ONE_POINT_SINGULAR, seed=1),
            checkpoint_path=ck, params=fast_params).run()
        assert faulted.summary()["failed"] == 1
        retried = CampaignRunner(self.grid(), resilience=options(),
                                 checkpoint_path=ck,
                                 params=fast_params).run(resume=True)
        assert retried.evaluated == 1 and retried.skipped == 3
        assert retried.summary()["failed"] == 0
        assert retried.ledger == ()

    def test_resume_false_recomputes(self, tmp_path, fast_params):
        ck = tmp_path / "c.json"
        pts = frequency_grid("low-power-cmp", (2,), ("water",))
        CampaignRunner(pts, resilience=options(), checkpoint_path=ck,
                       params=fast_params).run()
        fresh = CampaignRunner(pts, resilience=options(),
                               checkpoint_path=ck,
                               params=fast_params).run(resume=False)
        assert fresh.evaluated == 1 and fresh.skipped == 0

    def test_checkpoint_is_canonical_indent1_json(self, tmp_path,
                                                  fast_params):
        """The incremental fragment encoder must stay byte-identical
        to ``json.dumps(payload, indent=1)`` — byte-level checkpoint
        comparisons (serial vs workers, cache on vs off) ride on it."""
        import json
        ck = tmp_path / "c.json"
        pts = frequency_grid("low-power-cmp", (2, 4), ("water", "air"))
        CampaignRunner(pts, resilience=options(), checkpoint_path=ck,
                       params=fast_params).run()
        text = ck.read_text()
        assert text == json.dumps(json.loads(text), indent=1)

    def test_no_checkpoint_path_runs_in_memory(self, fast_params):
        pts = frequency_grid("low-power-cmp", (2,), ("water",))
        result = CampaignRunner(pts, resilience=options(),
                                params=fast_params).run()
        assert result.checkpoint_path is None
        assert result.summary()["ok"] == 1

    def test_npb_point_records_times(self, fast_params):
        from repro.perfsim.npb import NPB_ORDER
        pts = npb_grid("low-power-cmp", (2,), ("water",))
        result = CampaignRunner(pts, resilience=options(),
                                params=fast_params).run()
        rec = result.records[pts[0].key]
        assert rec.status == "ok"
        assert set(rec.npb_time_s) == set(NPB_ORDER)
        assert all(t > 0 for t in rec.npb_time_s.values())

    def test_timeout_lands_in_ledger(self, tmp_path, fast_params):
        """The chunk deadline holds at one worker: the overrunning
        chunk's worker is killed, and past the crash threshold its
        point is quarantined as ``poison`` (resume re-attempts it)."""
        pts = frequency_grid("low-power-cmp", (2,), ("water",))
        result = CampaignRunner(pts, resilience=options(),
                                checkpoint_path=tmp_path / "c.json",
                                params=fast_params, workers=1,
                                chunk_timeout_s=0.3,
                                evaluator=_overrunning_evaluator).run()
        assert result.summary()["poison"] == 1
        assert result.records[pts[0].key].status == "poison"
        entry, = result.ledger
        assert entry.exception == "WorkerCrashError"
        assert entry.rungs_tried == ("poison",)
        assert not result.records[pts[0].key].finished

    def test_transient_fault_recovers_via_retry(self, fast_params):
        """A timeout fault with max_fires=1 succeeds on the retry."""
        pts = frequency_grid("low-power-cmp", (2,), ("water",))
        result = CampaignRunner(
            pts,
            resilience=options(FaultSpec("timeout", max_fires=1)),
            params=fast_params).run()
        rec = result.records[pts[0].key]
        assert rec.status == "ok"
        assert rec.rung == "full"
        assert not rec.degraded
        assert rec.attempts == 2


class TestCheckpointIO:
    def test_version_mismatch_recovers(self, tmp_path, fast_params):
        """An incompatible checkpoint is rotated aside, not fatal."""
        ck = tmp_path / "c.json"
        ck.write_text(json.dumps({"version": 99, "points": {},
                                  "ledger": []}))
        pts = frequency_grid("low-power-cmp", (2,), ("water",))
        result = CampaignRunner(pts, resilience=options(),
                                checkpoint_path=ck,
                                params=fast_params).run()
        assert result.summary()["ok"] == 1
        assert result.evaluated == 1           # nothing resumable
        corrupt = ck.with_name(ck.name + ".corrupt")
        assert json.loads(corrupt.read_text())["version"] == 99

    def test_corrupt_json_recovers(self, tmp_path, fast_params):
        """Unparseable bytes are quarantined and the run proceeds."""
        ck = tmp_path / "c.json"
        ck.write_text("{not json")
        pts = frequency_grid("low-power-cmp", (2,), ("water",))
        result = CampaignRunner(pts, resilience=options(),
                                checkpoint_path=ck,
                                params=fast_params).run()
        assert result.summary()["ok"] == 1
        assert ck.with_name(ck.name + ".corrupt").exists()
        # the rewritten checkpoint is valid again
        from repro.core.campaign import verify_checkpoint
        assert verify_checkpoint(ck)["checksum_ok"] is True

    def test_record_for_missing_point(self, fast_params):
        pts = frequency_grid("low-power-cmp", (2,), ("water",))
        result = CampaignRunner(pts, resilience=options(),
                                params=fast_params).run()
        other = CampaignPoint(kind="freq", chip="ghost", n_chips=1,
                              cooling="water")
        with pytest.raises(CheckpointError):
            result.record_for(other)
        assert result.record_for(pts[0]).status == "ok"


class TestResultReconstruction:
    def test_frequency_series_with_provenance(self, fast_params):
        pts = frequency_grid("low-power-cmp", (2, 4, 6), ("air",))
        result = CampaignRunner(pts, resilience=options(),
                                params=fast_params).run()
        series = result.frequency_series("low-power-cmp", "air")
        assert series.chips == (2, 4, 6)
        assert series.f_ghz[-1] == 0.0          # n=6 infeasible
        assert series.f_ghz[0] > 0
        assert series.rungs == ("full",) * 3
        assert series.degraded == (False,) * 3
        assert series.feasible_up_to() == 4

    def test_failed_points_appear_as_failed_rung(self, fast_params):
        pts = frequency_grid("low-power-cmp", (2, 4), ("water",))
        result = CampaignRunner(
            pts,
            resilience=options(FaultSpec("singular", max_fires=1)),
            params=fast_params).run()
        series = result.frequency_series("low-power-cmp", "water")
        assert "failed" in series.rungs
        idx = series.rungs.index("failed")
        assert series.f_ghz[idx] == 0.0

    def test_npb_comparison_reconstruction(self, fast_params):
        pts = npb_grid("low-power-cmp", (2,), ("water", "air"))
        result = CampaignRunner(pts, resilience=options(),
                                params=fast_params).run()
        cmp_ = result.npb_comparison("low-power-cmp", 2, reference="air")
        assert cmp_.n_chips == 2
        assert {o.cooling for o in cmp_.outcomes} == {"water", "air"}
        for o in cmp_.outcomes:
            assert o.rung == "full"
            assert len(o.npb_time_s) == 9


# -- default evaluator directly ---------------------------------------------

class TestEvaluatePoint:
    def test_freq_point(self, fast_params):
        p = CampaignPoint(kind="freq", chip="low-power-cmp", n_chips=2,
                          cooling="water")
        rec = evaluate_point(p, options(), fast_params)
        assert rec.status == "ok"
        assert rec.rung == "full"
        assert rec.npb_time_s == {}

    def test_infeasible_point(self, fast_params):
        p = CampaignPoint(kind="freq", chip="low-power-cmp", n_chips=6,
                          cooling="air")
        rec = evaluate_point(p, options(), fast_params)
        assert rec.status == "infeasible"
        assert rec.f_ghz == 0.0
        assert rec.finished

    def test_threshold_override(self, fast_params):
        base = CampaignPoint(kind="freq", chip="low-power-cmp",
                             n_chips=2, cooling="water")
        tight = CampaignPoint(kind="freq", chip="low-power-cmp",
                              n_chips=2, cooling="water",
                              threshold_c=40.0)
        f_base = evaluate_point(base, options(), fast_params).f_ghz
        f_tight = evaluate_point(tight, options(), fast_params).f_ghz
        assert f_tight <= f_base


# -- resilient sweep / cosim integration ------------------------------------

class TestResilientSweeps:
    def test_frequency_vs_chips_resilient_matches_clean(self,
                                                        fast_params):
        from repro.core.sweeps import frequency_vs_chips
        clean = frequency_vs_chips("low-power-cmp", (2, 4), ("water",),
                                   params=fast_params)
        res = frequency_vs_chips("low-power-cmp", (2, 4), ("water",),
                                 params=fast_params,
                                 resilience=options())
        assert res[0].f_ghz == clean[0].f_ghz
        assert res[0].rungs == ("full", "full")
        assert res[0].degraded == (False, False)

    def test_frequency_vs_chips_degraded_survives_fault(self,
                                                        fast_params):
        from repro.core.sweeps import frequency_vs_chips
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            series, = frequency_vs_chips(
                "low-power-cmp", (2, 4), ("water",), params=fast_params,
                resilience=options(FaultSpec("singular", max_fires=2),
                                   allow_degraded=True))
        assert "analytic" in series.rungs
        assert any(series.degraded)
        assert all(f > 0 for f in series.f_ghz)

    def test_run_npb_comparison_resilient(self, fast_params):
        from repro.core.cosim import run_npb_comparison
        cmp_ = run_npb_comparison("low-power-cmp", 2, reference="water",
                                  coolings=("water",), params=fast_params,
                                  resilience=options())
        o = cmp_.outcomes[0]
        assert o.rung == "full"
        assert not o.degraded
        assert o.point.feasible


class TestFeasibleUpTo:
    def test_gap_semantics_pinned(self):
        """Satellite: feasible n=2, infeasible n=3, feasible n=4 → 4."""
        from repro.core.sweeps import FrequencySeries
        s = FrequencySeries(cooling="water", chips=(2, 3, 4),
                            f_ghz=(1.0, 0.0, 2.0))
        assert s.feasible_up_to() == 4
        assert s.contiguous_up_to() == 2

    def test_all_infeasible(self):
        from repro.core.sweeps import FrequencySeries
        s = FrequencySeries(cooling="air", chips=(2, 3),
                            f_ghz=(0.0, 0.0))
        assert s.feasible_up_to() == 0
        assert s.contiguous_up_to() == 0


# -- CLI ---------------------------------------------------------------------

class TestCampaignCli:
    def run_cli(self, tmp_path, *extra):
        from repro.cli import main
        ck = tmp_path / "cli.json"
        argv = ["campaign", "--chip", "low-power-cmp", "--max-chips", "1",
                "--cooling", "water", "--checkpoint", str(ck),
                "--max-retries", "1", "--seed", "1", *extra]
        return main(argv), ck

    def test_smoke_and_resume(self, tmp_path, capsys):
        code, ck = self.run_cli(tmp_path)
        assert code == 0
        data = json.loads(ck.read_text())
        assert data["version"] == CHECKPOINT_VERSION
        assert len(data["points"]) == 1
        assert "ok" in capsys.readouterr().out

        code, _ = self.run_cli(tmp_path, "--resume")
        assert code == 0
        assert "skipped 1" in capsys.readouterr().out

    def test_injected_failure_exit_code(self, tmp_path, capsys):
        code, ck = self.run_cli(tmp_path, "--inject", "singular:1:2")
        # The single point fails; no finished point → exit 1.
        assert code == 1
        data = json.loads(ck.read_text())
        assert len(data["ledger"]) == 1
        assert "SingularNetworkError" in capsys.readouterr().out

    def test_injected_failure_degraded_recovers(self, tmp_path, capsys):
        code, ck = self.run_cli(tmp_path, "--inject", "singular:1:2",
                                "--allow-degraded")
        assert code == 0
        data = json.loads(ck.read_text())
        assert data["ledger"] == []
        rec, = data["points"].values()
        assert rec["rung"] == "analytic"
        assert rec["degraded"] is True
