"""Instrumentation wired through the pipeline: cache, CLI, campaign."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import get_registry, get_tracer, validate_manifest
from repro.thermal.hotspot import ModelCache, model_cache, model_for
from repro.thermal.package import DEFAULT_PACKAGE


def counter_value(name: str) -> int:
    return get_registry().counter(name).value


# -- bounded model cache -----------------------------------------------------

class TestModelCache:
    def test_lru_eviction_order_and_bound(self):
        cache = ModelCache(capacity=2)
        built = []

        def factory(tag):
            def build():
                built.append(tag)
                return tag
            return build

        cache.get_or_build(("a",), factory("a"))
        cache.get_or_build(("b",), factory("b"))
        cache.get_or_build(("a",), factory("a2"))   # hit; refreshes "a"
        cache.get_or_build(("c",), factory("c"))    # evicts LRU "b"
        cache.get_or_build(("b",), factory("b2"))   # rebuild
        assert built == ["a", "b", "c", "b2"]
        info = cache.cache_info()
        assert info.hits == 1
        assert info.misses == 4
        assert info.evictions == 2      # "b" then "a"
        assert info.currsize == 2 == len(cache)

    def test_set_capacity_evicts_down(self):
        cache = ModelCache(capacity=4)
        for k in range(4):
            cache.get_or_build((k,), lambda k=k: k)
        cache.set_capacity(1)
        assert len(cache) == 1
        assert cache.cache_info().evictions == 3
        # the survivor is the most recently used
        assert cache.get_or_build((3,), lambda: "rebuilt") == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ModelCache(capacity=0)
        with pytest.raises(ConfigurationError):
            ModelCache(capacity=2).set_capacity(-1)

    def test_clear_keeps_statistics(self):
        cache = ModelCache(capacity=2)
        cache.get_or_build(("a",), lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.cache_info().misses == 1

    def test_model_for_exports_hit_miss_counters(self):
        # a unique params object gives an unpolluted cache key
        params = replace(DEFAULT_PACKAGE, die_grid=7, package_grid=4)
        hits0 = counter_value("thermal.model_cache_hit")
        miss0 = counter_value("thermal.model_cache_miss")
        a = model_for("low-power-cmp", 1, "water", params=params)
        b = model_for("low-power-cmp", 1, "water", params=params)
        assert a is b
        assert counter_value("thermal.model_cache_miss") == miss0 + 1
        assert counter_value("thermal.model_cache_hit") == hits0 + 1
        assert model_cache().capacity >= 1


# -- solver / resilience counters -------------------------------------------

class TestPipelineCounters:
    def test_solver_counters_tick(self, fast_params, monkeypatch):
        from repro.cooling.options import get_cooling
        from repro.power.processors import get_chip
        from repro.stack.chipstack import StackConfig
        from repro.thermal import response_cache
        from repro.thermal.hotspot import ThermalModel
        from repro.thermal.response import DISABLE_ENV, STORE_DIR_ENV
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        response_cache().clear()
        stack = StackConfig(chip=get_chip("low-power-cmp"), n_chips=1)
        fact0 = counter_value("thermal.splu_factorizations")
        builds0 = counter_value("response.builds")
        ThermalModel(stack, get_cooling("water"),
                     fast_params).max_temperature_c(2.0e9)
        # A cold operator query builds the geometry's response operator
        # through the structured die-stack solve: no sparse factorization.
        assert counter_value("response.builds") == builds0 + 1
        assert counter_value("thermal.splu_factorizations") == fact0
        # The kill switch answers through the sparse solver instead.
        monkeypatch.setenv(DISABLE_ENV, "1")
        solve0 = counter_value("thermal.solves")
        ThermalModel(stack, get_cooling("water"),
                     fast_params).max_temperature_c(2.0e9)
        assert counter_value("thermal.splu_factorizations") == fact0 + 1
        assert counter_value("thermal.solves") > solve0
        hist = get_registry().histogram("thermal.solve_seconds")
        assert hist.count >= 1

    def test_retry_counter_ticks(self):
        from repro.errors import TransientSolverError
        from repro.resilience import RetryPolicy, with_retry
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise TransientSolverError("once")
            return "ok"

        r0 = counter_value("resilience.retries")
        out = with_retry(flaky, policy=RetryPolicy(max_attempts=3,
                                                   base_delay_s=0.0,
                                                   jitter_fraction=0.0),
                         sleep=lambda s: None)
        assert out.value == "ok"
        assert counter_value("resilience.retries") == r0 + 1

    def test_noc_flit_counter_ticks(self):
        from repro.perfsim.noc.flitlevel import zero_load_flit_latency
        f0 = counter_value("noc.flits_routed")
        zero_load_flit_latency(5)
        assert counter_value("noc.flits_routed") == f0 + 5


# -- CLI flags ---------------------------------------------------------------

class TestCliObservability:
    FREQ = ["freq", "--chip", "low-power-cmp", "--chips", "1",
            "--cooling", "water"]

    def test_flags_after_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main(self.FREQ + ["--trace-out", str(trace),
                               "--metrics-out", str(metrics)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "cli.freq" in names
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["thermal.solves"] >= 1
        # the CLI must restore the disabled state afterwards
        assert not get_tracer().enabled

    def test_flags_before_subcommand(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        rc = main(["--trace-out", str(trace)] + self.FREQ)
        assert rc == 0
        lines = [json.loads(line)
                 for line in trace.read_text().strip().splitlines()]
        assert any(r["name"] == "cli.freq" for r in lines)

    def test_jsonl_suffix_selects_jsonl(self, tmp_path):
        trace = tmp_path / "spans.jsonl"
        main(self.FREQ + ["--trace-out", str(trace)])
        first = trace.read_text().splitlines()[0]
        assert "span_id" in json.loads(first)

    def test_verbose_streams_structured_stderr(self, capsys):
        rc = main(self.FREQ + ["-v"])
        assert rc == 0
        # -v alone must not enable the tracer
        assert not get_tracer().enabled

    def test_inert_without_flags(self, tmp_path, capsys):
        spans_before = len(get_tracer().spans)
        rc = main(self.FREQ)
        assert rc == 0
        assert len(get_tracer().spans) == spans_before
        assert not get_tracer().enabled


# -- campaign manifests ------------------------------------------------------

class TestCampaignManifest:
    def _run(self, tmp_path, fast_params):
        from repro.core.campaign import CampaignRunner, frequency_grid
        from repro.resilience import ResilienceOptions, RetryPolicy
        pts = frequency_grid("low-power-cmp", (1, 2), ("water",))
        runner = CampaignRunner(
            pts,
            resilience=ResilienceOptions(
                retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                         jitter_fraction=0.0, seed=3),
                sleep=lambda s: None),
            checkpoint_path=tmp_path / "c.json", params=fast_params)
        return runner, runner.run()

    def test_manifest_written_and_valid(self, tmp_path, fast_params):
        runner, result = self._run(tmp_path, fast_params)
        manifest_path = runner.manifest_path()
        assert manifest_path is not None and manifest_path.exists()
        doc = json.loads(manifest_path.read_text())
        validate_manifest(doc)
        assert doc["name"] == "campaign"
        assert doc["seed"] == 3
        assert doc["config_hash"] == runner.config_hash
        assert doc["extra"]["point_totals"]["ok"] == 2
        assert doc["wall_time_s"] > 0
        assert "counters" in doc["metrics"]

    def test_manifest_embedded_in_checkpoint(self, tmp_path, fast_params):
        runner, result = self._run(tmp_path, fast_params)
        ck = json.loads((tmp_path / "c.json").read_text())
        validate_manifest(ck["manifest"])
        assert ck["manifest"]["config_hash"] == runner.config_hash
        assert result.manifest is not None
        assert result.manifest["config_hash"] == runner.config_hash

    def test_point_counters_sum_to_totals(self, tmp_path, fast_params):
        ok0 = counter_value("campaign.points_ok")
        fail0 = counter_value("campaign.points_failed")
        _, result = self._run(tmp_path, fast_params)
        s = result.summary()
        assert counter_value("campaign.points_ok") - ok0 == s["ok"] == 2
        assert counter_value("campaign.points_failed") - fail0 \
            == s["failed"] == 0

    def test_ledger_entries_carry_config_hash(self, tmp_path, fast_params):
        from repro.core.campaign import CampaignRunner, frequency_grid
        from repro.resilience import (
            FaultInjector,
            FaultSpec,
            ResilienceOptions,
            RetryPolicy,
        )
        pts = frequency_grid("low-power-cmp", (1,), ("water",))
        runner = CampaignRunner(
            pts,
            resilience=ResilienceOptions(
                retry_policy=RetryPolicy(max_attempts=1),
                injector=FaultInjector([FaultSpec("singular")], seed=0),
                sleep=lambda s: None),
            checkpoint_path=tmp_path / "c.json", params=fast_params)
        result = runner.run()
        assert len(result.ledger) == 1
        assert result.ledger[0].config_hash == runner.config_hash
        # and it round-trips through the checkpoint
        ck = json.loads((tmp_path / "c.json").read_text())
        assert ck["ledger"][0]["config_hash"] == runner.config_hash

    def test_config_hash_stable_across_runs(self, tmp_path, fast_params):
        runner_a, _ = self._run(tmp_path, fast_params)
        runner_b, _ = self._run(tmp_path, fast_params)
        assert runner_a.config_hash == runner_b.config_hash
