"""The request-serving subsystem: hashing, cache, broker, client, HTTP.

The load-bearing guarantees pinned here:

* config-hash stability — permuted key order and int-vs-float equal
  values hash identically (this keys the result cache and coalescing);
* exactly one computation per unique config hash under concurrent
  duplicate submissions, proven by counters;
* served results byte-identical to calling the underlying API
  directly;
* admission control sheds with a structured ``OverloadedError``
  instead of queueing unboundedly;
* graceful drain on shutdown, with serve stats persisted into a valid
  run manifest.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import warnings
from dataclasses import replace

import pytest

from repro.config import ExperimentResult, ExperimentSpec
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    DegradedResultWarning,
    OverloadedError,
    ServeError,
    ThermalModelError,
)
from repro.obs import counter, histogram, validate_manifest
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceOptions,
    RetryPolicy,
)
from repro.serve import (
    Broker,
    BrokerConfig,
    ResultCache,
    ServeClient,
    ServeRequest,
    SpecOutcome,
    result_from_dict,
    result_to_json,
    run_spec_resilient,
    spec_hash,
)

#: Coarse grids so real-pipeline tests stay fast.
FAST = {"die_grid": 8, "package_grid": 4}


def fast_spec(**kw) -> ExperimentSpec:
    base = dict(chip="low-power-cmp", n_chips=2, cooling="water",
                package_overrides=dict(FAST), benchmarks=("ep",))
    base.update(kw)
    return ExperimentSpec(**base)


def outcome_of(value) -> SpecOutcome:
    return SpecOutcome(result=value, rung="full", degraded=False,
                       attempts=1)


class GatedRunner:
    """Stub evaluator that blocks until released (scheduling tests)."""

    def __init__(self) -> None:
        self.calls: list[str] = []
        self.started = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, spec: ExperimentSpec) -> SpecOutcome:
        with self._lock:
            self.calls.append(spec_hash(spec))
        self.started.set()
        assert self.release.wait(timeout=30)
        return outcome_of(("computed", spec_hash(spec)))


# -- config-hash stability (keys the cache and coalescing) ------------------

class TestSpecHash:
    def test_permuted_key_order_same_hash(self):
        a = {"chip": "low-power-cmp", "n_chips": 6, "cooling": "water",
             "flip": False}
        b = {"flip": False, "cooling": "water", "chip": "low-power-cmp",
             "n_chips": 6}
        assert spec_hash(a) == spec_hash(b)

    def test_int_vs_float_equal_values_same_hash(self):
        a = {"chip": "low-power-cmp", "n_chips": 6, "cooling": "water"}
        b = {"chip": "low-power-cmp", "n_chips": 6.0, "cooling": "water"}
        assert spec_hash(a) == spec_hash(b)

    def test_nested_overrides_normalize_too(self):
        a = {"chip": "x", "package_overrides": {"die_grid": 8,
                                                "h_w_m2k": 1.5}}
        b = {"package_overrides": {"h_w_m2k": 1.5, "die_grid": 8.0},
             "chip": "x"}
        assert spec_hash(a) == spec_hash(b)

    def test_spec_and_its_dict_agree(self):
        spec = fast_spec()
        assert spec_hash(spec) == spec_hash(spec.to_dict())

    def test_different_specs_differ(self):
        assert spec_hash(fast_spec(n_chips=2)) != \
            spec_hash(fast_spec(n_chips=3))

    def test_bools_are_not_ints(self):
        a = {"chip": "x", "flip": True}
        b = {"chip": "x", "flip": 1}
        assert spec_hash(a) != spec_hash(b)

    def test_non_integral_floats_unchanged(self):
        a = {"chip": "x", "threshold_c": 79.5}
        b = {"chip": "x", "threshold_c": 79}
        assert spec_hash(a) != spec_hash(b)


# -- strict spec parsing ----------------------------------------------------

class TestStrictSpec:
    def test_unknown_key_rejected_and_named(self):
        with pytest.raises(ConfigurationError, match="'coolant'"):
            ExperimentSpec.from_dict(
                {"chip": "low-power-cmp", "coolant": "water"})

    def test_every_unknown_key_listed(self):
        with pytest.raises(ConfigurationError) as exc:
            ExperimentSpec.from_dict({"chips": 4, "colling": "water"})
        assert "'chips'" in str(exc.value)
        assert "'colling'" in str(exc.value)

    def test_round_trip_still_works(self):
        spec = fast_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_cli_spec_reports_unknown_key(self, capsys):
        from repro.cli import main
        rc = main(["spec", '{"chip": "low-power-cmp", "typo_key": 1}'])
        assert rc == 2
        assert "typo_key" in capsys.readouterr().err

    def test_cli_spec_reports_bad_json(self, capsys):
        from repro.cli import main
        rc = main(["spec", "{not json"])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err


# -- result cache -----------------------------------------------------------

class TestResultCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes a
        cache.put("c", 3)                   # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        s = cache.stats()
        assert s["evictions"] == 1
        assert s["hits"] == 3
        assert s["misses"] == 1

    def test_ttl_expiry_counts_and_recomputes(self):
        now = [0.0]
        cache = ResultCache(capacity=4, ttl_s=10.0, clock=lambda: now[0])
        cache.put("k", "v")
        assert cache.get("k") == "v"
        now[0] = 10.1
        assert cache.get("k") is None
        s = cache.stats()
        assert s["expirations"] == 1
        assert s["size"] == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultCache(capacity=0)
        with pytest.raises(ConfigurationError):
            ResultCache(ttl_s=0.0)


# -- non-finite numbers at the config boundary -----------------------------

_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteRejected:
    """NaN and ±inf stop at the serve config boundary as a
    ConfigurationError naming the field: a NaN deadline or TTL would
    otherwise never expire."""

    @pytest.mark.parametrize("name", ["cache_ttl_s", "default_deadline_s",
                                      "slo_window_s"])
    @pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_broker_config_field(self, name, bad):
        with pytest.raises(ConfigurationError,
                           match=rf"'{name}' must be finite"):
            BrokerConfig(**{name: bad})

    @pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_request_deadline(self, bad):
        with pytest.raises(ConfigurationError,
                           match="'deadline_s' must be finite"):
            ServeRequest(spec=fast_spec(), deadline_s=bad)

    def test_cli_cache_ttl_nan_exits_2(self, monkeypatch, capsys):
        import repro.serve
        from repro.cli import main

        def no_broker(*args, **kwargs):
            raise AssertionError("a NaN TTL reached the broker")

        monkeypatch.setattr(repro.serve, "Broker", no_broker)
        assert main(["serve", "--cache-ttl", "nan"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: broker config 'cache_ttl_s' must be finite, got nan"]


# -- broker scheduling ------------------------------------------------------

class TestBroker:
    def test_coalescing_runs_each_unique_hash_once(self):
        runner = GatedRunner()
        coalesced0 = counter("serve.coalesced_total").value
        broker = Broker(BrokerConfig(workers=1, max_queue=8),
                        runner=runner)
        try:
            spec_a, spec_b = fast_spec(), fast_spec(n_chips=3)
            first = broker.submit(spec_a)
            assert runner.started.wait(timeout=10)  # a is running
            dupes = [broker.submit(spec_a) for _ in range(3)]
            queued_b = broker.submit(spec_b)
            dupe_b = broker.submit(spec_b)          # coalesce on queued
            runner.release.set()
            outcome = first.wait(timeout=30)
            assert all(d is first for d in dupes)
            assert dupe_b is queued_b
            # every attached submitter sees the identical object
            assert all(d.wait(timeout=30) is outcome for d in dupes)
            queued_b.wait(timeout=30)
            assert len(runner.calls) == 2           # one per unique hash
            assert counter("serve.coalesced_total").value \
                - coalesced0 == 4
        finally:
            runner.release.set()
            broker.shutdown(drain=True)

    def test_cache_hit_after_completion(self):
        runner = GatedRunner()
        runner.release.set()
        broker = Broker(BrokerConfig(workers=1, max_queue=8),
                        runner=runner)
        try:
            spec = fast_spec(n_chips=4)
            broker.submit(spec).wait(timeout=30)
            job = broker.submit(spec)
            assert job.done and job.from_cache
            assert len(runner.calls) == 1
            assert broker.cache.stats()["hits"] >= 1
        finally:
            broker.shutdown(drain=True)

    def test_admission_control_sheds_structured(self):
        runner = GatedRunner()
        shed0 = counter("serve.shed_total").value
        broker = Broker(BrokerConfig(workers=1, max_queue=2),
                        runner=runner)
        try:
            broker.submit(fast_spec(n_chips=1))     # running
            assert runner.started.wait(timeout=10)
            broker.submit(fast_spec(n_chips=2))     # queued 1
            broker.submit(fast_spec(n_chips=3))     # queued 2
            with pytest.raises(OverloadedError) as exc:
                broker.submit(fast_spec(n_chips=4))
            err = exc.value
            assert err.queued == 2
            assert err.limit == 2
            assert err.to_dict()["error"] == "overloaded"
            assert counter("serve.shed_total").value - shed0 == 1
        finally:
            runner.release.set()
            broker.shutdown(drain=True)

    def test_deadline_expires_queued_request(self):
        runner = GatedRunner()
        broker = Broker(BrokerConfig(workers=1, max_queue=8),
                        runner=runner)
        try:
            broker.submit(fast_spec(n_chips=1))     # occupies the worker
            assert runner.started.wait(timeout=10)
            doomed = broker.submit(fast_spec(n_chips=2),
                                   deadline_s=0.01)
            time.sleep(0.08)
            runner.release.set()
            with pytest.raises(DeadlineExceededError) as exc:
                doomed.wait(timeout=30)
            assert exc.value.waited_s > exc.value.deadline_s
            assert doomed.state == "expired"
        finally:
            runner.release.set()
            broker.shutdown(drain=True)

    def test_priority_orders_the_queue(self):
        runner = GatedRunner()
        broker = Broker(BrokerConfig(workers=1, max_queue=8),
                        runner=runner)
        try:
            broker.submit(fast_spec(n_chips=1))     # running
            assert runner.started.wait(timeout=10)
            low = broker.submit(fast_spec(n_chips=2), priority=5)
            high = broker.submit(fast_spec(n_chips=3), priority=-5)
            runner.release.set()
            low.wait(timeout=30)
            high.wait(timeout=30)
            # gate released once the first job started; order of the
            # remaining calls reflects the heap
            assert runner.calls.index(spec_hash(fast_spec(n_chips=3))) \
                < runner.calls.index(spec_hash(fast_spec(n_chips=2)))
        finally:
            runner.release.set()
            broker.shutdown(drain=True)

    def test_failed_job_fails_alone(self):
        def runner(spec: ExperimentSpec) -> SpecOutcome:
            if spec.n_chips == 13:
                raise ThermalModelError("boom")
            return outcome_of(spec.n_chips)

        broker = Broker(BrokerConfig(workers=1, max_queue=8),
                        runner=runner)
        try:
            bad = broker.submit(fast_spec(n_chips=13))
            good = broker.submit(fast_spec(n_chips=2))
            with pytest.raises(ThermalModelError):
                bad.wait(timeout=30)
            assert good.wait(timeout=30).result == 2
            assert broker.stats()["failed_total"] >= 1
        finally:
            broker.shutdown(drain=True)

    def test_shutdown_drains_then_rejects(self, tmp_path):
        runner = GatedRunner()
        broker = Broker(BrokerConfig(workers=1, max_queue=8),
                        runner=runner)
        jobs = [broker.submit(fast_spec(n_chips=n)) for n in (1, 2, 3)]
        assert runner.started.wait(timeout=10)
        runner.release.set()
        manifest_path = tmp_path / "serve.manifest.json"
        stats = broker.shutdown(drain=True, manifest_path=manifest_path)
        assert all(j.state == "done" for j in jobs)   # drained, not cut
        assert stats["completed_total"] >= 3
        with pytest.raises(ServeError):
            broker.submit(fast_spec(n_chips=9))
        doc = json.loads(manifest_path.read_text())
        validate_manifest(doc)
        assert doc["name"] == "serve"
        assert doc["extra"]["serve_stats"]["queued"] == 0

    def test_shutdown_without_drain_cancels_queued(self):
        runner = GatedRunner()
        broker = Broker(BrokerConfig(workers=1, max_queue=8),
                        runner=runner)
        running = broker.submit(fast_spec(n_chips=1))
        assert runner.started.wait(timeout=10)
        queued = broker.submit(fast_spec(n_chips=2))
        threading.Timer(0.1, runner.release.set).start()
        broker.shutdown(drain=False)
        assert running.state == "done"     # in-flight finished
        with pytest.raises(ServeError, match="cancelled"):
            queued.wait(timeout=5)
        assert queued.state == "cancelled"

    def test_stream_progress_event_sequence(self):
        runner = GatedRunner()
        runner.release.set()
        broker = Broker(BrokerConfig(workers=1), runner=runner)
        client = ServeClient(broker)
        try:
            jid = client.submit(fast_spec(n_chips=5), label="probe")
            events = list(client.stream_progress(jid, timeout=30))
            assert [e["event"] for e in events] == \
                ["queued", "running", "done"]
            assert all(e["label"] == "probe" for e in events)
            assert events[-1]["t_s"] >= 0.0
        finally:
            broker.shutdown(drain=True)

    def test_unknown_job_id(self):
        broker = Broker(BrokerConfig(workers=1),
                        runner=lambda s: outcome_of(None))
        try:
            with pytest.raises(ServeError, match="unknown job"):
                broker.job("j999999-nope")
        finally:
            broker.shutdown(drain=True)


# -- the identity guarantee -------------------------------------------------

class TestServedResults:
    def test_byte_identical_to_direct_api(self):
        spec = fast_spec()
        broker = Broker(BrokerConfig(workers=2))
        client = ServeClient(broker)
        try:
            jid = client.submit(spec)
            served = client.result(jid, timeout=120)
        finally:
            broker.shutdown(drain=True)
        assert result_to_json(served) == result_to_json(spec.run())

    def test_wire_round_trip_preserves_equality(self):
        spec = fast_spec()
        res = spec.run()
        from repro.serve import result_to_dict
        over_wire = json.loads(json.dumps(result_to_dict(res)))
        assert result_from_dict(over_wire) == res

    def test_concurrent_duplicates_compute_once(self):
        spec = fast_spec(n_chips=3)
        calls = []
        lock = threading.Lock()

        def counting(s: ExperimentSpec) -> SpecOutcome:
            with lock:
                calls.append(spec_hash(s))
            time.sleep(0.05)
            return outcome_of(spec_hash(s))

        broker = Broker(BrokerConfig(workers=2, max_queue=64),
                        runner=counting)
        client = ServeClient(broker)
        try:
            ids = [client.submit(spec) for _ in range(20)]
            results = {client.result(j, timeout=30) for j in ids}
        finally:
            broker.shutdown(drain=True)
        assert len(results) == 1
        assert len(calls) == 1      # exactly one computation


# -- resilience wiring ------------------------------------------------------

def _faulted(*specs: FaultSpec, **options) -> ResilienceOptions:
    """Resilience options whose seeded injector faults the full rung."""
    return ResilienceOptions(injector=FaultInjector(specs, seed=0),
                             sleep=lambda s: None, **options)


class TestResilientRunner:
    def test_transient_errors_retry(self):
        spec = fast_spec()
        direct = spec.run()
        outcome = run_spec_resilient(spec, _faulted(
            FaultSpec("timeout", max_fires=2),
            retry_policy=RetryPolicy(max_attempts=3, seed=1)))
        assert outcome.attempts == 3
        assert outcome.rung == "full"
        assert not outcome.degraded
        assert result_to_json(outcome.result) == result_to_json(direct)

    def test_model_fault_degrades_to_analytic(self):
        outcome = run_spec_resilient(fast_spec(), _faulted(
            FaultSpec("singular"), allow_degraded=True))
        assert outcome.rung == "analytic"
        assert outcome.degraded
        assert outcome.result.feasible
        assert outcome.result.npb_time_s  # NPB step still ran

    def test_degradation_off_propagates(self):
        with pytest.raises(ThermalModelError):
            run_spec_resilient(fast_spec(), _faulted(
                FaultSpec("singular"), allow_degraded=False))

    def test_degraded_request_does_not_warn(self):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            outcome = run_spec_resilient(fast_spec(), _faulted(
                FaultSpec("singular"), allow_degraded=True))
        assert outcome.degraded
        assert not [w for w in seen
                    if issubclass(w.category, DegradedResultWarning)]

    def test_concurrent_dispatchers_leave_the_filters_alone(self):
        # ``warnings.catch_warnings`` in two threads at once can leave
        # its ``ignore`` filter installed for the whole process.
        specs = [fast_spec(n_chips=n, threshold_c=75.0 + 0.5 * n)
                 for n in (1, 2)]
        for spec in specs:
            spec.run()
        before = list(warnings.filters)
        interval = sys.getswitchinterval()

        def serve(spec):
            for i in range(300):
                run_spec_resilient(replace(spec, threshold_c=75.0 + i / 100))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(spec,))
                       for spec in specs]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert warnings.filters == before
        # a degraded evaluation on this thread still warns
        with pytest.warns(DegradedResultWarning):
            outcome = fast_spec().evaluate(_faulted(
                FaultSpec("singular"), allow_degraded=True))
        assert outcome.rung == "analytic"


# -- process-mode evaluation ------------------------------------------------

class TestProcessMode:
    def test_pool_results_match_direct(self):
        spec = fast_spec()
        items = histogram("parallel.item_seconds")
        before = items.count
        broker = Broker(BrokerConfig(workers=2, use_processes=True))
        client = ServeClient(broker)
        try:
            jid = client.submit(spec)
            served = client.result(jid, timeout=180)
        finally:
            broker.shutdown(drain=True)
        assert result_to_json(served) == result_to_json(spec.run())
        # the broker times each pooled request
        assert items.count == before + 1


def _pool_add(payload, item):
    counter("test.pool_items").inc()
    return payload + item


class TestWorkerPool:
    """The broker's process pool: a long-lived ``SupervisedPool`` fed
    one-item chunks."""

    def test_submit_and_metrics_repatriation(self):
        from repro.parallel import ParallelConfig, SupervisedPool
        before = counter("test.pool_items").value
        with SupervisedPool(_pool_add, 10,
                            ParallelConfig(workers=2)) as pool:
            futs = [pool.submit([(0, i)]) for i in range(5)]
            assert [f.result(timeout=60)[0] for f in futs] == \
                [[(0, 10 + i)] for i in range(5)]
        assert counter("test.pool_items").value - before == 5

    def test_closed_pool_rejects(self):
        from repro.parallel import SupervisedPool
        pool = SupervisedPool(_pool_add, 0)
        pool.close()
        with pytest.raises(ConfigurationError):
            pool.submit([(0, 1)])


# -- HTTP endpoint ----------------------------------------------------------

@pytest.fixture()
def http_serve():
    """A live endpoint on an ephemeral port, drained at teardown."""
    from repro.serve import HttpServeClient, ServeHTTPServer
    broker = Broker(BrokerConfig(workers=2, max_queue=4))
    server = ServeHTTPServer(broker, port=0)
    server.serve_in_thread()
    try:
        yield broker, server, HttpServeClient(server.url)
    finally:
        server.shutdown()
        server.server_close()
        broker.shutdown(drain=True)


class TestHTTP:
    def test_submit_result_round_trip(self, http_serve):
        _, _, client = http_serve
        spec = fast_spec()
        assert client.healthz()
        ack = client.submit(spec.to_dict(), label="wire")
        assert ack["config_hash"] == spec_hash(spec)
        doc = client.result(ack["job_id"], timeout_s=120)
        assert doc["http_status"] == 200
        assert doc["state"] == "done"
        assert doc["rung"] == "full"
        assert not doc["degraded"]
        # the wire payload decodes back to the exact direct-API result
        assert result_from_dict(doc["result"]) == spec.run()

    def test_duplicate_submissions_share_a_job(self, http_serve):
        broker, _, client = http_serve
        spec = fast_spec(n_chips=6).to_dict()
        acks = [client.submit(spec) for _ in range(4)]
        # same hash -> one computation: every ack is the same job or a
        # cache-hit clone of its outcome
        client.result(acks[0]["job_id"], timeout_s=120)
        stats = client.stats()
        assert stats["coalesced_total"] + stats["cache"]["hits"] >= 1
        status = client.status(acks[0]["job_id"])
        assert status["state"] == "done"
        assert [e["event"] for e in status["events"]][:2] == \
            ["queued", "running"]

    def test_overload_is_a_structured_429(self):
        from repro.serve import HttpServeClient, ServeHTTPServer
        runner = GatedRunner()
        broker = Broker(BrokerConfig(workers=1, max_queue=1),
                        runner=runner)
        server = ServeHTTPServer(broker, port=0)
        server.serve_in_thread()
        client = HttpServeClient(server.url)
        try:
            client.submit(fast_spec(n_chips=1).to_dict())
            assert runner.started.wait(timeout=10)
            client.submit(fast_spec(n_chips=2).to_dict())
            with pytest.raises(OverloadedError) as exc:
                client.submit(fast_spec(n_chips=3).to_dict())
            assert exc.value.limit == 1
        finally:
            runner.release.set()
            server.shutdown()
            server.server_close()
            broker.shutdown(drain=True)

    def test_bad_spec_is_a_400_naming_the_key(self, http_serve):
        _, _, client = http_serve
        with pytest.raises(ServeError, match="typo_key"):
            client.submit({"chip": "low-power-cmp", "typo_key": 1})

    def test_non_finite_numbers_are_a_400(self, http_serve):
        _, _, client = http_serve
        with pytest.raises(ServeError,
                           match="'rate_per_s' must be finite"):
            client.submit({"kind": "fleet",
                           "workload": {"rate_per_s": float("inf")}})
        with pytest.raises(ServeError, match="infinity"):
            client.submit({"chip": "low-power-cmp"},
                          priority=float("inf"))
        with pytest.raises(ServeError,
                           match="'deadline_s' must be finite"):
            client.submit({"chip": "low-power-cmp"},
                          deadline_s=float("nan"))

    def test_unknown_job_is_a_404(self, http_serve):
        _, _, client = http_serve
        doc = client.result("j000000-missing")
        assert doc["http_status"] == 404
        assert doc["error"] == "unknown_job"

    def test_pending_long_poll_times_out_as_202(self):
        from repro.serve import HttpServeClient, ServeHTTPServer
        runner = GatedRunner()
        broker = Broker(BrokerConfig(workers=1), runner=runner)
        server = ServeHTTPServer(broker, port=0)
        server.serve_in_thread()
        client = HttpServeClient(server.url)
        try:
            ack = client.submit(fast_spec(n_chips=1).to_dict())
            assert runner.started.wait(timeout=10)
            doc = client.result(ack["job_id"], timeout_s=0.05)
            assert doc["http_status"] == 202
            assert doc["state"] == "running"
        finally:
            runner.release.set()
            server.shutdown()
            server.server_close()
            broker.shutdown(drain=True)

    def test_shutdown_route_stops_the_listener(self, http_serve):
        _, server, client = http_serve
        assert client.shutdown()["status"] == "shutting_down"
        start = time.monotonic()
        while client.healthz() and time.monotonic() - start < 1.0:
            time.sleep(0.05)
        assert not client.healthz()
        # refused, not queued behind a closed-down listener until the
        # client's own timeout
        assert time.monotonic() - start < 1.0


# -- Ctrl-C behaviour -------------------------------------------------------

class TestKeyboardInterrupt:
    def test_campaign_exits_130_with_resume_hint(self, monkeypatch,
                                                 tmp_path, capsys):
        from repro.cli import main
        from repro.core.campaign import CampaignRunner

        def interrupted(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(CampaignRunner, "run", interrupted)
        rc = main(["campaign", "--chip", "low-power-cmp",
                   "--max-chips", "1", "--cooling", "water",
                   "--checkpoint", str(tmp_path / "cp.json")])
        assert rc == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" in err

    def test_any_command_exits_130(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(
            ExperimentSpec, "run",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt()))
        rc = main(["spec", '{"chip": "low-power-cmp"}'])
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err
