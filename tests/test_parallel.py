"""Tests for the parallel execution subsystem (:mod:`repro.parallel`)
and its integration into campaigns, sweeps, and the frequency search.

The headline invariant: a campaign at ``workers`` 1, 2, and 4
produces identical records, checkpoint bytes (after stripping the
timestamped manifest), config hash, and failure ledger. Everything else
here supports that claim: stable seed derivation, order-preserving
chunked execution, the frequency search against a full ladder scan,
and worker metrics repatriation.
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import CampaignRunner, frequency_grid
from repro.errors import ConfigurationError
from repro.obs import get_registry
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    ParallelConfig,
    SupervisedPool,
    blas_threads,
    chunk_indices,
    derive_seed,
    run_chunked,
    set_blas_threads,
)
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceOptions,
    RetryPolicy,
)

GRID = frequency_grid("low-power-cmp", (1, 2), ("water", "air"))


# -- seed derivation ---------------------------------------------------------

class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "freq/x/n1/water") == \
            derive_seed(7, "freq/x/n1/water")

    def test_distinct_per_component(self):
        seen = {derive_seed(7, key) for key in
                ("a", "b", "a/b", ("a", "b"))}
        assert len(seen) == 4

    def test_base_matters(self):
        assert derive_seed(1, "k") != derive_seed(2, "k")

    def test_63_bit_range(self):
        for base in range(50):
            s = derive_seed(base, "key")
            assert 0 <= s < 2 ** 63

    def test_stable_value(self):
        """Pin one value: a silent hash change would silently reshuffle
        every derived fault stream."""
        assert derive_seed(0, "k") == derive_seed(0, "k")
        assert isinstance(derive_seed(0, "k"), int)


# -- chunking and the pool engine -------------------------------------------

def _square_task(payload, item):
    return payload * item * item


def _metric_task(payload, item):
    from repro.obs import counter
    counter("test_parallel.task_calls").inc()
    return item


def _stuck_on_one_task(payload, item):
    import time
    if item == 1:
        time.sleep(2.0)
    return item


class TestChunking:
    def test_chunk_indices_cover_exactly(self):
        rs = chunk_indices(10, 3)
        flat = [i for r in rs for i in r]
        assert flat == list(range(10))

    def test_chunk_indices_validation(self):
        with pytest.raises(ConfigurationError):
            chunk_indices(5, 0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ParallelConfig(chunk_size=0)

    def test_auto_chunk_size_bounds(self):
        cfg = ParallelConfig(workers=2)
        assert 1 <= cfg.resolve_chunk_size(1000) <= 8
        assert cfg.resolve_chunk_size(0) == 1
        assert ParallelConfig(workers=2,
                              chunk_size=5).resolve_chunk_size(99) == 5


class TestRunChunked:
    def test_inline_order_and_values(self):
        items = list(range(17))
        out = run_chunked(items, _square_task, 3,
                          config=ParallelConfig(workers=1, chunk_size=4))
        assert out == [3 * i * i for i in items]

    def test_pool_order_and_values(self):
        items = list(range(17))
        out = run_chunked(items, _square_task, 3,
                          config=ParallelConfig(workers=2, chunk_size=2))
        assert out == [3 * i * i for i in items]

    def test_empty_items(self):
        assert run_chunked([], _square_task, 1) == []

    def test_on_chunk_sees_every_index(self):
        seen = []
        run_chunked(list(range(9)), _square_task, 1,
                    config=ParallelConfig(workers=2, chunk_size=2),
                    on_chunk=lambda done: seen.extend(i for i, _ in done))
        assert sorted(seen) == list(range(9))

    def test_deadline_is_enforced_at_one_worker(self):
        """A chunk deadline moves even a one-worker run onto the
        supervised pool, whose kill quarantines the stuck chunk."""
        from repro.parallel import Poisoned
        out = run_chunked([0, 1, 2], _stuck_on_one_task, None,
                          config=ParallelConfig(workers=1, chunk_size=1,
                                                task_timeout_s=0.3))
        assert out[0] == 0 and out[2] == 2
        assert isinstance(out[1], Poisoned)
        assert out[1].key == "chunk/1-1"

    def test_worker_metrics_repatriated(self):
        from repro.obs import get_registry
        before = get_registry().snapshot()["counters"].get(
            "test_parallel.task_calls", 0)
        run_chunked(list(range(6)), _metric_task, None,
                    config=ParallelConfig(workers=2, chunk_size=2))
        after = get_registry().snapshot()["counters"].get(
            "test_parallel.task_calls", 0)
        assert after - before == 6


# -- one OpenBLAS thread per engine process ---------------------------------

def _blas_threads_task(payload, item):
    return blas_threads()


@pytest.fixture
def loaded_blas():
    """Each loaded OpenBLAS's count at test start, put back afterwards."""
    prior = blas_threads()
    if not prior:
        pytest.skip("no OpenBLAS loaded in this process")
    yield prior
    set_blas_threads(prior)


def _blas_pinned() -> float:
    return get_registry().snapshot()["gauges"]["parallel.blas_pinned"]


class TestOneBlasThread:
    @pytest.mark.parametrize("workers,supervised",
                             [(1, True), (2, True), (2, False)])
    def test_engine_chunks_run_at_one_thread(self, loaded_blas, workers,
                                             supervised):
        """Inline, on the supervised pool and on the bare executor."""
        out = run_chunked(list(range(4)), _blas_threads_task, None,
                          config=ParallelConfig(workers=workers,
                                                chunk_size=1,
                                                supervised=supervised))
        assert out == [{path: 1 for path in loaded_blas}] * 4
        assert _blas_pinned() == len(loaded_blas)

    def test_serve_worker_pool_runs_at_one_thread(self, loaded_blas):
        """The long-lived pool the serve broker submits requests to."""
        with SupervisedPool(_blas_threads_task, None) as pool:
            done, _ = pool.submit([(0, 0)]).result(timeout=60)
        assert done == [(0, {path: 1 for path in loaded_blas})]

    def test_inline_engine_restores_the_callers_counts(self, loaded_blas):
        set_blas_threads(2)
        run_chunked([0, 1], _blas_threads_task, None)
        assert blas_threads() == {path: 2 for path in loaded_blas}

    def test_no_openblas_is_a_no_op(self, monkeypatch):
        from repro.parallel import blas
        monkeypatch.setattr(blas, "_controls", lambda: ())
        assert blas.blas_threads() == {}
        assert blas.set_blas_threads(1) == {}
        assert run_chunked([1, 2], _square_task, 3) == [3, 12]
        assert _blas_pinned() == 0

    def test_discovery_never_loads_a_library(self, monkeypatch):
        """Only already-mapped libraries are opened (RTLD_NOLOAD)."""
        from repro.parallel import blas
        monkeypatch.setattr(blas, "_loaded_openblas_paths",
                            lambda: ["/nonexistent/libopenblas.so.0"])
        assert blas._controls.__wrapped__() == ()


# -- metrics merge -----------------------------------------------------------

class TestMergeSnapshot:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(5)
        a.merge_snapshot(b.snapshot())
        assert a.counter("c").value == 7

    def test_histograms_fold(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (0.1, 0.2):
            a.histogram("h").observe(v)
        for v in (0.4, 5.0):
            b.histogram("h").observe(v)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()["histograms"]["h"]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(0.1 + 0.2 + 0.4 + 5.0)
        assert snap["min"] == pytest.approx(0.1)
        assert snap["max"] == pytest.approx(5.0)

    def test_gauges_last_write(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.merge_snapshot(b.snapshot())
        assert a.gauge("g").value == 9.0


# -- frequency search against a full ladder scan ----------------------------

def _reference_step(model, freqs, limit):
    """(index, temps): the highest step of ``freqs`` whose hottest cell
    stays within ``limit`` (None when none does), from one batched scan
    of every step."""
    temps = model.max_temperatures_many([float(f) for f in freqs])
    ok = [i for i, t in enumerate(temps) if t <= limit + 1e-9]
    return (ok[-1] if ok else None), temps


def _grid_model(chip, n, cooling, params):
    from repro.cooling.options import get_cooling
    from repro.power.processors import get_chip
    from repro.stack.chipstack import StackConfig
    from repro.thermal.hotspot import ThermalModel
    return ThermalModel(StackConfig(chip=get_chip(chip), n_chips=n),
                        get_cooling(cooling), params)


class TestMaxFrequencyReference:
    def test_matches_reference(self, fast_params):
        from repro.core.freqopt import max_frequency
        for chip, n, cooling in (("low-power-cmp", 2, "water"),
                                 ("low-power-cmp", 6, "air"),
                                 ("high-frequency-cmp", 3, "water_pipe"),
                                 ("xeon-phi-7290", 2, "fluorinert")):
            model = _grid_model(chip, n, cooling, fast_params)
            freqs = model.stack.chip.ladder.frequencies()
            best, temps = _reference_step(model, freqs,
                                          model.stack.chip.threshold_c)
            p = max_frequency(model)
            if best is None:
                assert not p.feasible and p.f_hz == 0.0
                assert p.max_temp_c == temps[0]
            else:
                assert p.feasible
                assert p.f_hz == float(freqs[best])
                assert p.max_temp_c == temps[best]

    def test_infeasible_matches_reference(self, fast_params):
        from repro.core.freqopt import max_frequency
        model = _grid_model("high-frequency-cmp", 12, "air", fast_params)
        best, temps = _reference_step(
            model, model.stack.chip.ladder.frequencies(),
            model.stack.chip.threshold_c)
        p = max_frequency(model)
        assert best is None
        assert not p.feasible and p.f_hz == 0.0
        assert p.max_temp_c == temps[0]

    def test_drop_vfs_sub_ladders_match_reference(self, fast_params):
        """A ``drop_vfs`` fault bisects the surviving sub-ladder: the
        answer is that sub-ladder's highest step within the limit."""
        from repro.resilience import DegradationLadder, freq_point_rungs
        from repro.resilience.faults import drop_vfs_steps
        from repro.thermal.hotspot import model_for
        shortened = 0
        for chip, n, cooling in (("high-frequency-cmp", 3, "water_pipe"),
                                 ("low-power-cmp", 4, "air")):
            model = model_for(chip, n, cooling, params=fast_params)
            ladder = tuple(float(f) for f in
                           model.stack.chip.ladder.frequencies())
            for seed in range(5):
                spec = FaultSpec("drop_vfs")
                # the fault's sub-ladder, replayed from a twin injector
                sub = drop_vfs_steps(
                    ladder, FaultInjector((spec,), seed=seed).vfs_rng())
                shortened += len(sub) < len(ladder)
                best, temps = _reference_step(
                    model, sub, model.stack.chip.threshold_c)
                out = DegradationLadder(freq_point_rungs(
                    chip, n, cooling, params=fast_params,
                    injector=FaultInjector((spec,), seed=seed))).run()
                assert out.rung == "sparse-lu"
                assert out.value.feasible == (best is not None)
                assert out.value.f_hz == (sub[best] if best is not None
                                          else 0.0)
                assert out.value.max_temp_c == temps[best or 0]
        assert shortened        # the fault really dropped steps


# -- batched sweeps ----------------------------------------------------------

class TestBatchedSweeps:
    def test_temperature_vs_frequency_matches_scalar(self, fast_params):
        from repro.core.sweeps import temperature_vs_frequency
        from repro.thermal.hotspot import ThermalModel
        from repro.power.processors import get_chip
        from repro.stack.chipstack import StackConfig
        from repro.cooling.options import get_cooling
        series = temperature_vs_frequency("low-power-cmp", "water",
                                          n_chips=2, params=fast_params)
        chip = get_chip("low-power-cmp")
        model = ThermalModel(StackConfig(chip=chip, n_chips=2),
                             get_cooling("water"), fast_params)
        for f_ghz, t in zip(series.f_ghz, series.max_temp_c):
            assert t == pytest.approx(
                model.max_temperature_c(f_ghz * 1e9), abs=1e-12)

    def test_thermal_maps_many_matches_scalar(self, fast_params):
        import numpy as np
        from repro.core.sweeps import thermal_maps, thermal_maps_many
        from repro.power.processors import get_chip
        freqs = [float(f) for f in
                 get_chip("low-power-cmp").ladder.frequencies()[:3]]
        many = thermal_maps_many("low-power-cmp", "water", freqs,
                                 n_chips=2, params=fast_params)
        for f, maps in zip(freqs, many):
            single = thermal_maps("low-power-cmp", "water", f,
                                  n_chips=2, params=fast_params)
            assert maps.keys() == single.keys()
            for name in maps:
                np.testing.assert_allclose(maps[name], single[name],
                                           rtol=0, atol=1e-12)

    def test_frequency_vs_chips_workers_match_serial(self, fast_params):
        from repro.core.sweeps import frequency_vs_chips
        serial = frequency_vs_chips("low-power-cmp", (1, 2),
                                    ("water", "air"), params=fast_params)
        par = frequency_vs_chips("low-power-cmp", (1, 2),
                                 ("water", "air"), params=fast_params,
                                 workers=2)
        assert par == serial

    def test_temperature_vs_h_workers_match_serial(self, fast_params):
        from repro.core.sweeps import temperature_vs_h
        hs = (20.0, 500.0, 5000.0)
        serial = temperature_vs_h("low-power-cmp", hs, n_chips=2,
                                  params=fast_params)
        par = temperature_vs_h("low-power-cmp", hs, n_chips=2,
                               params=fast_params, workers=2)
        assert par == serial

    def test_resilient_frequency_vs_chips_workers_match(self,
                                                        fast_params):
        """Resilient sweeps run as campaigns: per-point fault streams,
        so faulted series are equal at any worker count."""
        import warnings
        from repro.core.sweeps import frequency_vs_chips
        from repro.errors import DegradedResultWarning
        res = ResilienceOptions(
            retry_policy=RetryPolicy(seed=5, max_attempts=2,
                                     base_delay_s=0.0),
            allow_degraded=True,
            injector=FaultInjector(
                (FaultSpec("singular", probability=0.4, max_fires=1),),
                seed=11),
            sleep=lambda s: None)
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            for workers in (1, 2):
                runs.append(frequency_vs_chips(
                    "low-power-cmp", (1, 2, 3), ("water", "air"),
                    params=fast_params, resilience=res, workers=workers))
        assert runs[0] == runs[1]
        rungs = [r for series in runs[0] for r in series.rungs]
        assert "analytic" in rungs and "sparse-lu" in rungs


# -- campaign determinism across worker counts -------------------------------

def _stripped_checkpoint(path) -> str:
    data = json.loads(path.read_text())
    data.pop("manifest", None)
    return json.dumps(data, sort_keys=False)


def _run(tmp_path, tag, *, workers, params, faults=False,
         chunk_size=None):
    injector = None
    if faults:
        injector = FaultInjector(
            (FaultSpec("singular", probability=0.4, max_fires=3),
             FaultSpec("timeout", probability=0.2, max_fires=2)),
            seed=11)
    res = ResilienceOptions(
        retry_policy=RetryPolicy(seed=5, max_attempts=2,
                                 base_delay_s=0.0),
        allow_degraded=True,
        injector=injector,
        sleep=lambda s: None,
    )
    checkpoint = tmp_path / f"cp_{tag}.json"
    runner = CampaignRunner(GRID, resilience=res, params=params,
                            checkpoint_path=checkpoint, workers=workers,
                            chunk_size=chunk_size)
    result = runner.run()
    return runner, result, checkpoint


class TestCampaignDeterminism:
    def test_worker_counts_identical(self, tmp_path, fast_params):
        results = {}
        for n in (1, 2, 4):
            _, res, cp = _run(tmp_path, f"w{n}", workers=n,
                              params=fast_params, chunk_size=1)
            results[n] = (res, _stripped_checkpoint(cp))
        base_res, base_cp = results[1]
        for n in (2, 4):
            res, cp = results[n]
            assert res.records == base_res.records
            assert res.ledger == base_res.ledger
            assert cp == base_cp

    def test_worker_counts_identical_under_faults(self, tmp_path,
                                                  fast_params):
        results = {}
        for n in (1, 2, 4):
            _, res, cp = _run(tmp_path, f"f{n}", workers=n,
                              params=fast_params, faults=True)
            results[n] = (res, _stripped_checkpoint(cp))
        base_res, base_cp = results[1]
        for n in (2, 4):
            res, cp = results[n]
            assert res.records == base_res.records
            assert res.ledger == base_res.ledger
            assert cp == base_cp

    def test_config_hash_excludes_execution_strategy(self, fast_params):
        hashes = {
            CampaignRunner(GRID, params=fast_params, workers=w,
                           chunk_size=c, chunk_timeout_s=t).config_hash
            for w, c, t in ((1, None, None), (1, 1, 30.0),
                            (4, 2, None), (2, 1, 5.0))
        }
        assert len(hashes) == 1

    def test_resume_across_worker_counts(self, tmp_path, fast_params):
        """A checkpoint written at one worker count resumes at another."""
        _, first, cp = _run(tmp_path, "resume", workers=2,
                            params=fast_params)
        assert first.evaluated == len(GRID)
        runner, second, _ = _run(tmp_path, "resume", workers=4,
                                 params=fast_params)
        assert second.evaluated == 0
        assert second.skipped == len(GRID)
        assert second.records == first.records

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(GRID, workers=0)
