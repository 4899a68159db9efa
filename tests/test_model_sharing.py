"""One thermal model per geometry, shared by every caller.

``ExperimentSpec.run()`` takes its model from ``model_for``, the same
bounded model cache campaigns and the fleet use, and a model keeps the
die temperatures it computed but not the response operator. These tests
pin what that sharing must not change, against references that share
nothing: a new :class:`ThermalModel` built for each answer.

* a served spec that only changes the threshold answers like a new
  model, on probed and unprobed ladder steps, flipped or overridden;
* the kill switch still sends every query to the sparse path;
* threads sharing one model give the bytes of a serial run;
* live operators never outnumber the response cache's capacity;
* cached queries look up no operator, and cached arrays are read-only.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.config import ExperimentSpec
from repro.cooling.options import get_cooling
from repro.core.campaign import CampaignRunner, frequency_grid
from repro.core.freqopt import max_frequency
from repro.obs import get_registry
from repro.power.processors import get_chip
from repro.serve.client import result_to_json
from repro.stack.chipstack import StackConfig, flip_even_layers
from repro.thermal.hotspot import ThermalModel, model_cache, model_for
from repro.thermal.response import (
    DISABLE_ENV,
    STORE_DIR_ENV,
    ResponseOperator,
    response_cache,
)

FAST = {"die_grid": 8, "package_grid": 4}


def _counters() -> dict:
    return dict(get_registry().snapshot()["counters"])


def _moved(before: dict, after: dict, prefix: str) -> dict:
    """Counters under ``prefix`` that changed, with their deltas."""
    return {k: after.get(k, 0) - before.get(k, 0)
            for k in set(before) | set(after)
            if k.startswith(prefix) and after.get(k, 0) != before.get(k, 0)}


def _new_model(spec: ExperimentSpec) -> ThermalModel:
    """A model no other caller has seen, for ``spec``'s geometry."""
    chip = get_chip(spec.chip)
    stack = (flip_even_layers(chip, spec.n_chips) if spec.flip
             else StackConfig(chip=chip, n_chips=spec.n_chips))
    return ThermalModel(stack, get_cooling(spec.cooling),
                        spec.package_params())


def _reference(spec: ExperimentSpec) -> str:
    """``spec``'s answer from a new model, as served bytes."""
    point = max_frequency(_new_model(spec), spec.threshold_c)
    return result_to_json(spec.result_from_point(point))


def _ladder(spec: ExperimentSpec) -> list[float]:
    return [float(f) for f in get_chip(spec.chip).ladder.frequencies()]


def _thresholds_on_every_step(spec: ExperimentSpec) -> list[float]:
    """One threshold below the bottom step, one between each pair of
    neighbouring steps and one above the top: every ladder step is the
    answer to one of them."""
    temps = _new_model(spec).max_temperatures_many(_ladder(spec))
    return ([temps[0] - 1.0]
            + [(lo + hi) / 2 for lo, hi in zip(temps, temps[1:])]
            + [temps[-1] + 1.0])


class TestServedSpecsShareModels:
    def test_equal_override_spec_reuses_the_model(self):
        """An override spec reaches its model through an equal
        ``PackageParams``: the second run is one model-cache hit and
        touches no response counter."""
        first = ExperimentSpec(chip="low-power-cmp", n_chips=2,
                               cooling="water", package_overrides=dict(FAST))
        first.run()
        again = ExperimentSpec(chip="low-power-cmp", n_chips=2,
                               cooling="water", package_overrides=dict(FAST))
        assert again.package_params() is not first.package_params()
        before = _counters()
        result = again.run()
        after = _counters()
        assert _moved(before, after, "thermal.model_cache") == {
            "thermal.model_cache_hit": 1}
        assert _moved(before, after, "response.") == {}
        assert result_to_json(result) == _reference(again)

    @pytest.mark.parametrize("flip", (False, True), ids=("uniform", "flip"))
    @pytest.mark.parametrize("overrides", ({}, FAST),
                             ids=("default", "overrides"))
    def test_new_thresholds_answer_like_a_new_model(self, flip, overrides):
        base = ExperimentSpec(chip="high-frequency-cmp", n_chips=3,
                              cooling="water", flip=flip,
                              package_overrides=dict(overrides))
        base.run()          # the shared model now holds the probed steps
        for threshold in _thresholds_on_every_step(base):
            spec = replace(base, threshold_c=threshold)
            assert result_to_json(spec.run()) == _reference(spec), threshold

    def test_a_float_height_fails_as_on_a_new_model(self):
        """``2.0 == 2`` as a cache key, but a model built for 2.0 chips
        fails; the cached 2-chip model must not answer in its place."""
        spec = ExperimentSpec(chip="low-power-cmp", n_chips=2,
                              cooling="water", package_overrides=dict(FAST))
        spec.run()
        with pytest.raises(TypeError):
            replace(spec, n_chips=2.0).run()

    def test_kill_switch_answers_from_the_sparse_path(self, monkeypatch):
        spec = ExperimentSpec(chip="low-power-cmp", n_chips=3,
                              cooling="water", package_overrides=dict(FAST))
        from_operator = result_to_json(spec.run())
        monkeypatch.setenv(DISABLE_ENV, "1")
        sparse = _reference(spec)
        assert sparse != from_operator   # the two paths differ in last bits
        assert result_to_json(spec.run()) == sparse

    def test_threads_sharing_a_model_give_serial_bytes(self):
        base = ExperimentSpec(chip="low-power-cmp", n_chips=4,
                              cooling="fluorinert",
                              package_overrides=dict(FAST))
        specs = [replace(base, threshold_c=60.0 + 1.37 * i)
                 for i in range(20)]
        model_cache().clear()
        serial = [result_to_json(s.run()) for s in specs]
        model_cache().clear()
        start = threading.Barrier(4, timeout=30)

        def serve(i: int) -> str:
            if i < 4:       # four threads meet one model with no steps
                start.wait()
            return result_to_json(specs[i].run())

        prior = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(serve, i) for i in range(len(specs))]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(prior)
        assert threaded == serial
        assert serial == [_reference(s) for s in specs]


class TestOperatorMemory:
    @pytest.mark.parametrize("store", (False, True), ids=("memory", "store"))
    def test_live_operators_are_bounded_by_the_response_cache(
            self, store, fast_params, tmp_path, monkeypatch):
        if store:
            monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        else:
            monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        live = []
        init = ResponseOperator.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            live.append(weakref.ref(self))

        monkeypatch.setattr(ResponseOperator, "__init__", tracked)
        model_cache().clear()
        response_cache().clear()
        capacity = response_cache().capacity
        models = [model_for("low-power-cmp", h, "water", params=fast_params)
                  for h in range(1, capacity + 3)]
        for model in models:
            max_frequency(model)
        gc.collect()
        assert sum(ref() is not None for ref in live) <= capacity
        # the first model's operator was evicted: a step its search
        # never probed resolves it again and answers like a new model
        first = models[0]
        fresh = ThermalModel(first.stack, first.cooling, first.params)
        freqs = [float(f) for f in first.stack.chip.ladder.frequencies()]
        before = _counters()
        assert first.max_temperatures_many(freqs) == \
            fresh.max_temperatures_many(freqs)
        assert _moved(before, _counters(), "response.cache_miss")

    @pytest.mark.parametrize("store", (False, True), ids=("memory", "store"))
    def test_fig07_then_fig08_builds_each_operator_once_per_grid(
            self, store, fast_params, tmp_path, monkeypatch):
        """The two CMPs share a floorplan, so the grids visit the same
        ten geometries, more than the response cache holds: a store
        builds each operator once, and without one each grid builds
        each operator once, as when every model kept its own."""
        monkeypatch.setenv(STORE_DIR_ENV, "")
        model_cache().clear()
        response_cache().clear()
        before = _counters()
        for chip in ("low-power-cmp", "high-frequency-cmp"):
            grid = frequency_grid(chip, (1, 2, 3, 4, 5), ("air", "water"))
            CampaignRunner(grid, params=fast_params,
                           response_cache_dir=tmp_path if store else None
                           ).run(resume=False)
        assert _moved(before, _counters(), "response.builds") == {
            "response.builds": 10 if store else 20}

    def test_cached_queries_look_up_no_operator(self, fast_params):
        model = ThermalModel(StackConfig(chip=get_chip("low-power-cmp"),
                                         n_chips=3),
                             get_cooling("water"), fast_params)
        freqs = [float(f) for f in model.stack.chip.ladder.frequencies()]
        model.max_temperatures_many(freqs)
        before = _counters()
        model.max_temperature_c(freqs[4])
        model.max_temperatures_many(freqs[::-1])
        model.die_temperature_fields(freqs[0])
        model.die_temperature_fields_many(freqs)
        model.per_die_max_c(freqs[-1])
        max_frequency(model, 70.0)
        assert _moved(before, _counters(), "response.") == {}

    @pytest.mark.parametrize("kill_switch", (False, True),
                             ids=("operator", "sparse"))
    def test_cached_temperatures_are_read_only(self, kill_switch,
                                               fast_params, monkeypatch):
        if kill_switch:
            monkeypatch.setenv(DISABLE_ENV, "1")
        else:
            monkeypatch.delenv(DISABLE_ENV, raising=False)
        model = model_for("low-power-cmp", 2, "water", params=fast_params)
        f = float(model.stack.chip.ladder.frequencies()[5])
        hottest = model.max_temperature_c(f)
        fields = (model.die_temperature_fields(f)["die0"],
                  model.die_temperature_fields_many([f])[0]["die1"])
        for field in fields:
            with pytest.raises(ValueError):
                field[0, 0] = 1000.0
            with pytest.raises(ValueError):
                field += 1.0
        assert model.max_temperature_c(f) == hottest
