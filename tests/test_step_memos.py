"""The per-step values a warm request reads are computed once.

A request on a geometry the process has seen depends on its limit only
through the ladder step it lands on. Three values of that step are
kept, each by the layer that computes it, and none may move a bit:

* power: ``VFSLadder.steps``, the ladder as Python floats;
* thermal: each step's hottest die cell, keyed like the die
  temperatures (kill switch and rounded step);
* performance: ``npb_step_times``, each (system, threads, step)'s NPB
  times.

References here share nothing with the memos: die fields read off the
cached vectors, and a new ``AnalyticModel`` per comparison.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import ExperimentSpec
from repro.cooling.options import get_cooling
from repro.core.point import evaluate
from repro.perfsim import analytic
from repro.perfsim.analytic import AnalyticModel, npb_step_times
from repro.perfsim.npb import NPB_ORDER, get_profile
from repro.perfsim.system import config_for_stack
from repro.power.processors import chip_names, get_chip
from repro.stack.chipstack import StackConfig
from repro.thermal.hotspot import ThermalModel
from repro.thermal.response import DISABLE_ENV

CMPS = ("low-power-cmp", "high-frequency-cmp")


def _model(chip: str, n: int, cooling: str) -> ThermalModel:
    """A model no other caller has seen."""
    return ThermalModel(StackConfig(chip=get_chip(chip), n_chips=n),
                        get_cooling(cooling))


def _field_max(model: ThermalModel, f: float) -> float:
    """The hottest cell of the die fields at ``f``, read off the arrays."""
    return max(float(field.max())
               for field in model.die_temperature_fields(f).values())


class TestLadderSteps:
    @pytest.mark.parametrize("chip", chip_names())
    def test_steps_are_the_frequencies_as_floats(self, chip):
        ladder = get_chip(chip).ladder
        steps = ladder.steps
        assert steps == tuple(float(f) for f in ladder.frequencies())
        assert all(type(f) is float for f in steps)
        assert ladder.steps is steps


class TestHottestCell:
    @pytest.mark.parametrize("sparse", [False, True],
                             ids=["factored", "sparse"])
    @pytest.mark.parametrize("chip", CMPS)
    def test_every_step_equals_its_field(self, chip, sparse, monkeypatch):
        if sparse:
            monkeypatch.setenv(DISABLE_ENV, "1")
        else:
            monkeypatch.delenv(DISABLE_ENV, raising=False)
        steps = get_chip(chip).ladder.steps
        for n in range(1, 6):
            for cooling in ("water", "air"):
                probed = _model(chip, n, cooling)
                # probe first: the float is kept before any field read
                hottest = [probed.max_temperature_c(f) for f in steps]
                assert hottest == [_field_max(probed, f) for f in steps]
                # fields first, then the batched and scalar reads
                fielded = _model(chip, n, cooling)
                fields = [_field_max(fielded, f) for f in steps]
                assert list(fielded.max_temperatures_many(steps)) == fields
                assert [fielded.max_temperature_c(f)
                        for f in steps] == fields

    @pytest.mark.parametrize("chip", CMPS)
    def test_kill_switch_flip_reads_the_other_path(self, chip, monkeypatch):
        monkeypatch.delenv(DISABLE_ENV, raising=False)
        model = _model(chip, 3, "water")
        f = get_chip(chip).ladder.steps[4]
        factored = model.max_temperature_c(f)
        monkeypatch.setenv(DISABLE_ENV, "1")
        sparse = model.max_temperature_c(f)
        assert sparse == model.result(f).max_over(model.die_names)
        assert sparse == _field_max(model, f)
        monkeypatch.delenv(DISABLE_ENV)
        assert model.max_temperature_c(f) == factored
        assert model.max_temperatures_many([f]) == (factored,)
        assert factored == _field_max(model, f)

    def test_repeated_probe_reads_no_array(self, monkeypatch):
        monkeypatch.delenv(DISABLE_ENV, raising=False)
        model = _model("low-power-cmp", 2, "water")
        steps = get_chip("low-power-cmp").ladder.steps
        calls = []
        real = model._die_temps

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "_die_temps", spy)
        first = model.max_temperature_c(steps[3])
        assert len(calls) == 1
        calls.clear()
        assert model.max_temperature_c(steps[3]) == first
        assert model.max_temperatures_many([steps[3]]) == (first,)
        assert calls == []
        # a batch computes only the steps no query has read
        model.max_temperatures_many(steps)
        assert [len(c) for c in calls] == [len(steps) - 1]


class TestNpbStep:
    @pytest.mark.parametrize("chip", CMPS + ("xeon-e5-2667v4",))
    def test_times_equal_a_new_model(self, chip):
        steps = get_chip(chip).ladder.steps
        for n in range(1, 4):
            config = config_for_stack(get_chip(chip), n)
            for threads in (None, 1, 3, 16):
                resolved = threads if threads is not None else (
                    config.total_cores)
                fresh = AnalyticModel(config_for_stack(get_chip(chip), n),
                                      threads=threads)
                for f in steps:
                    got = npb_step_times(config, resolved, f)
                    assert list(got) == list(NPB_ORDER)
                    assert got == {
                        name: fresh.execution_time_s(get_profile(name), f)
                        for name in NPB_ORDER}

    @pytest.mark.parametrize("threads", [None, 1, 3, 16])
    @pytest.mark.parametrize("chip", CMPS + ("xeon-e5-2667v4",))
    def test_evaluate_keys_as_requested(self, chip, threads):
        programs = ("EP", "cg", "Lu", "bt")
        for n in range(1, 4):
            out = evaluate(chip, n, "water", threads=threads,
                           programs=programs)
            assert out.point.feasible
            fresh = AnalyticModel(config_for_stack(get_chip(chip), n),
                                  threads=threads)
            assert out.npb_time_s == {
                name: fresh.execution_time_s(get_profile(name),
                                             out.point.f_hz)
                for name in programs}
            assert list(out.npb_time_s) == list(programs)

    def test_repeated_step_builds_no_model(self, monkeypatch):
        spec = ExperimentSpec(chip="high-frequency-cmp", n_chips=2,
                              cooling="water", threads=5)
        first = spec.run()
        builds = []
        real = AnalyticModel.__init__

        def spy(self, *args, **kwargs):
            builds.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(AnalyticModel, "__init__", spy)
        assert spec.run().npb_time_s == first.npb_time_s
        assert builds == []

    def test_outcomes_own_their_times(self):
        a = evaluate("low-power-cmp", 2, "water", programs=NPB_ORDER)
        b = evaluate("low-power-cmp", 2, "water", programs=NPB_ORDER)
        assert a.npb_time_s == b.npb_time_s
        assert a.npb_time_s is not b.npb_time_s
        expected = dict(b.npb_time_s)
        a.npb_time_s["ep"] = -1.0
        a.npb_time_s.clear()
        c = evaluate("low-power-cmp", 2, "water", programs=NPB_ORDER)
        assert c.npb_time_s == expected == b.npb_time_s

    def test_memo_is_read_only_and_bounded(self):
        config = config_for_stack(get_chip("low-power-cmp"), 1)
        step = npb_step_times(config, 4, 1.5e9)
        with pytest.raises(TypeError):
            step["ep"] = 0.0
        info = npb_step_times.cache_info()
        assert info.maxsize == analytic.NPB_STEP_MEMO_SIZE


def test_threads_sharing_the_memos_read_serial_answers():
    chip = get_chip("high-frequency-cmp")
    steps = chip.ladder.steps
    config = config_for_stack(chip, 3)
    reference = _model("high-frequency-cmp", 3, "water")
    hottest = [reference.max_temperature_c(f) for f in steps]
    fresh = AnalyticModel(config, threads=7)
    times = [{name: fresh.execution_time_s(get_profile(name), f)
              for name in NPB_ORDER} for f in steps]
    shared = _model("high-frequency-cmp", 3, "water")
    npb_step_times.cache_clear()
    start = threading.Barrier(4, timeout=30)

    def read(i: int):
        start.wait()
        order = list(range(i, len(steps))) + list(range(i))
        got_hot = {k: shared.max_temperature_c(steps[k]) for k in order}
        got_npb = {k: dict(npb_step_times(config, 7, steps[k]))
                   for k in order}
        return ([got_hot[k] for k in range(len(steps))],
                [got_npb[k] for k in range(len(steps))])

    prior = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(read, i) for i in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(prior)
    assert results == [(hottest, times)] * 4
