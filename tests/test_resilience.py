"""Tests for the resilience subsystem: faults, retry, degradation."""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from repro.cooling.options import get_cooling
from repro.errors import (
    CalibrationError,
    ConfigurationError,
    DegradedResultWarning,
    InfeasibleError,
    ReproError,
    SimulationError,
    SingularNetworkError,
    ThermalModelError,
    TransientSolverError,
    VFSRangeError,
)
from repro.power.processors import get_chip
from repro.resilience import ResilienceOptions
from repro.resilience.degrade import DegradationLadder, freq_point_rungs
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    FaultyThermalModel,
    corrupt_power_maps,
    drop_vfs_steps,
    make_floating_island,
)
from repro.resilience.retry import (
    RetryPolicy,
    classify_error,
    with_retry,
)
from repro.stack.chipstack import StackConfig
from repro.thermal.analytic import AnalyticStackModel
from repro.thermal.hotspot import ThermalModel


# -- fault specs and injector ------------------------------------------------

class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="singular", probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="singular", probability=-0.1)

    def test_max_fires_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="singular", max_fires=0)

    def test_site_mapping(self):
        assert FaultSpec("singular").site == "thermal"
        assert FaultSpec("nan_power").site == "power"
        assert FaultSpec("drop_vfs").site == "vfs"

    def test_parse_forms(self):
        assert FaultSpec.parse("singular") == FaultSpec("singular")
        assert FaultSpec.parse("timeout:0.25") == FaultSpec(
            "timeout", probability=0.25)
        assert FaultSpec.parse("singular:1:2") == FaultSpec(
            "singular", probability=1.0, max_fires=2)

    def test_parse_malformed(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            FaultSpec.parse("a:b:c:d")

    def test_every_kind_has_a_site(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind).site in FAULT_KINDS.values()


class TestFaultInjector:
    def make(self, seed=7, prob=0.5):
        return FaultInjector(
            (FaultSpec("singular", probability=prob),), seed=seed)

    def test_same_seed_same_sequence(self):
        """Acceptance: identical seeds replay the same fault sequence."""
        a, b = self.make(seed=3), self.make(seed=3)
        for _ in range(40):
            a.draw("thermal")
            b.draw("thermal")
        assert a.events == b.events
        assert len(a.events) > 0

    def test_different_seed_different_sequence(self):
        a, b = self.make(seed=3), self.make(seed=4)
        for _ in range(40):
            a.draw("thermal")
            b.draw("thermal")
        assert a.events != b.events

    def test_reset_replays(self):
        inj = self.make(seed=3)
        for _ in range(20):
            inj.draw("thermal")
        first = inj.events
        inj.reset()
        for _ in range(20):
            inj.draw("thermal")
        assert inj.events == first

    def test_disabled_is_noop(self):
        """Acceptance: a disabled injector never perturbs anything."""
        inj = FaultInjector((FaultSpec("singular", probability=1.0),),
                            seed=0, enabled=False)
        for _ in range(10):
            assert inj.draw("thermal") is None
        assert inj.events == ()

    def test_max_fires_bounds_injections(self):
        inj = FaultInjector(
            (FaultSpec("singular", probability=1.0, max_fires=2),), seed=0)
        hits = [inj.draw("thermal") for _ in range(10)]
        assert sum(s is not None for s in hits) == 2
        assert [s is not None for s in hits[:2]] == [True, True]

    def test_sites_independent_streams(self):
        """Traffic at one site does not shift another site's stream."""
        a = FaultInjector((FaultSpec("singular", 0.5),
                           FaultSpec("nan_power", 0.5)), seed=11)
        b = FaultInjector((FaultSpec("singular", 0.5),
                           FaultSpec("nan_power", 0.5)), seed=11)
        seq_a = [a.draw("thermal") is not None for _ in range(20)]
        # b interleaves power-site draws; thermal decisions must match.
        seq_b = []
        for _ in range(20):
            b.draw("power")
            seq_b.append(b.draw("thermal") is not None)
        assert seq_a == seq_b

    def test_zero_probability_never_fires(self):
        inj = self.make(prob=0.0)
        assert all(inj.draw("thermal") is None for _ in range(50))


class TestFaultHelpers:
    def test_corrupt_nan_and_inf(self):
        maps = {"die0": np.ones((3, 3)), "die1": np.ones((3, 3))}
        bad = corrupt_power_maps(maps, "nan_power", random.Random(0))
        assert sum(np.isnan(v).sum() for v in bad.values()) == 1
        bad = corrupt_power_maps(maps, "inf_power", random.Random(0))
        assert sum(np.isinf(v).sum() for v in bad.values()) == 1
        # Originals untouched.
        assert all(np.isfinite(v).all() for v in maps.values())

    def test_corrupt_rejects_other_kinds(self):
        with pytest.raises(ConfigurationError):
            corrupt_power_maps({}, "singular", random.Random(0))

    def test_drop_vfs_keeps_lowest(self):
        freqs = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
        for seed in range(10):
            kept = drop_vfs_steps(freqs, random.Random(seed))
            assert kept[0] == 1.0
            assert set(kept) <= set(freqs)

    def test_drop_vfs_deterministic(self):
        freqs = tuple(float(f) for f in range(1, 9))
        a = drop_vfs_steps(freqs, random.Random(5))
        b = drop_vfs_steps(freqs, random.Random(5))
        assert a == b

    def test_drop_vfs_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            drop_vfs_steps((), random.Random(0))

    def test_floating_island_is_singular(self, lp_water_4):
        island = make_floating_island(lp_water_4.network)
        with pytest.raises(SingularNetworkError):
            island.solve({})


# -- FaultyThermalModel ------------------------------------------------------

class TestFaultyThermalModel:
    def wrap(self, model, *specs, seed=0):
        return FaultyThermalModel(model, FaultInjector(specs, seed=seed))

    def test_clean_delegates(self, lp_water_4):
        faulty = self.wrap(lp_water_4)
        f = 1.2e9
        assert faulty.max_temperature_c(f) == \
            lp_water_4.max_temperature_c(f)
        assert faulty.stack is lp_water_4.stack
        assert faulty.die_names == lp_water_4.die_names

    def test_singular_fault_raises(self, lp_water_4):
        faulty = self.wrap(lp_water_4, FaultSpec("singular"))
        with pytest.raises(SingularNetworkError):
            faulty.max_temperature_c(1.2e9)

    def test_timeout_fault_is_transient(self, lp_water_4):
        faulty = self.wrap(lp_water_4, FaultSpec("timeout"))
        with pytest.raises(TransientSolverError):
            faulty.max_temperature_c(1.2e9)

    def test_nan_power_trips_guard(self, lp_water_4):
        faulty = self.wrap(lp_water_4, FaultSpec("nan_power"))
        with pytest.raises(ThermalModelError, match="non-finite"):
            faulty.max_temperature_c(1.2e9)

    def test_transient_then_clean(self, lp_water_4):
        """max_fires=1 models a fault that succeeds on retry."""
        faulty = self.wrap(lp_water_4, FaultSpec("timeout", max_fires=1))
        with pytest.raises(TransientSolverError):
            faulty.max_temperature_c(1.2e9)
        assert faulty.max_temperature_c(1.2e9) == \
            lp_water_4.max_temperature_c(1.2e9)


# -- retry -------------------------------------------------------------------

class TestClassify:
    @pytest.mark.parametrize("exc,kind", [
        (TransientSolverError("x"), "retry"),
        (ConfigurationError("x"), "fatal"),
        (VFSRangeError("x"), "fatal"),
        (CalibrationError("x"), "fatal"),
        (ValueError("x"), "fatal"),
        (InfeasibleError("x"), "infeasible"),
        (SingularNetworkError("x"), "degrade"),
        (ThermalModelError("x"), "degrade"),
        (SimulationError("x"), "degrade"),
        (ReproError("x"), "degrade"),
    ])
    def test_table(self, exc, kind):
        assert classify_error(exc) == kind


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.0)

    def test_schedule_deterministic(self):
        p = RetryPolicy(max_attempts=5, seed=42)
        assert p.delays_s() == p.delays_s()
        assert len(p.delays_s()) == 4

    def test_schedule_grows_and_caps(self):
        p = RetryPolicy(max_attempts=6, base_delay_s=1.0,
                        backoff_factor=3.0, jitter_fraction=0.0,
                        max_delay_s=10.0)
        assert p.delays_s() == (1.0, 3.0, 9.0, 10.0, 10.0)

    def test_jitter_within_band(self):
        p = RetryPolicy(max_attempts=10, base_delay_s=1.0,
                        backoff_factor=1.0, jitter_fraction=0.1)
        assert all(0.9 <= d <= 1.1 for d in p.delays_s())

    def test_seed_changes_jitter(self):
        a = RetryPolicy(max_attempts=4, seed=1).delays_s()
        b = RetryPolicy(max_attempts=4, seed=2).delays_s()
        assert a != b


class TestWithRetry:
    def test_success_first_try(self):
        out = with_retry(lambda: 42, sleep=lambda s: None)
        assert (out.value, out.attempts, out.errors) == (42, 1, ())

    def test_transient_retried_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientSolverError("blip")
            return "ok"

        slept = []
        out = with_retry(flaky, policy=RetryPolicy(max_attempts=3),
                         sleep=slept.append)
        assert out.value == "ok"
        assert out.attempts == 3
        assert len(out.errors) == 2
        assert slept == list(out.delays_s)

    def test_budget_exhausted_reraises(self):
        def always():
            raise TransientSolverError("down")
        with pytest.raises(TransientSolverError):
            with_retry(always, policy=RetryPolicy(max_attempts=2),
                       sleep=lambda s: None)

    def test_fatal_not_retried(self):
        calls = []

        def bad():
            calls.append(1)
            raise ConfigurationError("typo")

        with pytest.raises(ConfigurationError):
            with_retry(bad, policy=RetryPolicy(max_attempts=5),
                       sleep=lambda s: None)
        assert len(calls) == 1

    def test_degradable_not_retried(self):
        calls = []

        def bad():
            calls.append(1)
            raise SingularNetworkError("island")

        with pytest.raises(SingularNetworkError):
            with_retry(bad, policy=RetryPolicy(max_attempts=5),
                       sleep=lambda s: None)
        assert len(calls) == 1


# -- degradation ladder ------------------------------------------------------

class TestDegradationLadder:
    def test_needs_rungs(self):
        with pytest.raises(ConfigurationError):
            DegradationLadder(())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            DegradationLadder((("a", lambda: 1), ("a", lambda: 2)))

    def test_first_rung_wins_clean(self):
        ladder = DegradationLadder((("hi", lambda: 1), ("lo", lambda: 2)))
        out = ladder.run(sleep=lambda s: None)
        assert (out.value, out.rung, out.degraded) == (1, "hi", False)
        assert out.rung_index == 0

    def test_falls_to_second_rung_with_warning(self):
        def broken():
            raise SingularNetworkError("island")
        ladder = DegradationLadder((("hi", broken), ("lo", lambda: 2)))
        with pytest.warns(DegradedResultWarning):
            out = ladder.run(sleep=lambda s: None)
        assert (out.value, out.rung, out.degraded) == (2, "lo", True)
        assert out.rung_index == 1
        assert any("SingularNetworkError" in e for e in out.errors)

    def test_allow_degraded_false_propagates(self):
        def broken():
            raise SingularNetworkError("island")
        ladder = DegradationLadder((("hi", broken), ("lo", lambda: 2)))
        with pytest.raises(SingularNetworkError) as exc_info:
            ladder.run(sleep=lambda s: None, allow_degraded=False)
        assert exc_info.value._ladder_rungs == ("hi",)

    def test_fatal_skips_ladder(self):
        calls = []

        def broken():
            raise ConfigurationError("typo")

        def lo():
            calls.append(1)
            return 2

        ladder = DegradationLadder((("hi", broken), ("lo", lo)))
        with pytest.raises(ConfigurationError):
            ladder.run(sleep=lambda s: None)
        assert calls == []

    def test_last_rung_failure_propagates(self):
        def broken():
            raise SingularNetworkError("island")
        ladder = DegradationLadder((("only", broken),))
        with pytest.raises(SingularNetworkError):
            ladder.run(sleep=lambda s: None)

    def test_retry_inside_rung(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise TransientSolverError("blip")
            return "ok"

        ladder = DegradationLadder((("hi", flaky),))
        out = ladder.run(retry_policy=RetryPolicy(max_attempts=3),
                         sleep=lambda s: None)
        assert out.value == "ok"
        assert out.attempts == 2
        assert not out.degraded


# -- analytic thermal rung ---------------------------------------------------

class TestAnalyticStackModel:
    def make(self, n=2, cooling="water", chip="low-power-cmp",
             params=None):
        return AnalyticStackModel(
            StackConfig(chip=get_chip(chip), n_chips=n),
            get_cooling(cooling), params)

    def test_monotone_in_frequency(self, fast_params):
        m = self.make(params=fast_params)
        temps = [m.max_temperature_c(f)
                 for f in (1.0e9, 1.4e9, 1.8e9, 2.0e9)]
        assert temps == sorted(temps)
        assert all(t > fast_params.ambient_c for t in temps)

    def test_taller_stack_hotter(self, fast_params):
        f = 1.4e9
        t2 = self.make(n=2, params=fast_params).max_temperature_c(f)
        t6 = self.make(n=6, params=fast_params).max_temperature_c(f)
        assert t6 > t2

    def test_water_cooler_than_air(self, fast_params):
        f = 1.4e9
        tw = self.make(cooling="water",
                       params=fast_params).max_temperature_c(f)
        ta = self.make(cooling="air",
                       params=fast_params).max_temperature_c(f)
        assert tw < ta

    def test_tracks_grid_model(self, lp_water_4, fast_params):
        """The 0-D rise stays within a modest band of the grid rise."""
        m = self.make(n=4, params=fast_params)
        f = 1.4e9
        amb = fast_params.ambient_c
        rise = m.max_temperature_c(f) - amb
        grid_rise = lp_water_4.max_temperature_c(f) - amb
        assert 0.5 * grid_rise <= rise <= 1.5 * grid_rise

    def test_works_with_max_frequency(self, fast_params):
        from repro.core.freqopt import max_frequency
        p = max_frequency(self.make(params=fast_params))
        assert p.feasible
        assert p.f_ghz > 0

    def test_interface_parity(self, fast_params):
        m = self.make(n=3, params=fast_params)
        assert m.die_names == ("die0", "die1", "die2")
        assert m.meets_threshold(1.0e9) in (True, False)


# -- thermal ladder ----------------------------------------------------------

class TestFreqPointRungs:
    def test_rung_names(self, fast_params):
        rungs = freq_point_rungs("low-power-cmp", 2, "water",
                                 params=fast_params)
        assert tuple(name for name, _ in rungs) == (
            "full", "analytic")

    def test_singular_falls_to_analytic(self, fast_params):
        inj = FaultInjector((FaultSpec("singular"),), seed=0)
        ladder = DegradationLadder(freq_point_rungs(
            "low-power-cmp", 2, "water", params=fast_params,
            injector=inj))
        with pytest.warns(DegradedResultWarning):
            out = ladder.run(sleep=lambda s: None)
        assert out.rung == "analytic"
        assert out.degraded
        assert out.value.feasible

    def test_drop_vfs_still_answers(self, fast_params):
        inj = FaultInjector((FaultSpec("drop_vfs", max_fires=1),), seed=0)
        ladder = DegradationLadder(freq_point_rungs(
            "low-power-cmp", 2, "water", params=fast_params,
            injector=inj))
        out = ladder.run(sleep=lambda s: None)
        clean = DegradationLadder(freq_point_rungs(
            "low-power-cmp", 2, "water",
            params=fast_params)).run(sleep=lambda s: None)
        # Sub-ladder answer is drawn from the same VFS steps, so it can
        # only be at or below the clean maximum.
        assert out.value.feasible
        assert out.value.f_ghz <= clean.value.f_ghz + 1e-9
        assert out.rung == "full"


class TestResilienceOptions:
    def test_defaults(self):
        opts = ResilienceOptions()
        assert not opts.allow_degraded
        assert opts.injector is None
