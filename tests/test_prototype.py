"""Tests for the prototype models: board thermal, reliability, coating."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datasets import paper
from repro.errors import ConfigurationError
from repro.prototype import (
    CAMPAIGN_YEARS,
    MIN_RELIABLE_THICKNESS_M,
    NUM_TEST_BOARDS,
    SCENARIOS,
    TEST_BOARD_COMPONENTS,
    BoardReliability,
    CoatingSpec,
    PrototypeBoardModel,
    WeibullLife,
    fitted_lifetimes,
    fully_coated_board,
    get_component,
    get_environment,
    masked_board,
    recommended_above_water,
    recommended_coating,
    TOKYO_BAY,
)


class TestBoardModel:
    @pytest.fixture(scope="class")
    def model(self):
        return PrototypeBoardModel()

    def test_sink_cooler_than_junction(self, model):
        for s in SCENARIOS:
            sol = model.solve(s)
            assert sol["sink"] < sol["junction"]

    def test_heatsink_immersion_small_gain(self, model):
        """The paper's structural point: dunking only the sink buys ~5 C
        because the internal junction-to-sink path dominates."""
        gain = (model.junction_c("air")
                - model.junction_c("heatsink_in_water"))
        assert 2.0 < gain < 8.0

    def test_board_path_dominates_full_immersion_gain(self, model):
        gain_sink = (model.junction_c("air")
                     - model.junction_c("heatsink_in_water"))
        gain_full = model.immersion_gain_c()
        assert gain_full > 2 * gain_sink

    def test_unknown_scenario_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.solve("cryogenic")

    def test_invalid_params_rejected(self):
        from repro.prototype import BoardThermalParams
        with pytest.raises(ConfigurationError):
            BoardThermalParams(cpu_power_w=-1.0)


class TestComponents:
    def test_inventory_matches_paper(self):
        for name, failures in paper.TESTBOARD_FAILURES.items():
            assert get_component(name).observed_failures == failures

    def test_campaign_constants(self):
        assert NUM_TEST_BOARDS == paper.TESTBOARD_COUNT
        assert CAMPAIGN_YEARS == paper.TESTBOARD_YEARS

    def test_recommendations_include_paper_list(self):
        above = set(recommended_above_water())
        assert {"pciex4", "rj45", "mpcie", "memory_slot"} <= above

    def test_unknown_component(self):
        with pytest.raises(ConfigurationError):
            get_component("floppy")

    def test_seven_component_classes(self):
        assert len(TEST_BOARD_COMPONENTS) == 7


class TestWeibull:
    def test_survival_decreasing(self):
        w = WeibullLife(scale_years=3.0)
        ts = np.linspace(0, 10, 20)
        s = [w.survival(t) for t in ts]
        assert all(a >= b for a, b in zip(s, s[1:]))

    def test_survival_at_zero_is_one(self):
        assert WeibullLife(2.0).survival(0.0) == 1.0

    def test_failure_complement(self):
        w = WeibullLife(2.0)
        assert w.survival(1.5) + w.failure_probability(1.5) == pytest.approx(
            1.0)

    def test_mean_gamma_formula(self):
        w = WeibullLife(scale_years=2.0, shape=1.0)   # exponential
        assert w.mean_years() == pytest.approx(2.0)

    def test_sampling_reproducible(self):
        w = WeibullLife(2.0)
        a = w.sample(np.random.default_rng(1), 10)
        b = w.sample(np.random.default_rng(1), 10)
        np.testing.assert_array_equal(a, b)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            WeibullLife(scale_years=0.0)
        with pytest.raises(ConfigurationError):
            WeibullLife(2.0).survival(-1.0)


class TestFittedReliability:
    def test_pciex4_fails_fast(self):
        lives = fitted_lifetimes()
        # All five failed within two years -> high 2-year failure prob.
        assert lives["pciex4"].failure_probability(CAMPAIGN_YEARS) > 0.9

    def test_robust_components_survive(self):
        lives = fitted_lifetimes()
        for name in ("usb", "pga", "mega_avr"):
            assert lives[name].survival(CAMPAIGN_YEARS) > 0.9

    def test_fit_reproduces_expected_failures(self):
        """Expected failures across 5 boards match observations +- 1."""
        lives = fitted_lifetimes()
        for c in TEST_BOARD_COMPONENTS:
            exposed = NUM_TEST_BOARDS * c.per_board
            expected = exposed * lives[c.name].failure_probability(
                CAMPAIGN_YEARS)
            assert expected == pytest.approx(c.observed_failures, abs=1.0)

    def test_masked_board_outlives_fully_coated(self):
        assert (masked_board().median_life_years()
                > fully_coated_board().median_life_years())

    def test_masked_board_couple_of_years(self):
        # The paper: with masking, lifetime "a couple of years" or more.
        assert masked_board().median_life_years() > 2.0

    def test_fully_coated_limited_by_pciex4(self):
        # PCIex4 failed universally; an unmasked board dies early.
        assert fully_coated_board().median_life_years() < 2.0

    def test_monte_carlo_matches_median(self):
        board = masked_board()
        rng = np.random.default_rng(0)
        lifetimes = board.simulate(rng, 4000)
        mc_median = float(np.median(lifetimes))
        assert mc_median == pytest.approx(board.median_life_years(),
                                          rel=0.1)

    def test_unknown_submerged_component_rejected(self):
        board = BoardReliability(component_lives=fitted_lifetimes(),
                                 submerged=("warp_drive",))
        with pytest.raises(ConfigurationError):
            board.survival(1.0)


class TestCoating:
    def test_paper_thicknesses_reliable(self):
        for t in (120e-6, 150e-6):
            assert CoatingSpec(thickness_m=t).reliable

    def test_50um_unreliable(self):
        spec = CoatingSpec(thickness_m=paper.FILM_FAILED_UM * 1e-6)
        assert not spec.reliable
        assert spec.expected_failure_hours() < 24.0

    def test_reliable_film_never_fails_early(self):
        assert CoatingSpec(thickness_m=120e-6).expected_failure_hours() == (
            math.inf)

    def test_validate_rejects_thin_film(self):
        with pytest.raises(ConfigurationError, match="50 um"):
            CoatingSpec(thickness_m=50e-6).validate_for_immersion()

    def test_thermal_resistance(self):
        spec = CoatingSpec(thickness_m=120e-6)
        assert spec.thermal_resistance_m2kw == pytest.approx(120e-6 / 0.14)

    def test_recommended_coating_masks_risky_parts(self):
        spec = recommended_coating()
        assert "pciex4" in spec.masked_regions
        spec.validate_for_immersion()

    def test_min_thickness_between_failed_and_working(self):
        assert (paper.FILM_FAILED_UM * 1e-6 < MIN_RELIABLE_THICKNESS_M
                <= 120e-6)


class TestDeployment:
    def test_tokyo_bay_record(self):
        assert TOKYO_BAY.observed_record_days == paper.TOKYO_BAY_RECORD_DAYS

    def test_biofouling_degrades_h(self):
        h0 = TOKYO_BAY.effective_h(800.0, 0.0)
        h1 = TOKYO_BAY.effective_h(800.0, 1.0)
        assert h0 == pytest.approx(800.0)
        assert h1 < h0
        assert h1 >= 0.2 * 800.0

    def test_tap_water_does_not_degrade(self):
        env = get_environment("tap-water-tank")
        assert env.effective_h(800.0, 5.0) == pytest.approx(800.0)

    def test_all_sites_are_primary_coolant(self):
        # The paper's defining distinction vs Natick/CSCS.
        for name in ("tap-water-tank", "river", "tokyo-bay"):
            assert get_environment(name).is_primary_coolant

    def test_unknown_environment(self):
        with pytest.raises(ConfigurationError):
            get_environment("mars")
