"""Tests for cooling options and the facility/PUE model."""

from __future__ import annotations

import pytest

from repro.cooling import (
    AIR_COOLING,
    FACILITIES,
    NATURAL_WATER_DIRECT,
    OIL_IMMERSION,
    PAPER_ORDER,
    WATER_IMMERSION,
    WATER_PIPE,
    CoolingFacility,
    CoolingOption,
    CoolingStage,
    annual_cooling_energy_mwh,
    cooling_names,
    datacenter_power_kw,
    get_cooling,
    pue_comparison,
)
from repro.errors import ConfigurationError
from repro.thermal.coolants import WATER
from repro.thermal.materials import PARYLENE


class TestCoolingOptions:
    def test_paper_order(self):
        assert cooling_names() == PAPER_ORDER

    def test_lookup(self):
        assert get_cooling("water") is WATER_IMMERSION
        with pytest.raises(ConfigurationError):
            get_cooling("peltier")

    def test_water_requires_film(self):
        with pytest.raises(ConfigurationError, match="parylene"):
            CoolingOption(name="bare-water", style="immersion",
                          primary_coolant=WATER, board_coolant=WATER)

    def test_water_pipe_confines_water_without_film(self):
        assert WATER_PIPE.film_material is None

    def test_dielectric_immersion_needs_no_film(self):
        assert OIL_IMMERSION.film_material is None
        assert OIL_IMMERSION.film_resistance_m2kw == 0.0

    def test_film_resistance_value(self):
        assert WATER_IMMERSION.film_resistance_m2kw == pytest.approx(
            120e-6 / 0.14)

    def test_surface_conductance_series(self):
        h = WATER_IMMERSION.surface_conductance_w_m2k(WATER)
        assert h == pytest.approx(1.0 / (120e-6 / 0.14 + 1.0 / 800.0))
        assert h < WATER.h_w_m2k

    def test_wets_board_only_for_immersion(self):
        assert WATER_IMMERSION.wets_board
        assert OIL_IMMERSION.wets_board
        assert not AIR_COOLING.wets_board
        assert not WATER_PIPE.wets_board

    def test_cold_plate_requires_resistance(self):
        with pytest.raises(ConfigurationError, match="cold_plate_r_kw"):
            CoolingOption(name="bad", style="cold_plate",
                          primary_coolant=WATER,
                          board_coolant=WATER)

    def test_film_without_thickness_rejected(self):
        with pytest.raises(ConfigurationError):
            CoolingOption(name="bad", style="immersion",
                          primary_coolant=WATER, board_coolant=WATER,
                          film_material=PARYLENE, film_thickness_m=0.0)

    def test_with_film_thickness_copy(self):
        thin = WATER_IMMERSION.with_film_thickness(50e-6)
        assert thin.film_thickness_m == 50e-6
        assert WATER_IMMERSION.film_thickness_m == 120e-6

    def test_with_film_thickness_requires_film(self):
        with pytest.raises(ConfigurationError, match="no film"):
            AIR_COOLING.with_film_thickness(50e-6)

    def test_unknown_style_rejected(self):
        with pytest.raises(ConfigurationError, match="style"):
            CoolingOption(name="bad", style="peltier",
                          primary_coolant=WATER, board_coolant=WATER)


class TestPue:
    def test_air_pue_worst(self):
        pues = pue_comparison()
        assert max(pues, key=pues.get) == "air-cooled (CRAC + chiller)"

    def test_natural_water_best(self):
        pues = pue_comparison()
        assert min(pues, key=pues.get) == NATURAL_WATER_DIRECT.name

    def test_ordering_matches_paper_argument(self):
        # Fewer/cheaper stages -> lower PUE: air > pipe > oil > tank >
        # natural water.
        pues = pue_comparison()
        ordered = [
            "air-cooled (CRAC + chiller)",
            "water-pipe (cold plates + warm-water loop)",
            "oil immersion (tanks + secondary water loop)",
            "water immersion (tank + heat exchanger)",
            NATURAL_WATER_DIRECT.name,
        ]
        values = [pues[name] for name in ordered]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_datacenter_power(self):
        total = datacenter_power_kw(1000.0, NATURAL_WATER_DIRECT)
        assert total == pytest.approx(1000.0 * NATURAL_WATER_DIRECT.pue())

    def test_datacenter_power_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            datacenter_power_kw(0.0, NATURAL_WATER_DIRECT)

    def test_annual_energy_zero_stage_facility_small(self):
        e = annual_cooling_energy_mwh(1000.0, NATURAL_WATER_DIRECT)
        assert e < 100.0   # < 100 MWh/year for a 1 MW hall

    def test_negative_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            CoolingStage("bad", -0.1)

    def test_facility_overhead_sums_stages(self):
        f = CoolingFacility(name="x", stages=(CoolingStage("a", 0.1),
                                              CoolingStage("b", 0.2)))
        assert f.cooling_overhead() == pytest.approx(0.3)

    def test_all_facilities_registered(self):
        assert len(FACILITIES) == 5
