"""Tests for the co-simulation pipeline and sweep drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cosim import run_npb_comparison
from repro.core.sweeps import (
    frequency_vs_chips,
    rotation_gain_c,
    temperature_vs_frequency,
    temperature_vs_h,
    thermal_maps,
)
from repro.cli import main
from repro.errors import ConfigurationError, InfeasibleError
from repro.perfsim.npb import NPB_ORDER
from repro.units import ghz


@pytest.fixture(scope="module")
def lp6(fast_params):
    return run_npb_comparison("low-power-cmp", 6, reference="water_pipe",
                              params=fast_params)


class TestNpbComparison:
    def test_reference_relative_is_one(self, lp6):
        rel = lp6.relative_times("water_pipe")
        assert all(v == pytest.approx(1.0) for v in rel.values())

    def test_water_faster_than_pipe(self, lp6):
        rel = lp6.relative_times("water")
        assert all(v < 1.0 for v in rel.values())

    def test_all_nine_benchmarks_present(self, lp6):
        assert set(lp6.relative_times("water")) == set(NPB_ORDER)

    def test_ep_gains_most(self, lp6):
        rel = lp6.relative_times("water")
        assert rel["ep"] == min(rel.values())

    def test_memory_bound_gains_least(self, lp6):
        rel = lp6.relative_times("water")
        weakest = max(rel, key=rel.get)
        assert weakest in ("is", "cg")

    def test_oil_between_pipe_and_water(self, lp6):
        oil = lp6.average_relative("mineral_oil")
        water = lp6.average_relative("water")
        assert water <= oil <= 1.0

    def test_threads_default_to_cores(self, lp6):
        assert lp6.threads == 24

    def test_average_and_best(self, lp6):
        avg = lp6.average_relative("water")
        best = lp6.best_improvement("water")
        assert 0.0 < 1.0 - avg < best < 1.0

    def test_unknown_outcome_rejected(self, lp6):
        with pytest.raises(InfeasibleError):
            lp6.outcome("peltier")

    def test_infeasible_reference_raises(self, fast_params):
        cmp8 = run_npb_comparison("low-power-cmp", 8,
                                  reference="water_pipe",
                                  params=fast_params)
        if not cmp8.outcome("water_pipe").feasible:
            with pytest.raises(InfeasibleError):
                cmp8.relative_times("water")


class TestFrequencySweeps:
    def test_series_shapes(self, fast_params):
        series = frequency_vs_chips("low-power-cmp", (1, 2, 4),
                                    ("air", "water"), params=fast_params)
        assert len(series) == 2
        assert series[0].chips == (1, 2, 4)

    def test_frequency_nonincreasing_in_chips(self, fast_params):
        (s,) = frequency_vs_chips("low-power-cmp", (1, 2, 3, 4, 6),
                                  ("water",), params=fast_params)
        feasible = [f for f in s.f_ghz if f > 0]
        assert all(a >= b for a, b in zip(feasible, feasible[1:]))

    def test_water_dominates_air(self, fast_params):
        air, water = frequency_vs_chips("low-power-cmp", (1, 2, 4),
                                        ("air", "water"),
                                        params=fast_params)
        for fa, fw in zip(air.f_ghz, water.f_ghz):
            assert fw >= fa

    def test_feasible_up_to(self, fast_params):
        (s,) = frequency_vs_chips("low-power-cmp", (1, 2, 10),
                                  ("air",), params=fast_params)
        assert s.feasible_up_to() <= 2 or s.feasible_up_to() == 10

    def test_no_heights_is_refused(self):
        with pytest.raises(ConfigurationError, match="stack height"):
            frequency_vs_chips("low-power-cmp", (), ("water",))

    @pytest.mark.parametrize("max_chips", ("0", "-3"))
    def test_repro_sweep_without_heights_exits_2(self, max_chips, capsys):
        assert main(["sweep", "--max-chips", max_chips]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == ""


class TestHSweep:
    def test_temperature_decreasing_in_h(self, fast_params):
        hs = (14.0, 100.0, 400.0, 800.0, 1600.0)
        series = temperature_vs_h("low-power-cmp", hs, n_chips=2,
                                  params=fast_params)
        t = series.max_temp_c
        assert all(a > b for a, b in zip(t, t[1:]))

    def test_diminishing_returns(self, fast_params):
        """Fig. 14 shape: each doubling of h buys less."""
        hs = (100.0, 200.0, 400.0, 800.0)
        series = temperature_vs_h("low-power-cmp", hs, n_chips=2,
                                  params=fast_params)
        drops = -np.diff(series.max_temp_c)
        assert all(a > b for a, b in zip(drops, drops[1:]))

    def test_beyond_water_still_helps(self, fast_params):
        """Fig. 14 finding: h above water's 800 still reduces T."""
        series = temperature_vs_h("xeon-e5-2667v4", (800.0, 2000.0),
                                  n_chips=2, params=fast_params)
        assert series.max_temp_c[1] < series.max_temp_c[0] - 0.5


class TestRotation:
    def test_flip_gain_positive_at_max_freq(self, fast_params):
        gain = rotation_gain_c("high-frequency-cmp", "water", ghz(3.6),
                               params=fast_params)
        assert gain > 0

    def test_flip_gain_grows_with_frequency(self, fast_params):
        g_lo = rotation_gain_c("high-frequency-cmp", "water", ghz(2.0),
                               params=fast_params)
        g_hi = rotation_gain_c("high-frequency-cmp", "water", ghz(3.6),
                               params=fast_params)
        assert g_hi > g_lo

    def test_series_cover_ladder(self, fast_params):
        s = temperature_vs_frequency("high-frequency-cmp", "water",
                                     params=fast_params)
        assert len(s.f_ghz) == 13
        assert s.max_temp_c == tuple(sorted(s.max_temp_c))

    def test_off_ladder_rejected(self, fast_params):
        with pytest.raises(ValueError):
            rotation_gain_c("high-frequency-cmp", "water", ghz(3.5),
                            params=fast_params)


class TestThermalMaps:
    def test_map_shapes(self, fast_params):
        maps = thermal_maps("high-frequency-cmp", "water", ghz(3.6),
                            params=fast_params)
        assert set(maps) == {"die0", "die1", "die2", "die3"}

    def test_core_row_is_hottest_region(self, fast_params):
        """Fig. 9: cores (bottom row of the die) form the hotspot."""
        maps = thermal_maps("high-frequency-cmp", "water", ghz(3.6),
                            params=fast_params)
        field = maps["die0"]
        n = field.shape[0]
        bottom = field[: n // 4].mean()
        top = field[n // 2:].mean()
        assert bottom > top

    def test_flip_reduces_vertical_asymmetry(self, fast_params):
        """Rotating alternate dies balances each die's bottom-vs-top
        temperature contrast (a rotated die still inherits much of its
        unrotated neighbours' profile, so the side does not simply swap —
        the stack just flattens)."""
        def asymmetry(maps):
            out = 0.0
            n = maps["die1"].shape[0]
            for f in maps.values():
                out += abs(f[: n // 4].mean() - f[3 * n // 4:].mean())
            return out
        plain = thermal_maps("high-frequency-cmp", "water", ghz(3.6),
                             params=fast_params)
        flip = thermal_maps("high-frequency-cmp", "water", ghz(3.6),
                            flipped=True, params=fast_params)
        assert asymmetry(flip) < asymmetry(plain)

    def test_flip_flattens_fields(self, fast_params):
        from repro.thermal.maps import uniformity_index
        plain = thermal_maps("high-frequency-cmp", "water", ghz(3.6),
                             params=fast_params)
        flip = thermal_maps("high-frequency-cmp", "water", ghz(3.6),
                            flipped=True, params=fast_params)
        # Inner dies see a more uniform vertical power stack when
        # neighbours are rotated.
        assert max(f.max() for f in flip.values()) < max(
            f.max() for f in plain.values())

    def test_phi_more_uniform_than_cmp(self, fast_params):
        """Fig. 18's observation: the Phi's spread cores flatten the map."""
        from repro.thermal.maps import uniformity_index
        cmp_maps = thermal_maps("high-frequency-cmp", "water", ghz(3.6),
                                params=fast_params)
        phi_maps = thermal_maps("xeon-phi-7290", "water", ghz(1.2),
                                params=fast_params)
        cmp_u = np.mean([uniformity_index(f) for f in cmp_maps.values()])
        phi_u = np.mean([uniformity_index(f) for f in phi_maps.values()])
        assert phi_u > cmp_u
