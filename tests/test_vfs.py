"""Tests for the alpha-power VFS model and ladders."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.power.vfs as vfs
from repro.errors import VFSRangeError
from repro.power.processors import chip_names, get_chip
from repro.power.technology import TECH_22NM_HP
from repro.power.vfs import VFSCurve, VFSLadder
from repro.units import ghz


@pytest.fixture(scope="module")
def curve() -> VFSCurve:
    return VFSCurve(tech=TECH_22NM_HP, f_max_hz=ghz(3.6))


class TestVFSCurve:
    def test_anchor_at_vdd_max(self, curve: VFSCurve):
        assert curve.frequency_at(1.0) == pytest.approx(ghz(3.6))

    def test_frequency_monotone_in_voltage(self, curve: VFSCurve):
        vs = np.linspace(TECH_22NM_HP.vdd_min_v, 1.0, 30)
        fs = [curve.frequency_at(v) for v in vs]
        assert all(a < b for a, b in zip(fs, fs[1:]))

    def test_voltage_roundtrip(self, curve: VFSCurve):
        for f in (ghz(1.2), ghz(2.0), ghz(2.8), ghz(3.6)):
            v = curve.voltage_for(f)
            assert curve.frequency_at(v) == pytest.approx(f, rel=1e-6)

    def test_voltage_for_max_is_vdd_max(self, curve: VFSCurve):
        assert curve.voltage_for(ghz(3.6)) == pytest.approx(1.0)

    def test_over_max_rejected(self, curve: VFSCurve):
        with pytest.raises(VFSRangeError, match="exceeds"):
            curve.voltage_for(ghz(4.0))

    def test_below_min_rejected(self, curve: VFSCurve):
        with pytest.raises(VFSRangeError, match="below"):
            curve.voltage_for(ghz(0.1))

    def test_nonpositive_frequency_rejected(self, curve: VFSCurve):
        with pytest.raises(VFSRangeError):
            curve.voltage_for(0.0)

    @pytest.mark.parametrize("f", (math.nan, math.inf, -math.inf))
    def test_non_finite_frequency_rejected(self, curve: VFSCurve, f):
        with pytest.raises(VFSRangeError, match="finite"):
            curve.voltage_for(f)
        with pytest.raises(VFSRangeError, match="finite"):
            get_chip("low-power-cmp").total_power_w(f)

    def test_voltage_outside_window_rejected(self, curve: VFSCurve):
        with pytest.raises(VFSRangeError):
            curve.frequency_at(TECH_22NM_HP.vth_v)   # at threshold
        with pytest.raises(VFSRangeError):
            curve.frequency_at(1.5)

    def test_dynamic_scale_cubic_ish(self, curve: VFSCurve):
        # P_dyn ~ V^2 f: halving f reduces dynamic power by much more
        # than half because V also drops.
        s = curve.dynamic_scale(ghz(1.8))
        assert s < 0.5 * curve.dynamic_scale(ghz(3.6))

    def test_dynamic_scale_at_max_is_one(self, curve: VFSCurve):
        assert curve.dynamic_scale(ghz(3.6)) == pytest.approx(1.0)

    def test_static_scale_at_max_is_one(self, curve: VFSCurve):
        assert curve.static_scale(ghz(3.6)) == pytest.approx(1.0)

    @given(st.floats(min_value=1.3e9, max_value=3.6e9))
    @settings(max_examples=50)
    def test_scales_monotone_property(self, f: float):
        c = VFSCurve(tech=TECH_22NM_HP, f_max_hz=ghz(3.6))
        f_lo = f * 0.95
        assert c.dynamic_scale(f_lo) < c.dynamic_scale(f) + 1e-12
        assert c.static_scale(f_lo) <= c.static_scale(f) + 1e-12

    def test_alpha_is_papers_value(self):
        assert TECH_22NM_HP.alpha == 1.3


class TestVoltageMemo:
    """``voltage_for`` is memoized: the root find's numbers, and no
    root find for a repeated query."""

    @pytest.mark.parametrize("name", chip_names())
    def test_memo_equals_the_root_find(self, name):
        chip = get_chip(name)
        ladder = [float(f) for f in chip.ladder.frequencies()]
        off_ladder = [(lo + hi) / 2 for lo, hi in zip(ladder, ladder[1:])]
        for f in ladder + off_ladder:
            assert (chip.curve.voltage_for(f)
                    == VFSCurve.voltage_for.__wrapped__(chip.curve, f)), f

    def test_repeated_query_makes_no_root_find(self, monkeypatch):
        curve = get_chip("low-power-cmp").curve
        first = curve.voltage_for(ghz(1.55))

        def no_root_find(*args, **kwargs):
            raise AssertionError("brentq called")

        monkeypatch.setattr(vfs, "brentq", no_root_find)
        assert curve.voltage_for(ghz(1.55)) == first
        with pytest.raises(AssertionError, match="brentq"):
            curve.voltage_for(ghz(1.5501))

    def test_errors_are_not_kept(self, curve: VFSCurve):
        for _ in range(2):
            with pytest.raises(VFSRangeError, match="exceeds"):
                curve.voltage_for(ghz(4.0))


def _root(find, curve: VFSCurve, f: float):
    """``voltage_for``'s root find for ``f`` through ``find``: the
    root, or the message of the ``ValueError`` it raised."""
    t = curve.tech
    try:
        return find(lambda v: curve.frequency_at(v) - f,
                    t.vdd_min_v, t.vdd_max_v, xtol=1e-9)
    except ValueError as exc:
        return str(exc)


def _frequencies(curve: VFSCurve, seed: int, n: int = 1000) -> list[float]:
    """``n`` seeded random frequencies across the curve's range."""
    lo = curve.frequency_at(curve.tech.vdd_min_v)
    rng = np.random.default_rng(seed)
    return [float(f) for f in rng.uniform(lo, curve.f_max_hz, n)]


class TestInTreeBrentq:
    """The power model's own Brent root find returns what
    ``scipy.optimize.brentq`` returns, to the bit."""

    @pytest.mark.parametrize("name", chip_names())
    def test_equals_scipy_on_the_library_curves(self, name):
        from scipy.optimize import brentq
        chip = get_chip(name)
        ladder = [float(f) for f in chip.ladder.frequencies()]
        mids = [(lo + hi) / 2 for lo, hi in zip(ladder, ladder[1:])]
        for f in ladder + mids + _frequencies(chip.curve, seed=7):
            assert (_root(vfs.brentq, chip.curve, f)
                    == _root(brentq, chip.curve, f)), f

    @pytest.mark.parametrize("alpha", (1.0, 2.0))
    def test_equals_scipy_at_the_alpha_bounds(self, alpha):
        from scipy.optimize import brentq
        tech = replace(TECH_22NM_HP, name=f"alpha-{alpha}", alpha=alpha)
        curve = VFSCurve(tech=tech, f_max_hz=ghz(3.0))
        for f in _frequencies(curve, seed=int(alpha * 10)):
            root = _root(vfs.brentq, curve, f)
            assert isinstance(root, float)
            assert root == _root(brentq, curve, f), f

    def test_errors_are_scipys(self):
        with pytest.raises(ValueError, match="different signs"):
            vfs.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-9)
        with pytest.raises(ValueError, match="NaN"):
            vfs.brentq(lambda x: math.nan, -1.0, 1.0, xtol=1e-9)
        with pytest.raises(RuntimeError, match="converge"):
            vfs.brentq(lambda x: x ** 3 - 2.0, -1.0, 100.0, xtol=1e-300,
                       maxiter=3)


class TestVFSLadder:
    def test_low_power_ladder_11_steps(self):
        ladder = VFSLadder(ghz(1.0), ghz(2.0), ghz(0.1))
        assert ladder.num_steps == 11

    def test_high_frequency_ladder_13_steps(self):
        ladder = VFSLadder(ghz(1.2), ghz(3.6), ghz(0.2))
        assert ladder.num_steps == 13

    def test_frequencies_ascending_inclusive(self):
        ladder = VFSLadder(ghz(1.0), ghz(2.0), ghz(0.1))
        f = ladder.frequencies()
        assert f[0] == pytest.approx(ghz(1.0))
        assert f[-1] == pytest.approx(ghz(2.0))
        assert np.all(np.diff(f) > 0)

    def test_contains(self):
        ladder = VFSLadder(ghz(1.2), ghz(3.6), ghz(0.2))
        assert ladder.contains(ghz(2.4))
        assert not ladder.contains(ghz(2.5))

    def test_floor(self):
        ladder = VFSLadder(ghz(1.0), ghz(2.0), ghz(0.1))
        assert ladder.floor(ghz(1.55)) == pytest.approx(ghz(1.5))
        assert ladder.floor(ghz(2.7)) == pytest.approx(ghz(2.0))

    def test_floor_below_min_rejected(self):
        ladder = VFSLadder(ghz(1.0), ghz(2.0), ghz(0.1))
        with pytest.raises(VFSRangeError):
            ladder.floor(ghz(0.9))

    def test_non_integer_span_rejected(self):
        with pytest.raises(VFSRangeError, match="integer"):
            VFSLadder(ghz(1.0), ghz(2.05), ghz(0.1))

    def test_bad_endpoints_rejected(self):
        with pytest.raises(VFSRangeError):
            VFSLadder(ghz(2.0), ghz(1.0), ghz(0.1))

    def test_bad_step_rejected(self):
        with pytest.raises(VFSRangeError):
            VFSLadder(ghz(1.0), ghz(2.0), -ghz(0.1))
