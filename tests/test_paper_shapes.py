"""Shapes of Figs. 1, 7 and 15 as the paper states them, on the
measurements the anchor table (``repro.analysis.anchors``) reads."""

from __future__ import annotations

import pytest

from repro.analysis.anchors import ANCHORS, E5, HF, LP
from repro.core.sweeps import rotation_gain_c
from repro.datasets import paper
from repro.units import ghz


class TestFig7LowPower:
    def test_water_pipe_limit_is_7(self, measured):
        assert (measured.depth(LP, "water_pipe")
                == paper.LOW_POWER_MAX_CHIPS["water_pipe"])

    def test_pipe_infeasible_at_8(self, measured):
        assert measured.ghz(LP, "water_pipe", 8) == 0.0


class TestFig1XeonE5:
    def test_air_shallowest(self, measured):
        depths = [measured.depth(E5, c)
                  for c in ("air", "mineral_oil", "water")]
        assert depths == sorted(depths)

    def test_water_beats_oil_per_chipcount(self, measured):
        by = measured.grids[E5]
        assert all(fw >= fo for fo, fw in zip(by["mineral_oil"].f_ghz,
                                              by["water"].f_ghz))


class TestFig15Rotation:
    def test_flip_gain_about_13c(self, measured):
        check = next(a for a in ANCHORS
                     if a.id == "fig15-flip-gain").check(measured)
        assert check.passed, check.render()
        # the row reads the ladders' top step: the paper's 3.6 GHz point
        assert check.measured == pytest.approx(rotation_gain_c(
            HF, "water", ghz(paper.FLIP_ENABLES_WATER_GHZ)))
