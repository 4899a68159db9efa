"""Tests for table rendering, validation records, and thermal-map stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import Check, ValidationReport, format_mapping, format_series, format_table
from repro.errors import ThermalModelError
from repro.thermal.maps import MapStats, ascii_map, uniformity_index, vertical_profile


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_none_renders_as_dashes(self):
        out = format_table(["x"], [[None]])
        assert "--" in out

    def test_float_format(self):
        out = format_table(["x"], [[1.23456]], float_fmt="{:.1f}")
        assert "1.2" in out and "1.23" not in out

    def test_series(self):
        out = format_series("label", [1, 2], [3.0, 4.0])
        assert out.startswith("label")

    def test_mapping(self):
        out = format_mapping("title", {"a": 1.5})
        assert "title" in out and "1.500" in out


class TestChecks:
    def test_quantitative_pass(self):
        c = Check("x", paper=10.0, measured=10.5, passed=True)
        assert c.render() == "[PASS] x: paper=10 measured=10.5"

    def test_quantitative_fail(self):
        c = Check("x", paper=10.0, measured=15.0, passed=False,
                  note="window [9, 11]")
        assert c.render() == ("[DEVIATION] x: paper=10 measured=15"
                              "  (window [9, 11])")

    def test_qualitative(self):
        c = Check("ordering", paper=None, measured=1.0, passed=True,
                  note="water beats oil")
        assert c.render() == ("[PASS] ordering: paper=-- measured=1"
                              "  (water beats oil)")

    def test_report_counts(self):
        r = ValidationReport("fig-x")
        r.add(Check("a", 1.0, 1.0, True))
        r.add(Check("b", 1.0, 5.0, False))
        assert (r.passed, r.total) == (1, 2)
        assert "1/2" in r.render()


class TestMapStats:
    def test_from_field(self):
        f = np.array([[1.0, 2.0], [3.0, 8.0]])
        s = MapStats.from_field("die0", f)
        assert s.max_c == 8.0
        assert s.min_c == 1.0
        assert s.spread_c == 7.0
        assert s.hottest_cell == (1, 1)

    def test_empty_field_rejected(self):
        with pytest.raises(ThermalModelError):
            MapStats.from_field("die0", np.zeros((0, 0)))

    def test_uniformity_flat_field(self):
        assert uniformity_index(np.full((4, 4), 55.0)) == 1.0

    def test_uniformity_spike_low(self):
        f = np.zeros((8, 8)); f[4, 4] = 100.0
        assert uniformity_index(f) < 0.1

    def test_uniformity_monotone(self):
        smooth = np.add.outer(np.arange(8.0), np.arange(8.0))
        spiky = np.zeros((8, 8)); spiky[0, 0] = 14.0
        assert uniformity_index(smooth) > uniformity_index(spiky)

    def test_vertical_profile(self):
        fields = {"die0": np.full((2, 2), 50.0),
                  "die1": np.full((2, 2), 40.0)}
        assert vertical_profile(fields) == (50.0, 40.0)

    def test_ascii_map_dimensions(self):
        f = np.random.default_rng(0).random((16, 16))
        art = ascii_map(f)
        lines = art.splitlines()
        assert len(lines) == 16
        assert all(len(line) == 16 for line in lines)

    def test_ascii_map_extremes(self):
        f = np.zeros((4, 4)); f[0, 0] = 1.0
        art = ascii_map(f)
        assert "$" in art and "." in art
        # row 0 (bottom) is printed last
        assert "$" in art.splitlines()[-1]

    def test_ascii_map_constant_field(self):
        art = ascii_map(np.full((4, 4), 3.0))
        assert set(art.replace("\n", "")) == {"."}
