"""Direct tests for public helpers otherwise only exercised indirectly."""

from __future__ import annotations

import pytest

from repro.analysis.anchors import ANCHORS, full_report
from repro.cli import build_parser
from repro.errors import ConfigurationError, ReproError, ThermalModelError
from repro.perfsim import SystemConfig
from repro.perfsim.analytic import npb_relative_times
from repro.perfsim.noc import MeshTopology, NodeId
from repro.perfsim.noc.loadsweep import pattern_destination
from repro.power.roadmap import check_endpoints
from repro.power.technology import get_technology
from repro.thermal.maps import stack_stats
from repro.units import ghz


def test_full_report_passes_everywhere(measured):
    """One report per figure or section, in the table's order, holding
    every row once, and every row met."""
    reports = full_report(measured)
    assert [r.experiment for r in reports] == list(
        dict.fromkeys(a.figure for a in ANCHORS))
    assert sorted(c.name for r in reports for c in r.checks) == sorted(
        a.id for a in ANCHORS)
    for rep in reports:
        assert rep.passed == rep.total, rep.render()


def test_npb_relative_times_all_programs():
    rel = npb_relative_times(SystemConfig(n_chips=2), ghz(2.0), ghz(1.2))
    assert len(rel) == 9
    assert all(0.5 < v < 1.0 for v in rel.values())


def test_stack_stats_order_and_names():
    import numpy as np
    fields = {"die0": np.full((2, 2), 50.0),
              "die1": np.full((2, 2), 60.0)}
    stats = stack_stats(fields)
    assert [s.layer for s in stats] == ["die0", "die1"]
    assert stats[1].max_c == 60.0


def test_build_parser_lists_all_commands():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if hasattr(a, "choices") and a.choices)
    assert set(sub.choices) == {
        "freq", "sweep", "npb", "maps", "pue", "headline", "report",
        "pareto", "spec", "robustness", "campaign", "chaos", "serve",
        "submit", "top", "fleet"}


def test_get_technology():
    assert get_technology("22nm-hp").alpha == 1.3
    with pytest.raises(ConfigurationError):
        get_technology("7nm")


def test_roadmap_endpoints():
    start, end = check_endpoints()
    assert start == pytest.approx(56.8)
    assert end == pytest.approx(425.0)


def test_pattern_destination_deterministic_patterns():
    import numpy as np
    topo = MeshTopology(4, 4, 1)
    rng = np.random.default_rng(0)
    src = NodeId(0, 1, 2)
    assert pattern_destination("transpose", src, topo, rng) == NodeId(
        0, 2, 1)
    assert pattern_destination("tornado", src, topo, rng) == NodeId(
        0, 3, 2)
    assert pattern_destination("neighbor", src, topo, rng) == NodeId(
        0, 2, 2)


def test_error_hierarchy_rooted():
    assert issubclass(ThermalModelError, ReproError)
    assert issubclass(ConfigurationError, ReproError)

