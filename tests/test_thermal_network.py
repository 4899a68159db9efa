"""Tests for the compact thermal network: assembly, solve, conservation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SingularNetworkError, ThermalModelError
from repro.floorplan.geometry import Rect
from repro.thermal.layers import Boundary, GridLayer, Interface, overlap_matrix
from repro.thermal.materials import COPPER, SILICON, TIM
from repro.thermal.network import ThermalNetwork, ThermalResult


def slab(name="slab", side=0.01, t=1e-3, mat=SILICON, n=4, **kw):
    return GridLayer(name=name, outline=Rect(0, 0, side, side),
                     thickness_m=t, material=mat, nx=n, ny=n, **kw)


def simple_network(h=100.0, t_amb=25.0, n=4):
    layer = slab(n=n)
    b = Boundary(layer="slab", face="top", h_w_m2k=h, t_ambient_c=t_amb)
    return ThermalNetwork([layer], [], [b])


class TestOverlapMatrix:
    def test_identical_grids(self):
        e = np.array([0.0, 1.0, 2.0])
        o = overlap_matrix(e, e)
        np.testing.assert_allclose(o, np.diag([1.0, 1.0]))

    def test_offset_grids(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.5, 1.5])
        assert overlap_matrix(a, b)[0, 0] == pytest.approx(0.5)

    def test_disjoint(self):
        a = np.array([0.0, 1.0])
        b = np.array([2.0, 3.0])
        assert overlap_matrix(a, b)[0, 0] == 0.0

    def test_total_overlap_conserved(self):
        a = np.linspace(0, 1, 5)
        b = np.linspace(0, 1, 8)
        assert overlap_matrix(a, b).sum() == pytest.approx(1.0)


class TestValidation:
    def test_no_boundary_rejected(self):
        with pytest.raises(SingularNetworkError):
            ThermalNetwork([slab()], [], [])

    def test_duplicate_layers_rejected(self):
        with pytest.raises(ThermalModelError, match="duplicate"):
            ThermalNetwork([slab(), slab()], [],
                           [Boundary("slab", "top", 10.0)])

    def test_unknown_interface_layer_rejected(self):
        with pytest.raises(ThermalModelError, match="unknown layer"):
            ThermalNetwork([slab()], [Interface("slab", "ghost", 1e-5)],
                           [Boundary("slab", "top", 10.0)])

    def test_unknown_boundary_layer_rejected(self):
        with pytest.raises(ThermalModelError, match="unknown layer"):
            ThermalNetwork([slab()], [], [Boundary("ghost", "top", 10.0)])

    def test_disconnected_island_detected(self):
        # Second layer has no interface and no boundary: singular.
        a = slab("a")
        b = slab("b")
        with pytest.raises(SingularNetworkError):
            net = ThermalNetwork([a, b], [],
                                 [Boundary("a", "top", 10.0)])
            net.solve({"a": np.ones((4, 4))})

    def test_bad_face_rejected(self):
        with pytest.raises(ThermalModelError, match="face"):
            Boundary("slab", "left", 10.0)

    def test_self_interface_rejected(self):
        with pytest.raises(ThermalModelError):
            Interface("a", "a", 1e-5)

    def test_negative_interface_resistance_rejected(self):
        with pytest.raises(ThermalModelError):
            Interface("a", "b", -1e-5)


class TestSingleSlab:
    def test_uniform_power_analytic(self):
        """Uniform heating of a slab with top convection.

        T = T_amb + P * (R_half + R_conv); the grid must match the
        0-D analytic answer exactly for uniform inputs.
        """
        h = 250.0
        net = simple_network(h=h)
        la = net.layers[0]
        p_total = 10.0
        pm = np.full((4, 4), p_total / 16.0)
        res = net.solve({"slab": pm})
        area = la.outline.area
        r_half = la.half_resistance_m2kw / area
        r_conv = 1.0 / (h * area)
        expected = 25.0 + p_total * (r_half + r_conv)
        np.testing.assert_allclose(res.layer("slab"), expected, rtol=1e-9)

    def test_zero_power_is_ambient(self):
        net = simple_network()
        res = net.solve({})
        np.testing.assert_allclose(res.layer("slab"), 25.0, atol=1e-9)

    def test_superposition(self):
        """The network is linear: T(P1+P2) - T_amb = sum of rises."""
        net = simple_network()
        p1 = np.zeros((4, 4)); p1[0, 0] = 5.0
        p2 = np.zeros((4, 4)); p2[3, 3] = 7.0
        t1 = net.solve({"slab": p1}).layer("slab") - 25.0
        t2 = net.solve({"slab": p2}).layer("slab") - 25.0
        t12 = net.solve({"slab": p1 + p2}).layer("slab") - 25.0
        np.testing.assert_allclose(t12, t1 + t2, rtol=1e-9)

    def test_heat_balance_exact(self):
        net = simple_network()
        pm = {"slab": np.random.default_rng(0).random((4, 4))}
        res = net.solve(pm)
        inj, ext = net.heat_balance(pm, res)
        assert ext == pytest.approx(inj, rel=1e-9)

    def test_hot_spot_is_where_power_is(self):
        net = simple_network()
        pm = np.zeros((4, 4)); pm[1, 2] = 3.0
        field = net.solve({"slab": pm}).layer("slab")
        iy, ix = np.unravel_index(np.argmax(field), field.shape)
        assert (ix, iy) == (2, 1)

    def test_more_power_hotter_everywhere(self):
        net = simple_network()
        lo = net.solve({"slab": np.full((4, 4), 0.1)}).layer("slab")
        hi = net.solve({"slab": np.full((4, 4), 0.2)}).layer("slab")
        assert np.all(hi > lo)

    def test_higher_h_cooler(self):
        pm = np.full((4, 4), 1.0)
        t_lo_h = simple_network(h=50.0).solve({"slab": pm}).max_of("slab")
        t_hi_h = simple_network(h=500.0).solve({"slab": pm}).max_of("slab")
        assert t_hi_h < t_lo_h

    def test_negative_power_rejected(self):
        net = simple_network()
        bad = np.zeros((4, 4)); bad[0, 0] = -1.0
        with pytest.raises(ThermalModelError, match="negative"):
            net.solve({"slab": bad})

    def test_wrong_shape_rejected(self):
        net = simple_network()
        with pytest.raises(ThermalModelError, match="must be"):
            net.solve({"slab": np.zeros((3, 3))})

    def test_unknown_layer_rejected(self):
        net = simple_network()
        with pytest.raises(ThermalModelError, match="no layer"):
            net.solve({"ghost": np.zeros((4, 4))})

    @given(st.floats(min_value=20.0, max_value=1500.0),
           st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_energy_conservation_property(self, h: float, p: float):
        net = simple_network(h=h)
        pm = {"slab": np.full((4, 4), p / 16.0)}
        res = net.solve(pm)
        inj, ext = net.heat_balance(pm, res)
        assert ext == pytest.approx(inj, rel=1e-8)


class TestTwoLayers:
    def make(self, r_int=1e-5, h=500.0):
        a = slab("a", mat=SILICON, t=5e-4)
        b = slab("b", mat=COPPER, t=1e-3)
        return ThermalNetwork(
            [a, b], [Interface("a", "b", r_int)],
            [Boundary("b", "top", h)])

    def test_series_resistance_uniform(self):
        """Uniform 1-D stack matches hand-computed series resistances."""
        net = self.make()
        area = 0.01 ** 2
        p = 8.0
        pm = np.full((4, 4), p / 16.0)
        res = net.solve({"a": pm})
        a, b = net.layers
        r = (a.half_resistance_m2kw + 1e-5 + b.half_resistance_m2kw
             + b.half_resistance_m2kw) / area + 1.0 / (500.0 * area)
        expected_a = 25.0 + p * r
        np.testing.assert_allclose(res.layer("a"), expected_a, rtol=1e-9)

    def test_lower_layer_hotter(self):
        net = self.make()
        pm = np.full((4, 4), 0.5)
        res = net.solve({"a": pm})
        assert res.max_of("a") > res.max_of("b")

    def test_bigger_interface_resistance_hotter_source(self):
        pm = np.full((4, 4), 0.5)
        t_small = self.make(r_int=1e-6).solve({"a": pm}).max_of("a")
        t_big = self.make(r_int=1e-4).solve({"a": pm}).max_of("a")
        assert t_big > t_small

    def test_mismatched_grids_conserve_energy(self):
        a = slab("a", n=5)
        b = slab("b", n=3, mat=COPPER)
        net = ThermalNetwork([a, b], [Interface("a", "b", 2e-5)],
                             [Boundary("b", "top", 300.0)])
        pm = {"a": np.random.default_rng(1).random((5, 5))}
        res = net.solve(pm)
        inj, ext = net.heat_balance(pm, res)
        assert ext == pytest.approx(inj, rel=1e-9)

    def test_non_overlapping_layers_rejected(self):
        a = slab("a")
        b = GridLayer("b", Rect(1.0, 1.0, 0.01, 0.01), 1e-3, COPPER, 4, 4)
        net = ThermalNetwork([a, b], [Interface("a", "b", 1e-5)],
                             [Boundary("b", "top", 300.0)])
        with pytest.raises(ThermalModelError, match="overlap"):
            net.solve({})

    def test_result_queries(self):
        net = self.make()
        res = net.solve({"a": np.full((4, 4), 0.5)})
        assert res.layer_names == ("a", "b")
        assert res.global_max() == res.max_over(["a", "b"])
        with pytest.raises(ThermalModelError):
            res.layer("ghost")
        with pytest.raises(ThermalModelError):
            res.max_over([])

    def test_node_index_bounds(self):
        net = self.make()
        assert net.node_index("a", 0, 0) == 0
        assert net.node_index("b", 0, 0) == 16
        with pytest.raises(ThermalModelError):
            net.node_index("a", 4, 0)

    def test_capacitance_vector_positive(self):
        net = self.make()
        caps = net.capacitance_vector()
        assert caps.shape == (32,)
        assert np.all(caps > 0)

    def test_anisotropic_lateral_conductivity(self):
        """A lateral-k override spreads a point source better."""
        def max_t(k_lat):
            a = slab("a", k_lateral_w_mk=k_lat)
            net = ThermalNetwork([a], [], [Boundary("a", "top", 100.0)])
            pm = np.zeros((4, 4)); pm[2, 2] = 4.0
            return net.solve({"a": pm}).max_of("a")
        assert max_t(1000.0) < max_t(10.0)


class TestAssemblyOnly:
    def test_assembly_queries_do_not_factorize(self, monkeypatch):
        """G, its boundary terms and the heat balance need no LU (the
        structured die-stack solver reads G and never factorizes)."""
        import repro.thermal.network as netmod

        def no_splu(g):
            raise AssertionError("assembly queries must not factorize")

        monkeypatch.setattr(netmod, "splu", no_splu)
        net = simple_network(t_amb=30.0)
        assert net.conductance_matrix().shape == (16, 16)
        bg = net.boundary_conductances()
        np.testing.assert_allclose(net.boundary_source(), 30.0 * bg)
        at_ambient = ThermalResult({"slab": np.full((4, 4), 30.0)})
        inj, ext = net.heat_balance({}, at_ambient)
        assert inj == 0.0 and ext == pytest.approx(0.0, abs=1e-12)


class TestSingularDetection:
    """Both singular-matrix detection paths, pinned independently.

    A real floating island usually trips the ``splu`` RuntimeError
    path, but on some pivot orderings the factorization "succeeds" and
    only the probe solve catches it — so each path gets its own test
    with the scipy layer stubbed.
    """

    def test_splu_exception_path(self, monkeypatch):
        import repro.thermal.network as netmod

        def raising_splu(g):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(netmod, "splu", raising_splu)
        net = simple_network()
        with pytest.raises(SingularNetworkError,
                           match="connected to a boundary"):
            net.solve({})

    def test_probe_solve_nonfinite_path(self, monkeypatch):
        import repro.thermal.network as netmod

        class FakeLU:
            def solve(self, rhs):
                return np.full_like(rhs, np.inf)

        monkeypatch.setattr(netmod, "splu", lambda g: FakeLU())
        net = simple_network()
        with pytest.raises(SingularNetworkError,
                           match="no .*path to any boundary"):
            net.solve({})

    def test_probe_solve_enormous_path(self, monkeypatch):
        import repro.thermal.network as netmod

        class FakeLU:
            def solve(self, rhs):
                return np.full_like(rhs, 1e13)

        monkeypatch.setattr(netmod, "splu", lambda g: FakeLU())
        net = simple_network()
        with pytest.raises(SingularNetworkError):
            net.solve({})

    def test_healthy_network_passes_probe(self):
        net = simple_network()
        res = net.solve({"slab": np.ones((4, 4))})
        assert np.all(np.isfinite(res.layer("slab")))


class TestNonFinitePowerGuard:
    def test_nan_power_rejected(self):
        net = simple_network()
        bad = np.ones((4, 4)); bad[1, 1] = np.nan
        with pytest.raises(ThermalModelError, match="non-finite"):
            net.solve({"slab": bad})

    def test_inf_power_rejected(self):
        net = simple_network()
        bad = np.ones((4, 4)); bad[2, 0] = np.inf
        with pytest.raises(ThermalModelError, match="non-finite"):
            net.solve({"slab": bad})


class TestSolveMany:
    def test_matches_column_by_column(self):
        """One (n, k) block through the factor == k separate solves."""
        net = simple_network()
        rng = np.random.default_rng(7)
        powers = [{"slab": rng.uniform(0.0, 2.0, (4, 4))}
                  for _ in range(5)]
        batched = net.solve_many(powers)
        assert len(batched) == len(powers)
        for maps, res in zip(powers, batched):
            single = net.solve(maps)
            np.testing.assert_allclose(res.layer("slab"),
                                       single.layer("slab"),
                                       rtol=0, atol=1e-12)

    def test_empty_batch(self):
        assert simple_network().solve_many([]) == []

    def test_single_item_batch_matches_solve(self):
        net = simple_network()
        maps = {"slab": np.ones((4, 4))}
        np.testing.assert_allclose(
            net.solve_many([maps])[0].layer("slab"),
            net.solve(maps).layer("slab"), rtol=0, atol=1e-12)

    def test_batch_shares_input_guards(self):
        net = simple_network()
        bad = np.ones((4, 4)); bad[0, 0] = np.nan
        with pytest.raises(ThermalModelError, match="non-finite"):
            net.solve_many([{"slab": np.ones((4, 4))}, {"slab": bad}])
