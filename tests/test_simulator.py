"""Tests for the full-system simulator and the analytic tier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.perfsim import (
    AnalyticModel,
    FullSystemSimulator,
    SystemConfig,
    get_profile,
    simulate_npb,
)
from repro.perfsim.npb import NPB_ORDER
from repro.perfsim.system import CmpSystem, config_for_stack
from repro.power.processors import get_chip
from repro.units import ghz

FAST = 20_000   # instructions per thread for quick runs


@pytest.fixture(scope="module")
def cfg2():
    return SystemConfig(n_chips=2)


class TestSystemAssembly:
    def test_total_cores(self):
        assert SystemConfig(n_chips=6).total_cores == 24
        assert SystemConfig(n_chips=8).total_cores == 32

    def test_core_nodes_bottom_row(self, cfg2):
        sys = CmpSystem(cfg2)
        assert len(sys.core_nodes) == 8
        assert all(n.y == 0 for n in sys.core_nodes)

    def test_bank_nodes_disjoint_from_cores(self, cfg2):
        sys = CmpSystem(cfg2)
        assert not set(sys.core_nodes) & set(sys.bank_nodes)
        assert len(sys.bank_nodes) == 24   # 2 chips x 12 banks

    def test_mem_nodes_on_bottom_tier(self, cfg2):
        sys = CmpSystem(cfg2)
        assert all(n.chip == 0 for n in sys.mem_nodes)
        assert len(sys.mem_nodes) == 4

    def test_home_interleaving_covers_banks(self, cfg2):
        sys = CmpSystem(cfg2)
        homes = {sys.home_for(line * 64) for line in range(100)}
        assert len(homes) == len(sys.bank_nodes)

    def test_config_for_stack(self):
        chip = get_chip("low-power-cmp")
        cfg = config_for_stack(chip, 6)
        assert cfg.n_chips == 6
        assert cfg.cores_per_chip == 4

    def test_too_many_cores_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            SystemConfig(n_chips=1, cores_per_chip=20)


class TestFullSystemSimulator:
    def test_completes_and_reports(self, cfg2):
        r = simulate_npb("mg", cfg2, ghz(2.0), seed=1,
                         instructions_per_thread=FAST)
        assert r.exec_time_s > 0
        # Threads execute whole barrier episodes, so the retired count
        # approximates (not exactly equals) the requested budget.
        assert r.instructions > 0.5 * 8 * FAST
        assert r.noc_packets > 0
        assert r.dram_requests > 0
        assert r.barriers >= 1

    def test_deterministic_given_seed(self, cfg2):
        a = simulate_npb("cg", cfg2, ghz(2.0), seed=9,
                         instructions_per_thread=FAST)
        b = simulate_npb("cg", cfg2, ghz(2.0), seed=9,
                         instructions_per_thread=FAST)
        assert a.exec_time_s == b.exec_time_s
        assert a.noc_packets == b.noc_packets

    def test_seed_changes_result(self, cfg2):
        a = simulate_npb("cg", cfg2, ghz(2.0), seed=1,
                         instructions_per_thread=FAST)
        b = simulate_npb("cg", cfg2, ghz(2.0), seed=2,
                         instructions_per_thread=FAST)
        assert a.exec_time_s != b.exec_time_s

    def test_higher_frequency_faster(self, cfg2):
        slow = simulate_npb("ft", cfg2, ghz(1.2), seed=3,
                            instructions_per_thread=FAST)
        fast = simulate_npb("ft", cfg2, ghz(2.0), seed=3,
                            instructions_per_thread=FAST)
        assert fast.exec_time_s < slow.exec_time_s

    def test_frequency_scaling_sublinear_for_memory_bound(self, cfg2):
        f1, f2 = ghz(1.2), ghz(2.4)
        r1 = simulate_npb("is", cfg2, f1, seed=4,
                          instructions_per_thread=FAST)
        r2 = simulate_npb("is", cfg2, f2, seed=4,
                          instructions_per_thread=FAST)
        speedup = r1.exec_time_s / r2.exec_time_s
        assert 1.0 < speedup < 2.0   # < ideal 2.0: DRAM time is fixed

    def test_ep_scaling_near_ideal(self, cfg2):
        r1 = simulate_npb("ep", cfg2, ghz(1.2), seed=4,
                          instructions_per_thread=FAST)
        r2 = simulate_npb("ep", cfg2, ghz(2.4), seed=4,
                          instructions_per_thread=FAST)
        speedup = r1.exec_time_s / r2.exec_time_s
        assert speedup > 1.85

    def test_memory_bound_fraction_ordering(self, cfg2):
        ep = simulate_npb("ep", cfg2, ghz(2.0), seed=5,
                          instructions_per_thread=FAST)
        cg = simulate_npb("cg", cfg2, ghz(2.0), seed=5,
                          instructions_per_thread=FAST)
        assert cg.memory_bound_fraction > ep.memory_bound_fraction

    def test_thread_count_override(self, cfg2):
        r = FullSystemSimulator(cfg2, get_profile("ep"), ghz(2.0),
                                threads=4, seed=1,
                                instructions_per_thread=FAST).run()
        assert r.instructions >= 4 * FAST

    def test_invalid_thread_count(self, cfg2):
        with pytest.raises(SimulationError):
            FullSystemSimulator(cfg2, get_profile("ep"), ghz(2.0),
                                threads=0)
        with pytest.raises(SimulationError):
            FullSystemSimulator(cfg2, get_profile("ep"), ghz(2.0),
                                threads=100)


class TestAnalyticModel:
    def test_relative_time_identity(self, cfg2):
        m = AnalyticModel(cfg2)
        assert m.relative_time(get_profile("cg"), ghz(2.0), ghz(2.0)) == 1.0

    def test_higher_frequency_never_slower(self, cfg2):
        m = AnalyticModel(cfg2)
        for name in ("bt", "cg", "ep", "is", "mg"):
            rel = m.relative_time(get_profile(name), ghz(2.0), ghz(1.2))
            assert rel < 1.0

    def test_speedup_bounded_by_frequency_ratio(self, cfg2):
        m = AnalyticModel(cfg2)
        for name in ("bt", "cg", "ep", "is", "mg", "sp", "ua", "lu", "ft"):
            rel = m.relative_time(get_profile(name), ghz(2.4), ghz(1.2))
            assert rel >= 1.2 / 2.4 - 1e-9

    def test_ep_compresses_least(self, cfg2):
        m = AnalyticModel(cfg2)
        rels = {name: m.relative_time(get_profile(name), ghz(2.4), ghz(1.2))
                for name in ("ep", "cg", "is")}
        assert rels["ep"] < rels["cg"]
        assert rels["ep"] < rels["is"]

    def test_breakdown_beta_in_unit_interval(self, cfg2):
        m = AnalyticModel(cfg2)
        for name in ("ep", "cg"):
            b = m.breakdown(get_profile(name), ghz(2.0))
            assert 0.0 <= b.memory_bound_fraction < 1.0

    def test_imbalance_factor_grows_with_threads(self):
        cfg = SystemConfig(n_chips=8)
        few = AnalyticModel(cfg, threads=2)
        many = AnalyticModel(cfg, threads=32)
        p = get_profile("ua")
        assert (many.breakdown(p, ghz(2.0)).imbalance_factor
                > few.breakdown(p, ghz(2.0)).imbalance_factor)

    @pytest.mark.parametrize("threads", (1, 2, 3, 16, 64, 1024))
    def test_imbalance_factor_matches_the_direct_expression(self, threads):
        """The memoized factor is the scipy expression, bit for bit, on
        its first and on a repeated query."""
        from scipy.stats import norm
        model = AnalyticModel(SystemConfig(n_chips=2), threads=threads)
        for name in NPB_ORDER:
            p = get_profile(name)
            cv = p.imbalance_cv
            if cv <= 0 or threads == 1:
                expected = 1.0
            else:
                sigma = float(np.sqrt(np.log(1.0 + cv * cv)))
                q = norm.ppf(threads / (threads + 1.0))
                expected = float(np.exp(sigma * q - 0.5 * sigma * sigma))
            for _ in range(2):
                got = model.breakdown(p, ghz(2.0)).imbalance_factor
                assert got == expected, (name, threads)

    def test_invalid_frequency_rejected(self, cfg2):
        with pytest.raises(SimulationError):
            AnalyticModel(cfg2).breakdown(get_profile("cg"), 0.0)

    def test_agrees_with_event_tier_on_scaling(self, cfg2):
        """The two tiers must agree on T(f1)/T(f2) within ~7%."""
        m = AnalyticModel(cfg2)
        for name in ("ep", "cg", "mg"):
            rel_a = m.relative_time(get_profile(name), ghz(2.0), ghz(1.2))
            e_hi = simulate_npb(name, cfg2, ghz(2.0), seed=6,
                                instructions_per_thread=FAST)
            e_lo = simulate_npb(name, cfg2, ghz(1.2), seed=6,
                                instructions_per_thread=FAST)
            rel_e = e_hi.exec_time_s / e_lo.exec_time_s
            assert rel_a == pytest.approx(rel_e, abs=0.07)
