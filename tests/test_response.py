"""Superposition kernel: the shared stack factors.

The factored query's contract has three legs, each pinned here:

* *exactness* — for the linear (temperature-independent) power model,
  a query must match :meth:`ThermalNetwork.solve` to tight tolerance
  for arbitrary block power vectors, any rotation schedule, and every
  coolant;
* *sharing* — the cooling enters the network only in its package
  block, so one die factor serves every coolant, and a cold grid builds
  one die factor per stack height and one package factor per point;
* *determinism* — batched and scalar queries are bitwise identical,
  and campaign checkpoints are byte-identical at every worker count and
  BLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cooling.options import get_cooling
from repro.core.campaign import CampaignRunner, frequency_grid
from repro.core.feedback import solve_with_leakage_feedback
from repro.core.sweeps import h_sweep_cooling
from repro.errors import SingularNetworkError, ThermalModelError
from repro.obs import get_registry
from repro.power.processors import get_chip
from repro.stack.chipstack import StackConfig, flip_even_layers
from repro.thermal import response
from repro.thermal.hotspot import ThermalModel, model_cache
from repro.thermal.network import ThermalNetwork
from repro.thermal.package import (DEFAULT_PACKAGE, build_network,
                                   build_package_network, die_layer_names)
from repro.thermal.response import (DISABLE_ENV, block_power_vector,
                                    configure, factor_keys, response_cache)
from repro.thermal.stacksolve import PackageBlock, PackageFactor

ALL_COOLINGS = ("air", "water_pipe", "mineral_oil", "fluorinert", "water")
#: Fig. 14's sweep coolants (the h values its figure script uses).
SWEEP_H = (14.0, 60.0, 160.0, 180.0, 400.0, 800.0, 1600.0)


def _counters() -> dict:
    return dict(get_registry().snapshot()["counters"])


def _moved(before: dict, prefix: str) -> dict:
    """Counters under ``prefix`` that changed since ``before``."""
    after = _counters()
    return {k: after.get(k, 0) - before.get(k, 0)
            for k in set(before) | set(after)
            if k.startswith(prefix) and after.get(k, 0) != before.get(k, 0)}


def _sparse_fields(network, stack, params, p):
    """Flat die temperatures (die-major) via the sparse path for an
    arbitrary power vector."""
    fps = stack.die_floorplans()
    nb = len(fps[0].blocks)
    maps = {}
    for i, (die, fp) in enumerate(zip(die_layer_names(stack), fps)):
        seg = p[i * nb:(i + 1) * nb]
        watts = {b.name: float(w) for b, w in zip(fp.blocks, seg)}
        maps[die] = fp.power_map(watts, params.die_grid, params.die_grid)
    res = network.solve(maps)
    return np.concatenate([res.layer(d).ravel()
                           for d in die_layer_names(stack)])


def _per_die_max(stack, t):
    return tuple(float(row.max()) for row in t.reshape(stack.n_chips, -1))


def _sparse_reference(stack, cooling, params, p):
    """Per-die maxima via the sparse path for an arbitrary power vector."""
    return _per_die_max(stack, _sparse_fields(
        build_network(stack, cooling, params), stack, params, p))


#: Stacks checked against the sparse solve: (height, rotation schedule,
#: (die_grid, package_grid) or None for ``fast_params``). The ids
#: "False" / "True" are the uniform and flipped 3-stacks by their
#: original names.
STACK_CASES = (
    pytest.param(3, "uniform", None, id="False"),
    pytest.param(3, "flipped", None, id="True"),
    pytest.param(1, "uniform", None, id="h1"),
    pytest.param(9, "random", None, id="h9-random"),
    pytest.param(15, "random", None, id="h15-random"),
    pytest.param(6, "random", (12, 5), id="h6-random-grid12x5"),
)


class TestExactness:
    """The factored query against the sparse solver — the kernel's
    admission gate."""

    @pytest.mark.parametrize("cooling_name", ALL_COOLINGS)
    @pytest.mark.parametrize("n_chips,schedule,grids", STACK_CASES)
    def test_random_power_maps_match_sparse(self, cooling_name, n_chips,
                                            schedule, grids, fast_params):
        chip = get_chip("low-power-cmp")
        rng = np.random.default_rng(2019)
        if schedule == "random":
            flips = np.random.default_rng(n_chips).integers(0, 2, n_chips)
            rotations = tuple(bool(r) for r in flips)
        else:
            rotations = (flip_even_layers(chip, n_chips).rotations
                         if schedule == "flipped" else ())
        stack = StackConfig(chip=chip, n_chips=n_chips, rotations=rotations)
        params = (fast_params if grids is None else
                  replace(fast_params, die_grid=grids[0],
                          package_grid=grids[1]))
        cooling = get_cooling(cooling_name)
        model = ThermalModel(stack, cooling, params)
        n_cols = n_chips * len(chip.floorplan().blocks)
        for _ in range(3):
            p = rng.uniform(0.0, 2.0, size=n_cols)
            got = _per_die_max(stack, model.temperatures(p))
            want = _sparse_reference(stack, cooling, params, p)
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("cooling_name", ("air", "water_pipe", "water"))
    def test_t0_is_the_ambient(self, cooling_name, fast_params):
        """With no power injected every die sits at the ambient."""
        stack = flip_even_layers(get_chip("low-power-cmp"), 6)
        model = ThermalModel(stack, get_cooling(cooling_name), fast_params)
        t0 = model.temperatures(np.zeros(block_power_vector(stack, 1e9).size))
        np.testing.assert_allclose(t0, fast_params.ambient_c,
                                   rtol=0, atol=1e-9)

    def test_dies_without_a_shared_lateral_block_are_rejected(
            self, fast_params):
        """The die factor checks the die structure instead of assuming
        it: one die with another in-plane conductivity is a network it
        cannot solve."""
        stack = StackConfig(chip=get_chip("low-power-cmp"), n_chips=3)
        net = build_network(stack, get_cooling("water"), fast_params)
        layers = [replace(la, k_lateral_w_mk=la.k_lateral * 1.5)
                  if la.name == "die1" else la for la in net.layers]
        odd = ThermalNetwork(layers, net.interfaces, net.boundaries)
        with pytest.raises(ThermalModelError, match="lateral"):
            response._die_factor(stack, fast_params, odd)

    def test_floating_die_stack_is_singular(self, fast_params):
        """Dies with no path to the package have no steady state."""
        stack = StackConfig(chip=get_chip("low-power-cmp"), n_chips=2)
        net = build_network(stack, get_cooling("water"), fast_params)
        dies = {"die0", "die1"}
        inside = [itf for itf in net.interfaces
                  if (itf.lower in dies) == (itf.upper in dies)]
        floating = ThermalNetwork(net.layers, inside, net.boundaries)
        with pytest.raises(SingularNetworkError):
            response._die_factor(stack, fast_params, floating)

    def test_package_of_another_geometry_is_rejected(self, fast_params):
        """A package factor pairs only with the package its die factor
        was read from, even one condensed onto that package's own
        ports."""
        stack = StackConfig(chip=get_chip("low-power-cmp"), n_chips=2)
        water = get_cooling("water")
        die = response._die_factor(
            stack, fast_params, build_network(stack, water, fast_params))
        coarser = replace(fast_params, package_grid=3)
        ports = response._die_factor(
            stack, coarser, build_network(stack, water, coarser)).ports
        with pytest.raises(ThermalModelError, match="package layers"):
            PackageFactor(die, PackageBlock(
                build_package_network(stack, water, coarser), ports))

    def test_package_condensed_onto_other_ports_is_rejected(
            self, fast_params):
        """A block condensed onto other ports than the die factor
        couples to is refused, and so is a port set that is not an
        ascending proper subset of the package's node numbers."""
        stack = StackConfig(chip=get_chip("low-power-cmp"), n_chips=2)
        water = get_cooling("water")
        die = response._die_factor(
            stack, fast_params, build_network(stack, water, fast_params))
        package = build_package_network(stack, water, fast_params)
        with pytest.raises(ThermalModelError, match="other ports"):
            PackageFactor(die, PackageBlock(package, die.ports[:-1]))
        n = package.num_nodes
        for ports in (die.ports[::-1], die.ports + 0.5, np.arange(n),
                      np.array([0, n]), np.array([], dtype=int)):
            with pytest.raises(ThermalModelError, match="ports"):
                PackageBlock(package, ports)

    def test_dies_out_of_node_order_are_rejected(self, fast_params):
        """The die factor slices the dies' rows as one contiguous run;
        a network that numbers a package layer between two dies is
        refused, not permuted."""
        stack = StackConfig(chip=get_chip("low-power-cmp"), n_chips=2)
        net = build_network(stack, get_cooling("water"), fast_params)
        order = ("board", "substrate", "die0", "spreader", "die1", "sink")
        layers = sorted(net.layers, key=lambda la: order.index(la.name))
        odd = ThermalNetwork(layers, net.interfaces, net.boundaries)
        with pytest.raises(ThermalModelError, match="contiguous"):
            response._die_factor(stack, fast_params, odd)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, -50.0),
                             ids=("nan", "inf", "-inf", "negative"))
    def test_unphysical_block_powers_are_refused(self, bad, fast_params):
        """The factored query refuses what the sparse reference refuses,
        by name and before any arithmetic (no RuntimeWarning), not as a
        singular network."""
        chip = get_chip("low-power-cmp")
        stack = StackConfig(chip=chip, n_chips=2)
        model = ThermalModel(stack, get_cooling("water"), fast_params)
        p = block_power_vector(stack, 2e9).copy()
        p[5] = bad
        want = "negative" if bad == -50.0 else "non-finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ThermalModelError, match=want) as info:
                model.temperatures(p)
        assert not isinstance(info.value, SingularNetworkError)

    @pytest.mark.parametrize("cooling_name", ("air", "water_pipe", "water"))
    @pytest.mark.parametrize("chip_name,n_chips,flip", (
        ("xeon-e5-2667v4", 1, False), ("xeon-e5-2667v4", 3, True),
        ("xeon-phi-7290", 1, False), ("xeon-phi-7290", 2, True)))
    def test_die_fields_match_sparse_with_more_ports(
            self, chip_name, n_chips, flip, cooling_name):
        """The Xeons couple to more package cells than the CMPs (24 and
        48 ports at the default grids): whole die fields against the
        sparse solve."""
        chip = get_chip(chip_name)
        stack = (flip_even_layers(chip, n_chips) if flip
                 else StackConfig(chip=chip, n_chips=n_chips))
        cooling = get_cooling(cooling_name)
        model = ThermalModel(stack, cooling)
        network = build_network(stack, cooling)
        rng = np.random.default_rng(n_chips)
        n_cols = n_chips * len(chip.floorplan().blocks)
        for _ in range(2):
            p = rng.uniform(0.0, 2.0, size=n_cols)
            want = _sparse_fields(network, stack, DEFAULT_PACKAGE, p)
            np.testing.assert_allclose(model.temperatures(p), want,
                                       rtol=0, atol=1e-9)

    def test_ladder_queries_match_sparse_fallback(self, fast_params,
                                                  monkeypatch):
        chip = get_chip("low-power-cmp")
        stack = StackConfig(chip=chip, n_chips=4)
        cooling = get_cooling("water")
        freqs = [float(f) for f in chip.ladder.frequencies()]

        monkeypatch.setenv(DISABLE_ENV, "1")
        before = _counters()
        sparse = ThermalModel(stack, cooling, fast_params)
        want = sparse.max_temperatures_many(freqs)
        want_fields = sparse.die_temperature_fields(freqs[0])
        assert _moved(before, "response.") == {}

        monkeypatch.delenv(DISABLE_ENV)
        factored = ThermalModel(stack, cooling, fast_params)
        got = factored.max_temperatures_many(freqs)
        assert got == pytest.approx(want, abs=1e-9)
        got_fields = factored.die_temperature_fields(freqs[0])
        for name in want_fields:
            np.testing.assert_allclose(got_fields[name],
                                       want_fields[name], atol=1e-9)

    def test_batched_equals_scalar_bitwise(self, lp_water_4):
        """The byte-identity guarantee rides on this being *exact*."""
        freqs = [float(f)
                 for f in lp_water_4.stack.chip.ladder.frequencies()]
        batched = lp_water_4.max_temperatures_many(freqs)
        scalar = tuple(lp_water_4.max_temperature_c(f) for f in freqs)
        assert batched == scalar          # bitwise, not approx
        fresh = ThermalModel(lp_water_4.stack, lp_water_4.cooling,
                             lp_water_4.params)
        assert tuple(fresh.max_temperature_c(f) for f in freqs) == batched

    def test_feedback_fixed_point_matches_sparse(self, fast_params,
                                                 monkeypatch):
        chip = get_chip("low-power-cmp")
        stack = StackConfig(chip=chip, n_chips=3)
        cooling = get_cooling("water")
        f = chip.ladder.f_max_hz

        monkeypatch.setenv(DISABLE_ENV, "1")
        want = solve_with_leakage_feedback(
            ThermalModel(stack, cooling, fast_params), f)
        monkeypatch.delenv(DISABLE_ENV)
        got = solve_with_leakage_feedback(
            ThermalModel(stack, cooling, fast_params), f)
        assert not got.runaway
        assert got.max_temp_c == pytest.approx(want.max_temp_c, abs=1e-6)
        assert got.one_shot_temp_c == pytest.approx(want.one_shot_temp_c,
                                                    abs=1e-6)
        assert got.chip_power_w == pytest.approx(want.chip_power_w,
                                                 abs=1e-9)


class TestDerivatives:
    """The die temperatures are affine in the block powers, so a unit
    step in one block is an exact difference: the factored query's
    response to each block must be the sparse solve's."""

    @pytest.mark.parametrize("chip_name,n_chips", (
        ("low-power-cmp", 2), ("xeon-phi-7290", 1)))
    def test_response_to_each_block_matches_sparse(self, chip_name, n_chips,
                                                   fast_params):
        stack = StackConfig(chip=get_chip(chip_name), n_chips=n_chips)
        cooling = get_cooling("water")
        model = ThermalModel(stack, cooling, fast_params)
        network = build_network(stack, cooling, fast_params)
        p = block_power_vector(stack, stack.chip.ladder.f_max_hz)
        got0 = model.temperatures(p)
        want0 = _sparse_fields(network, stack, fast_params, p)
        for j in range(p.size):
            step = p.copy()
            step[j] += 1.0
            got = model.temperatures(step) - got0
            want = _sparse_fields(network, stack, fast_params, step) - want0
            assert got.max() > 0.0, j
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9,
                                       err_msg=f"block {j}")


class TestCondensation:
    """Each coolant's package is condensed onto the ports the dies
    couple to, so a package factor is ports x ports."""

    @pytest.mark.parametrize("chip_name,n_ports", (
        ("low-power-cmp", 20), ("high-frequency-cmp", 20),
        ("xeon-e5-2667v4", 24), ("xeon-phi-7290", 48)))
    def test_factor_and_block_sizes(self, chip_name, n_ports):
        """The die factor's ``W`` and the package factor's LU are
        ports x ports, a block holds nothing larger than ports² plus
        its sources, and the ports do not follow the stack height, so
        one block serves every height."""
        chip = get_chip(chip_name)
        water = get_cooling("water")
        ports = []
        for h in (1, 2, 5):
            stack = StackConfig(chip=chip, n_chips=h)
            die = response._die_factor(
                stack, DEFAULT_PACKAGE, build_network(stack, water))
            block = PackageBlock(build_package_network(stack, water),
                                 die.ports)
            factor = PackageFactor(die, block)
            ports.append(die.ports)
            assert die.ports.size == n_ports
            assert die.w.shape == (n_ports, n_ports)
            assert factor._lu.shape == (n_ports, n_ports)
            arrays = [a for a in vars(block).values()
                      if isinstance(a, np.ndarray)]
            assert max(a.size for a in arrays) <= n_ports ** 2
            assert sum(a.size for a in arrays) <= n_ports ** 2 + 2 * n_ports
            assert not any(a.flags.writeable for a in arrays)
        assert all(np.array_equal(ports[0], other) for other in ports[1:])


def _blocks(stack, cooling, params=DEFAULT_PACKAGE):
    """The network's G in (die, package) order, split into blocks, and
    the die part of its boundary source."""
    net = build_network(stack, cooling, params)
    m = params.die_grid ** 2
    die_idx = np.concatenate([net.node_index(name, 0, 0) + np.arange(m)
                              for name in die_layer_names(stack)])
    pkg_idx = np.setdiff1d(np.arange(net.num_nodes), die_idx)
    g = net.conductance_matrix().tocsr()
    return ({"dd": g[die_idx][:, die_idx], "dp": g[die_idx][:, pkg_idx],
             "pd": g[pkg_idx][:, die_idx], "pp": g[pkg_idx][:, pkg_idx]},
            net.boundary_source()[die_idx])


def _bitwise_equal(a, b) -> bool:
    a, b = a.tocsr(), b.tocsr()
    a.sort_indices()
    b.sort_indices()
    return (np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and a.data.tobytes() == b.data.tobytes())


class TestSharingPremise:
    """The cooling reaches only the package block of G: the premise
    that lets one die factor serve every coolant."""

    @pytest.mark.parametrize("flip", (False, True), ids=("plain", "flip"))
    @pytest.mark.parametrize("chip_name", ("low-power-cmp",
                                           "xeon-phi-7290"))
    def test_coolants_differ_only_in_the_package_block(self, chip_name,
                                                       flip):
        chip = get_chip(chip_name)
        stack = (flip_even_layers(chip, 4) if flip
                 else StackConfig(chip=chip, n_chips=4))
        coolings = ([get_cooling(c) for c in ALL_COOLINGS]
                    + [h_sweep_cooling(h) for h in SWEEP_H])
        ref, ref_source = _blocks(stack, coolings[0])
        package_moved = False
        for cooling in coolings[1:]:
            blocks, source = _blocks(stack, cooling)
            assert _bitwise_equal(blocks["dd"], ref["dd"]), cooling.name
            assert _bitwise_equal(blocks["dp"], ref["dp"]), cooling.name
            assert _bitwise_equal(blocks["pd"], ref["pd"]), cooling.name
            assert source.tobytes() == ref_source.tobytes(), cooling.name
            package_moved |= not _bitwise_equal(blocks["pp"], ref["pp"])
        assert package_moved

    @pytest.mark.parametrize("cooling_name", ALL_COOLINGS)
    def test_package_network_is_the_package_block(self, cooling_name):
        """The package layers alone give the full network's package
        block, less the die interfaces' share of its diagonal."""
        stack = flip_even_layers(get_chip("low-power-cmp"), 3)
        cooling = get_cooling(cooling_name)
        blocks, _ = _blocks(stack, cooling)
        package = build_package_network(stack, cooling)
        die_share = -np.asarray(blocks["dp"].sum(axis=0)).ravel()
        got = package.conductance_matrix().toarray() + np.diag(die_share)
        want = blocks["pp"].toarray()
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


class TestFactorCache:
    """Both factor kinds live in the bounded response cache, keyed by
    value."""

    def test_keys_follow_the_geometry_not_the_power_model(self,
                                                          fast_params):
        chip = get_chip("low-power-cmp")
        water = get_cooling("water")
        die, package = factor_keys(StackConfig(chip, 3), water, fast_params)
        # an equal but distinct PackageParams object, a hotter chip and
        # the other CMP (one floorplan) share both keys
        hotter = replace(chip, max_power_w=chip.max_power_w * 2)
        for stack, params in ((StackConfig(chip, 3), replace(fast_params)),
                              (StackConfig(hotter, 3), fast_params),
                              (StackConfig(get_chip("high-frequency-cmp"),
                                           3), fast_params)):
            assert factor_keys(stack, water, params) == (die, package)
        # a coolant moves the package key only
        air_die, air_package = factor_keys(StackConfig(chip, 3),
                                           get_cooling("air"), fast_params)
        assert air_die == die and air_package != package
        # the die geometry moves both
        for stack, params in ((StackConfig(chip, 4), fast_params),
                              (flip_even_layers(chip, 3), fast_params),
                              (StackConfig(chip, 3),
                               replace(fast_params, die_grid=4))):
            other_die, other_package = factor_keys(stack, water, params)
            assert other_die != die and other_package != package

    def test_a_cold_grid_builds_one_die_factor_per_height(
            self, fast_params, monkeypatch):
        """A 50-point grid (h 1-10 x five coolants) assembles 5 package
        blocks (one per coolant: the package network does not depend
        on the stack height) and builds 10 die factors and 50 package
        factors, and again after both caches are emptied: nothing
        outside them keeps a factor or a block."""
        assembled = []

        def spy(stack, cooling, params):
            assembled.append(cooling.name)
            return build_package_network(stack, cooling, params)

        monkeypatch.setattr(response, "build_package_network", spy)
        points = frequency_grid("low-power-cmp", tuple(range(1, 11)),
                                ALL_COOLINGS)
        assert len(points) == 50
        for _ in range(2):
            model_cache().clear()
            response_cache().clear()
            assembled.clear()
            before = _counters()
            CampaignRunner(points, params=fast_params).run(resume=False)
            builds = _moved(before, "response.")
            assert sorted(assembled) == sorted(ALL_COOLINGS)
            assert builds["response.die_builds"] == 10
            assert builds["response.package_builds"] == 50
            assert builds["response.builds"] == 60


class TestCheckpointByteIdentity:
    """Acceptance: every worker count, the same bytes."""

    def _run(self, tmp_path, fast_params, name, *, workers,
             store_dir=None):
        model_cache().clear()
        response_cache().clear()
        points = frequency_grid("low-power-cmp", (1, 2), ("water", "air"))
        ck = tmp_path / f"{name}.json"
        CampaignRunner(points, checkpoint_path=ck, params=fast_params,
                       workers=workers,
                       response_cache_dir=store_dir).run(resume=False)
        data = json.loads(ck.read_text())
        data.pop("manifest", None)
        return json.dumps(data, sort_keys=False)

    def test_workers_and_store_do_not_change_the_bytes(self, tmp_path,
                                                       fast_params):
        """A ``response_cache_dir`` is accepted and ignored: nothing is
        written there, and the bytes do not change."""
        baseline = self._run(tmp_path, fast_params, "plain", workers=1)
        store = tmp_path / "opstore"
        configure(store)
        for workers in (1, 2, 4):
            got = self._run(tmp_path, fast_params, f"w{workers}",
                            workers=workers, store_dir=store)
            assert got == baseline, (
                f"checkpoint bytes diverged at workers={workers}")
        assert not store.exists()

    def test_campaign_answers_do_not_depend_on_blas_threads(self):
        """The engine runs its points at one BLAS thread; the same
        points evaluated one by one outside it, with every OpenBLAS at
        two threads (default package grids, so the package factors
        thread if anything does), give the same answers."""
        from repro.core.campaign import evaluate_point
        from repro.parallel import blas_threads, set_blas_threads
        from repro.resilience import ResilienceOptions
        points = frequency_grid("low-power-cmp", (1, 6), ("water", "air"))

        def answers(records):
            return {key: (r.status, r.f_ghz, r.max_temp_c)
                    for key, r in records.items()}

        model_cache().clear()
        response_cache().clear()
        engine = CampaignRunner(points).run(resume=False).records
        model_cache().clear()
        response_cache().clear()
        prior = set_blas_threads(2)
        try:
            assert set(blas_threads().values()) <= {2}
            direct = {p.key: evaluate_point(p, ResilienceOptions())
                      for p in points}
        finally:
            set_blas_threads(prior)
        assert answers(engine) == answers(direct)

    def test_unit_power_basis_is_shared_and_read_only(self):
        """One basis per floorplan and grid: the bytes a fresh
        rasterization gives, never writable."""
        from repro.floorplan.transform import rotate_180
        from repro.thermal.response import _unit_power_basis
        fp = get_chip("low-power-cmp").floorplan()
        for die in (fp, rotate_180(fp)):
            fresh = np.stack([die.power_map({b.name: 1.0}, 16, 16).ravel()
                              for b in die.blocks], axis=1)
            basis = _unit_power_basis(die, 16)
            assert basis.shape == fresh.shape
            assert basis.tobytes() == fresh.tobytes()
            assert not basis.flags.writeable
            with pytest.raises(ValueError):
                basis[0, 0] = 1.0
        # an equal floorplan built anew shares the array
        assert _unit_power_basis(rotate_180(fp), 16) is \
            _unit_power_basis(rotate_180(fp), 16)

    def test_operator_bits_do_not_depend_on_blas_threads(self):
        """Checkpoints stay byte-identical across hosts whose BLAS runs
        another number of threads: the SHA-256 of factored queries
        (default package grids, so the package factorization is big
        enough for BLAS to thread) is the same at one and two."""
        import repro
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import hashlib\n"
            "from repro.cooling.options import get_cooling\n"
            "from repro.power.processors import get_chip\n"
            "from repro.stack.chipstack import flip_even_layers\n"
            "from repro.thermal.hotspot import ThermalModel\n"
            "from repro.thermal.response import block_power_vector\n"
            "chip = get_chip('low-power-cmp')\n"
            "stack = flip_even_layers(chip, 3)\n"
            "digest = hashlib.sha256()\n"
            "for cooling in ('water', 'water_pipe'):\n"
            "    model = ThermalModel(stack, get_cooling(cooling))\n"
            "    for f in chip.ladder.frequencies():\n"
            "        p = block_power_vector(stack, float(f))\n"
            "        digest.update(model.temperatures(p).tobytes())\n"
            "print(digest.hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True,
                                 timeout=120, check=True)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == len(hashlib.sha256().hexdigest())
