"""Superposition kernel: exactness, content addressing, store safety.

The response operator's contract has three legs, each pinned here:

* *exactness* — for the linear (temperature-independent) power model,
  ``t0 + R @ p`` must match :meth:`ThermalNetwork.solve` to tight
  tolerance for arbitrary block power vectors, any rotation schedule,
  and every coolant;
* *determinism* — batched and scalar queries are bitwise identical,
  and campaign checkpoints are byte-identical whether the operator
  store is cold, warm, or absent, at every worker count;
* *store safety* — corrupted or truncated ``.npy`` entries are
  quarantined to ``*.corrupt`` and transparently rebuilt, mirroring
  the checkpoint discipline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cooling.options import get_cooling
from repro.core.campaign import CampaignRunner, frequency_grid
from repro.core.feedback import solve_with_leakage_feedback
from repro.errors import SingularNetworkError, ThermalModelError
from repro.obs import get_registry
from repro.power.processors import get_chip
from repro.stack.chipstack import StackConfig, flip_even_layers
from repro.thermal.hotspot import ThermalModel
from repro.thermal.network import ThermalNetwork
from repro.thermal import response
from repro.thermal.package import DEFAULT_PACKAGE, build_network
from repro.thermal.response import (
    DISABLE_ENV,
    RESPONSE_SCHEMA_VERSION,
    STORE_DIR_ENV,
    ResponseCache,
    ResponseStore,
    block_power_vector,
    build_response_operator,
    geometry_digest,
)

ALL_COOLINGS = ("air", "water_pipe", "mineral_oil", "fluorinert", "water")


def _sparse_reference(stack, cooling, params, p):
    """Per-die maxima via the sparse path for an arbitrary power vector."""
    from repro.thermal.package import build_network, die_layer_names
    network = build_network(stack, cooling, params)
    fps = stack.die_floorplans()
    nb = len(fps[0].blocks)
    maps = {}
    for i, (die, fp) in enumerate(zip(die_layer_names(stack), fps)):
        seg = p[i * nb:(i + 1) * nb]
        watts = {b.name: float(w) for b, w in zip(fp.blocks, seg)}
        maps[die] = fp.power_map(watts, params.die_grid, params.die_grid)
    res = network.solve(maps)
    return tuple(res.max_of(d) for d in die_layer_names(stack))


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
    """R @ P against the sparse solver — the kernel's admission gate."""

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
        op = build_response_operator(stack, cooling, params)
        for _ in range(3):
            p = rng.uniform(0.0, 2.0, size=op.n_cols)
            got = op.per_die_max(op.temperatures(p))
            want = _sparse_reference(stack, cooling, params, p)
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("cooling_name", ("air", "water_pipe", "water"))
    def test_t0_is_the_ambient(self, cooling_name, fast_params):
        """With no power injected every die sits at the ambient."""
        stack = flip_even_layers(get_chip("low-power-cmp"), 6)
        op = build_response_operator(stack, get_cooling(cooling_name),
                                     fast_params)
        np.testing.assert_allclose(op.t0, fast_params.ambient_c,
                                   rtol=0, atol=1e-9)

    def test_dies_without_a_shared_lateral_block_are_rejected(
            self, fast_params):
        """The structured build checks the die structure instead of
        assuming it: one die with another in-plane conductivity is a
        network it cannot solve."""
        stack = StackConfig(chip=get_chip("low-power-cmp"), n_chips=3)
        cooling = get_cooling("water")
        net = build_network(stack, cooling, fast_params)
        layers = [replace(la, k_lateral_w_mk=la.k_lateral * 1.5)
                  if la.name == "die1" else la for la in net.layers]
        odd = ThermalNetwork(layers, net.interfaces, net.boundaries)
        with pytest.raises(ThermalModelError, match="lateral"):
            build_response_operator(stack, cooling, fast_params,
                                    network=odd)

    def test_floating_die_stack_is_singular(self, fast_params):
        """Dies with no path to the package have no steady state."""
        stack = StackConfig(chip=get_chip("low-power-cmp"), n_chips=2)
        cooling = get_cooling("water")
        net = build_network(stack, cooling, fast_params)
        dies = {"die0", "die1"}
        inside = [itf for itf in net.interfaces
                  if (itf.lower in dies) == (itf.upper in dies)]
        floating = ThermalNetwork(net.layers, inside, net.boundaries)
        with pytest.raises(SingularNetworkError):
            build_response_operator(stack, cooling, fast_params,
                                    network=floating)

    def test_ladder_queries_match_sparse_fallback(self, fast_params,
                                                  monkeypatch):
        chip = get_chip("low-power-cmp")
        stack = StackConfig(chip=chip, n_chips=4)
        cooling = get_cooling("water")
        freqs = [float(f) for f in chip.ladder.frequencies()]

        monkeypatch.setenv(DISABLE_ENV, "1")
        sparse = ThermalModel(stack, cooling, fast_params)
        want = sparse.max_temperatures_many(freqs)
        want_fields = sparse.die_temperature_fields(freqs[0])
        assert sparse.response_operator() is None

        monkeypatch.delenv(DISABLE_ENV)
        dense = ThermalModel(stack, cooling, fast_params)
        assert dense.response_operator() is not None
        got = dense.max_temperatures_many(freqs)
        assert got == pytest.approx(want, abs=1e-9)
        got_fields = dense.die_temperature_fields(freqs[0])
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


def _digest(stack, cooling, params):
    """:func:`geometry_digest`, checked against a recomputation that
    bypasses its memo."""
    digest = geometry_digest(stack, cooling, params)
    assert digest == response._geometry_digest(stack, cooling, params)
    return digest


class TestGeometryDigest:
    """Content addressing: what keys alike, what keys apart."""

    def test_same_geometry_same_digest(self, fast_params):
        chip = get_chip("low-power-cmp")
        a = _digest(StackConfig(chip, 3), get_cooling("water"),
                    fast_params)
        b = _digest(StackConfig(chip, 3), get_cooling("water"),
                    fast_params)
        # an equal but distinct PackageParams object
        c = _digest(StackConfig(chip, 3), get_cooling("water"),
                    replace(fast_params))
        assert a == b == c

    @pytest.mark.parametrize("first", ("int", "bool"))
    def test_int_and_bool_rotation_flags_digest_apart(self, first,
                                                      monkeypatch):
        """``(1, 0) == (True, False)`` as a key, but the digest keeps
        ints and bools apart; the memo must too, in either query
        order."""
        monkeypatch.setattr(response, "_digest_memo", OrderedDict())
        chip = get_chip("low-power-cmp")
        stacks = {"int": StackConfig(chip, 2, rotations=(1, 0)),
                  "bool": StackConfig(chip, 2, rotations=(True, False))}
        second = "bool" if first == "int" else "int"
        digests = {k: _digest(stacks[k], get_cooling("water"),
                              DEFAULT_PACKAGE)
                   for k in (first, second, first)}
        assert digests["int"] != digests["bool"]

    def test_geometry_changes_change_the_digest(self, fast_params,
                                                monkeypatch):
        chip = get_chip("low-power-cmp")
        water = get_cooling("water")
        base = _digest(StackConfig(chip, 3), water, fast_params)
        assert _digest(StackConfig(chip, 4), water, fast_params) != base
        assert _digest(StackConfig(chip, 3), get_cooling("air"),
                       fast_params) != base
        assert _digest(flip_even_layers(chip, 3), water,
                       fast_params) != base
        coarser = replace(fast_params, die_grid=4)
        assert _digest(StackConfig(chip, 3), water, coarser) != base
        # operators an older builder wrote to a store (same geometry,
        # other last bits) are never served next to new builds
        monkeypatch.setattr("repro.thermal.response.RESPONSE_SCHEMA_VERSION",
                            RESPONSE_SCHEMA_VERSION - 1)
        assert _digest(StackConfig(chip, 3), water, fast_params) != base

    def test_power_model_does_not_affect_the_digest(self, fast_params):
        """Two chips sharing a floorplan share operators."""
        chip = get_chip("low-power-cmp")
        hotter = replace(chip, max_power_w=chip.max_power_w * 2)
        a = _digest(StackConfig(chip, 3), get_cooling("water"),
                    fast_params)
        b = _digest(StackConfig(hotter, 3), get_cooling("water"),
                    fast_params)
        assert a == b


class TestStore:
    """The on-disk tier: atomicity, mmap loads, quarantine."""

    def _build(self, fast_params, n_chips=2):
        chip = get_chip("low-power-cmp")
        stack = StackConfig(chip=chip, n_chips=n_chips)
        cooling = get_cooling("water")
        op = build_response_operator(stack, cooling, fast_params)
        return stack, op

    def test_roundtrip_is_bitwise(self, tmp_path, fast_params):
        stack, op = self._build(fast_params)
        store = ResponseStore(tmp_path)
        assert store.store(op)
        loaded = store.load(op.digest)
        assert loaded is not None
        assert isinstance(loaded.arr, np.memmap)
        assert np.array_equal(np.asarray(loaded.arr), op.arr)
        f = stack.chip.ladder.f_max_hz
        p = block_power_vector(stack, f)
        assert (loaded.temperatures(p) == op.temperatures(p)).all()

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert ResponseStore(tmp_path).load("0" * 64) is None

    @pytest.mark.parametrize("damage", ("truncate", "garbage_header"))
    def test_corrupt_entry_quarantined_and_rebuilt(self, damage, tmp_path,
                                                   fast_params,
                                                   monkeypatch):
        """Satellite: evict-and-rebuild safety (mirrors checkpoint
        ``.corrupt`` handling)."""
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        chip = get_chip("low-power-cmp")
        stack = StackConfig(chip=chip, n_chips=2)
        cooling = get_cooling("water")
        digest = geometry_digest(stack, cooling, fast_params)

        def factory():
            return build_response_operator(stack, cooling, fast_params)

        reference = ResponseCache(capacity=4).get_or_build(digest, factory)
        npy = tmp_path / f"{digest}.npy"
        assert npy.exists()

        if damage == "truncate":
            npy.write_bytes(npy.read_bytes()[:200])
        else:
            npy.write_bytes(b"not a numpy file at all")

        before = get_registry().snapshot()["counters"].get(
            "response.disk_corrupt", 0)
        rebuilt = ResponseCache(capacity=4).get_or_build(digest, factory)

        # quarantined, counted, and rebuilt with the right answer
        assert (tmp_path / f"{digest}.npy.corrupt").exists()
        after = get_registry().snapshot()["counters"]["response.disk_corrupt"]
        assert after == before + 1
        assert np.array_equal(np.asarray(rebuilt.arr),
                              np.asarray(reference.arr))
        # ... and the store was rewritten: a third cache disk-hits
        assert ResponseStore(tmp_path).load(digest) is not None

    def test_lru_evicts_and_counts(self, fast_params, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        cache = ResponseCache(capacity=1)
        chip = get_chip("low-power-cmp")
        cooling = get_cooling("water")
        stacks = [StackConfig(chip=chip, n_chips=n) for n in (1, 2)]
        for stack in stacks:
            cache.get_or_build(
                geometry_digest(stack, cooling, fast_params),
                lambda s=stack: build_response_operator(s, cooling,
                                                        fast_params))
        hits, misses, evictions, capacity, currsize = cache.cache_info()
        assert (misses, evictions, currsize) == (2, 1, 1)
        # re-fetching the resident entry is a pure memory hit
        cache.get_or_build(
            geometry_digest(stacks[1], cooling, fast_params),
            lambda: pytest.fail("must not rebuild a resident operator"))
        assert cache.cache_info()[0] == hits + 1


class TestCheckpointByteIdentity:
    """Acceptance: cache on/off and every worker count, same bytes."""

    def _run(self, tmp_path, fast_params, name, *, workers,
             store_dir=None):
        from repro.thermal.hotspot import model_cache
        from repro.thermal.response import response_cache
        model_cache().clear()
        response_cache().clear()   # force every run through the store
        points = frequency_grid("low-power-cmp", (1, 2), ("water", "air"))
        ck = tmp_path / f"{name}.json"
        CampaignRunner(points, checkpoint_path=ck, params=fast_params,
                       workers=workers,
                       response_cache_dir=store_dir).run(resume=False)
        data = json.loads(ck.read_text())
        data.pop("manifest", None)
        return json.dumps(data, sort_keys=False)

    def test_workers_and_store_do_not_change_the_bytes(self, tmp_path,
                                                       fast_params,
                                                       monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, "")   # baseline: no disk store
        baseline = self._run(tmp_path, fast_params, "plain", workers=1)
        store = tmp_path / "opstore"
        for workers in (1, 2, 4):
            got = self._run(tmp_path, fast_params, f"w{workers}",
                            workers=workers, store_dir=store)
            assert got == baseline, (
                f"checkpoint bytes diverged at workers={workers} "
                f"with a {'warm' if workers > 1 else 'cold'} "
                f"operator store")
        # the store was actually exercised
        assert list(store.glob("*.npy"))

    def test_campaign_answers_do_not_depend_on_blas_threads(
            self, monkeypatch):
        """The engine runs its points at one BLAS thread; the same
        points evaluated one by one outside it, with every OpenBLAS at
        two threads (default package grids, so the matvec threads),
        give the same answers."""
        from repro.core.campaign import evaluate_point
        from repro.parallel import blas_threads, set_blas_threads
        from repro.resilience import ResilienceOptions
        from repro.thermal.hotspot import model_cache
        from repro.thermal.response import response_cache
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
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
        """Stores and checkpoints stay byte-identical across hosts whose
        BLAS runs another number of threads (default package grids, so
        the package solve is big enough for BLAS to thread)."""
        import repro
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import hashlib\n"
            "from repro.cooling.options import get_cooling\n"
            "from repro.power.processors import get_chip\n"
            "from repro.stack.chipstack import flip_even_layers\n"
            "from repro.thermal.response import build_response_operator\n"
            "op = build_response_operator(flip_even_layers(\n"
            "    get_chip('low-power-cmp'), 3), get_cooling('water'))\n"
            "print(hashlib.sha256(op.arr.tobytes()).hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True,
                                 timeout=120, check=True)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]
