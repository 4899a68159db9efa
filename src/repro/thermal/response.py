"""Superposition kernel: shared stack factors.

The steady-state network is linear: ``G T = P + B T_amb``, so the die
temperatures are *affine* in the injected power, and a frequency
ladder, a max-frequency bisection or a leakage fixed point asks the same
geometry for many power vectors. The structured solve of
:mod:`repro.thermal.stacksolve` answers each with one query through two
factors, neither of which ever factorizes G:

* a :class:`~repro.thermal.stacksolve.DieFactor` per die stack, keyed
  by the die floorplan, die thickness, stack height, rotation schedule
  and :class:`~repro.thermal.package.PackageParams` — not the chip's
  power model (two chips sharing a floorplan share it) and not the
  cooling, which enters only at the package boundary;
* a :class:`~repro.thermal.stacksolve.PackageFactor` per (die stack,
  cooling option), built from the die factor and the coolant's package
  layers alone.

So a Figs. 7/8 grid pays one die factor per stack height and one small
package factor per point, and a Fig. 14 h sweep one die factor per chip
and one package factor per h. Both factor kinds live in the bounded
process-wide :func:`response_cache`, keyed by value as
:func:`~repro.thermal.hotspot.model_for` keys models; models hold the
temperatures they computed but no factor, so that cache alone bounds
the factors' memory.

Determinism: every uncached VFS step is its own query on one vector
(never a batch), so a scalar probe and a batched ladder record the same
bits, and the factors' bits do not follow the BLAS thread count.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from ..errors import ConfigurationError
from ..obs import counter, histogram, span
from ..power.mcpat import block_power
from ..stack.chipstack import StackConfig
from .cache import BoundedCache
from .network import ThermalNetwork
from .package import PackageParams, build_package_network, die_layer_names
from .stacksolve import DieFactor, PackageFactor

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from ..cooling.options import CoolingOption

__all__ = [
    "DISABLE_ENV",
    "FactorKey",
    "block_power_vector",
    "configure",
    "factor_keys",
    "response_cache",
    "response_enabled",
    "stack_factor",
]

#: Setting this (to anything but "" / "0") disables the superposition
#: kernel entirely: every query falls back to the sparse solver, the
#: reference the factors are checked against. Used by the benchmarks to
#: time the pre-kernel baseline.
DISABLE_ENV = "REPRO_RESPONSE_DISABLE"

#: Factors the process-wide response cache keeps. It must hold a grid's
#: die factors across its coolants: :func:`~repro.core.campaign.
#: frequency_grid` is coolant-major, so a die factor comes back after
#: every other height's die and package factor (2 x 15 - 1 entries on
#: the Figs. 7/8 grids). At h = 15 a die factor is 1.1-1.6 MB (the
#: Xeon Phi's 112 blocks the most) and a package factor 0.53 MB, and a
#: package factor keeps its die factor alive, so the worst case is
#: 64 x 2.1 MB.
RESPONSE_CACHE_CAPACITY = 64

T = TypeVar("T")


def response_enabled() -> bool:
    """False when the kill switch (:data:`DISABLE_ENV`) is set."""
    return os.environ.get(DISABLE_ENV, "") in ("", "0")


def _die_block_powers(chip, rotated: bool,
                      f_hz: float) -> tuple[float, ...]:
    """One die's per-block watts in declaration order."""
    from ..floorplan.transform import rotate_180
    per_block_fp = chip.floorplan()
    if rotated:
        per_block_fp = rotate_180(per_block_fp)
    per_block = block_power(chip, f_hz, per_block_fp)
    return tuple(per_block.get(b.name, 0.0) for b in per_block_fp.blocks)


@lru_cache(maxsize=4096)
def _library_die_block_powers(chip_name: str, rotated: bool,
                              f_hz: float) -> tuple[float, ...]:
    """Name-keyed memo of :func:`_die_block_powers` for library chips
    (profiling showed floorplan revalidation under ``rotate_180``, not
    the query, dominating frequency sweeps)."""
    from ..power.processors import get_chip
    return _die_block_powers(get_chip(chip_name), rotated, f_hz)


def block_power_vector(stack: StackConfig, f_hz: float) -> np.ndarray:
    """Per-(die, block) watts at a VFS step, in factor basis order.

    Dies bottom-up, blocks in floorplan declaration order within each
    die — the order of the unit-power basis a die factor holds. Pure
    arithmetic on the chip's power model; no rasterization. Only specs
    that *are* the registry entry for their name go through the
    name-keyed memo — ad-hoc ``ChipSpec`` variants (unregistered, or
    shadowing a library name) are computed directly.
    """
    from ..power.processors import get_chip
    f = float(f_hz)
    chip = stack.chip
    try:
        memoizable = get_chip(chip.name) is chip
    except ConfigurationError:
        memoizable = False
    if memoizable:
        rows = (_library_die_block_powers(chip.name, rot, f)
                for rot in stack.effective_rotations)
    else:
        rows = (_die_block_powers(chip, rot, f)
                for rot in stack.effective_rotations)
    return np.asarray([w for row in rows for w in row], dtype=float)


@lru_cache(maxsize=16)
def _unit_power_basis(fp, grid: int) -> np.ndarray:
    """``(grid**2, blocks)`` cell watts of 1 W in each block, in
    floorplan declaration order.

    Memoized on the (frozen, hashable) floorplan and the grid, so a
    process rasterizes each die floorplan once rather than once per
    die factor; the shared array is read-only.
    """
    basis = np.stack([fp.power_map({b.name: 1.0}, grid, grid).ravel()
                      for b in fp.blocks], axis=1)
    basis.setflags(write=False)
    return basis


class FactorKey:
    """A response-cache key: value parts whose hash is taken once.

    Hashing a floorplan by value walks all its blocks (tens of
    microseconds), so a model builds its keys once and every lookup
    reuses the stored hash. Keys are equal when their parts are.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, *parts) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (isinstance(other, FactorKey) and self._hash == other._hash
                and self.parts == other.parts)


def factor_keys(stack: StackConfig, cooling: "CoolingOption",
                params: PackageParams) -> tuple[FactorKey, FactorKey]:
    """``(die key, package key)`` of a geometry.

    The die key covers what the die side of the network and the block
    basis depend on: the die floorplan (its block names are the basis
    columns), die thickness, stack height, rotation schedule and the
    package parameters. It leaves out the chip's power model and the
    cooling. The package key adds the cooling option.
    """
    die = FactorKey("die", stack.chip.floorplan(), stack.chip.die_thickness_m,
                    stack.n_chips,
                    tuple(bool(r) for r in stack.effective_rotations), params)
    return die, FactorKey("package", die, cooling)


def _timed_build(kind: str, build: Callable[[], T], **attrs) -> T:
    """``build()`` under the ``response.build`` span and its metrics."""
    t0 = time.perf_counter()
    with span("response.build", kind=kind, **attrs):
        factor = build()
    counter("response.builds").inc()
    counter(f"response.{kind}_builds").inc()
    histogram("response.build_seconds").observe(time.perf_counter() - t0)
    return factor


def _die_factor(stack: StackConfig, params: PackageParams,
                network: ThermalNetwork) -> DieFactor:
    """A stack's die factor, read off ``network``. Each distinct die
    floorplan (a rotation schedule has at most two) is rasterized into
    its unit-power basis once per process."""
    rotations = stack.effective_rotations
    basis = {rot: _unit_power_basis(fp, params.die_grid)
             for rot, fp in dict(zip(rotations,
                                     stack.die_floorplans())).items()}
    return DieFactor(network, die_layer_names(stack),
                     [basis[rot] for rot in rotations])


def stack_factor(stack: StackConfig, cooling: "CoolingOption",
                 params: PackageParams,
                 keys: tuple[FactorKey, FactorKey],
                 network: Callable[[], ThermalNetwork]) -> PackageFactor:
    """A geometry's package factor (and through it its die factor).

    Resolved through :func:`response_cache`: on a miss the package
    factor is built from the resident (or newly built) die factor and
    the coolant's package layers.

    Args:
        stack, cooling, params: the geometry.
        keys: its :func:`factor_keys`.
        network: returns the geometry's assembled network; called only
            when the die factor has to be built.
    """
    die_key, package_key = keys
    cache = response_cache()

    def build_die() -> DieFactor:
        return _timed_build("die", lambda: _die_factor(stack, params,
                                                       network()),
                            dies=stack.n_chips)

    def build_package() -> PackageFactor:
        die = cache.get_or_build(die_key, build_die)
        return _timed_build(
            "package",
            lambda: PackageFactor(die, build_package_network(stack, cooling,
                                                             params)),
            dies=stack.n_chips, cooling=cooling.name)

    return cache.get_or_build(package_key, build_package)


_RESPONSE_CACHE = BoundedCache(RESPONSE_CACHE_CAPACITY,
                               metric="response.cache")


def response_cache() -> BoundedCache:
    """The process-wide cache of die and package factors."""
    return _RESPONSE_CACHE


def configure(store_dir: str | os.PathLike | None = None) -> None:
    """Accept an operator-store directory and do nothing with it.

    Factors are cheaper to rebuild than a store was to read, so there
    is no operator store any more. This shim only keeps the benchmark
    in ``perfbench/`` working until its next change drops the call
    (ROADMAP, the [benchmark] item); then it goes.
    """
