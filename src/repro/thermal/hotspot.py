"""High-level HotSpot-like facade.

:class:`ThermalModel` wraps one (stack, cooling) configuration: it
builds the network once, then answers steady-state worst-case queries
at any VFS step. This is the object the frequency optimizer and the
sweep drivers hold onto.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from ..errors import ConfigurationError
from ..obs import counter, span
from ..stack.chipstack import StackConfig
from .network import ThermalNetwork, ThermalResult
from .package import (
    DEFAULT_PACKAGE,
    PackageParams,
    build_network,
    die_layer_names,
    stack_power_maps,
)
from .response import (
    ResponseOperator,
    block_power_vector,
    build_response_operator,
    geometry_digest,
    response_cache,
    response_enabled,
)

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from ..cooling.options import CoolingOption


class ThermalModel:
    """Steady-state thermal model of one stack under one cooling option.

    A model holds its assembled network, its geometry digest and the
    die temperatures it has computed, one read-only vector per VFS
    step; it holds no response operator. Die-observable queries answer
    from those temperatures. Only a step not seen before resolves the
    geometry's :class:`~repro.thermal.response.ResponseOperator`
    through the process-wide response cache (memory over disk over
    build, shared across models and processes) and records
    ``t0 + R @ p``, one dense matvec, so operator memory is bounded by
    that cache alone. Full-stack queries (:meth:`result`,
    :meth:`results_many`) and runs with ``REPRO_RESPONSE_DISABLE`` set
    take the sparse path, which factorizes the conductance matrix once
    and reuses it for every frequency. Models are shared
    (:func:`model_for`), so every cached array a query returns is
    read-only.

    Args:
        stack: the 3-D chip stack.
        cooling: the cooling option.
        params: package geometry/calibration constants.
    """

    def __init__(self, stack: StackConfig, cooling: CoolingOption,
                 params: PackageParams = DEFAULT_PACKAGE) -> None:
        self.stack = stack
        self.cooling = cooling
        self.params = params
        self.network: ThermalNetwork = build_network(stack, cooling, params)
        self._die_names = die_layer_names(stack)
        self._digest: str | None = None
        self._result_cache: dict[float, ThermalResult] = {}
        self._temps: dict[float, np.ndarray] = {}

    @property
    def die_names(self) -> tuple[str, ...]:
        """Die layer names, bottom first (the layers the threshold sees)."""
        return self._die_names

    def power_maps(self, f_hz: float) -> dict[str, np.ndarray]:
        """Per-die power maps at a VFS step (worst-case activity)."""
        with span("power.stack_maps", f_ghz=f_hz / 1e9,
                  n_chips=self.stack.n_chips):
            return stack_power_maps(self.stack, f_hz, self.params)

    def result(self, f_hz: float) -> ThermalResult:
        """Full solution at a VFS step (cached per frequency)."""
        key = round(float(f_hz), 3)
        cached = self._result_cache.get(key)
        if cached is None:
            cached = _read_only(self.network.solve(self.power_maps(f_hz)))
            self._result_cache[key] = cached
        return cached

    def results_many(self, f_hz_seq) -> list[ThermalResult]:
        """Full solutions at several VFS steps in one batched solve.

        Frequencies already in the per-frequency cache are answered
        from it; the misses are solved together through
        :meth:`ThermalNetwork.solve_many` (one (n, k) triangular-solve
        block against the cached factor) and cached for later scalar
        queries, so a batched ladder probe and a point-by-point one
        return identical objects.
        """
        keys = [round(float(f), 3) for f in f_hz_seq]
        missing: list[tuple[float, float]] = []
        seen: set[float] = set()
        for f, key in zip(f_hz_seq, keys):
            if key not in self._result_cache and key not in seen:
                seen.add(key)
                missing.append((float(f), key))
        if missing:
            solved = self.network.solve_many(
                [self.power_maps(f) for f, _ in missing])
            for (_, key), res in zip(missing, solved):
                self._result_cache[key] = _read_only(res)
        return [self._result_cache[key] for key in keys]

    def response_operator(self) -> ResponseOperator | None:
        """This geometry's superposition operator (None = disabled).

        Resolved through the process-wide content-addressed cache
        (memory over disk over build) on every call and never kept on
        the model, so sibling models, pool workers and the serve broker
        share one dense operator per geometry, and evicting it from
        that cache frees it.
        """
        if not response_enabled():
            return None
        return self._operator()

    def _operator(self) -> ResponseOperator:
        if self._digest is None:
            self._digest = geometry_digest(self.stack, self.cooling,
                                           self.params)
        return response_cache().get_or_build(
            self._digest,
            lambda: build_response_operator(
                self.stack, self.cooling, self.params,
                network=self.network))

    def _response_temps(self, f_hz_seq) -> list[np.ndarray]:
        """Flat die temperatures at each VFS step via the operator.

        Cached per frequency. A call whose steps are all cached touches
        no operator; otherwise it resolves the operator once and runs
        one matvec per missing step — never a batched matmul — so
        scalar probes and ladder batches record bitwise-identical
        temperatures (checkpoint byte-identity depends on it). Two
        threads missing the same step both compute it and store the
        same bits.
        """
        temps = []
        op = None
        for f in f_hz_seq:
            key = round(float(f), 3)
            t = self._temps.get(key)
            if t is None:
                if op is None:
                    op = self._operator()
                t = op.temperatures(block_power_vector(self.stack, float(f)))
                t.setflags(write=False)
                self._temps[key] = t
            temps.append(t)
        return temps

    def _die_fields(self, t: np.ndarray) -> dict[str, np.ndarray]:
        """Per-die (grid, grid) views of a flat die-temperature vector."""
        g = self.params.die_grid
        return {name: t[i * g * g:(i + 1) * g * g].reshape(g, g)
                for i, name in enumerate(self._die_names)}

    def max_temperature_c(self, f_hz: float) -> float:
        """Hottest die-cell temperature at a VFS step, Celsius.

        The paper's constraint applies to junction temperature, so only
        die layers are inspected (the heatsink is always cooler).
        """
        if response_enabled():
            return float(self._response_temps((f_hz,))[0].max())
        return self.result(f_hz).max_over(self._die_names)

    def max_temperatures_many(self, f_hz_seq) -> tuple[float, ...]:
        """Hottest die-cell temperature at each VFS step, batched.

        The batched counterpart of :meth:`max_temperature_c`: the
        ladder sweeps and the fleet's DTM ladder solve every step of a
        ladder in one call. With the response operator this is a
        matvec per uncached step; the sparse fallback pushes all steps
        through one multi-RHS solve.
        """
        if response_enabled():
            return tuple(float(t.max())
                         for t in self._response_temps(f_hz_seq))
        return tuple(res.max_over(self._die_names)
                     for res in self.results_many(f_hz_seq))

    def die_temperature_fields(self, f_hz: float) -> dict[str, np.ndarray]:
        """Per-die (grid, grid) temperature fields — the Figs. 9/16/18 maps."""
        if response_enabled():
            return self._die_fields(self._response_temps((f_hz,))[0])
        res = self.result(f_hz)
        return {name: res.layer(name) for name in self._die_names}

    def die_temperature_fields_many(self, f_hz_seq
                                    ) -> list[dict[str, np.ndarray]]:
        """Per-die temperature fields at several VFS steps, batched."""
        if response_enabled():
            return [self._die_fields(t)
                    for t in self._response_temps(f_hz_seq)]
        return [{name: res.layer(name) for name in self._die_names}
                for res in self.results_many(f_hz_seq)]

    def per_die_max_c(self, f_hz: float) -> tuple[float, ...]:
        """Maximum temperature of each die, bottom first."""
        if response_enabled():
            fields = self._die_fields(self._response_temps((f_hz,))[0])
            return tuple(float(field.max()) for field in fields.values())
        res = self.result(f_hz)
        return tuple(res.max_of(name) for name in self._die_names)

    def meets_threshold(self, f_hz: float,
                        threshold_c: float | None = None) -> bool:
        """True if the hottest die cell stays at/below the threshold."""
        limit = (threshold_c if threshold_c is not None
                 else self.stack.chip.threshold_c)
        return self.max_temperature_c(f_hz) <= limit + 1e-9


def _read_only(res: ThermalResult) -> ThermalResult:
    """``res`` with every layer field made read-only, for caching."""
    for name in res.layer_names:
        res.layer(name).setflags(write=False)
    return res


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-style statistics for the model cache."""

    hits: int
    misses: int
    evictions: int
    maxsize: int
    currsize: int


class ModelCache:
    """Bounded, thread-safe LRU of built (factorized) thermal models.

    Replaces the old unbounded-in-practice ``functools.lru_cache``: the
    capacity is explicit and adjustable, and every hit, miss, and
    eviction is both kept locally (:meth:`cache_info`) and exported
    through the metrics registry as ``thermal.model_cache_hit`` /
    ``_miss`` / ``_eviction``, so a sweep's memory behaviour is visible
    without a debugger.

    Args:
        capacity: maximum number of resident models (>= 1). Each entry
            holds its assembled network and the die temperatures it has
            computed, plus a sparse LU factorization once a sparse query
            has run, so the bound is a real memory bound, not
            bookkeeping. Response operators are not part of it: they
            live in the response cache alone.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ConfigurationError("model cache capacity must be >= 1")
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, ThermalModel]" = OrderedDict()
        self._capacity = capacity
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum number of resident models."""
        return self._capacity

    def set_capacity(self, capacity: int) -> None:
        """Change the bound, evicting LRU entries if now over it."""
        if capacity < 1:
            raise ConfigurationError("model cache capacity must be >= 1")
        with self._lock:
            self._capacity = capacity
            self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1
            counter("thermal.model_cache_eviction").inc()

    def get_or_build(self, key: tuple,
                     factory: Callable[[], ThermalModel]) -> ThermalModel:
        """Return the cached model for ``key``, building it on a miss."""
        with self._lock:
            model = self._entries.get(key)
            if model is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                counter("thermal.model_cache_hit").inc()
                return model
            self._misses += 1
            counter("thermal.model_cache_miss").inc()
            model = factory()
            self._entries[key] = model
            self._evict_over_capacity()
            return model

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction counts and occupancy."""
        with self._lock:
            return CacheInfo(hits=self._hits, misses=self._misses,
                             evictions=self._evictions,
                             maxsize=self._capacity,
                             currsize=len(self._entries))

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_MODEL_CACHE = ModelCache()


def model_cache() -> ModelCache:
    """The process-wide model cache behind :func:`model_for`."""
    return _MODEL_CACHE


def model_for(chip_name: str, n_chips: int, cooling_name: str,
              rotations: tuple[bool, ...] = (),
              params: PackageParams = DEFAULT_PACKAGE) -> ThermalModel:
    """Memoized model lookup for library chips and cooling options.

    Sweeps over (chips x coolants x stack heights) and served requests
    revisit configurations constantly; the cache keeps each built model
    alive with the temperatures it has computed (bounded LRU — see
    :class:`ModelCache` for capacity control and statistics). Keyed by
    value: an equal ``params`` built anew finds the same model. The key
    also holds the type of ``n_chips``: ``2.0 == 2`` as a key, but a
    model for 2.0 chips fails to build, and a spec naming 2.0 must fail
    the same way whether or not the 2-chip model is cached.
    """
    rotations = tuple(rotations)
    key = (chip_name, type(n_chips), n_chips, rotations, cooling_name,
           params)

    def build() -> ThermalModel:
        from ..cooling.options import get_cooling
        from ..power.processors import get_chip
        stack = StackConfig(chip=get_chip(chip_name), n_chips=n_chips,
                            rotations=rotations)
        return ThermalModel(stack, get_cooling(cooling_name), params)

    return _MODEL_CACHE.get_or_build(key, build)
