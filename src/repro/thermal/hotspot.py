"""High-level HotSpot-like facade.

:class:`ThermalModel` wraps one (stack, cooling) configuration and
answers steady-state worst-case queries at any VFS step. This is the
object the frequency optimizer and the sweep drivers hold onto.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..obs import span
from ..stack.chipstack import StackConfig
from .cache import BoundedCache
from .network import ThermalNetwork, ThermalResult
from .package import (
    DEFAULT_PACKAGE,
    PackageParams,
    build_network,
    die_layer_names,
    stack_power_maps,
)
from .response import (
    block_power_vector,
    factor_keys,
    response_enabled,
    stack_factor,
)
from .stacksolve import PackageFactor

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from ..cooling.options import CoolingOption


class ThermalModel:
    """Steady-state thermal model of one stack under one cooling option.

    A model holds the die temperatures it has computed (one read-only
    vector per VFS step) and the hottest cell of each step a threshold
    query has read; it answers every die-observable query from them. A
    step not seen before costs one query on the geometry's
    shared stack factors (:func:`~repro.thermal.response.stack_factor`,
    resolved through the process-wide response cache; the model keeps
    no factor), or one sparse solve (:meth:`result`) when
    ``REPRO_RESPONSE_DISABLE`` is set. The assembled network is built
    on first use: by the sparse path, by full-stack queries, or when
    this geometry's die factor has to be built. Models are shared
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
        self._die_names = die_layer_names(stack)
        self._network: ThermalNetwork | None = None
        self._keys = None
        self._result_cache: dict[float, ThermalResult] = {}
        self._temps: dict[tuple[bool, float], np.ndarray] = {}
        self._hottest: dict[tuple[bool, float], float] = {}

    @property
    def network(self) -> ThermalNetwork:
        """The assembled network (built on first use)."""
        if self._network is None:
            self._network = build_network(self.stack, self.cooling,
                                          self.params)
        return self._network

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
        """Full sparse solution at a VFS step (cached per frequency)."""
        key = round(float(f_hz), 3)
        cached = self._result_cache.get(key)
        if cached is None:
            cached = _read_only(self.network.solve(self.power_maps(f_hz)))
            self._result_cache[key] = cached
        return cached

    def _factor(self) -> PackageFactor:
        if self._keys is None:
            self._keys = factor_keys(self.stack, self.cooling, self.params)
        return stack_factor(self.stack, self.cooling, self.params,
                            self._keys, lambda: self.network)

    def temperatures(self, p: np.ndarray) -> np.ndarray:
        """Flat die temperatures (die-major, Celsius) for one block-power
        vector (:func:`~repro.thermal.response.block_power_vector`
        order): one query on the shared stack factors, not cached."""
        return self._factor().temperatures(p)

    def _die_temps(self, f_hz_seq, sparse: bool | None = None
                   ) -> list[np.ndarray]:
        """Flat die temperatures at each VFS step, cached per step.

        A call whose steps are all cached touches no factor. Otherwise
        each missing step is one factored query on one power vector —
        never a batch — so scalar probes and ladder batches record
        bitwise-identical temperatures (checkpoint byte-identity
        depends on it); with ``REPRO_RESPONSE_DISABLE`` set it is one
        sparse solve instead, cached apart. ``sparse`` is that switch
        as the caller read it (None reads it now). Two threads missing
        the same step both compute it and store the same bits.
        """
        if sparse is None:
            sparse = not response_enabled()
        factor = None
        temps = []
        for f in f_hz_seq:
            key = (sparse, round(float(f), 3))
            t = self._temps.get(key)
            if t is None:
                if sparse:
                    res = self.result(f)
                    t = np.concatenate([res.layer(name).ravel()
                                        for name in self._die_names])
                else:
                    if factor is None:
                        factor = self._factor()
                    t = factor.temperatures(
                        block_power_vector(self.stack, float(f)))
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
        die layers are inspected (the heatsink is always cooler). Kept
        per step as a float, keyed like the die temperatures, so a
        step probed before costs one dict read: no array is touched.
        """
        sparse = not response_enabled()
        key = (sparse, round(float(f_hz), 3))
        hot = self._hottest.get(key)
        if hot is None:
            hot = float(self._die_temps((f_hz,), sparse)[0].max())
            self._hottest[key] = hot
        return hot

    def max_temperatures_many(self, f_hz_seq) -> tuple[float, ...]:
        """Hottest die-cell temperature at each VFS step, batched.

        The batched counterpart of :meth:`max_temperature_c`, from the
        same per-step floats: the ladder sweeps and the fleet's DTM
        ladder ask for every step of a ladder in one call, which
        resolves the factors once for the steps not yet read.
        """
        sparse = not response_enabled()
        freqs = list(f_hz_seq)
        keys = [(sparse, round(float(f), 3)) for f in freqs]
        todo = [(f, key) for f, key in zip(freqs, keys)
                if key not in self._hottest]
        if todo:
            temps = self._die_temps([f for f, _ in todo], sparse)
            for (_, key), t in zip(todo, temps):
                self._hottest[key] = float(t.max())
        return tuple(self._hottest[key] for key in keys)

    def die_temperature_fields(self, f_hz: float) -> dict[str, np.ndarray]:
        """Per-die (grid, grid) temperature fields — the Figs. 9/16/18 maps."""
        return self._die_fields(self._die_temps((f_hz,))[0])

    def die_temperature_fields_many(self, f_hz_seq
                                    ) -> list[dict[str, np.ndarray]]:
        """Per-die temperature fields at several VFS steps, batched."""
        return [self._die_fields(t) for t in self._die_temps(f_hz_seq)]

    def per_die_max_c(self, f_hz: float) -> tuple[float, ...]:
        """Maximum temperature of each die, bottom first."""
        fields = self._die_fields(self._die_temps((f_hz,))[0])
        return tuple(float(field.max()) for field in fields.values())

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


_MODEL_CACHE = BoundedCache(128, metric="thermal.model_cache")


def model_cache() -> BoundedCache:
    """The process-wide model cache behind :func:`model_for`."""
    return _MODEL_CACHE


def model_for(chip_name: str, n_chips: int, cooling_name: str,
              rotations: tuple[bool, ...] = (),
              params: PackageParams = DEFAULT_PACKAGE) -> ThermalModel:
    """Memoized model lookup for library chips and cooling options.

    Sweeps over (chips x coolants x stack heights) and served requests
    revisit configurations constantly; the cache keeps each built model
    alive with the temperatures it has computed (bounded LRU — see
    :class:`~repro.thermal.cache.BoundedCache` for its statistics). Each
    entry holds the model's temperatures, plus its assembled network
    and sparse factorization once those have been used. Keyed by
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
