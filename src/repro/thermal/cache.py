"""The bounded, thread-safe LRU behind the thermal layer's caches.

:func:`~repro.thermal.hotspot.model_cache` (built models) and
:func:`~repro.thermal.response.response_cache` (stack factors) are two
instances of :class:`BoundedCache`. A miss builds outside the cache's
lock, so a lookup of a resident key never waits behind another key's
build; callers of a key whose build is in flight wait for that one
build instead of starting their own.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

from ..errors import ConfigurationError
from ..obs import counter

__all__ = ["BoundedCache", "CacheInfo"]


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-style statistics of a :class:`BoundedCache`."""

    hits: int
    misses: int
    evictions: int
    maxsize: int
    currsize: int


class _Build:
    """One in-flight build: its waiters block on ``done``."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


class BoundedCache:
    """Bounded LRU whose misses build outside its lock.

    Every hit, miss and eviction is kept locally (:meth:`cache_info`)
    and exported through the metrics registry as ``<metric>_hit`` /
    ``_miss`` / ``_eviction``. A miss is a build started; a caller that
    waits for another caller's build of the same key counts as a hit.

    Args:
        capacity: maximum resident entries (>= 1).
        metric: prefix of the exported counters.
    """

    def __init__(self, capacity: int, *, metric: str) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._building: dict[Hashable, _Build] = {}
        self._capacity = capacity
        self._metric = metric
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum number of resident entries."""
        return self._capacity

    def get_or_build(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The entry for ``key``, built by ``factory`` on a miss.

        At most one build per key is in flight: other callers of that
        key wait for it. A build that raises leaves no entry and raises
        in every caller that waited for it; the next call builds again.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                counter(f"{self._metric}_hit").inc()
                return self._entries[key]
            build = self._building.get(key)
            owner = build is None
            if owner:
                build = self._building[key] = _Build()
                self._misses += 1
                counter(f"{self._metric}_miss").inc()
            else:
                self._hits += 1
                counter(f"{self._metric}_hit").inc()
        if not owner:
            build.done.wait()
            if build.error is not None:
                raise build.error
            return build.value
        try:
            value = factory()
        except BaseException as exc:
            with self._lock:
                del self._building[key]
            build.error = exc
            build.done.set()
            raise
        with self._lock:
            del self._building[key]
            self._entries[key] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                counter(f"{self._metric}_eviction").inc()
        build.value = value
        build.done.set()
        return value

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction counts and occupancy."""
        with self._lock:
            return CacheInfo(hits=self._hits, misses=self._misses,
                             evictions=self._evictions,
                             maxsize=self._capacity,
                             currsize=len(self._entries))

    def clear(self) -> None:
        """Drop every resident entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
