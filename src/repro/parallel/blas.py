"""Read and set the thread count of every OpenBLAS loaded in this process.

numpy and scipy wheels each bundle their own OpenBLAS (numpy's
``libscipy_openblas64_``, scipy's ``libscipy_openblas``), and each
starts one thread per core. The campaign engine runs one point per
process at a time, so those threads only compete with the engine's
other processes for the same cores: with them, two workers ran a cold
grid slower than one. The engine therefore runs every chunk at one
thread (:mod:`repro.parallel.pool`): pool workers set it once when
they start, the inline engine around its chunk loop
(``docs/performance.md`` has the measurements).

The count is process-global, not per thread. Setting it in the inline
engine is safe because no serve dispatcher thread, the one kind of
thread that runs BLAS beside others, ever enters the engine: a served
request goes ``ExperimentSpec.run`` -> ``max_frequency``. Serve keeps
the library default, where one thread measured no faster.

Libraries are found through ``/proc/self/maps`` and opened with
``RTLD_NOLOAD``, so nothing new is ever loaded; the thread count goes
through the ``openblas_{get,set}_num_threads`` entry points under the
prefixes and suffixes the wheels export. Where no OpenBLAS is found
(another BLAS, another platform) every function here does nothing and
returns an empty mapping; none of them raises.
"""

from __future__ import annotations

import ctypes
import os
from functools import lru_cache
from typing import Callable, Mapping

__all__ = ["blas_threads", "set_blas_threads"]

#: ``(getter, setter)`` symbol pairs, tried in order; a library's first
#: exported pair is used. The scipy-openblas wheels prefix ``scipy_``;
#: ILP64 builds suffix ``64_``.
_SYMBOLS = tuple((f"{prefix}openblas_get_num_threads{suffix}",
                  f"{prefix}openblas_set_num_threads{suffix}")
                 for prefix in ("scipy_", "")
                 for suffix in ("64_", ""))

#: ``(path, get, set)`` of one loaded OpenBLAS
_Control = tuple[str, Callable[[], int], Callable[[int], None]]


def _loaded_openblas_paths() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.readlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        name = os.path.basename(path).lower()
        if "openblas" in name and ".so" in name:
            paths.append(path)
    return list(dict.fromkeys(paths))


@lru_cache(maxsize=1)
def _controls() -> tuple[_Control, ...]:
    """The thread-count entry points of every loaded OpenBLAS, found
    once per process (a forked child inherits them: same mappings)."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return ()
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS too)
    out = []
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path, mode=noload)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is None or put is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, ()
            put.restype, put.argtypes = None, (ctypes.c_int,)
            out.append((path, get, put))
            break
    return tuple(out)


def blas_threads() -> dict[str, int]:
    """Each loaded OpenBLAS's thread count, keyed by library path."""
    return {path: int(get()) for path, get, _ in _controls()}


def set_blas_threads(threads: int | Mapping[str, int]) -> dict[str, int]:
    """Set loaded OpenBLAS thread counts; return the counts replaced.

    Args:
        threads: one count for every library, or a count per library
            path (a previous return value, to restore it); libraries
            the mapping does not name are left alone.

    Returns:
        ``path -> previous count`` of every library set (empty when no
        OpenBLAS was found).
    """
    prior = {}
    for path, get, put in _controls():
        n = threads if isinstance(threads, int) else threads.get(path)
        if n is None:
            continue
        prior[path] = int(get())
        put(int(n))
    return prior
