"""Helpers shared by every workload: statistics, memory, run
metadata and the result record.

Nothing here imports the program under test, so the helpers (and their
tests) run without ``src/`` on the path.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The end-to-end metrics every run prints with ``--trace 0``, in
#: BENCHMARK.json order: ``name -> unit``.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "slo_met_frac": "frac",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Samples a percentile needs beyond it before it may be reported.
MIN_BEYOND = 10

#: Environment variables that set BLAS / OpenMP thread counts. They are
#: recorded, never set: an unset variable means the library default.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_needed(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample with at least ``beyond`` values above the
    ``q`` quantile (0 < q < 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return math.ceil(beyond / (1.0 - q) - 1e-9)


def percentile(values, q: float, *, beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q`` quantile, refused on too small a sample.

    Raises:
        TooFewSamples: fewer than ``beyond`` values lie above the
            quantile's rank.
    """
    data = sorted(values)
    need = samples_needed(q, beyond)
    if len(data) < need:
        raise TooFewSamples(
            f"p{q * 100:g} needs {need} samples ({beyond} beyond it), "
            f"got {len(data)}")
    rank = max(1, math.ceil(q * len(data)))
    return data[rank - 1]


def stop_at_boundary(elapsed: float, batch_times, budget: float) -> bool:
    """True when ending now lands nearer ``budget`` seconds than running
    one more batch of the mean length would."""
    if not batch_times:
        return False
    mean = sum(batch_times) / len(batch_times)
    return elapsed + mean / 2.0 >= budget


def _cpu_s() -> float:
    """CPU seconds of this process (all its threads) and of its reaped
    children, such as the workers of a pool that has shut down."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its wall seconds, and the CPU seconds
    this process and the children it reaped meanwhile spent."""
    w0, c0 = time.perf_counter(), _cpu_s()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - w0, _cpu_s() - c0


def peak_rss_mb() -> dict[str, float]:
    """Peak resident set of this process and of its largest reaped
    child (``getrusage``; Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"self_mb": own, "largest_child_mb": kids,
            "total_mb": own + kids}


def covered_length(ranges) -> int:
    """How many integers the half-open ranges ``[lo, hi)`` cover
    together; an integer covered by several ranges counts once."""
    total, reach = 0, None
    for lo, hi in sorted(ranges):
        if reach is not None and lo < reach:
            lo = reach
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def rate_of_medians(groups) -> float:
    """Work per second of one round that does one operation of each
    kind, every kind's work and time taken as the median over its
    operations: ``groups`` maps a kind to ``(work, seconds)`` pairs.

    A median per kind keeps an operation a co-tenant slowed from moving
    the rate, and keeps kinds of different cost from mixing into one
    median that sits between their modes.
    """
    work = sum(statistics.median(w for w, _ in ops)
               for ops in groups.values())
    seconds = sum(statistics.median(s for _, s in ops)
                  for ops in groups.values())
    return ratio(work, seconds)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was counted."""
    return num / den if den else 0.0


def git_commit(root: Path) -> str:
    """The checkout's commit, read from its own ``.git`` directory (git
    itself would search the parent directories too), or a note saying
    why there is none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def run_metadata(root: Path, *, workload: str, seed: int,
                 trace: bool) -> dict:
    """Host and library facts every result carries."""
    import numpy
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "blas_env": {k: os.environ.get(k, "unset (library default)")
                     for k in BLAS_ENV},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": " ".join((platform.system(), platform.release(),
                              platform.machine())),
        "git_commit": git_commit(root),
    }


@dataclass
class Report:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds the end-to-end values (``--trace 0``) or the
    per-layer values (``--trace 1``), keyed by metric name; ``meta`` is
    free-form detail printed on the line before the result.
    """

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    meta: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

