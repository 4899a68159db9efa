"""Per-layer timing for the traced pass, taken from outside the program.

The traced pass replaces a fixed list of the program's public functions
and methods with timing wrappers, at every place the caller looks the
name up: the defining module, every module that imported the function
by name (the fleet simulator imports ``canonical_event_line``, the
thermal model imports ``build_network``), or the class for a method.
Each wrapper keeps a per-thread stack, so a layer's *self* time is its
own duration minus the wrapped calls made inside it. What no wrapper
covers is the explicit ``other`` remainder: self times plus ``other``
add up to the traced wall time by construction.

Nothing is wrapped during the untraced pass that gives the end-to-end
numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from common import ratio

#: ``(metric stem, defining module, attribute path)`` of every timed
#: call. A stem listed twice (placement) sums the calls of each target.
WRAPPED = (
    ("thermal.build_network", "repro.thermal.package", "build_network"),
    ("thermal.solve_many", "repro.thermal.network",
     "ThermalNetwork.solve_many"),
    ("floorplan.power_map", "repro.floorplan.floorplan",
     "Floorplan.power_map"),
    ("response.build", "repro.thermal.response", "build_response_operator"),
    ("response.store_load", "repro.thermal.response", "ResponseStore.load"),
    ("response.matvec", "repro.thermal.response",
     "ResponseOperator.temperatures"),
    ("power.block_power_vector", "repro.thermal.response",
     "block_power_vector"),
    ("power.stack_power_maps", "repro.thermal.package", "stack_power_maps"),
    ("core.max_frequency", "repro.core.freqopt", "max_frequency"),
    ("perfsim.execution_time", "repro.perfsim.analytic",
     "AnalyticModel.execution_time_s"),
    ("serve.submit", "repro.serve.broker", "Broker.submit"),
    ("serve.evaluate", "repro.serve.runner", "run_spec_resilient"),
    ("fleet.ladder", "repro.fleet.sim", "build_board_ladder"),
    ("fleet.simulate", "repro.fleet.sim", "simulate"),
    ("fleet.arrivals", "repro.fleet.workload", "generate_arrivals"),
    ("fleet.placement", "repro.fleet.policies", "RoundRobinPolicy.select"),
    ("fleet.placement", "repro.fleet.policies", "LeastLoadedPolicy.select"),
    ("fleet.placement", "repro.fleet.policies",
     "ThermalAwarePolicy.select"),
    ("fleet.dtm_lookup", "repro.fleet.sim", "BoardLadder.step_for_water"),
    ("fleet.event_log", "repro.fleet.events", "canonical_event_line"),
    ("fleet.faults_timeline", "repro.fleet.faults",
     "generate_fault_timeline"),
)

#: Extra counts taken from a call's arguments: ``stem -> (metric, fn)``.
ARG_COUNTS = {
    # solve_many(self, power_w_seq): one right-hand side per map
    "thermal.solve_many": ("thermal.solve_many.rhs",
                           lambda args, kwargs: len(args[1])),
}

STEMS = tuple(dict.fromkeys(stem for stem, _, _ in WRAPPED))

#: Metrics read from the program's own registry or from the workload's
#: results rather than from wrappers: ``name -> unit``.
DERIVED = {
    "thermal.solve_many.rhs": "count",
    "thermal.factorize.count": "count",
    "thermal.factorize.share": "frac",
    "thermal.model_cache.hit_ratio": "frac",
    "response.mem_hit_ratio": "frac",
    "core.campaign.failed": "count",
    "core.campaign.degraded": "count",
    "parallel.chunks": "count",
    "parallel.chunk_busy.share": "frac",
    "parallel.worker_util": "frac",
    "parallel.restarts": "count",
    "parallel.task_retries": "count",
    "resilience.attempts": "count",
    "resilience.degraded": "count",
    "serve.hit_share": "frac",
    "serve.coalesced_share": "frac",
    "serve.computed_share": "frac",
    "serve.shed": "count",
    "serve.failed": "count",
    "serve.expired": "count",
    "serve.generator_lag.share": "frac",
    "serve.queue_wait.share": "frac",
    "serve.run.share": "frac",
    "fleet.stalled_share": "frac",
    "fleet.incidents": "count",
    "fleet.jobs_requeued": "count",
    "fleet.availability": "frac",
    "obs.trace_overhead_frac": "frac",
    "obs.traced_wall_s": "s",
    "other.share": "frac",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints: ``name -> unit``."""
    out: dict[str, str] = {}
    for stem in STEMS:
        out[f"{stem}.calls"] = "count"
        out[f"{stem}.share"] = "frac"
    out.update(DERIVED)
    return out


@dataclass
class _ThreadTally:
    """One thread's open-call stack and accumulated times."""

    stack: list = field(default_factory=list)
    calls: dict = field(default_factory=dict)
    total: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class LayerTimer:
    """Self-time accounting across nested, possibly threaded calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._tallies: list[_ThreadTally] = []
        self._lock = threading.Lock()

    def _tally(self) -> _ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _ThreadTally()
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def wrap(self, stem: str, fn: Callable,
             count: tuple[str, Callable] | None = None) -> Callable:
        """``fn`` timed under ``stem``; ``count`` adds an argument-derived
        tally such as right-hand sides per solve."""
        clock = self._clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tally = self._tally()
            tally.stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = tally.stack.pop()
                if tally.stack:
                    tally.stack[-1] += dt
                tally.calls[stem] = tally.calls.get(stem, 0) + 1
                tally.total[stem] = tally.total.get(stem, 0.0) + dt
                tally.self_s[stem] = tally.self_s.get(stem, 0.0) + dt - inner
                if count is not None:
                    name, fn_count = count
                    tally.extra[name] = (tally.extra.get(name, 0)
                                         + fn_count(args, kwargs))

        return timed

    def totals(self) -> dict[str, dict]:
        """Summed over threads: ``calls``, ``total``, ``self``, ``extra``."""
        out = {"calls": {}, "total": {}, "self": {}, "extra": {}}
        with self._lock:
            tallies = list(self._tallies)
        for t in tallies:
            for key, src in (("calls", t.calls), ("total", t.total),
                             ("self", t.self_s), ("extra", t.extra)):
                for name, v in src.items():
                    out[key][name] = out[key].get(name, 0) + v
        return out


def self_shares(self_s: dict[str, float], wall_s: float
                ) -> tuple[dict[str, float], float]:
    """Each layer's self time as a share of ``wall_s``, and the
    ``other`` remainder; the shares plus ``other`` sum to 1."""
    shares = {name: ratio(v, wall_s) for name, v in self_s.items()}
    return shares, 1.0 - sum(shares.values())


class Patched:
    """Context manager installing the timing wrappers, and restoring
    every original on exit."""

    def __init__(self, timer: LayerTimer, table=WRAPPED):
        self.timer = timer
        self.table = table
        #: targets the program no longer has (renamed or removed); their
        #: metrics read 0 and the workloads list them in the meta line
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        for stem, module_name, path in self.table:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapper = self.timer.wrap(stem, original, ARG_COUNTS.get(stem))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            # a module-level function: replace it wherever it was
            # imported by name, since callers look it up there
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if not name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(timer: LayerTimer, wall_s: float, delta: dict, *,
                  workers: int = 1) -> dict[str, float]:
    """The wrapper- and registry-derived per-layer metrics of one
    traced pass (workload-specific ones are filled in by the caller).

    ``delta`` is the registry delta over the pass
    (``repro.parallel.pool.snapshot_delta``).
    """
    totals = timer.totals()
    shares, other = self_shares(totals["self"], wall_s)
    out: dict[str, float] = {}
    for stem in STEMS:
        out[f"{stem}.calls"] = totals["calls"].get(stem, 0)
        out[f"{stem}.share"] = shares.get(stem, 0.0)
    out["thermal.solve_many.rhs"] = totals["extra"].get(
        "thermal.solve_many.rhs", 0)
    c, h = delta["counters"], delta["histograms"]
    out["thermal.factorize.count"] = c.get("thermal.splu_factorizations", 0)
    out["thermal.factorize.share"] = ratio(
        h.get("thermal.factorize_seconds", {}).get("sum", 0.0), wall_s)
    hits, misses = (c.get("thermal.model_cache_hit", 0),
                    c.get("thermal.model_cache_miss", 0))
    out["thermal.model_cache.hit_ratio"] = ratio(hits, hits + misses)
    hits, misses = (c.get("response.cache_hit", 0),
                    c.get("response.cache_miss", 0))
    out["response.mem_hit_ratio"] = ratio(hits, hits + misses)
    out.update(parallel_metrics(delta, wall_s, workers))
    out["obs.traced_wall_s"] = wall_s
    out["other.share"] = other
    return out


def parallel_metrics(delta: dict, wall_s: float,
                     workers: int) -> dict[str, float]:
    """The parallel layer's metrics over a pass of ``wall_s`` seconds:
    chunks, summed chunk busy time as a share of the wall, busy time
    over ``workers`` x wall, and supervisor restarts and retries."""
    c, h = delta["counters"], delta["histograms"]
    busy = h.get("parallel.chunk_seconds", {}).get("sum", 0.0)
    return {
        "parallel.chunks": c.get("parallel.chunks_completed", 0),
        "parallel.chunk_busy.share": ratio(busy, wall_s),
        "parallel.worker_util": ratio(busy, workers * wall_s),
        "parallel.restarts": c.get("supervisor.restarts", 0),
        "parallel.task_retries": c.get("supervisor.task_retries", 0),
    }


def empty_layer_metrics() -> dict[str, float]:
    """Every per-layer metric at zero, for layers a workload never runs."""
    return {name: 0.0 if unit in ("frac", "s") else 0
            for name, unit in per_layer_units().items()}
