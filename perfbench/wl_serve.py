"""serve_warm: an open loop of ``Broker.submit`` against a warm service.

Set-up warms an operator store over more geometries than the in-memory
response cache holds, starts a broker with the default thread-mode
``BrokerConfig`` and warms a hot set of results. The timed phase sends
a seeded, stationary mix at one fixed mean rate (Poisson arrivals) from
a single generator thread:

* Zipf repeats of the hot set, answered from the result cache;
* fresh keys on warm geometries (a new ``threshold_c``), each a real
  evaluation that never builds an operator;
* a few fresh keys sent twice at once, so the second coalesces.

Latency runs from a request's *scheduled* send time to its job's
``finished_at``; coalesced requests share their job's finish time.
"""

from __future__ import annotations

import math
import random
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from common import (MIN_BEYOND, Report, TooFewSamples, percentile,
                    rate_of_medians, ratio)
from layers import LayerTimer, Patched, empty_layer_metrics, layer_metrics
from openloop import poisson_offsets, run_schedule
from repro.config import ExperimentSpec
from repro.obs import get_registry
from repro.parallel.pool import snapshot_delta
from repro.serve import Broker, BrokerConfig
from repro.serve.client import result_to_json
from repro.thermal.hotspot import model_cache
from repro.thermal.response import configure, response_cache

CHIP = "low-power-cmp"
#: Ten geometries: more than the eight operators the in-memory response
#: cache holds, so some computed requests load from the disk store.
GEOMETRIES = tuple((h, c) for h in range(1, 6)
                   for c in ("water", "fluorinert"))
HOT_THRESHOLDS = (76.0, 78.0, 80.0, 82.0, 84.0)
HOT_KEYS = 32
ZIPF_S = 1.1
RATE_PER_S = 40.0
#: Arrival mix: hot repeat, fresh key, and (the rest) a fresh key sent
#: twice at once.
P_HOT, P_FRESH = 0.74, 0.22
#: The latency limit behind ``slo_met_frac``, set from measured runs on
#: a 2-core host: computed requests took 4.5 / 5.5 / 7.6 / 9.7 ms at
#: p25 / p50 / p75 / p90, so about 95% of all requests finish within
#: 10 ms and a slower evaluation moves the share.
LIMIT_S = 0.010
CHECK_COMPUTED = 6
CHECK_HITS = 2
WAIT_S = 60.0


def spec(n_chips: int, cooling: str, threshold_c: float) -> ExperimentSpec:
    return ExperimentSpec(chip=CHIP, n_chips=n_chips, cooling=cooling,
                          threshold_c=threshold_c)


def hot_set(seed: int) -> list[ExperimentSpec]:
    """The seeded hot keys, most popular first."""
    rng = random.Random(f"serve_warm/hot/{seed}")
    combos = [(g, t) for g in GEOMETRIES for t in HOT_THRESHOLDS]
    return [spec(*g, t) for g, t in rng.sample(combos, HOT_KEYS)]


@dataclass
class Traffic:
    """The generated schedule: one spec and kind per send."""

    offsets: list[float]
    specs: list[ExperimentSpec]
    kinds: list[str]            # "hot" / "fresh" / "dup"

    @property
    def fresh_keys(self) -> int:
        return sum(k == "fresh" for k in self.kinds)


def traffic(seed: int, duration_s: float, hot: list[ExperimentSpec]
            ) -> Traffic:
    """Seeded stationary mix over ``duration_s`` seconds.

    The arrival kinds come in the exact ``P_HOT``/``P_FRESH`` shares and
    fresh keys visit the geometries in turn, so seeds differ in order
    and timing but not in how much work they ask for.
    """
    rng = random.Random(f"serve_warm/traffic/{seed}")
    weights = [1.0 / (i + 1) ** ZIPF_S for i in range(len(hot))]
    arrivals = poisson_offsets(rng, RATE_PER_S, duration_s)
    n = len(arrivals)
    n_hot, n_fresh = round(P_HOT * n), round(P_FRESH * n)
    plan = (["hot"] * n_hot + ["fresh"] * n_fresh
            + ["pair"] * (n - n_hot - n_fresh))
    rng.shuffle(plan)
    geometries = list(GEOMETRIES)
    rng.shuffle(geometries)
    phase = rng.random()
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    offsets, specs, kinds = [], [], []
    fresh = 0
    for t, kind in zip(arrivals, plan):
        if kind == "hot":
            offsets.append(t)
            specs.append(rng.choices(hot, weights)[0])
            kinds.append("hot")
            continue
        # a key no earlier request used: an irrational stride keeps
        # the thresholds distinct and off the hot set's whole degrees
        threshold = round(75.0 + 10.0 * ((phase + fresh * golden) % 1.0), 6)
        new = spec(*geometries[fresh % len(geometries)], threshold)
        fresh += 1
        offsets.append(t)
        specs.append(new)
        kinds.append("fresh")
        if kind == "pair":
            offsets.append(t)
            specs.append(new)
            kinds.append("dup")
    return Traffic(offsets, specs, kinds)


def setup(workload: str, *, seed: int, work: Path) -> dict:
    """A fresh operator store warmed over every geometry, a broker, and
    the hot set in its result cache."""
    configure(tempfile.mkdtemp(prefix="store-", dir=work))
    model_cache().clear()
    response_cache().clear()
    for n, cooling in GEOMETRIES:
        spec(n, cooling, HOT_THRESHOLDS[0]).run()
    hot = hot_set(seed)
    broker = Broker(BrokerConfig())
    warm_hot(broker, hot)
    return {"broker": broker, "hot": hot}


def close(state: dict) -> None:
    state["broker"].shutdown()
    configure(None)


def warm_hot(broker: Broker, hot: list[ExperimentSpec]) -> None:
    for job in [broker.submit(s) for s in hot]:
        job.wait(timeout=WAIT_S)


@dataclass
class Pass:
    """One replay of the schedule and what each request saw."""

    sent: list
    latencies: list[float | None]
    classes: list[str]          # "hit" / "coalesced" / "computed"
    jobs: dict                  # job id -> job, computed jobs only
    wall_s: float
    delta: dict

    @property
    def runs(self) -> list[float]:
        """Each computed job's run time in its dispatcher."""
        return [j.finished_at - j.started_at for j in self.jobs.values()]

    @property
    def run_s(self) -> float:
        """Dispatcher time spent evaluating."""
        return sum(self.runs)

    def per_geometry(self) -> dict:
        """``(n_chips, cooling) -> [(1, run seconds)]`` of the computed
        jobs."""
        groups = defaultdict(list)
        for j in self.jobs.values():
            s = j.request.spec
            groups[(s.n_chips, s.cooling)].append(
                (1, j.finished_at - j.started_at))
        return groups


def replay(broker: Broker, tr: Traffic) -> Pass:
    before = get_registry().snapshot()
    sent = run_schedule(tr.offsets, lambda i: broker.submit(tr.specs[i]))
    latencies, classes, jobs, seen = [], [], {}, set()
    for s in sent:
        job = s.value
        if job is None:
            latencies.append(None)
            classes.append("failed")
            continue
        try:
            job.wait(timeout=WAIT_S)
        except Exception:  # the failure is this request's outcome
            latencies.append(None)
            classes.append("failed")
            continue
        latencies.append(job.finished_at - s.due)
        if job.from_cache:
            classes.append("hit")
        elif job.id in seen:
            classes.append("coalesced")
        else:
            classes.append("computed")
            jobs[job.id] = job
        seen.add(job.id)
    finished = [s.due + lat for s, lat in zip(sent, latencies)
                if lat is not None]
    wall = (max(finished) if finished else sent[-1].sent) - sent[0].due
    return Pass(sent, latencies, classes, jobs, wall,
                snapshot_delta(before, get_registry().snapshot()))


def _pct(values, q: float):
    try:
        return percentile(values, q)
    except TooFewSamples:
        return None


def check(tr: Traffic, p: Pass, seed: int) -> tuple[int, list[str]]:
    """Requests answered correctly, and each problem found."""
    problems = []
    c = p.delta["counters"]
    for name in ("serve.shed_total", "serve.failed_total",
                 "serve.expired_total"):
        if c.get(name, 0):
            problems.append(f"{name} rose by {c[name]}")
    if c.get("serve.completed_total", 0) != tr.fresh_keys:
        problems.append(
            f"{c.get('serve.completed_total', 0)} computations for "
            f"{tr.fresh_keys} unique keys")
    bad = {i for i, lat in enumerate(p.latencies) if lat is None}
    rng = random.Random(f"serve_warm/check/{seed}")
    computed = [i for i, k in enumerate(p.classes) if k == "computed"]
    hits = [i for i, k in enumerate(p.classes) if k == "hit"]
    sample = (rng.sample(computed, min(CHECK_COMPUTED, len(computed)))
              + rng.sample(hits, min(CHECK_HITS, len(hits))))
    for i in sample:
        outcome = p.sent[i].value.outcome
        direct = tr.specs[i].run()
        if (outcome.rung != "full" or outcome.degraded
                or result_to_json(outcome.result) != result_to_json(direct)):
            problems.append(f"request {i} differs from a direct run()")
            bad.add(i)
    problems += [f"request {i} failed" for i in sorted(bad)
                 if p.latencies[i] is None]
    return len(p.latencies) - len(bad), problems


def stage_stats(p: Pass) -> dict:
    """Latency and per-stage percentiles, with their sample counts."""
    lat = [v for v in p.latencies if v is not None]
    waits = [j.started_at - j.submitted_at for j in p.jobs.values()]
    runs = p.runs
    lags = [s.lateness_s for s in p.sent]
    submits = [s.send_s for s in p.sent]
    out = {"min_beyond": MIN_BEYOND,
           "samples": {"requests": len(lat), "computed_jobs": len(runs)}}
    for name, values, qs in (("latency", lat, (0.5, 0.9, 0.99)),
                             ("queue_wait", waits, (0.5, 0.9)),
                             ("run", runs, (0.5, 0.9)),
                             ("generator_lag", lags, (0.5, 0.99)),
                             ("submit", submits, (0.5,))):
        out[name] = {f"p{q * 100:g}_s": _pct(values, q) for q in qs}
    n = len(p.classes)
    out["shares"] = {k: ratio(p.classes.count(k), n)
                     for k in ("hit", "coalesced", "computed")}
    return out


def run(state: dict, *, seed: int, seconds: float, trace: bool,
        work: Path) -> Report:
    broker, hot = state["broker"], state["hot"]
    tr = traffic(seed, seconds, hot)
    meta = {"rate_per_s": RATE_PER_S, "limit_s": LIMIT_S,
            "geometries": len(GEOMETRIES), "hot_keys": len(hot),
            "response_cache_capacity": response_cache().capacity,
            "broker": BrokerConfig().to_dict()}
    p = replay(broker, tr)
    if trace:
        return _traced(tr, p, hot, seed, meta)
    ok, problems = check(tr, p, seed)
    within = sum(1 for lat in p.latencies
                 if lat is not None and lat <= LIMIT_S)
    meta.update(stage_stats(p))
    meta.update({"pass_wall_s": p.wall_s, "run_s": p.run_s})
    return Report(
        attempted=len(tr.specs), failed=len(tr.specs) - ok,
        correct=not problems,
        # the rate one dispatcher sustains on requests that miss the
        # result cache, over one request per warm geometry
        metrics={"throughput_per_s": rate_of_medians(p.per_geometry()),
                 "slo_met_frac": ratio(within, len(tr.specs)),
                 "ok_frac": ratio(ok, len(tr.specs))},
        meta=meta, problems=problems)


def _traced(tr: Traffic, plain: Pass, hot, seed: int,
            meta: dict) -> Report:
    """Replay the same schedule on a fresh broker with the wrappers in;
    the untraced replay just made gives the overhead."""
    traced_broker = Broker(BrokerConfig())
    try:
        warm_hot(traced_broker, hot)
        timer = LayerTimer()
        with Patched(timer) as patched:
            p = replay(traced_broker, tr)
    finally:
        traced_broker.shutdown()
    ok, problems = check(tr, p, seed)
    metrics = empty_layer_metrics()
    metrics.update(layer_metrics(timer, p.wall_s, p.delta,
                                 workers=BrokerConfig().workers))
    n = len(p.classes)
    lat_sum = sum(v for v in p.latencies if v is not None)
    c = p.delta["counters"]
    metrics.update({
        "serve.hit_share": ratio(p.classes.count("hit"), n),
        "serve.coalesced_share": ratio(p.classes.count("coalesced"), n),
        "serve.computed_share": ratio(p.classes.count("computed"), n),
        "serve.shed": c.get("serve.shed_total", 0),
        "serve.failed": c.get("serve.failed_total", 0),
        "serve.expired": c.get("serve.expired_total", 0),
        "serve.generator_lag.share": ratio(
            sum(s.lateness_s for s in p.sent), lat_sum),
        "serve.queue_wait.share": ratio(
            sum(s.value.started_at - s.value.submitted_at
                for s, k in zip(p.sent, p.classes)
                if k in ("computed", "coalesced")), lat_sum),
        "serve.run.share": ratio(
            sum(s.value.finished_at - s.value.started_at
                for s, k in zip(p.sent, p.classes)
                if k in ("computed", "coalesced")), lat_sum),
        "resilience.attempts": sum(j.outcome.attempts
                                   for j in p.jobs.values()),
        "resilience.degraded": sum(bool(j.outcome.degraded)
                                   for j in p.jobs.values()),
        "obs.trace_overhead_frac": p.run_s / plain.run_s - 1.0,
    })
    meta.update(stage_stats(p))
    meta.update({"untraced_run_s": plain.run_s, "traced_run_s": p.run_s,
                 "unwrapped": patched.missing})
    return Report(attempted=len(tr.specs), failed=len(tr.specs) - ok,
                  correct=not problems, metrics=metrics, meta=meta,
                  problems=problems)

