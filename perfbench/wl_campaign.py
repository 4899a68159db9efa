"""campaign_cold: a Fig. 7-style frequency grid, every point a new
geometry, run cold through the campaign engine.

One caller waits for the whole grid: ``CampaignRunner.run()`` on the
engine with a checkpoint, empty model and response caches and a fresh,
empty operator store, so every point pays its response-operator build.
BLAS threading is left at the library default.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from pathlib import Path

from common import Report, peak_rss_mb, ratio, stop_at_boundary, timed
from layers import LayerTimer, Patched, empty_layer_metrics, layer_metrics
from repro.core.campaign import CampaignRunner, evaluate_point, \
    frequency_grid
from repro.obs import get_registry
from repro.parallel.pool import snapshot_delta
from repro.resilience import ResilienceOptions
from repro.thermal.hotspot import model_cache
from repro.thermal.response import DISABLE_ENV, configure, response_cache

CHIP = "low-power-cmp"
HEIGHTS = tuple(range(1, 11))
#: The five coolants of the paper's Figs. 7/8. Fig. 8 is left out: it
#: shares every geometry with Fig. 7, so half its points would be
#: operator-store hits.
COOLANTS = ("air", "water_pipe", "mineral_oil", "fluorinert", "water")
#: Points re-solved through the sparse reference per run.
CHECK_POINTS = 3
TEMP_TOL_C = 1e-6
#: Engine workers. At ``workers = nproc`` each pool worker starts a
#: multi-threaded OpenBLAS and the cores are oversubscribed: on a 2-core
#: host the 50-point grid then takes 19-26 s and its rate varies by
#: about 30% between runs, too much for any bound. One worker leaves the
#: BLAS threads their cores (10.4-11.3 s per grid, within 4%); the
#: process pool is measured on the fleet workloads, whose workers run
#: no BLAS.
WORKERS = 1


def grid_for(seed: int):
    """The seeded grid: the temperature limit is drawn per seed, which
    changes every answer but not the geometries, so the cost of a grid
    does not depend on the seed."""
    rng = random.Random(f"campaign_cold/{seed}")
    threshold = round(rng.uniform(78.0, 82.0), 3)
    return frequency_grid(CHIP, HEIGHTS, COOLANTS, threshold_c=threshold)


def cold_grid(points, work: Path):
    """One grid from empty caches and an empty operator store; returns
    ``(CampaignResult, wall seconds, CPU seconds)`` of ``run()``."""
    run_dir = Path(tempfile.mkdtemp(prefix="grid-", dir=work))
    model_cache().clear()
    response_cache().clear()
    runner = CampaignRunner(points, checkpoint_path=run_dir / "cp.json",
                            workers=WORKERS,
                            response_cache_dir=run_dir / "store")
    try:
        return timed(runner.run, resume=False)
    finally:
        configure(None)
        shutil.rmtree(run_dir, ignore_errors=True)


def sparse_reference(point):
    """The point re-solved with the response kernel switched off."""
    prior = os.environ.get(DISABLE_ENV)
    os.environ[DISABLE_ENV] = "1"
    try:
        return evaluate_point(point, ResilienceOptions())
    finally:
        if prior is None:
            os.environ.pop(DISABLE_ENV, None)
        else:
            os.environ[DISABLE_ENV] = prior


def check_result(result, points, seed: int) -> tuple[int, list[str]]:
    """Finished points that passed, and a description of each problem.

    Every point must finish; a seeded sample must match the sparse
    reference to the same ladder step and within ``TEMP_TOL_C``.
    """
    problems = []
    good = set()
    for p in points:
        rec = result.records.get(p.key)
        if rec is None or not rec.finished:
            problems.append(f"{p.key}: {rec.status if rec else 'missing'}")
        else:
            good.add(p.key)
    rng = random.Random(f"campaign_cold/check/{seed}")
    for p in rng.sample(list(points), CHECK_POINTS):
        rec = result.records.get(p.key)
        ref = sparse_reference(p)
        if (rec is None or rec.status != ref.status
                or rec.f_ghz != ref.f_ghz
                or abs(rec.max_temp_c - ref.max_temp_c) > TEMP_TOL_C):
            problems.append(
                f"{p.key}: served {rec and (rec.f_ghz, rec.max_temp_c)} "
                f"vs sparse {(ref.f_ghz, ref.max_temp_c)}")
            good.discard(p.key)
    return len(good), problems


def _records_equal(a, b) -> bool:
    """Same status, ladder step and temperature at every point."""
    return ({k: (r.status, r.f_ghz, r.max_temp_c) for k, r in a.items()}
            == {k: (r.status, r.f_ghz, r.max_temp_c) for k, r in b.items()})


def setup(workload: str, *, seed: int, work: Path) -> dict:
    """The grid, and caches emptied for the first cold run."""
    model_cache().clear()
    response_cache().clear()
    return {"points": grid_for(seed)}


def close(state: dict) -> None:
    """Nothing outlives a grid run."""


def run(state: dict, *, seed: int, seconds: float, trace: bool,
        work: Path) -> Report:
    points = state["points"]
    meta = {"workers": WORKERS, "points_per_grid": len(points),
            "threshold_c": points[0].threshold_c}
    if trace:
        return _traced(points, seed, work, meta)

    walls, cpus, results = [], [], []
    started = time.perf_counter()
    before = get_registry().snapshot()
    while True:
        result, wall, cpu = cold_grid(points, work)
        if not results:
            # Peak memory is read after one grid: each later grid in the
            # same process raises it further (about 730 MB after one
            # grid, 830 MB after two), so a run's peak would follow how
            # many grids fit in its time.
            rss = peak_rss_mb()
        walls.append(wall)
        cpus.append(cpu)
        results.append(result)
        if stop_at_boundary(time.perf_counter() - started, walls, seconds):
            break
    delta = snapshot_delta(before, get_registry().snapshot())
    attempted = len(points) * len(results)
    ok, problems = check_result(results[0], points, seed)
    for i, result in enumerate(results[1:], 1):
        if _records_equal(results[0].records, result.records):
            ok += len(points)
        else:
            problems.append(f"grid {i} differs from grid 0")
    c, h = delta["counters"], delta["histograms"]
    busy = h.get("parallel.chunk_seconds", {}).get("sum", 0.0)
    meta.update({
        "grids": len(results), "grid_walls_s": walls, "grid_cpu_s": cpus,
        "samples": {"grids": len(walls)},
        "cold_build_share": ratio(c.get("response.builds", 0), attempted),
        "build_share_of_busy": ratio(
            h.get("response.build_seconds", {}).get("sum", 0.0), busy),
        "parallel_worker_util": ratio(busy, WORKERS * sum(walls)),
        "summary": results[-1].summary(),
        "peak_rss_first_grid": rss,
    })
    ok_frac = ratio(ok, attempted)
    return Report(
        attempted=attempted, failed=attempted - ok, correct=not problems,
        metrics={"throughput_per_s": attempted / sum(walls),
                 "slo_met_frac": ok_frac, "ok_frac": ok_frac,
                 "peak_rss_mb": rss["total_mb"]},
        meta=meta, problems=problems)


def _traced(points, seed: int, work: Path, meta: dict) -> Report:
    """An untraced grid (the overhead baseline and reference answers),
    then the same grid with the wrappers in. With one worker the engine
    runs inline, so every wrapped call lands in this process."""
    plain, plain_wall, _ = cold_grid(points, work)
    timer = LayerTimer()
    before = get_registry().snapshot()
    with Patched(timer) as patched:
        result, wall, _ = cold_grid(points, work)
    delta = snapshot_delta(before, get_registry().snapshot())
    ok, problems = check_result(result, points, seed)
    if not _records_equal(plain.records, result.records):
        problems.append("traced grid differs from the untraced grid")
        ok = 0
    metrics = empty_layer_metrics()
    metrics.update(layer_metrics(timer, wall, delta, workers=WORKERS))
    summary = result.summary()
    metrics["core.campaign.failed"] = summary["failed"]
    metrics["core.campaign.degraded"] = summary["degraded"]
    metrics["resilience.attempts"] = sum(r.attempts
                                         for r in result.records.values())
    metrics["resilience.degraded"] = summary["degraded"]
    metrics["obs.trace_overhead_frac"] = wall / plain_wall - 1.0
    meta.update({"untraced_wall_s": plain_wall, "traced_wall_s": wall,
                 "unwrapped": patched.missing})
    return Report(attempted=len(points), failed=len(points) - ok,
                  correct=not problems, metrics=metrics, meta=meta,
                  problems=problems)
