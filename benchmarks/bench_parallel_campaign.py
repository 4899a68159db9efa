"""Campaign-engine trajectory — one worker vs two.

Times the same Fig. 7-family frequency-grid campaign on the campaign
engine at each worker count:

* ``serial_seed`` — one worker, every chunk inline (the reference);
* ``workers2`` — 2 worker processes, which additionally asserts the
  engine guarantee: its checkpoint is byte-identical to the one-worker
  one after stripping the timestamped manifest.

``scripts/bench_to_json.py`` measures the same trajectory on the full
Figs. 7/8 grids and emits ``BENCH_parallel.json`` for the CI artifact
trail. Worker speedups need real cores; on a 1-core container the
``workers2`` numbers measure engine overhead, not parallelism.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.campaign import CampaignRunner, frequency_grid
from repro.thermal.hotspot import model_cache

CHIPS = tuple(range(1, 9))
COOLS = ("air", "water_pipe", "water")

#: The largest worker count any test here exercises — the scaling
#: claims are only meaningful when the machine has at least this many
#: cores.
MAX_WORKERS = 2


def cpu_count_banner() -> tuple[int, str]:
    """(cpu_count, banner line) — the context every timing needs.

    Worker speedups need real cores: on a machine with fewer cores
    than workers the ``workers*`` numbers measure engine overhead, not
    parallelism, so the banner carries an explicit warning that CI and
    readers of the benchmark history can key on.
    """
    cores = os.cpu_count() or 1
    line = f"cpu_count={cores}"
    if cores < MAX_WORKERS:
        line += (f" WARNING: fewer cores than the benchmarked "
                 f"max workers ({MAX_WORKERS}); workers_N timings "
                 f"measure engine overhead, not parallel speedup")
    return cores, line


def test_cpu_count_recorded(save_artifact, capsys):
    """Pin the host's core count next to every benchmark artifact."""
    cores, line = cpu_count_banner()
    with capsys.disabled():
        print(f"\n[bench_parallel_campaign] {line}")
    save_artifact("parallel_campaign_cpu_count", line)
    assert cores >= 1


def run_campaign(tmpdir: Path, *, workers):
    """One frequency-grid campaign from scratch (the timed unit)."""
    model_cache().clear()
    checkpoint = tmpdir / f"cp_{workers}.json"
    if checkpoint.exists():
        checkpoint.unlink()
    points = frequency_grid("low-power-cmp", CHIPS, COOLS)
    result = CampaignRunner(points, checkpoint_path=checkpoint,
                            workers=workers).run(resume=False)
    return result, checkpoint


def _stripped(checkpoint: Path) -> str:
    data = json.loads(checkpoint.read_text())
    data.pop("manifest", None)
    return json.dumps(data, sort_keys=False)


def test_campaign_serial_seed(benchmark, tmp_path):
    result, _ = benchmark(run_campaign, tmp_path, workers=1)
    assert result.summary()["failed"] == 0


def test_campaign_workers2(benchmark, tmp_path):
    result, _ = benchmark(run_campaign, tmp_path, workers=2)
    assert result.summary()["failed"] == 0


def test_workers_checkpoint_matches_serial(tmp_path, save_artifact):
    """The engine guarantee the benches ride on: same bytes, any workers."""
    _, serial_cp = run_campaign(tmp_path / "serial", workers=1)
    _, w2_cp = run_campaign(tmp_path / "w2", workers=2)
    identical = _stripped(serial_cp) == _stripped(w2_cp)
    save_artifact(
        "parallel_campaign_identity",
        f"--workers 1 vs --workers 2 checkpoint "
        f"({len(CHIPS) * len(COOLS)} points, manifest stripped): "
        f"{'identical' if identical else 'DIVERGED'}")
    assert identical
