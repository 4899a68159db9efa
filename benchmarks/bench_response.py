"""Superposition kernel — sparse per-step solves vs ``R @ P`` matmuls.

Times the same Fig. 7-family frequency-ladder campaign through three
power-to-temperature strategies, slowest first:

* ``sparse_baseline`` — the kernel disabled (``REPRO_RESPONSE_DISABLE``),
  every ladder probe a factorized sparse solve;
* ``response_cold`` — the kernel enabled with empty caches, so each
  geometry pays one structured operator build and then answers every
  subsequent probe with a dense matvec;
* ``response_warm`` — a pre-populated on-disk operator store, the
  steady state of a worker fleet: geometries mmap-load their operators
  and never touch the sparse solver at all.

``scripts/bench_to_json.py --bench response`` measures the same
trajectory on the full Figs. 7/8 grids and emits ``BENCH_response.json``
for the CI artifact trail, where the warm-vs-sparse ratio is gated.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.campaign import CampaignRunner, frequency_grid
from repro.thermal.hotspot import model_cache
from repro.thermal.response import (
    DISABLE_ENV,
    STORE_DIR_ENV,
    response_cache,
)

CHIPS = tuple(range(1, 7))
COOLS = ("air", "water_pipe", "water")


def run_campaign(tmpdir: Path, tag: str):
    """One frequency-grid campaign from scratch (the timed unit)."""
    model_cache().clear()
    response_cache().clear()
    checkpoint = tmpdir / f"cp_{tag}.json"
    if checkpoint.exists():
        checkpoint.unlink()
    points = frequency_grid("low-power-cmp", CHIPS, COOLS)
    return CampaignRunner(points,
                          checkpoint_path=checkpoint).run(resume=False)


def _env(monkeypatch, *, disable: bool, store: Path | None):
    if disable:
        monkeypatch.setenv(DISABLE_ENV, "1")
    else:
        monkeypatch.delenv(DISABLE_ENV, raising=False)
    if store is None:
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
    else:
        monkeypatch.setenv(STORE_DIR_ENV, str(store))


def test_campaign_sparse_baseline(benchmark, tmp_path, monkeypatch):
    _env(monkeypatch, disable=True, store=None)
    result = benchmark(run_campaign, tmp_path, "sparse")
    assert result.summary()["failed"] == 0


def test_campaign_response_cold(benchmark, tmp_path, monkeypatch):
    _env(monkeypatch, disable=False, store=None)
    result = benchmark(run_campaign, tmp_path, "cold")
    assert result.summary()["failed"] == 0


def test_campaign_response_warm(benchmark, tmp_path, monkeypatch):
    store = tmp_path / "opstore"
    _env(monkeypatch, disable=False, store=store)
    run_campaign(tmp_path, "warmup")          # populate the disk store
    assert list(store.glob("*.npy"))
    result = benchmark(run_campaign, tmp_path, "warm")
    assert result.summary()["failed"] == 0


def test_response_answers_match_sparse(tmp_path, monkeypatch,
                                       save_artifact):
    """The speedup only counts if the answers agree.

    Kernel-on vs kernel-off is a different arithmetic path (dense
    matvec vs sparse triangular solves), so agreement here is numeric
    (~1e-9 C), not bitwise; the bitwise guarantee — cache on vs off
    with the kernel enabled — lives in ``tests/test_response.py``.
    """
    def frontier(tag):
        result = run_campaign(tmp_path, tag)
        return {key: (r.f_ghz, r.max_temp_c)
                for key, r in result.records.items()}

    _env(monkeypatch, disable=True, store=None)
    sparse = frontier("check_sparse")
    _env(monkeypatch, disable=False, store=tmp_path / "opstore2")
    dense = frontier("check_dense")
    worst = 0.0
    for key, (f_ghz, temp) in sparse.items():
        dense_f, dense_temp = dense[key]
        assert dense_f == f_ghz, key      # same ladder step chosen
        worst = max(worst, abs(dense_temp - temp))
    assert worst < 1e-6
    save_artifact(
        "response_identity",
        f"sparse-solve vs response-operator frontier "
        f"({len(CHIPS) * len(COOLS)} points): same frequency at every "
        f"point, max |dT| = {worst:.3e} C")
