"""Superposition kernel — sparse per-step solves vs the factored query.

Times the same Fig. 7-family frequency-ladder campaign through the two
power-to-temperature strategies, each from empty caches:

* ``sparse_perstep`` — the kernel disabled (``REPRO_RESPONSE_DISABLE``),
  every ladder probe a factorized sparse solve;
* ``factored`` — the kernel enabled: one die factor per stack height,
  one package factor per point, then one query per ladder probe.

``scripts/bench_to_json.py --bench response`` measures the same
trajectory on the full Figs. 7/8 grids and emits ``BENCH_response.json``
for the CI artifact trail, where the factored-vs-sparse ratio is gated.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.campaign import CampaignRunner, frequency_grid
from repro.thermal.hotspot import model_cache
from repro.thermal.response import DISABLE_ENV, response_cache

CHIPS = tuple(range(1, 7))
COOLS = ("air", "water_pipe", "water")


def run_campaign(tmpdir: Path, tag: str):
    """One frequency-grid campaign from empty caches (the timed unit)."""
    model_cache().clear()
    response_cache().clear()
    checkpoint = tmpdir / f"cp_{tag}.json"
    if checkpoint.exists():
        checkpoint.unlink()
    points = frequency_grid("low-power-cmp", CHIPS, COOLS)
    return CampaignRunner(points,
                          checkpoint_path=checkpoint).run(resume=False)


def _kernel(monkeypatch, *, enabled: bool) -> None:
    if enabled:
        monkeypatch.delenv(DISABLE_ENV, raising=False)
    else:
        monkeypatch.setenv(DISABLE_ENV, "1")


def test_campaign_sparse_perstep(benchmark, tmp_path, monkeypatch):
    _kernel(monkeypatch, enabled=False)
    result = benchmark(run_campaign, tmp_path, "sparse")
    assert result.summary()["failed"] == 0


def test_campaign_factored(benchmark, tmp_path, monkeypatch):
    _kernel(monkeypatch, enabled=True)
    result = benchmark(run_campaign, tmp_path, "factored")
    assert result.summary()["failed"] == 0


def test_response_answers_match_sparse(tmp_path, monkeypatch,
                                       save_artifact):
    """The speedup only counts if the answers agree.

    Kernel-on vs kernel-off is a different arithmetic path (factored
    query vs sparse triangular solves), so agreement here is numeric
    (~1e-9 C), not bitwise; the bitwise guarantees of the factored path
    live in ``tests/test_response.py``.
    """
    def frontier(tag):
        result = run_campaign(tmp_path, tag)
        return {key: (r.f_ghz, r.max_temp_c)
                for key, r in result.records.items()}

    _kernel(monkeypatch, enabled=False)
    sparse = frontier("check_sparse")
    _kernel(monkeypatch, enabled=True)
    factored = frontier("check_factored")
    worst = 0.0
    for key, (f_ghz, temp) in sparse.items():
        factored_f, factored_temp = factored[key]
        assert factored_f == f_ghz, key      # same ladder step chosen
        worst = max(worst, abs(factored_temp - temp))
    assert worst < 1e-6
    save_artifact(
        "response_identity",
        f"sparse-solve vs factored frontier "
        f"({len(CHIPS) * len(COOLS)} points): same frequency at every "
        f"point, max |dT| = {worst:.3e} C")
