"""Tests for the benchmark's own helpers (run: ``python3 -m pytest
perfbench -q``). They need neither the program nor a timed run."""

from __future__ import annotations

import json
import random
import sys
import threading
import types
from pathlib import Path

import pytest

from common import (END_TO_END, TooFewSamples, covered_length, git_commit,
                    percentile, rate_of_medians, samples_needed,
                    stop_at_boundary)
from layers import LayerTimer, Patched, per_layer_units, self_shares
from openloop import poisson_offsets, run_schedule

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self, t: float = 100.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def sleep(self, dt: float) -> None:
        self.t += dt


# -- percentiles -------------------------------------------------------------

@pytest.mark.parametrize("q,need", [(0.5, 20), (0.9, 100), (0.99, 1000)])
def test_samples_needed_leaves_ten_beyond(q, need):
    assert samples_needed(q) == need


@pytest.mark.parametrize("q,need", [(0.5, 20), (0.9, 100), (0.99, 1000)])
def test_percentile_refuses_fewer_than_ten_beyond(q, need):
    with pytest.raises(TooFewSamples):
        percentile(range(need - 1), q)
    percentile(range(need), q)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(3).shuffle(values)
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90


def test_stop_at_boundary_picks_the_nearer_end():
    assert not stop_at_boundary(0.0, [], 10.0)
    assert not stop_at_boundary(4.0, [4.0], 10.0)     # 4 or 8: go on
    assert stop_at_boundary(8.0, [4.0, 4.0], 10.0)    # 8 vs 12: stop
    assert stop_at_boundary(12.0, [12.0], 10.0)


# -- open loop ---------------------------------------------------------------

def test_poisson_offsets_are_seeded_sorted_and_bounded():
    a = poisson_offsets(random.Random(7), 50.0, 20.0)
    assert a == poisson_offsets(random.Random(7), 50.0, 20.0)
    assert a != poisson_offsets(random.Random(8), 50.0, 20.0)
    assert a == sorted(a) and 0 < a[0] and a[-1] < 20.0
    assert 800 < len(a) < 1200


def test_schedule_sends_on_time_and_charges_lateness():
    clock = FakeClock()
    cost = {0: 0.0, 1: 0.35, 2: 0.0, 3: 0.0}

    def send(i):
        clock.sleep(cost[i])              # a slow send delays the next
        return i * 10

    sent = run_schedule([0.0, 0.1, 0.2, 0.8], send, clock=clock,
                        sleep=clock.sleep, lead_s=0.0)
    start = 100.0
    assert [s.due for s in sent] == pytest.approx(
        [start, start + 0.1, start + 0.2, start + 0.8])
    assert [s.lateness_s for s in sent] == pytest.approx(
        [0.0, 0.0, 0.25, 0.0])
    assert sent[1].send_s == pytest.approx(0.35)
    assert [s.value for s in sent] == [0, 10, 20, 30]


def test_schedule_records_a_failed_send_and_goes_on():
    clock = FakeClock()

    def send(i):
        if i == 1:
            raise RuntimeError("shed")
        return i

    sent = run_schedule([0.0, 0.1, 0.2], send, clock=clock,
                        sleep=clock.sleep, lead_s=0.0)
    assert isinstance(sent[1].error, RuntimeError)
    assert sent[1].value is None
    assert [s.value for s in (sent[0], sent[2])] == [0, 2]


# -- registry deltas ---------------------------------------------------------

def test_registry_delta_reads_the_program_registry():
    """The workloads read registry deltas with the program's own
    ``snapshot_delta``; counters and histogram counts and sums become
    their increase, and an unchanged counter is left out."""
    sys.path.insert(0, str(BENCHMARK_JSON.parent / "src"))
    try:
        from repro.obs.metrics import MetricsRegistry
        from repro.parallel.pool import snapshot_delta
    finally:
        sys.path.pop(0)
    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    reg.counter("still").inc(1)
    reg.histogram("h").observe(0.5)
    before = reg.snapshot()
    reg.counter("c").inc(3)
    reg.counter("new").inc(4)
    reg.histogram("h").observe(0.25)
    reg.histogram("fresh").observe(1.5)
    d = snapshot_delta(before, reg.snapshot())
    assert d["counters"] == {"c": 3, "new": 4}
    assert (d["histograms"]["h"]["count"], d["histograms"]["h"]["sum"]) \
        == (1, 0.25)
    assert (d["histograms"]["fresh"]["count"],
            d["histograms"]["fresh"]["sum"]) == (1, 1.5)


# -- incident intervals ------------------------------------------------------

def test_covered_length_counts_overlaps_once():
    assert covered_length([]) == 0
    assert covered_length([(3, 3), (5, 4)]) == 0          # empty ranges
    assert covered_length([(0, 10)]) == 10
    assert covered_length([(5, 8), (0, 3)]) == 6          # disjoint
    assert covered_length([(0, 5), (3, 9)]) == 9          # overlapping
    assert covered_length([(0, 10), (2, 4), (4, 6)]) == 10  # nested
    assert covered_length([(0, 4), (4, 6)]) == 6          # touching


# -- rates from per-kind medians ---------------------------------------------

def test_rate_of_medians_takes_each_kinds_median():
    groups = {"a": [(10, 1.0), (10, 1.2), (10, 9.0)],   # one slowed op
              "b": [(30, 2.0), (30, 2.2)]}
    assert rate_of_medians(groups) == pytest.approx(40 / (1.2 + 2.1))
    assert rate_of_medians({}) == 0.0


def test_rate_of_medians_keeps_kinds_apart():
    # three cheap kinds and two dear ones: a median over every op would
    # land on a cheap op, and move with the count of each kind
    groups = {k: [(1, 1.0)] * n for k, n in (("x", 3), ("y", 2), ("z", 4))}
    groups.update({k: [(1, 3.0)] * n for k, n in (("u", 2), ("v", 5))})
    assert rate_of_medians(groups) == pytest.approx(5 / 9.0)


# -- self time and the other remainder ---------------------------------------

def test_self_time_excludes_wrapped_children():
    clock = FakeClock(0.0)
    timer = LayerTimer(clock=clock)

    def inner():
        clock.sleep(2.0)

    def outer():
        clock.sleep(1.0)
        inner_t()
        inner_t()
        clock.sleep(0.5)

    inner_t = timer.wrap("inner", inner)
    outer_t = timer.wrap("outer", outer)
    outer_t()
    totals = timer.totals()
    assert totals["calls"] == {"inner": 2, "outer": 1}
    assert totals["total"] == {"inner": 4.0, "outer": 5.5}
    assert totals["self"] == {"inner": 4.0, "outer": 1.5}


def test_shares_plus_other_sum_to_one():
    shares, other = self_shares({"a": 2.0, "b": 3.0}, 10.0)
    assert shares == {"a": 0.2, "b": 0.3}
    assert other == pytest.approx(0.5)
    assert sum(shares.values()) + other == pytest.approx(1.0)


def test_threads_keep_separate_stacks():
    timer = LayerTimer()
    barrier = threading.Barrier(4)

    def work():
        barrier.wait(timeout=10)

    timed = timer.wrap("w", work)
    threads = [threading.Thread(target=timed) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    totals = timer.totals()
    assert totals["calls"]["w"] == 4
    assert totals["self"]["w"] == pytest.approx(totals["total"]["w"])


def test_patched_wraps_every_import_site_and_restores():
    home = types.ModuleType("repro_fake_home")
    user = types.ModuleType("repro_fake_user")

    def f(x):
        return x + 1

    class K:
        def m(self):
            return home.f(1) + user.f(1)

    home.f, home.K, user.f = f, K, f
    method = K.__dict__["m"]
    sys.modules.update({"repro_fake_home": home, "repro_fake_user": user})
    try:
        timer = LayerTimer()
        table = (("fake.f", "repro_fake_home", "f"),
                 ("fake.m", "repro_fake_home", "K.m"),
                 ("fake.gone", "repro_fake_home", "K.renamed"))
        with Patched(timer, table) as patched:
            assert home.f is not f and user.f is home.f
            assert K().m() == 4
        assert patched.missing == ["repro_fake_home:K.renamed"]
        assert home.f is f and user.f is f and K.__dict__["m"] is method
        assert K().m() == 4
        assert timer.totals()["calls"] == {"fake.f": 2, "fake.m": 1}
    finally:
        for name in ("repro_fake_home", "repro_fake_user"):
            sys.modules.pop(name, None)


# -- run metadata ------------------------------------------------------------

def test_git_commit_reads_head_refs_and_packed_refs(tmp_path):
    assert git_commit(tmp_path).startswith("unavailable")
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\nabc123 refs/heads/main\n")
    assert git_commit(tmp_path) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert git_commit(tmp_path) == "def456"
    (git / "HEAD").write_text("0123abcd\n")          # detached
    assert git_commit(tmp_path) == "0123abcd"


# -- the benchmark definition ------------------------------------------------

def test_benchmark_json_matches_the_printed_metrics():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert ({m["name"]: m["unit"] for m in doc["per_layer"]}
            == per_layer_units())
    assert {w["name"] for w in doc["workloads"]} == {
        "campaign_cold", "serve_warm", "fleet_day", "fleet_chaos"}
