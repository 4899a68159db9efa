"""One point evaluator behind campaigns, served specs and NPB comparisons.

* campaign points, ``spec.run()``, served specs and
  ``run_npb_comparison`` give the same NPB times, by ``==``, on every
  library chip with an NPB system;
* a chip whose cores do not fit the mesh is refused wherever NPB times
  are asked for, before any thermal work; asked for the frequency
  alone, it answers like a campaign frequency point;
* a bad spec is refused at the boundary: ``from_dict``, ``POST
  /submit`` and ``repro spec``; so is a geometry past the caps on
  stack height and grid resolution.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.config import ExperimentSpec
from repro.core.campaign import CampaignPoint, evaluate_point, npb_grid
from repro.core.cosim import run_npb_comparison
from repro.core.pareto import evaluate_designs
from repro.core.point import evaluate
from repro.errors import ConfigurationError, ServeError
from repro.obs import get_tracer
from repro.perfsim.analytic import AnalyticModel
from repro.perfsim.npb import NPB_ORDER, get_profile
from repro.perfsim.system import SystemConfig
from repro.power.processors import get_chip
from repro.resilience import ResilienceOptions
from repro.serve import (
    Broker,
    BrokerConfig,
    HttpServeClient,
    ServeHTTPServer,
    run_spec_resilient,
)
from repro.fleet.model import FleetConfig, FleetScenario
from repro.stack.chipstack import MAX_STACK_CHIPS, StackConfig
from repro.thermal.package import (DEFAULT_PACKAGE, MAX_DIE_GRID,
                                   MAX_PACKAGE_GRID, PackageParams)

FAST = {"die_grid": 8, "package_grid": 4}
PHI = "xeon-phi-7290"


@pytest.mark.parametrize("cooling", ("water", "air"))
@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("chip", ("low-power-cmp", "high-frequency-cmp",
                                  "xeon-e5-2667v4"))
def test_campaign_serve_and_cosim_agree(chip, n, cooling):
    spec = ExperimentSpec(chip=chip, n_chips=n, cooling=cooling,
                          package_overrides=dict(FAST))
    params = replace(DEFAULT_PACKAGE, **FAST)
    campaign = evaluate_point(
        CampaignPoint(kind="npb", chip=chip, n_chips=n, cooling=cooling),
        ResilienceOptions(), params)
    cosim = run_npb_comparison(chip, n, reference=cooling,
                               coolings=(cooling,),
                               params=params).outcome(cooling)
    run = spec.run()
    served = run_spec_resilient(spec).result
    assert run == served
    assert campaign.npb_time_s == run.npb_time_s == cosim.npb_time_s
    assert campaign.f_ghz == run.f_ghz == cosim.point.f_ghz
    assert campaign.status == "ok" or not run.npb_time_s
    assert run.feasible == (set(run.npb_time_s) == set(NPB_ORDER))
    # ... and the system they share is the chip's own
    point = evaluate(chip, n, cooling, params=params).point
    perf = AnalyticModel(SystemConfig(
        n_chips=n, cores_per_chip=get_chip(chip).num_cores))
    assert run.npb_time_s == ({
        name: perf.execution_time_s(get_profile(name), point.f_hz)
        for name in NPB_ORDER} if point.feasible else {})


@pytest.fixture()
def tracer():
    """The process tracer, on and empty; off and empty afterwards."""
    t = get_tracer()
    t.reset()
    t.enable()
    try:
        yield t
    finally:
        t.disable()
        t.reset()


def _refused_before_thermal_work(tracer, call) -> None:
    with pytest.raises(ConfigurationError, match=PHI):
        call()
    assert "thermal.ladder" not in {s.name for s in tracer.spans}


class TestMeshFit:
    @pytest.mark.parametrize("call", [
        lambda: evaluate(PHI, 1, "water", programs=NPB_ORDER),
        lambda: ExperimentSpec(chip=PHI, n_chips=1),
        lambda: ExperimentSpec.from_dict({"chip": PHI, "n_chips": 1,
                                          "benchmarks": ["ep"]}),
        lambda: npb_grid(PHI, (1, 2), ("water",)),
        lambda: run_npb_comparison(PHI, 1, reference="water"),
        lambda: run_npb_comparison(PHI, 1, reference="water",
                                   resilience=ResilienceOptions()),
        lambda: evaluate_designs(PHI, (1,)),
    ], ids=["evaluator", "spec", "from_dict", "npb_grid", "cosim",
            "cosim-resilient", "pareto"])
    def test_phi_npb_is_refused_before_thermal_work(self, tracer, call):
        _refused_before_thermal_work(tracer, call)

    @pytest.mark.parametrize("argv", [
        ["spec", json.dumps({"chip": PHI, "n_chips": 1})],
        ["pareto", "--chip", PHI, "--max-chips", "1"],
        ["campaign", "--chip", PHI, "--kind", "npb", "--max-chips", "1",
         "--cooling", "water"],
    ], ids=["spec", "pareto", "campaign"])
    def test_cli_exits_2_naming_the_chip(self, argv, capsys):
        assert main(argv) == 2
        assert PHI in capsys.readouterr().err

    def test_frequency_alone_matches_a_campaign_point(self):
        spec = ExperimentSpec.from_dict({
            "chip": PHI, "n_chips": 2, "cooling": "water",
            "benchmarks": [], "package_overrides": FAST})
        result = spec.run()
        record = evaluate_point(
            CampaignPoint(kind="freq", chip=PHI, n_chips=2,
                          cooling="water"),
            ResilienceOptions(), spec.package_params())
        assert result.npb_time_s == {}
        assert result.f_ghz == record.f_ghz
        assert result.max_temp_c == record.max_temp_c
        assert result.total_power_w == record.total_power_w


class TestPareto:
    def test_throughput_counts_the_chips_own_cores(self):
        points = evaluate_designs("xeon-e5-2667v4", (1, 2), ("water",))
        assert points
        for p in points:
            perf = AnalyticModel(SystemConfig(n_chips=p.n_chips,
                                              cores_per_chip=8))
            rates = [1.0 / perf.breakdown(get_profile(name), p.f_ghz * 1e9)
                     .seconds_per_instruction for name in NPB_ORDER]
            assert p.throughput == 8 * p.n_chips * sum(rates) \
                / len(rates) / 1e9

    def test_cmp_rows_are_unchanged(self):
        """The CMPs' own system is the 4-core default, so their rows
        equal the ``SystemConfig(n_chips=n)`` formula."""
        from repro.core.freqopt import max_frequency
        from repro.core.pareto import _FACILITY_OF
        from repro.thermal.hotspot import model_for
        for chip in ("low-power-cmp", "high-frequency-cmp"):
            for p in evaluate_designs(chip, (1, 3), ("water", "air")):
                point = max_frequency(model_for(chip, p.n_chips, p.cooling))
                cfg = SystemConfig(n_chips=p.n_chips)
                perf = AnalyticModel(cfg)
                rates = [1.0 / perf.breakdown(get_profile(name), point.f_hz)
                         .seconds_per_instruction for name in NPB_ORDER]
                assert p.throughput == (cfg.total_cores * sum(rates)
                                        / len(rates) / 1e9)
                assert p.wall_power_w == (point.total_power_w
                                          * _FACILITY_OF[p.cooling].pue())
                assert p.f_ghz == point.f_ghz


#: Each spec the boundary refuses, and a fragment of the error naming
#: the cause.
BAD_SPECS = {
    "unknown-chip": ({"chip": "nope"}, "nope"),
    "unknown-cooling": ({"cooling": "nope"}, "nope"),
    "float-height": ({"n_chips": 2.0}, "n_chips"),
    "bool-height": ({"n_chips": True}, "n_chips"),
    "string-flip": ({"flip": "yes"}, "flip"),
    "unknown-npb": ({"benchmarks": ["zz"]}, "zz"),
    "unknown-override": ({"package_overrides": {"nope": 1}}, "nope"),
    "float-grid": ({"package_overrides": {"die_grid": 8.0}}, "die_grid"),
    "phi-npb": ({"chip": PHI}, PHI),
    "tall-stack": ({"n_chips": MAX_STACK_CHIPS + 1}, "n_chips"),
    "fine-die-grid": ({"package_overrides": {"die_grid": MAX_DIE_GRID + 1}},
                      "die_grid"),
    "fine-package-grid": ({"package_overrides": {
        "package_grid": MAX_PACKAGE_GRID + 1}}, "package_grid"),
}


def _spec_dict(case: str) -> tuple[dict, str]:
    fields, match = BAD_SPECS[case]
    return {"chip": "low-power-cmp", "n_chips": 2, "cooling": "water",
            **fields}, match


class TestBoundary:
    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_from_dict_refuses(self, case):
        spec, match = _spec_dict(case)
        with pytest.raises(ConfigurationError, match=match):
            ExperimentSpec.from_dict(spec)

    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_repro_spec_exits_2(self, case, capsys):
        spec, match = _spec_dict(case)
        assert main(["spec", json.dumps(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err
        assert "Traceback" not in err

    def test_repro_spec_refuses_a_non_object(self, capsys):
        assert main(["spec", "[1, 2]"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_submit_is_a_400(self):
        broker = Broker(BrokerConfig(workers=1, max_queue=4))
        server = ServeHTTPServer(broker, port=0)
        server.serve_in_thread()
        client = HttpServeClient(server.url)
        failed = broker.stats()["failed_total"]
        requests = broker.stats()["requests_total"]
        try:
            for case in sorted(BAD_SPECS):
                spec, match = _spec_dict(case)
                with pytest.raises(ServeError, match=rf"\(400\).*{match}"):
                    client.submit(spec)
            # refused before anything is queued
            assert broker.stats()["requests_total"] == requests
            # after the integer height is cached, the float one is
            # still refused rather than answered from the cache
            good = {"chip": "low-power-cmp", "n_chips": 2,
                    "cooling": "water", "benchmarks": ["ep"],
                    "package_overrides": FAST}
            ack = client.submit(good)
            assert client.result(ack["job_id"],
                                 timeout_s=120)["state"] == "done"
            with pytest.raises(ServeError, match="n_chips"):
                client.submit({**good, "n_chips": 2.0})
            assert broker.stats()["failed_total"] == failed
        finally:
            server.shutdown()
            server.server_close()
            broker.shutdown(drain=True)

    def test_geometry_caps(self):
        """32 chips, a 32-cell die grid and a 16-cell package grid are
        built; one more of any is refused, naming the field."""
        assert (MAX_STACK_CHIPS, MAX_DIE_GRID, MAX_PACKAGE_GRID) == \
            (32, 32, 16)
        chip = get_chip("low-power-cmp")
        ExperimentSpec(chip="low-power-cmp", n_chips=32, benchmarks=(),
                       package_overrides={"die_grid": 32,
                                          "package_grid": 16})
        StackConfig(chip=chip, n_chips=32)
        FleetConfig(n_chips=32)
        PackageParams(die_grid=32, package_grid=16)
        for build, field in (
                (lambda: StackConfig(chip=chip, n_chips=33), "n_chips"),
                (lambda: PackageParams(die_grid=33), "die_grid"),
                (lambda: PackageParams(package_grid=17), "package_grid")):
            with pytest.raises(ConfigurationError, match=field):
                build()

    def test_fleet_scenario_refuses_a_tall_stack(self):
        with pytest.raises(ConfigurationError, match="n_chips"):
            FleetScenario.from_dict({"kind": "fleet",
                                     "fleet": {"n_chips": 33}})

    def test_repro_freq_refuses_a_tall_stack(self, capsys):
        assert main(["freq", "--chip", "low-power-cmp", "--chips", "33",
                     "--cooling", "water"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "n_chips" in err[0]

    def test_int_threshold_widens_to_float(self):
        spec = ExperimentSpec.from_dict({"chip": "low-power-cmp",
                                         "threshold_c": 80})
        assert spec.threshold_c == 80.0
        assert type(spec.threshold_c) is float
