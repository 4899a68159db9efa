"""Declarative experiment specs + golden regression values.

The golden tests pin the key numbers of the calibrated default
configuration so unintended drift (a changed constant, a solver edit)
is caught immediately; intentional recalibration updates them together
with EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro
from repro.config import ExperimentSpec
from repro.errors import ConfigurationError
from repro.perfsim.noc.network import expected_noc_cycles
from repro.perfsim.noc.topology import MeshTopology
from repro.serve.client import result_to_dict
from repro.serve.runner import _spec_rungs
from repro.units import ghz


class TestExperimentSpec:
    def test_run_matches_quick_api(self):
        spec = ExperimentSpec(chip="high-frequency-cmp", n_chips=4,
                              cooling="water", flip=True)
        res = spec.run()
        quick = repro.quick_max_frequency("high-frequency-cmp", 4,
                                          "water", flip=True)
        assert res.f_ghz == pytest.approx(quick.f_ghz)
        assert res.max_temp_c == pytest.approx(quick.max_temp_c)

    def test_dict_roundtrip(self):
        spec = ExperimentSpec(n_chips=6, cooling="mineral_oil",
                              benchmarks=("cg", "ep"), label="probe")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_with_cooling(self):
        spec = ExperimentSpec().with_cooling("air")
        assert spec.cooling == "air"

    def test_package_overrides_apply(self):
        spec = ExperimentSpec(
            n_chips=2, package_overrides={"die_grid": 8})
        assert spec.package_params().die_grid == 8

    def test_benchmark_subset(self):
        res = ExperimentSpec(n_chips=2, benchmarks=("ep",)).run()
        assert set(res.npb_time_s) == {"ep"}

    def test_infeasible_run(self):
        res = ExperimentSpec(chip="low-power-cmp", n_chips=14,
                             cooling="air").run()
        assert not res.feasible
        assert res.npb_time_s == {}

    def test_speedup_between_specs(self):
        water = ExperimentSpec(chip="low-power-cmp", n_chips=6,
                               cooling="water", benchmarks=("ep",)).run()
        pipe = water.spec.with_cooling("water_pipe").run()
        s = water.speedup_over(pipe)
        assert s["ep"] > 1.0

    def test_speedup_requires_feasible(self):
        ok = ExperimentSpec(n_chips=1).run()
        bad = ExperimentSpec(chip="low-power-cmp", n_chips=14,
                             cooling="air").run()
        with pytest.raises(ConfigurationError):
            ok.speedup_over(bad)

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(n_chips=0)


class TestGoldenValues:
    """Frozen outputs of the calibrated defaults (tolerance one ladder
    step / a fraction of a degree). Update together with EXPERIMENTS.md
    on intentional recalibration only."""

    def test_golden_frequencies(self):
        golden = {
            ("low-power-cmp", 1, "air"): 2.0,
            ("low-power-cmp", 4, "air"): 1.2,
            ("low-power-cmp", 7, "water_pipe"): 1.1,
            ("low-power-cmp", 8, "mineral_oil"): 1.3,
            ("low-power-cmp", 8, "water"): 1.4,
            ("high-frequency-cmp", 4, "water"): 3.2,
            ("high-frequency-cmp", 8, "water"): 2.2,
            ("xeon-e5-2667v4", 3, "water"): 3.2,
            ("xeon-phi-7290", 1, "water"): 1.6,
        }
        for (chip, n, cool), f in golden.items():
            p = repro.quick_max_frequency(chip, n, cool)
            assert p.f_ghz == pytest.approx(f, abs=0.01), (chip, n, cool)

    def test_golden_infeasible(self):
        for chip, n, cool in (
            ("low-power-cmp", 8, "water_pipe"),
            ("low-power-cmp", 6, "air"),
            ("xeon-e5-2667v4", 4, "air"),
            ("xeon-phi-7290", 3, "water_pipe"),
        ):
            assert not repro.quick_max_frequency(chip, n, cool).feasible

    def test_golden_flip_point(self):
        p = repro.quick_max_frequency("high-frequency-cmp", 4, "water",
                                      flip=True)
        assert p.f_ghz == pytest.approx(3.6)
        assert p.max_temp_c == pytest.approx(79.9, abs=0.3)

    def test_golden_prototype(self):
        from repro.prototype import PrototypeBoardModel
        f4 = PrototypeBoardModel().figure4()
        assert f4["air"] == pytest.approx(76.0, abs=0.05)
        assert f4["full_immersion"] == pytest.approx(56.0, abs=0.05)

    def test_golden_headline_band(self):
        from repro.core.cosim import run_npb_comparison
        lp8 = run_npb_comparison("low-power-cmp", 8,
                                 reference="mineral_oil")
        gain = 1.0 - lp8.average_relative("water")
        assert gain == pytest.approx(0.046, abs=0.01)

    def test_golden_npb_relative_cg(self):
        from repro.core.cosim import run_npb_comparison
        lp6 = run_npb_comparison("low-power-cmp", 6,
                                 reference="water_pipe")
        rel = lp6.relative_times("water")
        assert rel["cg"] == pytest.approx(0.874, abs=0.02)
        assert rel["ep"] == pytest.approx(0.757, abs=0.02)


#: The served-answer pin cases, frozen here rather than shared with
#: other tests so that editing another test's constants cannot move a
#: pin: both CMP chips at five stack heights under three coolants, one
#: rotated stack, one benchmark subset. ``key -> spec``.
_PIN_SPECS = {
    f"{chip}/{n}/{cooling}": ExperimentSpec(chip=chip, n_chips=n,
                                            cooling=cooling)
    for chip in ("low-power-cmp", "high-frequency-cmp")
    for n in (1, 2, 3, 5, 8)
    for cooling in ("water", "fluorinert", "air")
}
_PIN_SPECS["flip"] = ExperimentSpec(chip="high-frequency-cmp", n_chips=4,
                                    cooling="water", flip=True)
_PIN_SPECS["subset"] = ExperimentSpec(chip="low-power-cmp", n_chips=3,
                                      cooling="fluorinert",
                                      benchmarks=("ep", "cg"))
#: The spec answered by serve's analytic degradation rung.
_PIN_ANALYTIC = ExperimentSpec(chip="high-frequency-cmp", n_chips=3,
                               cooling="water")


def _result_digest(result) -> str:
    """SHA-256 of a result's sorted wire JSON. ``max_temp_c`` is
    rounded to 1e-9 so that the BLAS build cannot move a pin."""
    doc = result_to_dict(result)
    doc["max_temp_c"] = round(doc["max_temp_c"], 9)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()
                          ).hexdigest()


def _analytic_rung_result(spec: ExperimentSpec):
    """What serve's second rung (closed-form stack model, then the
    same NPB step) answers for ``spec``."""
    (_, _), (name, analytic) = _spec_rungs(spec)
    assert name == "analytic"
    return analytic()


def _noc_digest() -> str:
    """SHA-256 over ``expected_noc_cycles`` for 2- and 3-leg
    transactions on every ``w, h`` in 1..6 and 1..16 chips."""
    rows = [[w, h, c, legs,
             repr(expected_noc_cycles(MeshTopology(w, h, c), legs=legs))]
            for w in range(1, 7) for h in range(1, 7)
            for c in range(1, 17) for legs in (2, 3)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: ``case -> SHA-256``, recorded before the analytic tier's hop mean,
#: imbalance quantile and geometry digest were memoized or put in
#: closed form. Do not edit: a change here is a change in the answers
#: the serve layer gives.
RESULT_PINS = {
    "low-power-cmp/1/water":
        "f8a9580511678cee0e80335e31e08c118bf69fc8754185510c7049dcf0ef62f9",
    "low-power-cmp/1/fluorinert":
        "6c1664d16898f911960dd7715c720ced1ab83f064f73ef5b69d871c2a9292110",
    "low-power-cmp/1/air":
        "5c3a00ab502eba93b9172c1c8914f95258226c5e8539f8296535648c4bc01d25",
    "low-power-cmp/2/water":
        "5b4ac9b2a990e05d36d028bf0a643f76ae7f48b8fb0f4626dc75b51bb4341715",
    "low-power-cmp/2/fluorinert":
        "ac6a43793e08d447c73e9db715d9afc5130bf6fdd3c038cff1f5439907682430",
    "low-power-cmp/2/air":
        "00903c6a6e34e03d091b1341a218fcc43729cdfa11a2375169013c59711eb91f",
    "low-power-cmp/3/water":
        "f17cceb83f72764a8c256a30209e8fd96c3f794be021c849113fb361d9409c03",
    "low-power-cmp/3/fluorinert":
        "941c876f1cd73c3ee4a5081e54c39df953591cfe30c10e6bcd3b26f49bd20bcc",
    "low-power-cmp/3/air":
        "aab3a6c6d1b92e8ee5639687c4380f6fa644ecb015b041bbbb1c1be33138034c",
    "low-power-cmp/5/water":
        "65c9c63b7aff863db6996e1162e40e59ded142eda3d060e83e77734f9eb59213",
    "low-power-cmp/5/fluorinert":
        "aedb3b7a6830a60103a336b82c355d9b9bd914bae35506bd99286ebf1f6f1c28",
    "low-power-cmp/5/air":
        "8d836b409f143fd074f64fdb8c53baf37720b3919289f5c665c330e68f63eb99",
    "low-power-cmp/8/water":
        "aba61684500580e5dbd60e90b23ce9e99808b518b2675a2aab05e1361ae11d4d",
    "low-power-cmp/8/fluorinert":
        "dee62e4b569087a324e75e9ca0b69d9f103e00bce46898b0058319c048e0f900",
    "low-power-cmp/8/air":
        "50bccef208d1c4cb6d7efd9e04762a55661d65ad8d5ebf43a09100e624721bb5",
    "high-frequency-cmp/1/water":
        "d3a261cadf128c93d4c41bc6a12ea03354e49f6edd131494a1cc777cc6ab53e6",
    "high-frequency-cmp/1/fluorinert":
        "3385bb8adc3ec0c3507141002a35451c413b2a597381a5e6b8dbf3e2a077a6a5",
    "high-frequency-cmp/1/air":
        "1594cd0601bc5a184cdbac51c514cfa6e0f799641e61f5ca289ba12fa4ad8ead",
    "high-frequency-cmp/2/water":
        "f55fa249cb9706f800439495747ba59506fc775dc6c8c16ce7afa8339deed60c",
    "high-frequency-cmp/2/fluorinert":
        "72d473bbcdb6f921a1fe64c27b15883b9fd3cde9f15f71aee5f2c18e78ec519b",
    "high-frequency-cmp/2/air":
        "4a03170d73ee12a38256b619b7b8eab4631b47ed8a12a07c8b1de237401c3cc2",
    "high-frequency-cmp/3/water":
        "f4150c418becb81b2a90858dab529300e8e7d3f11b1f3a43d6424a5763de0d6e",
    "high-frequency-cmp/3/fluorinert":
        "11131ae33e75f1ccfd3e39079be4a0eb8a49fd4131b685a7acbee9b4e068c545",
    "high-frequency-cmp/3/air":
        "a442e450ae0866302f06f4526534272ceac8b6eb712b553f3fd10c2b496cf147",
    "high-frequency-cmp/5/water":
        "08775643938cd7782756f383dd4fee5444acf8ee6027373569b87085fb6b5de6",
    "high-frequency-cmp/5/fluorinert":
        "aebf32090ba2819910b4ae5b7568904a7e907bd169ba972a069676cc844497e3",
    "high-frequency-cmp/5/air":
        "da00b0c696e6fb8b9399e068d1f122463b988304887b783795a41d7e4e6ee3ab",
    "high-frequency-cmp/8/water":
        "843df649671ebf38401a726ac37ad1bc2276e8919734c6d53a87ea5893fd1276",
    "high-frequency-cmp/8/fluorinert":
        "0b74308e5b51b9623b828b357da5e1bc6e7a316040dc24c447a6d1b87e82c217",
    "high-frequency-cmp/8/air":
        "34551bf521e8a50a56f849033192369f653debc73e9150fefde5d8f70076f100",
    "flip":
        "3afe098110afd85d20a16f344674ef3a3a0783446e69202dca200eb024d7cd3f",
    "subset":
        "4564e5dd10eac1825df0f0b86cb14017247ea9f5241e30354870a1d6db1b998e",
    "analytic-rung":
        "639020e8300587133d42f40c65618131808e7a14b6c46329b2c285f602b74557",
    "noc":
        "2d8ab6bebfdd4c5a40a80412508ab9d3a4cca291d449f1fcfdcd510d4af50978",
}


class TestResultPins:
    """Served answers pinned across commits: the full pipeline's result
    bytes, the analytic rung's, and the packet-formula NoC latencies
    the NPB step is built on."""

    @pytest.mark.parametrize("key", sorted(_PIN_SPECS))
    def test_full_pipeline(self, key):
        assert _result_digest(_PIN_SPECS[key].run()) == RESULT_PINS[key]

    def test_analytic_rung(self):
        assert (_result_digest(_analytic_rung_result(_PIN_ANALYTIC))
                == RESULT_PINS["analytic-rung"])

    def test_expected_noc_cycles(self):
        assert _noc_digest() == RESULT_PINS["noc"]
