"""The paper's anchors: one test per row of
``repro.analysis.anchors.ANCHORS`` at the calibrated package, and the
exit status of ``scripts/calibrate.py``, which scores the same rows."""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.anchors import ANCHORS
from repro.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]
CALIBRATE = ROOT / "scripts" / "calibrate.py"


@pytest.mark.parametrize("anchor", ANCHORS, ids=[a.id for a in ANCHORS])
def test_anchor(anchor, measured):
    check = anchor.check(measured)
    assert check.passed, check.render()


@pytest.mark.parametrize("args,code,says", (
    ((), 0, f"{len(ANCHORS)}/{len(ANCHORS)} checks"),
    # the 4-chip high-frequency stack at 3.6 GHz without the flip heats
    # past the Fig. 15 window
    (("tim_spreader_r_m2kw=2.4e-5",), 1, "[DEVIATION] fig15-noflip"),
    (("--fast",), 2, "FIELD=VALUE"),
    (("nosuch=1",), 2, "nosuch"),
    (("die_k_lateral=abc",), 2, "die_k_lateral=abc"),
    (("die_grid=64",), 2, "die_grid"),
    (("ambient_c=NaN",), 2, "ambient_c"),
), ids=("defaults", "row-missed", "flag", "unknown-field", "not-a-number",
        "fine-grid", "nan"))
def test_calibrate_exit_status(args, code, says):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(CALIBRATE), *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == code, out.stderr
    if code == 2:
        assert out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert len(out.stderr.splitlines()) == 1, out.stderr
        assert says in out.stderr
    else:
        assert says in out.stdout


def test_calibrate_types_overrides_like_a_spec():
    parse = runpy.run_path(str(CALIBRATE))["parse_params"]
    params = parse(["die_grid=8", "tim_sink_r_m2kw=2e-5", "ambient_c=30"])
    assert (params.die_grid, params.tim_sink_r_m2kw, params.ambient_c) == (
        8, 2e-5, 30.0)
    assert type(params.die_grid) is int and type(params.ambient_c) is float
    with pytest.raises(ConfigurationError, match="die_grid"):
        parse(["die_grid=8.0"])
