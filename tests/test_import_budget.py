"""Start-up: a process imports only the scipy it runs, and starts no
child to describe its host.

``scipy.optimize`` (one root find) and ``scipy.stats`` (one normal
quantile) would load hundreds of modules into every process; the power
model carries its own Brent root find and the performance tier calls
``scipy.special.ndtri``. ``scipy.sparse.linalg`` loads with the first
sparse factorization, which the factored thermal path never makes.
A run manifest names its host from ``os.uname()``:
``platform.platform()`` would run ``uname -p`` in a child process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

#: modules no workload's factored path may load
UNUSED = ("scipy.optimize", "scipy.stats", "scipy.sparse.linalg")

_SCRIPT = """
import json, os, sys
import repro, repro.cli
from repro import quick_max_frequency
from repro.config import ExperimentSpec
from repro.fleet.model import FleetConfig
from repro.fleet.sim import build_board_ladder
from repro.thermal.response import DISABLE_ENV

def loaded():
    return {name: name in sys.modules for name in %(names)r}

quick_max_frequency("low-power-cmp", 4, "water")
ExperimentSpec(chip="high-frequency-cmp", n_chips=4, cooling="water",
               benchmarks=("ep", "cg")).run()
build_board_ladder(FleetConfig())
factored = loaded()
os.environ[DISABLE_ENV] = "1"
quick_max_frequency("low-power-cmp", 2, "air")
print(json.dumps({"factored": factored, "sparse": loaded()}))
"""


def test_workloads_import_no_unused_scipy():
    import repro
    src = str(Path(repro.__file__).resolve().parents[1])
    names = UNUSED + ("scipy.special",)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("REPRO_RESPONSE_DISABLE", None)
    out = subprocess.run([sys.executable, "-c", _SCRIPT % {"names": names}],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    factored, sparse = seen["factored"], seen["sparse"]
    # the NPB step's normal quantile
    assert factored["scipy.special"]
    assert not any(factored[name] for name in UNUSED), factored
    # the sparse reference factorizes, and still needs no root finder
    assert sparse["scipy.sparse.linalg"]
    assert not sparse["scipy.optimize"] and not sparse["scipy.stats"]


_MANIFEST_SCRIPT = """
import subprocess

def refuse(*args, **kwargs):
    raise AssertionError(f"a process was started: {args!r}")

subprocess.Popen = refuse
from repro.obs.manifest import build_manifest, validate_manifest
doc = build_manifest(name="campaign", config={"seed": 1})
validate_manifest(doc)
print(doc["platform"])
"""


def test_manifest_starts_no_process():
    # A fresh interpreter: ``platform`` caches ``uname()`` for the rest
    # of a process, so in-process this would pass once any earlier test
    # had built a manifest.
    import repro
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _MANIFEST_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().startswith(os.uname().sysname)
