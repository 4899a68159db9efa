"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign_cold --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer split of a separate traced pass over the same inputs. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (prefixed ``perfbench-meta``) carries run metadata, sample counts
and the detail behind each metric. See ``perfbench/README.md``.
"""

import time

STARTED = time.perf_counter()

import argparse        # noqa: E402
import importlib       # noqa: E402
import json            # noqa: E402
import shutil          # noqa: E402
import statistics      # noqa: E402
import subprocess      # noqa: E402
import sys             # noqa: E402
import tempfile        # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: workload name -> module implementing ``setup``, ``run`` and ``close``
WORKLOADS = {
    "campaign_cold": "wl_campaign",
    "serve_warm": "wl_serve",
    "fleet_day": "wl_fleet",
    "fleet_chaos": "wl_fleet",
}
#: scratch space for stores and checkpoints, inside the checkout
WORK_DIR = ROOT / ".perfbench_work"
#: set-ups measured per run: this process plus fresh child processes,
#: since imports and first-call initialisation happen once per process
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)  # one set-up sample, as JSON
    return ap.parse_args(argv)


def child_setup(args) -> float:
    """One set-up measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - STARTED
    from common import END_TO_END, peak_rss_mb, run_metadata
    from layers import per_layer_units

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    state = None
    try:
        t0 = time.perf_counter()
        state = module.setup(args.workload, seed=args.seed, work=work)
        own_setup = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        report = module.run(state, seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), work=work)
    finally:
        if state is not None:
            module.close(state)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass                    # another run is using it
    rss = peak_rss_mb()         # before the set-up children below
    setups = [own_setup]
    if args.trace:
        units = per_layer_units()
    else:
        units = END_TO_END
        setups += [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        report.metrics["setup_s"] = statistics.median(setups)
        # a workload may have read it after a fixed amount of work
        report.metrics.setdefault("peak_rss_mb", rss["total_mb"])
    missing = set(units) - set(report.metrics)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")

    meta = run_metadata(ROOT, workload=args.workload, seed=args.seed,
                        trace=bool(args.trace))
    meta.update(report.meta)
    meta.update({"setup_samples_s": setups, "import_s": import_s,
                 "peak_rss": rss, "problems": report.problems})
    if not args.trace:
        samples = {name: report.attempted for name in units}
        samples.update(setup_s=len(setups), peak_rss_mb=1)
        meta["metric_samples"] = samples
        for name, unit in units.items():
            print(f"perfbench: {name} = {report.metrics[name]:.6g} {unit} "
                  f"({samples[name]} samples)")
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    for problem in report.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
