"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``freq`` — the core question: max clock of a stack under a cooling
  option (optionally with the flip schedule).
* ``sweep`` — a Figs. 1/7/8/17-style table for one chip.
* ``npb`` — a Figs. 10-13-style relative-execution-time table.
* ``maps`` — ASCII thermal maps (Figs. 9/16/18).
* ``pue`` — the Section 4.4 facility comparison.
* ``headline`` — the abstract's numbers, end to end.
* ``campaign`` — resilient checkpointed sweep campaign (retry,
  graceful degradation, failure ledger, resume).
* ``chaos`` — a campaign under randomized *process* faults (worker
  kill / hang / slow heartbeat): proves the supervised pool recovers,
  quarantines poison points, and leaves a verifiable checkpoint.
* ``serve`` — HTTP request-serving endpoint (coalescing, result
  cache, admission control; see ``docs/serving.md``).
* ``submit`` — submit a JSON spec to a running ``repro serve``; with
  ``--trace-out`` it also turns on server-side tracing and merges the
  broker/worker spans into one cross-process Chrome trace.
* ``top`` — live serving telemetry: polls ``GET /stats`` and renders
  the rolling-window SLO summary (p50/p99 per stage, event rates).

Ctrl-C anywhere exits 130 after a clean wrap-up (campaigns keep their
checkpoint; ``serve`` drains in-flight requests) instead of dumping a
traceback; library errors exit with one ``error: <message>`` line
too (see :func:`main`).

Every subcommand accepts the global observability flags (before *or*
after the subcommand name):

* ``--trace-out PATH`` — write a span trace; ``.jsonl`` gets one span
  per line, anything else gets Chrome ``trace_event`` JSON loadable in
  ``about:tracing`` / https://ui.perfetto.dev;
* ``--metrics-out PATH`` — write the metrics-registry snapshot as JSON;
* ``-v`` / ``-vv`` — structured JSON logging on stderr (``-vv`` also
  streams every finished span).

Both output files are flushed exactly once no matter how the process
leaves: the normal return path, Ctrl-C (130), and plain interpreter
exit all funnel through one idempotent ``atexit``-registered flusher,
so an interrupted campaign still leaves its trace and metrics behind.
"""

from __future__ import annotations

import argparse
import atexit
import sys

from .analysis import format_mapping, format_table


def _cmd_freq(args: argparse.Namespace) -> int:
    from . import quick_max_frequency
    p = quick_max_frequency(args.chip, args.chips, args.cooling,
                            flip=args.flip)
    if not p.feasible:
        print(f"infeasible: even the lowest VFS step reaches "
              f"{p.max_temp_c:.1f} C")
        return 1
    print(f"{args.chip} x{args.chips} under {args.cooling}"
          f"{' (flip)' if args.flip else ''}: "
          f"{p.f_ghz:.1f} GHz, hottest cell {p.max_temp_c:.1f} C, "
          f"stack power {p.total_power_w:.0f} W")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core.sweeps import frequency_vs_chips
    chips = tuple(range(1, args.max_chips + 1))
    cools = tuple(args.cooling) if args.cooling else (
        "air", "water_pipe", "mineral_oil", "fluorinert", "water")
    series = frequency_vs_chips(args.chip, chips, cools,
                                workers=args.workers)
    rows = []
    for i, n in enumerate(chips):
        rows.append([n] + [s.f_ghz[i] if s.f_ghz[i] > 0 else None
                           for s in series])
    print(format_table(["chips"] + [s.cooling for s in series], rows,
                       float_fmt="{:.1f}"))
    return 0


def _cmd_npb(args: argparse.Namespace) -> int:
    from .core.cosim import run_npb_comparison
    from .perfsim.npb import NPB_ORDER
    cmp_ = run_npb_comparison(args.chip, args.chips,
                              reference=args.reference)
    cools = [o.cooling for o in cmp_.outcomes if o.feasible]
    rows = []
    rel = {c: cmp_.relative_times(c) for c in cools}
    for name in NPB_ORDER:
        rows.append([name.upper()] + [rel[c][name] for c in cools])
    rows.append(["average"] + [cmp_.average_relative(c) for c in cools])
    print(format_table(["benchmark"] + cools, rows))
    return 0


def _cmd_maps(args: argparse.Namespace) -> int:
    from .core.sweeps import thermal_maps
    from .thermal.maps import MapStats, ascii_map
    from .units import ghz
    maps = thermal_maps(args.chip, args.cooling, ghz(args.ghz),
                        n_chips=args.chips, flipped=args.flip)
    for name, field in maps.items():
        s = MapStats.from_field(name, field)
        print(f"-- {name}: {s.min_c:.1f}..{s.max_c:.1f} C")
        print(ascii_map(field))
    return 0


def _cmd_pue(args: argparse.Namespace) -> int:
    from .cooling import pue_comparison
    print(format_mapping("PUE by facility style", pue_comparison()))
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from .core.cosim import headline_summary
    print(format_mapping("headline (best average NPB reduction)",
                         headline_summary()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.anchors import render_full_report
    print(render_full_report())
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from .core.pareto import evaluate_designs, pareto_frontier
    points = evaluate_designs(args.chip,
                              tuple(range(1, args.max_chips + 1, 2)))
    frontier = pareto_frontier(points)
    rows = [[p.cooling, p.n_chips, p.f_ghz, p.throughput,
             p.wall_power_w] for p in frontier]
    print(format_table(["cooling", "chips", "GHz", "throughput",
                        "wall W"], rows, float_fmt="{:.2f}"))
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    import json

    from .config import ExperimentSpec
    try:
        spec = ExperimentSpec.from_dict(json.loads(args.json))
    except json.JSONDecodeError as exc:
        print(f"error: spec is not valid JSON: {exc}", file=sys.stderr)
        return 2
    res = spec.run()
    if not res.feasible:
        print(f"infeasible (coolest achievable maximum "
              f"{res.max_temp_c:.1f} C)")
        return 1
    print(f"{spec.chip} x{spec.n_chips} under {spec.cooling}"
          f"{' (flip)' if spec.flip else ''}: {res.f_ghz:.1f} GHz, "
          f"{res.max_temp_c:.1f} C, {res.total_power_w:.0f} W")
    if res.npb_time_s:
        print(format_table(
            ["benchmark", "time (ms)"],
            [[k.upper(), v * 1e3] for k, v in res.npb_time_s.items()]))
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .analysis.uncertainty import robustness_study
    r = robustness_study(n_draws=args.draws, seed=args.seed)
    print(format_mapping(
        f"conclusion survival over the calibration band "
        f"({r.draws} draws)",
        {
            "coolant ordering": r.ordering_rate,
            "water deepest": r.water_deepest_rate,
            "water-pipe 8-chip cliff": r.pipe_cliff_rate,
            "water >= oil at 8 chips": r.water_beats_oil_npb_rate,
        }))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import warnings

    from .core.campaign import CampaignRunner, frequency_grid, npb_grid
    from .errors import DegradedResultWarning
    from .resilience import FaultInjector, FaultSpec, ResilienceOptions, \
        RetryPolicy

    chips = tuple(range(1, args.max_chips + 1))
    cools = tuple(args.cooling) if args.cooling else (
        "air", "water_pipe", "mineral_oil", "fluorinert", "water")
    if args.kind == "npb":
        points = npb_grid(args.chip, chips, cools)
    else:
        points = frequency_grid(args.chip, chips, cools)

    injector = None
    if args.inject:
        injector = FaultInjector(
            [FaultSpec.parse(s) for s in args.inject], seed=args.seed)
    options = ResilienceOptions(
        retry_policy=RetryPolicy(max_attempts=args.max_retries + 1,
                                 seed=args.seed),
        allow_degraded=args.allow_degraded,
        injector=injector,
    )
    runner = CampaignRunner(points, resilience=options,
                            checkpoint_path=args.checkpoint,
                            workers=args.workers,
                            chunk_size=args.chunk_size,
                            chunk_timeout_s=args.chunk_timeout)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        result = runner.run(resume=args.resume)

    rows = []
    for point in points:
        r = result.records[point.key]
        rows.append([point.key, r.status,
                     r.f_ghz if r.status == "ok" else None,
                     r.rung or "-", "yes" if r.degraded else "no",
                     r.attempts])
    print(format_table(
        ["point", "status", "GHz", "rung", "degraded", "attempts"],
        rows, float_fmt="{:.1f}"))
    s = result.summary()
    print(f"evaluated {s['evaluated']}, skipped {s['skipped']} "
          f"(checkpointed), ok {s['ok']}, infeasible {s['infeasible']}, "
          f"degraded {s['degraded']}, failed {s['failed']}")
    if result.ledger:
        print("failure ledger:")
        for e in result.ledger:
            print(f"  {e.key}: {e.exception}: {e.message} "
                  f"(attempts {e.attempts}, rungs "
                  f"{'/'.join(e.rungs_tried)})")
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint}")
        print(f"manifest: {runner.manifest_path()}")
    finished = s["ok"] + s["infeasible"]
    return 0 if finished > 0 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run a campaign under randomized process faults and prove recovery.

    The supervised pool is expected to (a) finish every point a fault
    did not permanently poison, (b) quarantine the rest into the
    ledger, and (c) leave a checkpoint that passes integrity
    verification. Exit 0 means the campaign finished points despite
    the chaos; 1 means it produced nothing.
    """
    import json as _json
    import warnings

    from .core.campaign import (CampaignRunner, frequency_grid,
                                verify_checkpoint)
    from .errors import CheckpointError, DegradedResultWarning
    from .obs import get_registry
    from .resilience import (PROCESS_FAULT_KINDS, FaultInjector,
                             FaultSpec, ProcessFaultPlan,
                             ResilienceOptions, RetryPolicy)

    chips = tuple(range(1, args.max_chips + 1))
    cools = tuple(args.cooling) if args.cooling else ("water",)
    points = frequency_grid(args.chip, chips, cools)

    specs = [FaultSpec.parse(s)
             for s in (args.inject or ["worker_kill:0.5:1"])]
    proc_specs = tuple(s for s in specs
                       if s.kind in PROCESS_FAULT_KINDS)
    model_specs = tuple(s for s in specs
                        if s.kind not in PROCESS_FAULT_KINDS)
    plan = (ProcessFaultPlan(specs=proc_specs, seed=args.seed)
            if proc_specs else None)
    injector = (FaultInjector(model_specs, seed=args.seed)
                if model_specs else None)
    options = ResilienceOptions(
        retry_policy=RetryPolicy(max_attempts=args.max_retries + 1,
                                 seed=args.seed),
        allow_degraded=args.allow_degraded,
        injector=injector,
    )
    print(f"repro chaos: {len(points)} points, workers {args.workers}, "
          f"faults {' '.join(f'{s.kind}:{s.probability}:{s.max_fires}' for s in specs)}, "
          f"seed {args.seed}", flush=True)
    runner = CampaignRunner(points, resilience=options,
                            checkpoint_path=args.checkpoint,
                            workers=args.workers,
                            chunk_size=args.chunk_size,
                            process_faults=plan,
                            chunk_timeout_s=args.chunk_timeout,
                            heartbeat_timeout_s=args.heartbeat_timeout,
                            max_point_crashes=args.poison_threshold)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        result = runner.run(resume=args.resume)

    s = result.summary()
    quarantined = s.get("poison", 0)
    counters = get_registry().snapshot()["counters"]
    print(format_table(
        ["point", "status", "rung", "attempts"],
        [[p.key, result.records[p.key].status,
          result.records[p.key].rung or "-",
          result.records[p.key].attempts] for p in points]))
    print(f"evaluated {s['evaluated']}, skipped {s['skipped']}, "
          f"ok {s['ok']}, infeasible {s['infeasible']}, "
          f"failed {s['failed']}, quarantined {quarantined}")
    print("supervision: "
          f"restarts {counters.get('supervisor.restarts', 0)}, "
          f"worker crashes {counters.get('supervisor.worker_crashes', 0)}, "
          f"heartbeat misses {counters.get('supervisor.heartbeat_misses', 0)}, "
          f"task retries {counters.get('supervisor.task_retries', 0)}, "
          f"checkpoint recoveries {counters.get('checkpoint.recoveries', 0)}")
    if result.ledger:
        print("failure ledger:")
        for e in result.ledger:
            print(f"  {e.key}: {e.exception}: {e.message}")
    if args.ledger_out:
        with open(args.ledger_out, "w") as fh:
            _json.dump([e.to_dict() for e in result.ledger], fh,
                       indent=1)
        print(f"ledger: {args.ledger_out}")
    if args.checkpoint:
        try:
            info = verify_checkpoint(args.checkpoint)
        except CheckpointError as exc:
            print(f"checkpoint INTEGRITY FAILURE: {exc}",
                  file=sys.stderr)
            return 1
        print(f"checkpoint: {args.checkpoint} (integrity ok, "
              f"{info['points']} points, "
              f"{info['ledger_entries']} ledger entries)")
        print(f"manifest: {runner.manifest_path()}")
    finished = s["ok"] + s["infeasible"]
    return 0 if finished > 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .resilience import ResilienceOptions, RetryPolicy
    from .serve import Broker, BrokerConfig, ServeHTTPServer

    config = BrokerConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        cache_capacity=args.cache_capacity,
        cache_ttl_s=args.cache_ttl,
        use_processes=args.processes,
        default_deadline_s=args.default_deadline,
        slo_window_s=args.slo_window,
    )
    options = ResilienceOptions(
        retry_policy=RetryPolicy(max_attempts=args.max_retries + 1,
                                 seed=args.seed),
        allow_degraded=args.allow_degraded,
    )
    broker = Broker(config, resilience=options)
    httpd = ServeHTTPServer(broker, args.host, args.port)
    print(f"repro serve: listening on {httpd.url} "
          f"(workers {config.workers}, queue bound {config.max_queue}, "
          f"cache {config.cache_capacity}"
          f"{f' ttl {config.cache_ttl_s:g}s' if config.cache_ttl_s else ''}; "
          f"Prometheus scrape at {httpd.url}/metrics, "
          f"`repro top --url {httpd.url}` for live SLOs)",
          flush=True)
    rc = 0
    try:
        httpd.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("\ninterrupted — draining in-flight requests",
              file=sys.stderr)
        rc = 130
    finally:
        httpd.server_close()
        stats = broker.shutdown(drain=True,
                                manifest_path=args.manifest,
                                timeout=args.drain_timeout)
        print(f"drained: {stats['completed_total']} completed, "
              f"{stats['coalesced_total']} coalesced, "
              f"{stats['cache']['hits']} cache hits, "
              f"{stats['shed_total']} shed, "
              f"{stats['failed_total']} failed", flush=True)
        if args.manifest:
            print(f"manifest: {args.manifest}")
    return rc


def _adopt_server_trace(client) -> None:
    """Merge the server's spans into the local tracer (best-effort).

    ``repro submit --trace-out`` wants ONE Chrome trace showing the
    whole request path — client, broker process, and every pool worker
    pid. The broker already repatriates worker spans; this pulls its
    ``GET /trace`` document and adopts those spans locally, so the
    normal CLI flush writes the merged picture. Network trouble here
    never fails the submit: the result mattered, the trace is gravy.
    """
    from .obs import get_tracer, spans_from_chrome
    try:
        spans = spans_from_chrome(client.trace())
    except Exception:
        return
    if spans:
        get_tracer().adopt_spans(spans)


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve.http import HttpServeClient

    client = HttpServeClient(args.url, timeout_s=args.timeout + 10)
    if args.shutdown:
        if not client.healthz():
            print(f"error: no server at {args.url}", file=sys.stderr)
            return 1
        client.shutdown()
        print(f"shutdown requested at {args.url}")
        return 0
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        try:
            client.set_tracing(True)
        except Exception:
            pass        # unreachable server is reported by submit below
    try:
        return _submit_and_report(args, client)
    finally:
        if trace_out is not None:
            _adopt_server_trace(client)


def _submit_and_report(args: argparse.Namespace, client) -> int:
    import json

    from .errors import OverloadedError

    if args.json is None:
        print("error: provide a spec JSON (or --shutdown)",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads(args.json)
    except json.JSONDecodeError as exc:
        print(f"error: spec is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        sub = client.submit(spec, priority=args.priority,
                            deadline_s=args.deadline)
    except OverloadedError as exc:
        d = exc.to_dict()
        print(f"overloaded: server shed the request "
              f"(queued {d['queued']}, in flight {d['in_flight']}, "
              f"limit {d['limit']}) — back off and retry",
              file=sys.stderr)
        return 75  # EX_TEMPFAIL
    print(f"job {sub['job_id']} "
          f"({'coalesced' if sub['attached'] > 1 else sub['state']}"
          f"{', cached' if sub.get('from_cache') else ''}), "
          f"config hash {sub['config_hash'][:12]}")
    if not args.wait:
        return 0
    doc = client.result(sub["job_id"], timeout_s=args.timeout)
    if doc.get("http_status") != 200:
        print(f"error: job {sub['job_id']} -> "
              f"{doc.get('state', 'unknown')}: "
              f"{doc.get('message', doc.get('error', 'pending'))}",
              file=sys.stderr)
        return 1
    r = doc["result"]
    if r.get("scenario", {}).get("kind") == "fleet":
        sc, jobs, th = r["scenario"], r["jobs"], r["thermal"]
        print(f"fleet {sc['policy']} seed {sc['seed']}: "
              f"{jobs['completed']}/{jobs['arrived']} jobs, "
              f"{r['throughput_gcps']:.2f} Gcycles/s, "
              f"PUE {r['energy']['pue']:.4f}, "
              f"water max {th['max_water_temp_c']:.2f} C"
              f"{' [degraded: ' + doc['rung'] + ']' if doc['degraded'] else ''}")
        return 0
    if not r["feasible"]:
        print(f"infeasible (coolest achievable maximum "
              f"{r['max_temp_c']:.1f} C)")
        return 1
    s = r["spec"]
    print(f"{s['chip']} x{s['n_chips']} under {s['cooling']}"
          f"{' (flip)' if s.get('flip') else ''}: "
          f"{r['f_ghz']:.1f} GHz, {r['max_temp_c']:.1f} C, "
          f"{r['total_power_w']:.0f} W"
          f"{' [degraded: ' + doc['rung'] + ']' if doc['degraded'] else ''}")
    if r["npb_time_s"]:
        print(format_table(
            ["benchmark", "time (ms)"],
            [[k.upper(), v * 1e3] for k, v in r["npb_time_s"].items()]))
    return 0


def _render_top_frame(url: str, stats: dict) -> None:
    """One `repro top` frame: lifetime counters + the windowed SLOs."""
    slo = stats.get("slo", {})
    print(f"repro top — {url}  "
          f"(uptime {stats.get('uptime_s', 0.0):.0f}s, "
          f"window {slo.get('window_s', 0):g}s)")
    print(f"queued {stats['queued']}  in-flight {stats['in_flight']}  "
          f"requests {stats['requests_total']}  "
          f"completed {stats['completed_total']}  "
          f"coalesced {stats['coalesced_total']}  "
          f"shed {stats['shed_total']}  failed {stats['failed_total']}")
    cache = stats.get("cache", {})
    print(f"cache: hits {cache.get('hits', 0)}  "
          f"misses {cache.get('misses', 0)}  "
          f"size {cache.get('size', 0)}/{cache.get('capacity', 0)}  "
          f"evictions {cache.get('evictions', 0)}")
    stages = slo.get("stages", {})
    if stages:
        print(format_table(
            ["stage", "n", "p50 ms", "p99 ms", "max ms", "mean ms"],
            [[name, agg["count"], agg["p50"] * 1e3, agg["p99"] * 1e3,
              agg["max"] * 1e3, agg["mean"] * 1e3]
             for name, agg in sorted(stages.items())],
            float_fmt="{:.1f}"))
    events = slo.get("events", {})
    rates = [f"{name} {agg['per_s']:.2f}/s"
             for name, agg in sorted(events.items()) if agg["count"]]
    if rates:
        print("window rates: " + "  ".join(rates))


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time
    import urllib.error

    from .serve.http import HttpServeClient

    client = HttpServeClient(args.url, timeout_s=5.0)
    iterations = 1 if args.once else args.iterations
    frames = 0
    try:
        while True:
            try:
                stats = client.stats()
            except (urllib.error.URLError, OSError) as exc:
                print(f"error: no server at {args.url} ({exc})",
                      file=sys.stderr)
                return 1
            if frames and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")   # clear + home, like top(1)
            elif frames:
                print()
            _render_top_frame(args.url, stats)
            frames += 1
            if iterations is not None and frames >= iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        # leaving the dashboard is the normal way out, like watch(1)
        print()
        return 0


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """The global observability flags (added to root and subparsers, so
    they parse in either position).

    SUPPRESS keeps an absent flag from ever touching the namespace:
    the subparser parses into a fresh namespace and copies every set
    key over the root's, so a plain ``default=None`` here would clobber
    a value parsed before the subcommand name.
    """
    p.add_argument("--trace-out", default=argparse.SUPPRESS,
                   metavar="PATH",
                   help="write a span trace (.jsonl = JSON lines, "
                        "otherwise Chrome trace_event JSON for "
                        "about:tracing / Perfetto)")
    p.add_argument("--metrics-out", default=argparse.SUPPRESS,
                   metavar="PATH",
                   help="write the metrics-registry snapshot as JSON")
    p.add_argument("-v", "--verbose", action="count",
                   default=argparse.SUPPRESS,
                   help="structured JSON logging on stderr "
                        "(-vv also streams finished spans)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Water-immersion computer boards (ICPP 2019), "
                    "reproduced.",
    )
    _add_obs_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chip(p, default="high-frequency-cmp"):
        p.add_argument("--chip", default=default,
                       choices=("low-power-cmp", "high-frequency-cmp",
                                "xeon-e5-2667v4", "xeon-phi-7290"))

    p = sub.add_parser("freq", help="max clock of one configuration")
    add_chip(p)
    p.add_argument("--chips", type=int, default=4)
    p.add_argument("--cooling", default="water")
    p.add_argument("--flip", action="store_true")
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("sweep", help="frequency-vs-chips table")
    add_chip(p, default="low-power-cmp")
    p.add_argument("--max-chips", type=int, default=15)
    p.add_argument("--cooling", nargs="*", default=None)
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="evaluate sweep points over N worker processes "
                        "(default 1: inline; results are identical at "
                        "every worker count)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("npb", help="NPB relative execution times")
    add_chip(p, default="low-power-cmp")
    p.add_argument("--chips", type=int, default=6)
    p.add_argument("--reference", default="water_pipe")
    p.set_defaults(func=_cmd_npb)

    p = sub.add_parser("maps", help="ASCII thermal maps")
    add_chip(p)
    p.add_argument("--chips", type=int, default=4)
    p.add_argument("--cooling", default="water")
    p.add_argument("--ghz", type=float, default=3.6)
    p.add_argument("--flip", action="store_true")
    p.set_defaults(func=_cmd_maps)

    p = sub.add_parser("pue", help="facility PUE comparison")
    p.set_defaults(func=_cmd_pue)

    p = sub.add_parser("headline", help="abstract numbers end to end")
    p.set_defaults(func=_cmd_headline)

    p = sub.add_parser("report", help="full paper-vs-measured report")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pareto", help="throughput/wall-power frontier")
    add_chip(p)
    p.add_argument("--max-chips", type=int, default=11)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("spec", help="run a JSON ExperimentSpec")
    p.add_argument("json", help="spec as a JSON object, e.g. "
                                '\'{"chip": "low-power-cmp", '
                                '"n_chips": 6, "cooling": "water"}\'')
    p.set_defaults(func=_cmd_spec)

    p = sub.add_parser(
        "campaign",
        help="resilient checkpointed sweep campaign with retry, "
             "graceful degradation, and a failure ledger")
    add_chip(p, default="low-power-cmp")
    p.add_argument("--kind", choices=("freq", "npb"), default="freq",
                   help="grid family: max-frequency points or NPB "
                        "co-simulation points")
    p.add_argument("--max-chips", type=int, default=8)
    p.add_argument("--cooling", nargs="*", default=None)
    p.add_argument("--checkpoint", default="campaign.json",
                   help="JSON checkpoint path (rewritten after every "
                        "chunk; see --chunk-size)")
    p.add_argument("--resume", action="store_true",
                   help="skip points already finished in the checkpoint; "
                        "re-attempt failed ones")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries per point after the first attempt "
                        "(transient errors only)")
    p.add_argument("--allow-degraded", action="store_true",
                   help="permit analytic-model fallback when the "
                        "full thermal tier fails (results tagged degraded)")
    p.add_argument("--chunk-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-chunk wall-clock budget; an overrunning "
                        "chunk's worker is killed and its points "
                        "become poison, which --resume re-attempts "
                        "(runs chunks in a supervised worker even at "
                        "--workers 1)")
    p.add_argument("--inject", nargs="*", default=None,
                   metavar="KIND[:PROB[:MAX]]",
                   help="fault injection for testing, e.g. "
                        "'singular:0.1:1' 'timeout:0.3:2'; MAX caps "
                        "fires per point")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for fault injection and retry jitter")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes (default 1: inline); "
                        "records, checkpoints, and ledgers are "
                        "identical at every worker count")
    p.add_argument("--chunk-size", type=int, default=None, metavar="K",
                   help="points per scheduled chunk; the checkpoint is "
                        "rewritten after each chunk (default: auto, at "
                        "most 8)")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "chaos",
        help="run a campaign under randomized process faults (worker "
             "kill/hang) and verify the supervised pool recovers")
    add_chip(p, default="low-power-cmp")
    p.add_argument("--max-chips", type=int, default=4)
    p.add_argument("--cooling", nargs="*", default=None,
                   help="cooling options (default: water)")
    p.add_argument("--checkpoint", default="chaos_campaign.json",
                   help="JSON checkpoint path (integrity-verified "
                        "after the run)")
    p.add_argument("--resume", action="store_true",
                   help="skip points already finished in the checkpoint")
    p.add_argument("--inject", nargs="*", default=None,
                   metavar="KIND[:PROB[:MAX]]",
                   help="fault specs; process kinds (worker_kill, "
                        "worker_hang, slow_heartbeat) run in the pool "
                        "workers, model kinds in the evaluation ladder "
                        "(default: 'worker_kill:0.5:1')")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-schedule seed (same seed + grid = same "
                        "faults at any worker count)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="supervised worker processes")
    p.add_argument("--chunk-size", type=int, default=1, metavar="K",
                   help="points per chunk (1 = finest quarantine "
                        "granularity)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="model-level retries per point")
    p.add_argument("--allow-degraded", action="store_true",
                   help="permit analytic-model fallback")
    p.add_argument("--chunk-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="per-chunk wall-clock budget before the worker "
                        "is killed (recovers hung workers)")
    p.add_argument("--heartbeat-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="worker silence budget before restart")
    p.add_argument("--poison-threshold", type=int, default=2,
                   metavar="N",
                   help="worker crashes per chunk before its points "
                        "are quarantined as poison")
    p.add_argument("--ledger-out", default=None, metavar="PATH",
                   help="also write the failure ledger as JSON (CI "
                        "artifact)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="HTTP request-serving endpoint with coalescing, result "
             "cache, and admission control")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8023,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="dispatcher count; also the in-flight bound")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission bound: requests queued past this "
                        "are shed with a structured 429")
    p.add_argument("--cache-capacity", type=int, default=256,
                   help="result-cache entries (LRU past this)")
    p.add_argument("--cache-ttl", type=float, default=None,
                   metavar="SECONDS",
                   help="result-cache time-to-live (default: no expiry)")
    p.add_argument("--processes", action="store_true",
                   help="evaluate on a persistent process pool instead "
                        "of dispatcher threads (CPU parallelism)")
    p.add_argument("--default-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="queue-wait deadline applied to requests that "
                        "do not set one")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries per request for transient errors")
    p.add_argument("--allow-degraded", action="store_true",
                   help="permit analytic-model fallback when the "
                        "full-fidelity pipeline fails (provenance on "
                        "the response)")
    p.add_argument("--seed", type=int, default=0,
                   help="retry-jitter seed")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="write a run manifest with serve/cache stats "
                        "on shutdown")
    p.add_argument("--drain-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="max seconds to finish outstanding work on "
                        "shutdown (then queued jobs are cancelled)")
    p.add_argument("--slo-window", type=float, default=60.0,
                   metavar="SECONDS",
                   help="rolling window for the /stats SLO summary and "
                        "serve.slo.* gauges (p50/p99, event rates)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a JSON ExperimentSpec to a running repro serve")
    p.add_argument("json", nargs="?", default=None,
                   help="spec as a JSON object (same shape as "
                        "`repro spec`)")
    p.add_argument("--url", default="http://127.0.0.1:8023",
                   help="server base URL")
    p.add_argument("--priority", type=int, default=0,
                   help="scheduling class; lower runs first")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="max queue wait before the server expires the "
                        "request")
    p.add_argument("--wait", action="store_true",
                   help="block for and print the result")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="result wait budget with --wait")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the server to drain and exit instead of "
                        "submitting")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "top",
        help="live serving telemetry: poll GET /stats and render the "
             "rolling-window SLO summary")
    p.add_argument("--url", default="http://127.0.0.1:8023",
                   help="server base URL")
    p.add_argument("--interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="seconds between polls")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="stop after N frames (default: until Ctrl-C)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (scripts, CI)")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("robustness",
                       help="conclusion survival over the calibration "
                            "band")
    p.add_argument("--draws", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_robustness)

    # `repro fleet run` / `repro fleet sweep` live in their own module
    # (repro.fleet.cli); it registers obs flags on its leaves itself.
    from .fleet.cli import register as register_fleet
    register_fleet(sub, add_obs_flags=_add_obs_flags)

    # Accept the observability flags after the subcommand too
    # (`repro campaign --trace-out t.json ...`). Values parsed by the
    # subparser win; argparse keeps root-parsed values otherwise.
    for p in sub.choices.values():
        _add_obs_flags(p)

    return parser


class _TelemetryFlusher:
    """Idempotent ``--trace-out`` / ``--metrics-out`` writer.

    ``main`` registers one instance with :mod:`atexit` AND calls it
    from its ``finally`` block. Whichever fires first wins; the other
    is a no-op. That covers every exit the interpreter can make — the
    normal return, Ctrl-C/SIGINT (KeyboardInterrupt unwinds through
    the ``finally``), and ``sys.exit`` from anywhere deeper — without
    ever writing the files twice.
    """

    def __init__(self, trace_out: str | None,
                 metrics_out: str | None) -> None:
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self._done = False

    def __call__(self) -> None:
        if self._done:
            return
        self._done = True
        if self.trace_out is not None:
            from .obs import get_tracer
            tracer = get_tracer()
            if str(self.trace_out).endswith(".jsonl"):
                tracer.write_jsonl(self.trace_out)
            else:
                tracer.write_chrome_trace(self.trace_out)
        if self.metrics_out is not None:
            from .obs import get_registry
            get_registry().write_json(self.metrics_out)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the exit code.

    0 ok, 1 failed run, 2 usage, 75 pool closed, 130 interrupted (the
    table in docs/usage.md).
    """
    args = build_parser().parse_args(argv)

    from .obs import get_tracer, log_event, set_verbosity
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    verbose = getattr(args, "verbose", 0) or 0

    flusher = _TelemetryFlusher(trace_out, metrics_out)
    if trace_out is not None or metrics_out is not None:
        atexit.register(flusher)

    tracer = get_tracer()
    was_enabled = tracer.enabled
    prior_on_close = tracer.on_close
    if verbose:
        set_verbosity(verbose)
        if verbose >= 2:
            tracer.on_close = lambda sp: log_event(
                "span", level=2, name=sp.name,
                duration_ms=round(sp.duration_s * 1e3, 3),
                parent_id=sp.parent_id, **sp.attrs)
    if trace_out is not None or verbose >= 2:
        tracer.enable()
    from .errors import ConfigurationError, PoolClosedError, ReproError
    try:
        with tracer.span(f"cli.{args.command}"):
            rc = args.func(args)
    except PoolClosedError as exc:
        # EX_TEMPFAIL: the pool/service is restartable and the request
        # was not wrong — rerun (campaigns resume from their
        # checkpoint) or let the serve broker rebuild its pool.
        print(f"error: {exc}", file=sys.stderr)
        rc = 75
    except ReproError as exc:
        # a ConfigurationError is a usage error, like argparse's
        print(f"error: {exc}", file=sys.stderr)
        rc = 2 if isinstance(exc, ConfigurationError) else 1
    except KeyboardInterrupt:
        # A Ctrl-C mid-run must not dump a traceback: campaigns have
        # already checkpointed every finished point and `serve` drains
        # inside its own handler, so exit with the conventional
        # 128+SIGINT code and keep the observability flush below.
        print("\ninterrupted (Ctrl-C)", file=sys.stderr)
        if args.command == "campaign":
            checkpoint = getattr(args, "checkpoint", None)
            if checkpoint:
                print(f"finished points are checkpointed in "
                      f"{checkpoint}; rerun with --resume to continue",
                      file=sys.stderr)
        rc = 130
    finally:
        flusher()
        atexit.unregister(flusher)
        if verbose:
            set_verbosity(0)
        tracer.on_close = prior_on_close
        if not was_enabled:
            tracer.disable()
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
