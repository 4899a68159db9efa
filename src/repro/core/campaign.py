"""Checkpointed, fault-tolerant sweep campaigns.

The paper's figures come from grids of operating points (chip x stack
height x cooling option). A naive loop dies on the first singular
network or NaN and loses every finished point; :class:`CampaignRunner`
instead executes the grid in chunks of points on the
:mod:`repro.parallel` engine with

* per-point retry/backoff and graceful degradation
  (:mod:`repro.resilience`);
* a JSON checkpoint rewritten atomically after every chunk, so a
  killed campaign resumes without recomputing finished work;
* a structured failure ledger (config, exception class, rungs tried,
  attempts) instead of an abort;
* provenance on every record: which ladder rung produced it, whether
  it is degraded, and how many attempts it took.

Grids for the two figure families are built by
:func:`frequency_grid` (Figs. 1/7/8/17) and :func:`npb_grid`
(Figs. 10-13); :meth:`CampaignResult.frequency_series` and
:meth:`CampaignResult.npb_comparison` convert finished campaigns back
into the result objects the figure drivers consume.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections import Counter as _KeyCounter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import (
    CheckpointError,
    ConfigurationError,
    InfeasibleError,
    ReproError,
)
from ..obs import (
    build_manifest,
    config_hash,
    counter,
    get_registry,
    log_event,
    span,
    write_manifest,
)
from ..perfsim.npb import NPB_ORDER
from ..perfsim.system import config_for_stack
from ..power.processors import get_chip
from ..resilience import ResilienceOptions
from ..stack.chipstack import check_stack_height
from ..thermal.package import DEFAULT_PACKAGE, PackageParams
from .freqopt import OperatingPoint
from .point import evaluate

#: 4 since each coolant's package is condensed onto the ports the dies
#: couple to, which moves temperatures in their last bits; an older file
#: is quarantined and recomputed. (3: temperatures from the shared stack
#: factors; 2: the thermal ladder's first rung is named ``full`` and NPB
#: records name no performance rung.)
CHECKPOINT_VERSION = 4

#: Statuses resume must not recompute. ``poison`` (quarantined by the
#: supervised pool) is deliberately absent: a poisoned point is
#: re-attempted on the next run — the crash may have been environmental.
_FINISHED = ("ok", "infeasible")


def _payload_digest(payload: dict) -> str:
    """SHA-256 over the checkpoint's *stable* content.

    The manifest is excluded: it carries timestamps and host facts, and
    worker-count byte comparisons strip it already. Everything
    resume actually consumes — version, points, ledger — is covered.
    """
    stable = {"version": payload.get("version"),
              "points": payload.get("points", {}),
              "ledger": payload.get("ledger", [])}
    blob = json.dumps(stable, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _read_checkpoint(path: Path) -> tuple[dict[str, PointRecord],
                                          list[LedgerEntry], bool | None]:
    """Strictly parse one checkpoint file: its records, its ledger, and
    whether its embedded checksum matched (None for a pre-checksum
    file). Raises :class:`~repro.errors.CheckpointError` when the file
    is unreadable, structurally wrong, or fails its checksum."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {data.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}")
    checksum_ok: bool | None = None
    stored = data.get("checksum")
    if stored is not None:
        checksum_ok = stored == _payload_digest(data)
        if not checksum_ok:
            raise CheckpointError(
                f"checkpoint {path} failed its SHA-256 checksum — "
                f"truncated or torn write")
    try:
        records = {k: PointRecord.from_dict(v)
                   for k, v in data.get("points", {}).items()}
        ledger = [LedgerEntry.from_dict(e)
                  for e in data.get("ledger", [])]
    except (TypeError, KeyError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} has malformed records: "
            f"{type(exc).__name__}: {exc}") from exc
    return records, ledger, checksum_ok


def verify_checkpoint(path: str | os.PathLike) -> dict:
    """Validate a checkpoint file's integrity without loading a campaign.

    Returns a summary dict (``version``, ``points``, ``ledger_entries``,
    ``checksum_ok``) or raises :class:`~repro.errors.CheckpointError`
    when the file is unreadable, structurally wrong, or fails its
    embedded checksum. Pre-checksum checkpoints (no ``checksum`` key)
    validate structurally with ``checksum_ok=None``.
    """
    records, ledger, checksum_ok = _read_checkpoint(Path(path))
    return {"version": CHECKPOINT_VERSION, "points": len(records),
            "ledger_entries": len(ledger), "checksum_ok": checksum_ok}


@dataclass(frozen=True)
class CampaignPoint:
    """One grid point of a campaign.

    Attributes:
        kind: ``"freq"`` (max-frequency search only), ``"npb"``
            (max-frequency search plus NPB execution times), or
            ``"fleet"`` (a fleet-simulator configuration — used by the
            fleet incident ledger, which reuses this schema family).
        chip / n_chips / cooling: the configuration.
        threshold_c: temperature limit override (None = chip default).
        threads: simulated thread count for npb points (None = all
            cores).
    """

    kind: str
    chip: str
    n_chips: int
    cooling: str
    threshold_c: float | None = None
    threads: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("freq", "npb", "fleet"):
            raise ConfigurationError(
                f"unknown campaign point kind {self.kind!r}")
        if self.n_chips < 1:
            raise ConfigurationError("n_chips must be >= 1")
        check_stack_height(self.n_chips)
        # The stable checkpoint key, computed once (the runner, the
        # parallel engine's seed derivation, and the ledger all key on
        # it repeatedly). Not a dataclass field, so ``asdict`` — and
        # therefore the checkpoint bytes — are unchanged.
        object.__setattr__(
            self, "key",
            f"{self.kind}/{self.chip}/n{self.n_chips}/{self.cooling}")

    def to_dict(self) -> dict:
        """Plain-dict form for the checkpoint."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignPoint":
        """Inverse of :meth:`to_dict`."""
        return cls(**d)


def frequency_grid(chip: str, chips: tuple[int, ...],
                   coolings: tuple[str, ...], *,
                   threshold_c: float | None = None
                   ) -> tuple[CampaignPoint, ...]:
    """The Figs. 1/7/8/17 grid: every (stack height, cooling) pair."""
    return tuple(
        CampaignPoint(kind="freq", chip=chip, n_chips=n, cooling=c,
                      threshold_c=threshold_c)
        for c in coolings for n in chips
    )


def npb_grid(chip: str, chips: tuple[int, ...],
             coolings: tuple[str, ...], *,
             threads: int | None = None) -> tuple[CampaignPoint, ...]:
    """The Figs. 10-13 grid: NPB times at every (height, cooling).

    Raises:
        ConfigurationError: the chip has no NPB system at some height
            (its cores do not fit the mesh), before any point runs.
    """
    for n in chips:
        config_for_stack(get_chip(chip), n)
    return tuple(
        CampaignPoint(kind="npb", chip=chip, n_chips=n, cooling=c,
                      threads=threads)
        for c in coolings for n in chips
    )


@dataclass(frozen=True)
class PointRecord:
    """One finished (or failed) grid point, with provenance.

    ``status`` is ``"ok"``, ``"infeasible"`` (a valid result the paper
    omits from its figures), or ``"failed"`` (see the ledger).
    """

    point: CampaignPoint
    status: str
    f_ghz: float = 0.0
    max_temp_c: float = 0.0
    chip_power_w: float = 0.0
    total_power_w: float = 0.0
    rung: str = ""
    degraded: bool = False
    attempts: int = 0
    errors: tuple[str, ...] = ()
    npb_time_s: dict[str, float] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """True when resume must not recompute this point."""
        return self.status in _FINISHED

    def operating_point(self) -> OperatingPoint:
        """Reconstruct the frequency-optimizer result object."""
        return OperatingPoint(
            f_hz=self.f_ghz * 1e9,
            max_temp_c=self.max_temp_c,
            feasible=self.status == "ok",
            chip_power_w=self.chip_power_w,
            total_power_w=self.total_power_w,
        )

    def to_dict(self) -> dict:
        """Plain-dict form for the checkpoint."""
        d = asdict(self)
        d["point"] = self.point.to_dict()
        d["errors"] = list(self.errors)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PointRecord":
        """Inverse of :meth:`to_dict`."""
        d = dict(d)
        d["point"] = CampaignPoint.from_dict(d["point"])
        d["errors"] = tuple(d.get("errors", ()))
        d["npb_time_s"] = dict(d.get("npb_time_s", {}))
        return cls(**d)


@dataclass(frozen=True)
class LedgerEntry:
    """One failure, structured for postmortems.

    ``config_hash`` ties the entry to the campaign manifest it happened
    under (empty on entries from pre-manifest checkpoints).
    """

    key: str
    point: CampaignPoint
    exception: str
    message: str
    attempts: int
    rungs_tried: tuple[str, ...]
    allow_degraded: bool
    config_hash: str = ""

    def to_dict(self) -> dict:
        """Plain-dict form for the checkpoint."""
        d = asdict(self)
        d["point"] = self.point.to_dict()
        d["rungs_tried"] = list(self.rungs_tried)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerEntry":
        """Inverse of :meth:`to_dict`."""
        d = dict(d)
        d["point"] = CampaignPoint.from_dict(d["point"])
        d["rungs_tried"] = tuple(d.get("rungs_tried", ()))
        return cls(**d)


@dataclass
class CampaignResult:
    """Everything a finished (or interrupted) campaign produced.

    ``manifest`` is the run's provenance record (see
    :mod:`repro.obs.manifest`); it is also written next to the
    checkpoint as ``<checkpoint>.manifest.json``.
    """

    records: dict[str, PointRecord]
    ledger: tuple[LedgerEntry, ...]
    evaluated: int
    skipped: int
    checkpoint_path: Path | None
    manifest: dict | None = None

    def summary(self) -> dict[str, int]:
        """Point counts by status, plus degraded and resume-skip counts."""
        out = {"ok": 0, "infeasible": 0, "failed": 0, "degraded": 0,
               "evaluated": self.evaluated, "skipped": self.skipped}
        for r in self.records.values():
            out[r.status] = out.get(r.status, 0) + 1
            if r.degraded:
                out["degraded"] += 1
        return out

    def record_for(self, point: CampaignPoint) -> PointRecord:
        """Look up one point's record."""
        try:
            return self.records[point.key]
        except KeyError:
            raise CheckpointError(
                f"no record for campaign point {point.key!r}") from None

    def frequency_series(self, chip: str, cooling: str):
        """A :class:`~repro.core.sweeps.FrequencySeries` with provenance.

        Failed points appear as 0.0 GHz with rung ``"failed"`` — the
        curve keeps its shape instead of losing the whole campaign.
        """
        from .sweeps import FrequencySeries
        rows = sorted(
            (r for r in self.records.values()
             if r.point.kind == "freq" and r.point.chip == chip
             and r.point.cooling == cooling),
            key=lambda r: r.point.n_chips)
        return FrequencySeries(
            cooling=cooling,
            chips=tuple(r.point.n_chips for r in rows),
            f_ghz=tuple(r.f_ghz if r.status == "ok" else 0.0 for r in rows),
            degraded=tuple(r.degraded for r in rows),
            rungs=tuple(r.rung if r.status != "failed" else "failed"
                        for r in rows),
        )

    def npb_comparison(self, chip: str, n_chips: int, reference: str):
        """Rebuild a :class:`~repro.core.cosim.NpbComparison` from records."""
        from .cosim import CoolingOutcome, NpbComparison
        outcomes = []
        threads = 0
        for r in sorted((r for r in self.records.values()
                         if r.point.kind == "npb" and r.point.chip == chip
                         and r.point.n_chips == n_chips),
                        key=lambda r: r.point.cooling):
            outcomes.append(CoolingOutcome(
                cooling=r.point.cooling,
                point=r.operating_point(),
                npb_time_s=dict(r.npb_time_s),
                rung=r.rung or "failed",
                degraded=r.degraded,
                attempts=r.attempts,
            ))
            threads = r.point.threads or threads
        return NpbComparison(chip=chip, n_chips=n_chips, threads=threads,
                             reference=reference, outcomes=tuple(outcomes))


def evaluate_point(point: CampaignPoint,
                   resilience: ResilienceOptions,
                   params: PackageParams = DEFAULT_PACKAGE
                   ) -> PointRecord:
    """Evaluate one grid point through :func:`repro.core.point.evaluate`.

    An ``npb`` point asks for every NPB program, a ``freq`` point for
    none. This is the default evaluator; :class:`CampaignRunner`
    accepts any callable with this signature (tests substitute
    counting wrappers).
    """
    outcome = evaluate(
        point.chip, point.n_chips, point.cooling,
        threshold_c=point.threshold_c, params=params,
        threads=point.threads,
        programs=NPB_ORDER if point.kind == "npb" else (),
        resilience=resilience)
    op = outcome.point
    return PointRecord(
        point=point,
        status="ok" if op.feasible else "infeasible",
        f_ghz=op.f_ghz,
        max_temp_c=op.max_temp_c,
        chip_power_w=op.chip_power_w,
        total_power_w=op.total_power_w,
        rung=outcome.rung,
        degraded=outcome.degraded,
        attempts=outcome.attempts,
        errors=outcome.errors,
        npb_time_s=outcome.npb_time_s,
    )


def _evaluate_guarded(point: CampaignPoint,
                      resilience: ResilienceOptions,
                      params: PackageParams,
                      evaluator: Callable,
                      config_hash: str
                      ) -> tuple[PointRecord, LedgerEntry | None]:
    """One point, end to end: evaluate, classify, record.

    The single source of truth for how an evaluation outcome maps to a
    (:class:`PointRecord`, optional :class:`LedgerEntry`) pair — the
    inline engine and every pool worker go through here, which is what
    makes checkpoints byte-identical at every worker count.
    """
    try:
        with span("campaign.point", key=point.key, kind=point.kind):
            record = evaluator(point, resilience, params)
    except InfeasibleError as exc:
        return PointRecord(point=point, status="infeasible",
                           errors=(str(exc),), attempts=1), None
    except (ReproError, ArithmeticError) as exc:
        entry = LedgerEntry(
            key=point.key,
            point=point,
            exception=type(exc).__name__,
            message=str(exc),
            attempts=getattr(exc, "_ladder_attempts", 1),
            rungs_tried=getattr(exc, "_ladder_rungs", ()),
            allow_degraded=resilience.allow_degraded,
            config_hash=config_hash,
        )
        record = PointRecord(point=point, status="failed",
                             errors=(f"{type(exc).__name__}: {exc}",))
        return record, entry
    return record, None


@dataclass(frozen=True)
class _WorkerPayload:
    """Everything a pool worker needs to evaluate campaign points.

    Rebuilt per process (the ``sleep`` callable and shared injector of
    :class:`~repro.resilience.ResilienceOptions` cannot cross a pickle
    boundary): per-point injectors are derived in the worker from
    ``fault_seed`` and the point key, so the stream a point sees does
    not depend on scheduling.
    """

    evaluator: Callable
    retry_policy: object
    allow_degraded: bool
    fault_specs: tuple
    fault_seed: int | None       # None = no injector configured
    fault_enabled: bool
    params: PackageParams
    config_hash: str
    sleep: Callable[[float], None] | None = None


def _point_resilience(payload: _WorkerPayload,
                      point: CampaignPoint) -> ResilienceOptions:
    """Per-point resilience options with a derived injector stream."""
    injector = None
    if payload.fault_seed is not None:
        from ..parallel import derive_seed
        from ..resilience import FaultInjector
        injector = FaultInjector(
            payload.fault_specs,
            seed=derive_seed(payload.fault_seed, point.key),
            enabled=payload.fault_enabled)
    return ResilienceOptions(retry_policy=payload.retry_policy,
                             allow_degraded=payload.allow_degraded,
                             injector=injector,
                             sleep=payload.sleep)


def _eval_point_task(payload: _WorkerPayload, point: CampaignPoint
                     ) -> tuple[PointRecord, LedgerEntry | None]:
    """The pool task: one guarded point evaluation (module-level for
    pickling)."""
    return _evaluate_guarded(
        point, _point_resilience(payload, point), payload.params,
        payload.evaluator, payload.config_hash)


class CampaignRunner:
    """Execute a grid of points with checkpointing and a failure ledger.

    Every campaign runs on the :mod:`repro.parallel` engine: pending
    points are chunked, each point draws its fault-injector stream from
    (campaign seed, point key), and the checkpoint is rewritten after
    every chunk — so records, checkpoints, and ledgers are identical
    at every worker count. ``max_fires`` in a fault spec therefore caps
    fires per point, not across the campaign.

    Args:
        points: the grid (see :func:`frequency_grid` / :func:`npb_grid`).
        resilience: retry / degradation / fault-injection options.
        checkpoint_path: JSON checkpoint location (None = in-memory
            only, no resume across processes).
        params: package parameters forwarded to the thermal models.
        evaluator: override for the per-point evaluation (tests). Must
            be picklable (module-level) when chunks run in worker
            processes (``workers > 1``, ``process_faults`` or
            ``chunk_timeout_s``).
        workers: worker processes (>= 1). At 1 the engine runs every
            chunk inline, unless a chunk deadline or a process fault
            plan needs the supervised pool.
        chunk_size: points per scheduled chunk (None = auto).
        process_faults: optional
            :class:`~repro.resilience.faults.ProcessFaultPlan` executed
            inside the pool workers (``repro chaos``). Chunks that
            crash their worker past the quarantine threshold land in
            the ledger as ``poison`` points instead of aborting the run.
        chunk_timeout_s: wall-clock budget per *chunk* enforced by the
            supervisor: a chunk that overruns it has its worker process
            killed and is retried, so even a hard-wedged solver is
            recovered; past ``max_point_crashes`` its points become
            ``poison`` records, which resume re-attempts.
        heartbeat_timeout_s: supervisor silence budget per worker
            (None disables heartbeat monitoring).
        max_point_crashes: quarantine threshold forwarded to the
            supervised pool — worker crashes per chunk before its
            points are recorded as ``poison``.
        response_cache_dir: accepted and ignored. There is no operator
            store any more; the argument stays only until the benchmark
            in ``perfbench/`` stops passing it (ROADMAP, the
            [benchmark] item).

    The campaign config hash deliberately excludes ``workers``,
    ``chunk_size`` and the supervision
    timeouts: execution strategy changes how fast the answer arrives,
    not what it is, and ledger entries from a 4-worker re-run must tie
    to the same manifest as the 1-worker original. ``process_faults``
    *is* hashed (only when set — existing hashes are unchanged):
    injected crashes change which points finish.
    """

    def __init__(self, points: tuple[CampaignPoint, ...] |
                 list[CampaignPoint], *,
                 resilience: ResilienceOptions | None = None,
                 checkpoint_path: str | os.PathLike | None = None,
                 params: PackageParams = DEFAULT_PACKAGE,
                 evaluator: Callable[[CampaignPoint, ResilienceOptions,
                                      PackageParams],
                                     PointRecord] | None = None,
                 workers: int = 1,
                 chunk_size: int | None = None,
                 process_faults=None,
                 chunk_timeout_s: float | None = None,
                 heartbeat_timeout_s: float | None = 30.0,
                 max_point_crashes: int = 2,
                 response_cache_dir: str | os.PathLike | None = None
                 ) -> None:
        if not points:
            raise ConfigurationError("a campaign needs at least one point")
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        keys = [p.key for p in points]
        counts = _KeyCounter(keys)
        if len(counts) != len(keys):
            dupes = sorted(k for k, c in counts.items() if c > 1)
            raise ConfigurationError(
                f"duplicate campaign points: {', '.join(dupes)}")
        self.points = tuple(points)
        self.workers = workers
        self.chunk_size = chunk_size
        self.resilience = (resilience if resilience is not None
                           else ResilienceOptions())
        self.checkpoint_path = (Path(checkpoint_path)
                                if checkpoint_path is not None else None)
        self.params = params
        self.process_faults = process_faults
        self.chunk_timeout_s = chunk_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_point_crashes = max_point_crashes
        # per-record serialized forms (dict + rendered-JSON fragment),
        # keyed by point key; records are frozen, so each needs
        # serializing once per identity, not once per checkpoint
        # rewrite (which is O(points) per finished chunk)
        self._record_dicts: dict[str, tuple[PointRecord, dict, str]] = {}
        self.evaluator = (evaluator if evaluator is not None
                          else evaluate_point)
        policy = self.resilience.retry_policy
        self._campaign_config = {
            "points": sorted(keys),
            "allow_degraded": self.resilience.allow_degraded,
            "max_attempts": policy.max_attempts if policy else None,
            "fault_specs": ([f"{s.kind}:{s.probability}:{s.max_fires}"
                             for s in self.resilience.injector.specs]
                            if self.resilience.injector else []),
        }
        if process_faults is not None:
            # only hashed when chaos is on, so pre-existing campaign
            # hashes (and their manifests) stay stable
            self._campaign_config["process_faults"] = {
                "specs": [f"{s.kind}:{s.probability}:{s.max_fires}"
                          for s in process_faults.specs],
                "seed": process_faults.seed,
                "enabled": process_faults.enabled,
            }
        self.config_hash = config_hash(self._campaign_config)

    @property
    def seed(self) -> int | None:
        """The campaign's determinism seed (from the retry policy)."""
        policy = self.resilience.retry_policy
        return policy.seed if policy is not None else None

    def _manifest(self, records: dict[str, PointRecord],
                  ledger: list[LedgerEntry],
                  wall_time_s: float) -> dict:
        totals = {"ok": 0, "infeasible": 0, "failed": 0, "degraded": 0}
        for r in records.values():
            totals[r.status] = totals.get(r.status, 0) + 1
            if r.degraded:
                totals["degraded"] += 1
        return build_manifest(
            name="campaign",
            config=self._campaign_config,
            seed=self.seed,
            metrics=get_registry().snapshot(),
            wall_time_s=wall_time_s,
            extra={"point_totals": totals,
                   "ledger_entries": len(ledger)},
        )

    # -- checkpoint I/O -----------------------------------------------------

    def _quarantine_file(self, path: Path) -> None:
        """Rotate an unreadable checkpoint aside as ``<name>.corrupt``."""
        corrupt = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, corrupt)
        except OSError:
            return
        counter("checkpoint.corrupt").inc()
        log_event("checkpoint_corrupt", path=str(path),
                  rotated_to=str(corrupt))

    def _load_checkpoint(self) -> tuple[dict[str, PointRecord],
                                        list[LedgerEntry]]:
        """Load the checkpoint, recovering instead of crashing.

        Recovery chain: the checkpoint itself → its ``.bak`` (the
        previous good generation, rotated by :meth:`_write_checkpoint`)
        → an empty state. An unreadable file is rotated aside as
        ``.corrupt`` so the evidence survives the rerun; every fallback
        increments ``checkpoint.recoveries``.
        """
        path = self.checkpoint_path
        if path is None or not path.exists():
            return {}, []
        try:
            return _read_checkpoint(path)[:2]
        except CheckpointError as exc:
            log_event("checkpoint_unreadable", path=str(path),
                      error=str(exc), level=0)
            self._quarantine_file(path)
        backup = path.with_name(path.name + ".bak")
        if backup.exists():
            try:
                records, ledger, _ = _read_checkpoint(backup)
            except CheckpointError as exc:
                log_event("checkpoint_backup_unreadable",
                          path=str(backup), error=str(exc), level=0)
            else:
                counter("checkpoint.recoveries").inc()
                log_event("checkpoint_recovered", source=str(backup),
                          points=len(records))
                return records, ledger
        counter("checkpoint.recoveries").inc()
        log_event("checkpoint_recovered", source="empty", points=0)
        return {}, []

    def _record_entry(self, key: str,
                      record: PointRecord) -> tuple[PointRecord, dict, str]:
        """One record's serialized forms, computed once per identity.

        Checkpoints rewrite every finished record after every chunk;
        the records themselves are frozen, so the deep ``asdict`` walk
        and the ``indent=1`` JSON rendering are hoisted here and only
        re-run when a key's record object is actually replaced (e.g. a
        resumed point re-evaluated). The fragment is pre-shifted to the
        checkpoint's nesting depth (two levels inside the document).
        """
        cached = self._record_dicts.get(key)
        if cached is None or cached[0] is not record:
            rdict = record.to_dict()
            frag = json.dumps(rdict, indent=1).replace("\n", "\n  ")
            cached = (record, rdict, frag)
            self._record_dicts[key] = cached
        return cached

    def _encode_checkpoint(self, payload: dict,
                           records: dict[str, PointRecord]) -> str:
        """Byte-identical to ``json.dumps(payload, indent=1)``.

        The ``points`` section — the only part that grows with the
        campaign — is assembled from the cached per-record fragments
        instead of being re-encoded from scratch on every write;
        encoded JSON strings never contain raw newlines, so splicing
        pre-indented fragments is exact (pinned by the canonical-form
        test in the campaign suite).
        """
        parts = []
        for key, value in payload.items():
            if key == "points" and value:
                body = ",\n".join(
                    "  " + json.dumps(k) + ": "
                    + self._record_entry(k, records[k])[2]
                    for k in value)
                enc = "{\n" + body + "\n }"
            else:
                enc = json.dumps(value, indent=1).replace("\n", "\n ")
            parts.append(" " + json.dumps(key) + ": " + enc)
        return "{\n" + ",\n".join(parts) + "\n}"

    def _write_checkpoint(self, records: dict[str, PointRecord],
                          ledger: list[LedgerEntry],
                          manifest: dict | None = None) -> None:
        """Crash-consistent checkpoint rewrite.

        Write order is the recovery contract: temp file → fsync →
        rotate the previous good checkpoint to ``.bak`` → atomic
        ``os.replace``. A torn write can lose at most the generation
        being written; :meth:`_load_checkpoint` then falls back to
        ``.bak``. The temp file is unlinked on any failure (including
        a ``json.dump`` that dies mid-write).
        """
        path = self.checkpoint_path
        if path is None:
            return
        payload = {
            "version": CHECKPOINT_VERSION,
            "points": {k: self._record_entry(k, r)[1]
                       for k, r in records.items()},
            "ledger": [e.to_dict() for e in ledger],
        }
        payload["checksum"] = _payload_digest(payload)
        if manifest is not None:
            payload["manifest"] = manifest
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(self._encode_checkpoint(payload, records))
                fh.flush()
                os.fsync(fh.fileno())
            if path.exists():
                os.replace(path, path.with_name(path.name + ".bak"))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if manifest is not None:
            write_manifest(manifest, self.manifest_path())

    def manifest_path(self) -> Path | None:
        """Where the sibling manifest lives (None without a checkpoint)."""
        if self.checkpoint_path is None:
            return None
        return self.checkpoint_path.with_name(
            self.checkpoint_path.name + ".manifest.json")

    # -- execution ----------------------------------------------------------

    def _note_record(self, record: PointRecord) -> None:
        counter(f"campaign.points_{record.status}").inc()
        if record.degraded:
            counter("campaign.points_degraded").inc()
        log_event("campaign_point", key=record.point.key,
                  status=record.status, rung=record.rung,
                  degraded=record.degraded,
                  attempts=record.attempts)

    def run(self, *, resume: bool = True) -> CampaignResult:
        """Execute every point not already finished in the checkpoint.

        Args:
            resume: load the checkpoint and skip finished points.
                Previously *failed* points are re-attempted (their old
                ledger entries are replaced); ``resume=False`` starts
                from scratch and overwrites the checkpoint.
        """
        t0 = time.perf_counter()
        records: dict[str, PointRecord] = {}
        ledger: list[LedgerEntry] = []
        if resume:
            records, ledger = self._load_checkpoint()
        with span("campaign.run", n_points=len(self.points),
                  config_hash=self.config_hash, workers=self.workers):
            records, ledger, evaluated, skipped = \
                self._run_engine(records, ledger, t0)
        manifest = self._manifest(records, ledger,
                                  time.perf_counter() - t0)
        return CampaignResult(records=records, ledger=tuple(ledger),
                              evaluated=evaluated, skipped=skipped,
                              checkpoint_path=self.checkpoint_path,
                              manifest=manifest)

    def _worker_payload(self, *, picklable: bool) -> _WorkerPayload:
        injector = self.resilience.injector
        return _WorkerPayload(
            evaluator=self.evaluator,
            retry_policy=self.resilience.retry_policy,
            allow_degraded=self.resilience.allow_degraded,
            fault_specs=injector.specs if injector is not None else (),
            fault_seed=injector.seed if injector is not None else None,
            fault_enabled=(injector.enabled if injector is not None
                           else True),
            params=self.params,
            config_hash=self.config_hash,
            sleep=None if picklable else self.resilience.sleep,
        )

    def _run_engine(self, loaded: dict[str, PointRecord],
                    loaded_ledger: list[LedgerEntry], t0: float):
        """Evaluate the pending points on the :mod:`repro.parallel` engine.

        Pending points are chunked (inline at one worker, over a
        process pool otherwise); per-point injector streams are derived
        from (campaign seed, point key), so every worker count produces
        the same records. The checkpoint is rewritten after every
        completed chunk, rebuilt each time in grid order from the
        accumulated results so the bytes never depend on chunk
        completion order.
        """
        from ..parallel import ParallelConfig, run_chunked

        pending = [(i, p) for i, p in enumerate(self.points)
                   if not (loaded.get(p.key) is not None
                           and loaded[p.key].finished)]
        skipped = len(self.points) - len(pending)
        if skipped:
            counter("campaign.points_skipped").inc(skipped)
        pending_keys = {p.key for _, p in pending}
        kept_ledger = [e for e in loaded_ledger
                       if e.key not in pending_keys]
        computed: dict[int, tuple[PointRecord, LedgerEntry | None]] = {}

        def assemble() -> tuple[dict[str, PointRecord],
                                list[LedgerEntry]]:
            records = dict(loaded)
            ledger = list(kept_ledger)
            for idx in sorted(computed):
                record, entry = computed[idx]
                records[record.point.key] = record
                if entry is not None:
                    ledger.append(entry)
            return records, ledger

        def quarantine(point: CampaignPoint, poisoned
                       ) -> tuple[PointRecord, LedgerEntry]:
            """A Poisoned marker (chunk crashed its worker past the
            threshold) becomes a ``poison`` record + ledger entry."""
            counter("campaign.points_quarantined").inc()
            record = PointRecord(
                point=point, status="poison", rung="poison",
                attempts=poisoned.crashes,
                errors=(f"WorkerCrashError: {poisoned.reason}",))
            entry = LedgerEntry(
                key=point.key, point=point,
                exception="WorkerCrashError",
                message=(f"chunk {poisoned.key} crashed its worker "
                         f"{poisoned.crashes}x: {poisoned.reason}"),
                attempts=poisoned.crashes,
                rungs_tried=("poison",),
                allow_degraded=self.resilience.allow_degraded,
                config_hash=self.config_hash)
            return record, entry

        def on_chunk(done) -> None:
            # run_chunked indexes into the pending list; keep the
            # accumulator keyed by *grid* index so ledger entries land
            # in grid order whatever order the chunks finish in.
            from ..parallel import Poisoned
            for pending_idx, result in done:
                if isinstance(result, Poisoned):
                    record, entry = quarantine(pending[pending_idx][1],
                                               result)
                else:
                    record, entry = result
                computed[pending[pending_idx][0]] = (record, entry)
                self._note_record(record)
            records, ledger = assemble()
            self._write_checkpoint(
                records, ledger,
                self._manifest(records, ledger,
                               time.perf_counter() - t0))

        config = ParallelConfig(workers=self.workers,
                                chunk_size=self.chunk_size,
                                task_timeout_s=self.chunk_timeout_s,
                                heartbeat_timeout_s=self.heartbeat_timeout_s,
                                max_task_crashes=self.max_point_crashes)
        run_chunked([p for _, p in pending], _eval_point_task,
                    self._worker_payload(picklable=self.workers > 1),
                    config=config, on_chunk=on_chunk,
                    fault_plan=self.process_faults)
        # on_chunk already folded every result into `computed` (keyed
        # by grid index) and checkpointed; assemble once more for the
        # returned state (a fully-skipped run leaves the checkpoint
        # file untouched).
        records, ledger = assemble()
        return records, ledger, len(pending), skipped
