"""Run manifests: what ran, with what inputs, on what machine.

A manifest is the provenance record written alongside every campaign
checkpoint (``<checkpoint>.manifest.json``) and embedded in the
checkpoint payload itself: seed, canonical configuration plus its
SHA-256 hash, package version, platform, wall time, and a final
metrics snapshot. Two runs of the same configuration on the same
machine produce byte-identical manifests up to the volatile fields
(timestamp, wall time, metrics) — the determinism test pins this by
injecting those.

The schema is hand-rolled (:data:`MANIFEST_SCHEMA`,
:func:`validate_manifest`) so validation needs no third-party
dependency; CI validates every emitted manifest against it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from datetime import datetime, timezone
from typing import IO, Any

from ..errors import ConfigurationError

__all__ = [
    "MANIFEST_VERSION",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "canonical_config",
    "config_hash",
    "validate_manifest",
    "write_manifest",
]

MANIFEST_VERSION = 1

#: Field name -> (accepted types, required). ``dict``-typed fields are
#: validated one level deep as JSON objects.
MANIFEST_SCHEMA: dict[str, tuple[tuple[type, ...], bool]] = {
    "manifest_version": ((int,), True),
    "name": ((str,), True),
    "seed": ((int, type(None)), True),
    "config": ((dict,), True),
    "config_hash": ((str,), True),
    "package_version": ((str,), True),
    "python_version": ((str,), True),
    "platform": ((str,), True),
    "timestamp": ((str,), True),
    "wall_time_s": ((int, float, type(None)), True),
    "metrics": ((dict,), True),
    "extra": ((dict,), False),
}


def _canonical(config: dict[str, Any]) -> str:
    try:
        return json.dumps(config, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"manifest config is not JSON-serializable: {exc}") from exc


def config_hash(config: dict[str, Any]) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON of a config."""
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def canonical_config(value: Any) -> Any:
    """Recursively normalize a JSON-ish config for hashing.

    Integral floats become ints (``6.0`` and ``6`` describe the same
    stack height; JSON canonicalization alone would hash them apart),
    tuples become lists, and dict keys coerce to str. Bools are left
    alone — ``True`` is not ``1`` in a spec. Key *order* needs no
    handling here: :func:`config_hash` already serializes with sorted
    keys. This is the single normalization the serving layer
    (coalescing / result-cache keys) and run manifests hash through, so
    they agree on what "the same configuration" means.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer() \
            and abs(value) < 2 ** 53:
        return int(value)
    if isinstance(value, dict):
        return {str(k): canonical_config(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_config(v) for v in value]
    return value


def build_manifest(*, name: str, config: dict[str, Any],
                   seed: int | None = None,
                   metrics: dict[str, Any] | None = None,
                   wall_time_s: float | None = None,
                   timestamp: str | None = None,
                   extra: dict[str, Any] | None = None) -> dict[str, Any]:
    """Assemble a manifest dict.

    Args:
        name: what ran (``"campaign"``, ``"cli.freq"``, ...).
        config: the run's configuration, JSON-serializable.
        seed: the determinism seed, when the run had one.
        metrics: a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.
        wall_time_s: total wall time.
        timestamp: ISO-8601 start time; None stamps UTC now
            (injectable so tests can pin determinism).
        extra: free-form run-specific payload (e.g. campaign point
            totals).
    """
    doc: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "name": name,
        "seed": seed,
        "config": json.loads(_canonical(config)),
        "config_hash": config_hash(config),
        "package_version": _package_version(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": (timestamp if timestamp is not None
                      else datetime.now(timezone.utc).isoformat()),
        "wall_time_s": wall_time_s,
        "metrics": dict(metrics) if metrics else {},
    }
    if extra:
        doc["extra"] = dict(extra)
    return doc


def _package_version() -> str:
    from .. import __version__
    return __version__


def validate_manifest(doc: Any) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on a bad manifest."""
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"manifest must be a JSON object, got {type(doc).__name__}")
    for field, (types, required) in MANIFEST_SCHEMA.items():
        if field not in doc:
            if required:
                raise ConfigurationError(
                    f"manifest is missing required field {field!r}")
            continue
        if not isinstance(doc[field], types):
            names = "/".join(t.__name__ for t in types)
            raise ConfigurationError(
                f"manifest field {field!r} must be {names}, got "
                f"{type(doc[field]).__name__}")
    unknown = sorted(set(doc) - set(MANIFEST_SCHEMA))
    if unknown:
        raise ConfigurationError(
            f"manifest has unknown fields: {', '.join(unknown)}")
    if doc["manifest_version"] != MANIFEST_VERSION:
        raise ConfigurationError(
            f"manifest version {doc['manifest_version']!r} unsupported "
            f"(expected {MANIFEST_VERSION})")
    if doc["config_hash"] != config_hash(doc["config"]):
        raise ConfigurationError(
            "manifest config_hash does not match its config")


def write_manifest(doc: dict[str, Any],
                   target: str | os.PathLike | IO[str]) -> None:
    """Validate and write a manifest as indented JSON."""
    validate_manifest(doc)
    text = json.dumps(doc, indent=1, sort_keys=True)
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)
