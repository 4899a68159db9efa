"""repro.serve — online request serving over the experiment pipeline.

Every other entry point in this repo is a batch run; this package is
the multi-tenant front door the ROADMAP's "heavy traffic" north star
asks for. Concurrent what-if queries (max frequency for a stack under
water immersion, PUE comparisons, NPB sweeps) are deduplicated,
cached, scheduled, and shed — without changing a single computed
byte relative to calling the underlying APIs directly.

* :mod:`repro.serve.request` — specs hashed to SHA-256 config keys
  (manifest hashing + numeric normalization), jobs with lifecycle
  event logs;
* :mod:`repro.serve.cache` — bounded TTL result cache layered above
  the thermal :func:`~repro.thermal.hotspot.model_cache`;
* :mod:`repro.serve.broker` — priority queue, per-request deadlines,
  bounded admission (structured :class:`~repro.errors.
  OverloadedError` sheds), request coalescing, graceful drain;
* :mod:`repro.serve.runner` — evaluation wired through
  :mod:`repro.resilience` retry/degrade, inline or on a persistent
  :class:`~repro.parallel.SupervisedPool`;
* :mod:`repro.serve.client` / :mod:`repro.serve.http` — in-process
  ``ServeClient`` and the stdlib-only JSON endpoint behind
  ``repro serve`` / ``repro submit``.

See ``docs/serving.md`` for the broker model and tuning guide.
"""

from __future__ import annotations

from .broker import Broker, BrokerConfig
from .cache import ResultCache
from .client import (
    ServeClient,
    result_from_dict,
    result_to_dict,
    result_to_json,
)
from .http import HttpServeClient, ServeHTTPServer
from .request import Job, JobState, ServeRequest, spec_hash
from .runner import SpecOutcome, run_spec_resilient

__all__ = [
    "Broker",
    "BrokerConfig",
    "HttpServeClient",
    "Job",
    "JobState",
    "ResultCache",
    "ServeClient",
    "ServeHTTPServer",
    "ServeRequest",
    "SpecOutcome",
    "result_from_dict",
    "result_to_dict",
    "result_to_json",
    "run_spec_resilient",
    "spec_hash",
]
