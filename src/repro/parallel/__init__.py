"""repro.parallel — process-pool execution for sweep/campaign grids.

The paper's figures are grids of *independent* operating points; this
package supplies the execution substrate that evaluates them in
parallel without giving up the guarantees the rest of the system makes:

* :mod:`repro.parallel.pool` — the chunked engine
  (:func:`run_chunked`) with deterministic result ordering, per-chunk
  completion hooks (checkpoint granularity), worker metrics and spans
  repatriated into the parent, and :class:`ParallelConfig`, the one
  pool configuration;
* :mod:`repro.parallel.blas` — reads and sets the thread count of
  every loaded OpenBLAS; the engine runs every chunk at one thread
  per process;
* :mod:`repro.parallel.seeds` — SHA-256 seed derivation so every
  point's RNG stream depends only on (campaign seed, point key), never
  on which worker ran it or in what order;
* :mod:`repro.parallel.supervisor` — :class:`SupervisedPool`, the
  one pool: heartbeat-monitored workers, crash/hang detection,
  restart with capped exponential backoff, and poison-task
  quarantine, so one segfaulted worker no longer aborts a months-long
  campaign. :func:`run_chunked` runs grids on it, and the
  :mod:`repro.serve` broker keeps one warm and submits each request
  as a one-item chunk.

The invariant the test suite pins: a campaign run at ``--workers 1``,
``2``, and ``4`` produces the identical :class:`~repro.core.campaign.
CampaignResult`, checkpoint payload, config hash, and failure ledger.
Execution strategy is deliberately excluded from the campaign config
hash — *what* was computed does not depend on *how fast* it was.
"""

from __future__ import annotations

from .blas import blas_threads, set_blas_threads
from .pool import (
    ParallelConfig,
    chunk_indices,
    run_chunked,
    snapshot_delta,
)
from .seeds import derive_seed
from .supervisor import Poisoned, SupervisedPool

__all__ = [
    "ParallelConfig",
    "Poisoned",
    "SupervisedPool",
    "blas_threads",
    "chunk_indices",
    "derive_seed",
    "run_chunked",
    "set_blas_threads",
    "snapshot_delta",
]
