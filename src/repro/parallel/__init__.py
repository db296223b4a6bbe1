"""Parallel trial engine: seed fan-out, deterministic merge, result cache.

The substrate every replicated experiment runs on:

* :class:`TrialPool` — fans ``run_mutex`` trials over a process pool and
  merges summaries in input order (parallel ≡ serial, byte for byte).
* :class:`RunCache` — content-addressed on-disk cache of trial summaries,
  keyed by a stable config fingerprint plus a protocol version salt.
"""

from repro.parallel.cache import (
    CACHE_DIR_ENV,
    PROTOCOL_VERSION,
    RunCache,
    default_cache_dir,
    describe_config,
    fingerprint,
)
from repro.parallel.pool import (
    WORKERS_ENV,
    TrialPool,
    resolve_workers,
    run_trials,
)

__all__ = [
    "CACHE_DIR_ENV",
    "PROTOCOL_VERSION",
    "RunCache",
    "TrialPool",
    "WORKERS_ENV",
    "default_cache_dir",
    "describe_config",
    "fingerprint",
    "resolve_workers",
    "run_trials",
]
