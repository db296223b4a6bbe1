"""Multi-seed replication of simulation measurements.

A single seeded run is deterministic but still one sample of the
stochastic delay/arrival processes. :func:`replicate` re-runs a
configuration across seeds and reports mean and a normal-approximation
95 % confidence interval for any scalar extracted from the summaries —
used by the stochastic-network variants of the delay/throughput
experiments and available to library users for their own studies.

Trials are executed through :class:`repro.parallel.TrialPool`, so a
replication can fan out over worker processes (``workers``) and reuse
prior results from an on-disk cache (``cache``) without changing a
single sample: the engine merges summaries in seed order regardless of
completion order, and every trial is hermetic — its own simulator, RNG
streams, and metrics collector, nothing shared across seeds. The
``metric`` callable is applied *after* the merge, in seed order, in the
calling process, so it can be an unpicklable closure and can never leak
state between trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig
from repro.metrics.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.parallel.cache import RunCache

#: Extracts the scalar of interest from one run's summary.
Metric = Callable[[RunSummary], float]


@dataclass(frozen=True)
class Replication:
    """Mean and spread of one metric across seeds."""

    metric: str
    samples: List[float]

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / self.n

    @property
    def stdev(self) -> float:
        if self.n < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((x - m) ** 2 for x in self.samples) / (self.n - 1))

    @property
    def ci95(self) -> float:
        """Half-width of the ~95 % confidence interval (normal approx)."""
        if self.n < 2:
            return float("nan")
        return 1.96 * self.stdev / math.sqrt(self.n)

    def __str__(self) -> str:
        return f"{self.metric}: {self.mean:.4f} ± {self.ci95:.4f} (n={self.n})"


def replicate(
    config: RunConfig,
    metric: Metric,
    seeds: Sequence[int] = range(10),
    metric_name: str = "metric",
    workers: Optional[int] = None,
    cache: Optional["RunCache"] = None,
    chunk_size: Optional[int] = None,
) -> Replication:
    """Run ``config`` once per seed and aggregate ``metric``.

    The config's workload object is shared across runs (workloads are
    stateless descriptors), but each run gets its own simulator and RNG
    streams derived from the seed. ``workers``, ``cache``, and
    ``chunk_size`` are passed straight to
    :class:`~repro.parallel.TrialPool`; none affects the samples, only
    how fast they are produced.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    from repro.parallel.pool import TrialPool

    summaries = TrialPool(
        workers=workers, cache=cache, chunk_size=chunk_size
    ).run_seeds(config, seeds)
    return Replication(
        metric=metric_name, samples=[metric(s) for s in summaries]
    )


def sync_delay_ci(
    algorithm: str,
    n_sites: int,
    quorum: str = "grid",
    seeds: Sequence[int] = range(10),
    workers: Optional[int] = None,
    cache: Optional["RunCache"] = None,
    **config_kwargs,
) -> Replication:
    """Convenience: the sync-delay metric across seeds."""
    config = RunConfig(
        algorithm=algorithm, n_sites=n_sites, quorum=quorum, **config_kwargs
    )
    return replicate(
        config,
        metric=lambda s: s.sync_delay_in_t,
        seeds=seeds,
        metric_name=f"{algorithm} sync delay (T)",
        workers=workers,
        cache=cache,
    )
