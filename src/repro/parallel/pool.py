"""Parallel trial execution with a deterministic merge.

:class:`TrialPool` fans independent seeded trials — each one
``run_mutex(config)`` — out over a ``ProcessPoolExecutor`` and merges the
summaries back **in input order**, so the result of a parallel run is
byte-identical to a serial run of the same configs regardless of worker
count or completion order. Three consequences drive the design:

* **Determinism.** A trial is a pure function of its config (the
  simulator derives every RNG stream from the seed), so parallelism can
  only reorder completion, never change a summary. The pool indexes
  outcomes by input position and never exposes completion order.
* **Reproducible failures.** A trial that violates one of the paper's
  theorems raises inside its worker. The pool re-raises the *original*
  exception type (``MutualExclusionViolation``, ``DeadlockError``, …)
  in the parent with the offending trial's seed attached
  (``exc.trial_seed`` and appended to the message), choosing the first
  failure in input order so even the error is deterministic.
* **Graceful degradation.** The batch runs in-process, one trial after
  another and with no pickling at all, whenever a pool cannot help:
  one worker, one chunk, a 1-CPU host, or configs that cannot be
  pickled (e.g. a lambda ``cs_duration``, which also warns).

Dispatch is **chunked**: pending trials are grouped into runs of
``chunk_size`` and each chunk crosses the worker boundary as one unit,
so a sweep of hundreds of 10ms trials pays per-chunk (not per-trial)
pickling and scheduling overhead.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, run_mutex
from repro.metrics.summary import RunSummary
from repro.parallel.cache import RunCache

#: Environment override for the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: One trial's outcome, shaped for transport across the process boundary.
#: The payload is a RunSummary for mutex trials, an arbitrary picklable
#: result for configs that define their own ``run_trial``, or the trial's
#: exception.
_Outcome = Tuple[str, Union[RunSummary, object, BaseException]]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit > ``$REPRO_WORKERS`` > cpu count."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                )
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def _auto_chunk(n_trials: int, workers: int) -> int:
    """Default chunk size: ~2 chunks per worker.

    Big enough to amortize per-chunk pickling/scheduling, small enough
    that a straggler chunk can't idle the other workers for long.
    """
    return max(1, -(-n_trials // (workers * 2)))


def _attach_seed(exc: BaseException, seed: int) -> BaseException:
    """Mark ``exc`` with the seed of the trial that raised it."""
    exc.trial_seed = seed  # type: ignore[attr-defined]
    if exc.args and isinstance(exc.args[0], str):
        if "[trial seed=" not in exc.args[0]:
            exc.args = (f"{exc.args[0]} [trial seed={seed}]",) + exc.args[1:]
    else:
        exc.args = (f"trial failed [trial seed={seed}]",) + tuple(exc.args)
    return exc


def _run_trial(config: RunConfig) -> _Outcome:
    """Execute one trial; never raises, so outcomes survive pool transport.

    Module-level (not a closure) so worker processes can import it.

    A config exposing its own ``run_trial()`` (e.g.
    :class:`repro.locks.runner.LockRunConfig`) is dispatched to it —
    the pool's determinism machinery (input-order merge, seed-attached
    failures, pickling fallback) is trial-kind agnostic; only this entry
    point and the cache key care what a trial actually runs.
    """
    try:
        runner = getattr(config, "run_trial", None)
        if runner is not None:
            return ("ok", runner())
        return ("ok", run_mutex(config).summary)
    except Exception as exc:  # re-raised, typed, by the merging parent
        return ("error", exc)


def _run_chunk(configs: Sequence[RunConfig]) -> List[_Outcome]:
    """Execute one chunk of trials serially inside a worker.

    Chunking moves the pickling/scheduling cost from per-trial to
    per-chunk; outcomes come back in chunk order, which the parent
    flattens back to input order.
    """
    return [_run_trial(config) for config in configs]


class TrialPool:
    """Runs batches of independent trials, optionally cached and parallel.

    ``workers`` defaults to ``os.cpu_count()`` (override with the
    ``REPRO_WORKERS`` environment variable); pass ``cache`` to reuse and
    record results across runs. ``chunk_size`` fixes how many trials
    cross the worker boundary per dispatch (default: computed so each
    worker gets ~2 chunks).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[RunCache] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cache = cache
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.chunk_size = chunk_size

    # -- execution ---------------------------------------------------------

    def run_configs(self, configs: Sequence[RunConfig]) -> List[RunSummary]:
        """Run every config; summaries come back in input order.

        The first failing trial (in input order) re-raises its original
        exception with the seed attached; successful sibling trials are
        still written to the cache first, and no entry is ever written
        for a failed trial.
        """
        configs = list(configs)
        results: List[Optional[RunSummary]] = [None] * len(configs)
        keys: List[Optional[str]] = [None] * len(configs)

        pending: List[Tuple[int, RunConfig]] = []
        for i, config in enumerate(configs):
            if self.cache is not None:
                keys[i] = self.cache.key_for(config)
                if keys[i] is not None:
                    hit = self.cache.load(keys[i])
                    if hit is not None:
                        results[i] = hit
                        continue
            pending.append((i, config))

        outcomes = self._execute(pending)

        failure: Optional[Tuple[int, BaseException]] = None
        for (i, config), (status, payload) in zip(pending, outcomes):
            if status == "ok":
                assert not isinstance(payload, BaseException)
                results[i] = payload
                if self.cache is not None and keys[i] is not None:
                    self.cache.store(keys[i], payload)
            else:
                assert isinstance(payload, BaseException)
                if failure is None or i < failure[0]:
                    failure = (i, _attach_seed(payload, config.seed))
        if failure is not None:
            raise failure[1]
        return [s for s in results if s is not None]

    def run_seeds(
        self, config: RunConfig, seeds: Sequence[int]
    ) -> List[RunSummary]:
        """Run ``config`` once per seed; summaries come back in seed order."""
        return self.run_configs([replace(config, seed=s) for s in seeds])

    # -- internals ---------------------------------------------------------

    def _execute(
        self, pending: Sequence[Tuple[int, RunConfig]]
    ) -> List[_Outcome]:
        if not pending:
            return []
        configs = [config for _, config in pending]
        n_trials = len(configs)
        workers = min(self.workers, n_trials)
        chunk = self.chunk_size or _auto_chunk(n_trials, workers)

        if workers > 1 and not self._picklable(pending):
            # No process boundary can carry these configs: run here.
            workers = 1
        if workers > 1 and (os.cpu_count() or 1) < 2:
            # Degenerate host: with one CPU a process pool can only add
            # fork, pickle, and scheduling overhead (measured ~0.98x
            # speedup), so even an explicit workers>1 degrades.
            workers = 1
        if workers <= 1 or chunk >= n_trials:
            # One worker — or one chunk, which a pool would hand to a
            # single worker anyway: run here and skip the pool entirely.
            return _run_chunk(configs)

        chunks = [configs[i : i + chunk] for i in range(0, n_trials, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, chunks))
        return [outcome for part in parts for outcome in part]

    @staticmethod
    def _picklable(pending: Sequence[Tuple[int, RunConfig]]) -> bool:
        try:
            pickle.dumps([c for _, c in pending])
            return True
        except Exception:
            warnings.warn(
                "trial config is not picklable (callable cs_duration or "
                "workload?); running the trials in-process instead of in "
                "a process pool",
                RuntimeWarning,
                stacklevel=3,
            )
            return False


def run_trials(
    config: RunConfig,
    seeds: Sequence[int],
    workers: Optional[int] = None,
    cache: Optional[RunCache] = None,
) -> List[RunSummary]:
    """One-shot convenience: ``TrialPool(...).run_seeds(config, seeds)``."""
    return TrialPool(workers=workers, cache=cache).run_seeds(config, seeds)
