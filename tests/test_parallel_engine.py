"""Differential-equivalence and failure-path tests for the trial engine.

The engine's contract: worker count and cache state may change *how fast*
a batch of trials runs, never *what it returns*. These tests pin that
down by comparing byte-identical serialized summaries across
``workers=1``, ``workers=4``, and cache-hit replay, and by exercising
every failure path (violating trial, unpicklable config, corrupted cache
records).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json

import pytest

from repro.errors import (
    ConfigurationError,
    MutualExclusionViolation,
    ReproError,
)
from repro.experiments.replicate import replicate
from repro.experiments.runner import RunConfig, build_run, run_many, run_mutex
from repro.metrics.summary import RunSummary, summarize
from repro.parallel import RunCache, TrialPool, fingerprint
from repro.parallel import pool as pool_module
from repro.sim.network import ConstantDelay
from repro.workload.driver import SaturationWorkload

ALGORITHMS = ["cao-singhal", "maekawa", "ricart-agrawala"]
SEEDS = [0, 1, 2]


def small_config(algorithm: str = "cao-singhal", **overrides) -> RunConfig:
    defaults = dict(
        algorithm=algorithm,
        n_sites=5,
        delay_model=ConstantDelay(1.0),
        workload=SaturationWorkload(2),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def canonical(summaries) -> list:
    """Byte-stable rendering of summaries (NaN-safe, order-preserving)."""
    return [json.dumps(s.to_dict(), sort_keys=True) for s in summaries]


# -- differential equivalence -------------------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_parallel_equals_serial(algorithm):
    config = small_config(algorithm)
    serial = TrialPool(workers=1).run_seeds(config, SEEDS)
    parallel = TrialPool(workers=4).run_seeds(config, SEEDS)
    assert canonical(parallel) == canonical(serial)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cached_replay_equals_cold_run(algorithm, tmp_path):
    config = small_config(algorithm)
    cold_cache = RunCache(tmp_path)
    cold = TrialPool(workers=1, cache=cold_cache).run_seeds(config, SEEDS)
    assert cold_cache.stats.misses == len(SEEDS)
    assert cold_cache.stats.stores == len(SEEDS)

    warm_cache = RunCache(tmp_path)
    warm = TrialPool(workers=4, cache=warm_cache).run_seeds(config, SEEDS)
    assert warm_cache.stats.hits == len(SEEDS)
    assert warm_cache.stats.misses == 0
    assert canonical(warm) == canonical(cold)


def test_merge_order_is_seed_order_not_completion_order():
    # Seeds deliberately unsorted: the merge must preserve *input* order.
    config = small_config()
    seeds = [7, 0, 3]
    out = TrialPool(workers=4).run_seeds(config, seeds)
    assert [s.seed for s in out] == seeds


def test_run_many_merges_grid_in_input_order():
    grid = [small_config(a, seed=s) for a in ALGORITHMS for s in (0, 1)]
    merged = run_many(grid, workers=4)
    assert [(s.algorithm, s.seed) for s in merged] == [
        (a, s) for a in ALGORITHMS for s in (0, 1)
    ]
    assert canonical(merged) == canonical(run_many(grid, workers=1))


def test_replicate_parallel_and_cached_samples_match(tmp_path):
    config = small_config()
    kwargs = dict(metric=lambda s: s.messages_per_cs, seeds=SEEDS)
    serial = replicate(config, workers=1, **kwargs)
    parallel = replicate(config, workers=4, **kwargs)
    cached = replicate(config, workers=4, cache=RunCache(tmp_path), **kwargs)
    replayed = replicate(config, workers=1, cache=RunCache(tmp_path), **kwargs)
    assert parallel.samples == serial.samples
    assert cached.samples == serial.samples
    assert replayed.samples == serial.samples


# -- failure paths ------------------------------------------------------------


def test_violation_propagates_with_seed_and_poisons_no_cache(
    tmp_path, monkeypatch
):
    config = small_config()
    real_run_mutex = pool_module.run_mutex

    def failing_run_mutex(cfg):
        if cfg.seed == 1:
            raise MutualExclusionViolation("sites 0 and 3 overlapped")
        return real_run_mutex(cfg)

    monkeypatch.setattr(pool_module, "run_mutex", failing_run_mutex)
    cache = RunCache(tmp_path)
    with pytest.raises(MutualExclusionViolation) as err:
        TrialPool(workers=1, cache=cache).run_seeds(config, SEEDS)
    assert err.value.trial_seed == 1
    assert "seed=1" in str(err.value)
    # Healthy sibling trials are cached; the failed seed left no record.
    assert cache.stats.stores == 2
    failed_key = fingerprint(dataclasses.replace(config, seed=1))
    assert RunCache(tmp_path).load(failed_key) is None


def test_worker_process_failure_reports_seed():
    # A genuine in-worker failure (safety cap) must cross the process
    # boundary as its original exception type with the seed attached.
    config = small_config(max_events=50)
    with pytest.raises(ConfigurationError) as err:
        TrialPool(workers=2).run_seeds(config, SEEDS)
    assert isinstance(err.value, ReproError)
    assert err.value.trial_seed == SEEDS[0]
    assert f"seed={SEEDS[0]}" in str(err.value)


def test_first_failure_in_seed_order_wins(monkeypatch):
    config = small_config()
    real_run_mutex = pool_module.run_mutex

    def failing_run_mutex(cfg):
        if cfg.seed in (1, 2):
            raise MutualExclusionViolation(f"boom {cfg.seed}")
        return real_run_mutex(cfg)

    monkeypatch.setattr(pool_module, "run_mutex", failing_run_mutex)
    with pytest.raises(MutualExclusionViolation) as err:
        TrialPool(workers=1).run_seeds(config, SEEDS)
    assert err.value.trial_seed == 1


def test_single_cpu_host_falls_back_in_process(monkeypatch):
    # On a 1-CPU host the pool can only add fork/pickle overhead
    # (BENCH_parallel_engine.json measured 0.98x "speedup"), so even an
    # explicit workers>1 must degrade to in-process execution.
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool constructed on a 1-CPU host")

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
    out = TrialPool(workers=4).run_seeds(small_config(), [0, 1])
    assert [s.seed for s in out] == [0, 1]


def test_multi_cpu_host_still_uses_the_pool(monkeypatch):
    # The degenerate-host fallback must not swallow real parallelism.
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
    used = {}
    real_executor = pool_module.ProcessPoolExecutor

    def spying_executor(*args, **kwargs):
        used["workers"] = kwargs.get("max_workers") or args[0]
        return real_executor(*args, **kwargs)

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", spying_executor)
    out = TrialPool(workers=2).run_seeds(small_config(), [0, 1])
    assert [s.seed for s in out] == [0, 1]
    assert used["workers"] == 2


def _forbid_executors(monkeypatch, why):
    def no_pool(*args, **kwargs):
        raise AssertionError(f"executor constructed {why}")

    for module in (pool_module, concurrent.futures):
        for name in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
            monkeypatch.setattr(module, name, no_pool, raising=False)


def test_unpicklable_config_falls_back_in_process(monkeypatch):
    # A config no process boundary can carry runs in-process, one trial
    # after another, with a warning; the results match a serial run.
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
    config = small_config(cs_duration=lambda: 0.05)
    serial = TrialPool(workers=1).run_seeds(config, SEEDS)
    _forbid_executors(monkeypatch, "for an unpicklable config")
    with pytest.warns(RuntimeWarning, match="picklable.*in-process"):
        out = TrialPool(workers=4, chunk_size=1).run_seeds(config, SEEDS)
    assert canonical(out) == canonical(serial)


def test_corrupted_cache_record_is_a_miss_not_a_crash(tmp_path):
    config = small_config()
    cache = RunCache(tmp_path)
    key = cache.key_for(config)
    TrialPool(workers=1, cache=cache).run_seeds(config, [config.seed])
    path = cache._path(key)
    assert path.exists()

    for garbage in ("{truncat", "", '{"fingerprint": "wrong", "salt": "x"}'):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(garbage)
        fresh = RunCache(tmp_path)
        out = fresh.load(key)
        assert out is None
        assert fresh.stats.misses == 1
        assert fresh.stats.invalidations == 1
        assert not path.exists()  # the bad record was discarded

    # And the engine recovers end-to-end: corrupt record -> re-run -> store.
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("not json at all")
    recovering = RunCache(tmp_path)
    out = TrialPool(workers=1, cache=recovering).run_seeds(
        config, [config.seed]
    )
    assert len(out) == 1
    assert recovering.stats.invalidations == 1
    assert recovering.stats.stores == 1


def test_cache_miss_on_salt_change(tmp_path):
    config = small_config()
    TrialPool(workers=1, cache=RunCache(tmp_path)).run_seeds(config, [0])
    bumped = RunCache(tmp_path, salt="salt-bumped-for-test")
    TrialPool(workers=1, cache=bumped).run_seeds(config, [0])
    assert bumped.stats.hits == 0
    assert bumped.stats.misses == 1


def test_chunked_dispatch_matches_serial(monkeypatch):
    # Chunking changes how trials cross the worker boundary, never what
    # they return: every chunk size must merge byte-identically.
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
    config = small_config()
    serial = TrialPool(workers=1).run_seeds(config, SEEDS)
    for chunk_size in (1, 2, 3, 16):
        chunked = TrialPool(workers=2, chunk_size=chunk_size).run_seeds(
            config, SEEDS
        )
        assert canonical(chunked) == canonical(serial)


def test_one_chunk_batches_run_in_process(monkeypatch):
    # chunk_size >= trial count collapses the batch into a single chunk;
    # a pool would hand that chunk to one worker anyway, so no executor
    # may be constructed.
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
    _forbid_executors(monkeypatch, "for a single chunk")
    out = TrialPool(workers=4, chunk_size=8).run_seeds(small_config(), [0, 1])
    assert [s.seed for s in out] == [0, 1]


def test_chunk_size_must_be_positive():
    with pytest.raises(ConfigurationError):
        TrialPool(chunk_size=0)


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert TrialPool().workers == 3
    monkeypatch.setenv("REPRO_WORKERS", "zero")
    with pytest.raises(ConfigurationError):
        TrialPool()
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ConfigurationError):
        TrialPool()


# -- hermeticity regression (serial-assumption audit) -------------------------


def summarize_built(config: RunConfig, sim, collector, quorum_system):
    """The summarize() call run_mutex performs, for a hand-stepped run."""
    return summarize(
        algorithm=config.algorithm,
        n_sites=config.n_sites,
        records=collector.records,
        messages_sent=sim.network.stats.messages_sent,
        messages_by_type=sim.network.stats.by_type,
        duration=sim.now,
        mean_delay_t=sim.network.mean_delay,
        seed=config.seed,
        quorum_name=config.resolved_quorum(),
        mean_quorum_size=(
            quorum_system.mean_quorum_size() if quorum_system else None
        ),
    )


def test_same_seed_trials_identical_back_to_back_and_interleaved():
    """Two same-seed trials must not see each other, however scheduled.

    Runs the same config+seed twice back-to-back via run_mutex, then
    builds two fresh simulators and *interleaves* their event loops one
    event at a time — any state shared across trials (module-level
    collector, reused RNG, leaked registry entry) would diverge the
    interleaved summaries from the sequential ones.
    """
    config = small_config()
    first = run_mutex(config).summary
    second = run_mutex(config).summary
    assert canonical([first]) == canonical([second])

    sim_a, _, coll_a, qs_a, _ = build_run(config)
    sim_b, _, coll_b, qs_b, _ = build_run(config)
    sim_a.start()
    sim_b.start()
    live_a = live_b = True
    while live_a or live_b:
        if live_a:
            live_a = sim_a.step()
        if live_b:
            live_b = sim_b.step()
    interleaved_a = summarize_built(config, sim_a, coll_a, qs_a)
    interleaved_b = summarize_built(config, sim_b, coll_b, qs_b)
    assert canonical([interleaved_a]) == canonical([first])
    assert canonical([interleaved_b]) == canonical([first])
