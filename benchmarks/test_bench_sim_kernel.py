"""Simulation-kernel throughput: events/sec on the heavy-load scenario.

Not a paper experiment — a performance benchmark of the discrete-event
kernel itself, guarding the hot-path refactor (tuple-heap event queue,
``(fn, args)`` scheduling, slotted state, NullTrace). The scenario is
the paper's heavy-load workhorse: N=49, grid quorums, saturation
workload — the same shape every table in Section 5 is built from, so
events/sec here is the number that bounds how fast the whole experiment
suite can run.

``BASELINE_EVENTS_PER_SEC`` is the best-of-five measurement taken on
the pre-refactor kernel (dataclass events compared via ``__lt__``,
closure-per-send scheduling, dict-backed sites) on this container,
recorded before the refactor landed so the speedup denominator cannot
drift. The benchmark asserts the scenario still processes the exact
pre-refactor event count (cheap determinism guard; the byte-level proof
lives in ``tests/test_kernel_equivalence.py``) and archives the measured
throughput in ``BENCH_sim_kernel.json``.

The ≥2.0× speedup target (raised from 1.3× after the cohort-batched
main loop and message-construction slimming landed) is asserted softly (warn, don't fail) because CI containers
have wildly varying single-core performance; the archived JSON is the
artifact reviewers check, and the CI trend gate compares runs of the
same workflow against the committed artifact rather than against an
absolute number.
"""

from __future__ import annotations

import time
import warnings

from conftest import archive_json

from repro.experiments.runner import RunConfig, run_mutex
from repro.sim.network import UniformDelay
from repro.workload.driver import SaturationWorkload

N_SITES = 49
REPS = 5

#: Best-of-five events/sec of the pre-refactor kernel on this scenario,
#: measured on the reference container (see module docstring).
BASELINE_EVENTS_PER_SEC = 86_821

#: Events the scenario deterministically processes (same before and
#: after the refactor — the run is a pure function of the seed).
EXPECTED_EVENTS = 63_507

SPEEDUP_TARGET = 2.0


def _scenario() -> RunConfig:
    return RunConfig(
        algorithm="cao-singhal",
        n_sites=N_SITES,
        quorum="grid",
        seed=1,
        delay_model=UniformDelay(0.5, 1.5),
        cs_duration=0.05,
        workload=SaturationWorkload(20),
    )


def test_bench_sim_kernel_events_per_sec(benchmark):
    samples = []

    def one_rep():
        config = _scenario()
        start = time.perf_counter()
        result = run_mutex(config)
        elapsed = time.perf_counter() - start
        samples.append((result.sim.events_processed, elapsed))
        return result

    result = benchmark.pedantic(one_rep, rounds=REPS, iterations=1)

    # Determinism guard: the refactor must not change the event history.
    assert result.sim.events_processed == EXPECTED_EVENTS
    assert all(events == EXPECTED_EVENTS for events, _ in samples)

    best_eps = max(events / elapsed for events, elapsed in samples)
    speedup = best_eps / BASELINE_EVENTS_PER_SEC

    # Message complexity c (Section 5): messages/CS = c*K with 3 <= c <= 6.
    # Deterministic for the pinned seed; archived so the regression gate
    # can hold the paper's bound across commits.
    summary = result.summary
    assert summary.mean_quorum_size is not None
    complexity_c = summary.messages_per_cs / summary.mean_quorum_size
    assert 3.0 <= complexity_c <= 6.0, (
        f"message complexity c={complexity_c:.3f} outside the paper's "
        f"[3, 6] claim (messages/CS={summary.messages_per_cs:.2f}, "
        f"K={summary.mean_quorum_size:.2f})"
    )

    payload = {
        "benchmark": "sim_kernel",
        "scenario": {
            "algorithm": "cao-singhal",
            "n_sites": N_SITES,
            "quorum": "grid",
            "seed": 1,
            "delay": "uniform(0.5, 1.5)",
            "cs_duration": 0.05,
            "workload": "saturation(20 req/site)",
        },
        "events_processed": EXPECTED_EVENTS,
        "message_complexity_c": round(complexity_c, 3),
        "reps": REPS,
        "baseline_events_per_sec": BASELINE_EVENTS_PER_SEC,
        "events_per_sec": round(best_eps),
        "speedup": round(speedup, 2),
        "speedup_target": SPEEDUP_TARGET,
    }
    path = archive_json("sim_kernel", payload)
    print(f"\nkernel throughput: {best_eps:,.0f} events/sec "
          f"({speedup:.2f}x baseline) -> {path.name}")

    if speedup < SPEEDUP_TARGET:
        warnings.warn(
            f"kernel speedup {speedup:.2f}x below the {SPEEDUP_TARGET}x "
            f"target on this host ({best_eps:,.0f} vs baseline "
            f"{BASELINE_EVENTS_PER_SEC:,} events/sec)"
        )
