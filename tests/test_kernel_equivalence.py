"""Differential equivalence: the kernel still replays the pinned goldens.

``tests/data/golden_kernel_fingerprints.json`` holds run fingerprints
(summary digest, per-record trace digest, event/message counts, final
clock) captured from the kernel *before* the hot-path refactor, for
3 algorithms x 3 seeds. This test re-runs each configuration on the
current kernel and asserts every field matches byte-for-byte — the
strongest practical proof that an optimisation changed the kernel's
speed and nothing else.

If this test fails after an intentional behaviour change, regenerate the
goldens with ``python -m repro.verify.fingerprint`` and call the change
out in the commit message; never regenerate to make a refactor pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.experiments.runner import run_mutex
from repro.verify.fingerprint import (
    GOLDEN_ALGORITHMS,
    GOLDEN_SEEDS,
    fingerprint_run,
    golden_config,
)

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_kernel_fingerprints.json"
)

GRID = [
    (algorithm, seed)
    for algorithm in GOLDEN_ALGORITHMS
    for seed in GOLDEN_SEEDS
]


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_whole_grid(goldens):
    assert sorted(goldens) == sorted(f"{a}/{s}" for a, s in GRID)


@pytest.mark.parametrize("algorithm,seed", GRID)
def test_kernel_replays_golden_fingerprint(goldens, algorithm, seed):
    key = f"{algorithm}/{seed}"
    expected = goldens[key]
    actual = fingerprint_run(golden_config(algorithm, seed))
    # Compare field-by-field so a failure names what diverged (counts
    # catch gross drift; the trace digest catches single-event drift).
    for field in expected:
        assert actual[field] == expected[field], (
            f"{key}: kernel diverged from golden on {field!r}"
        )


def _step_loop(sim, until=None, max_events=None):
    """One-event-at-a-time reference loop (no cohort batching)."""
    while sim.step():
        pass


@pytest.mark.parametrize("algorithm,seed", GRID)
def test_per_event_loop_replays_golden_fingerprint(goldens, algorithm, seed):
    # The cohort loop's contract: batching whole same-timestamp cohorts
    # replays exactly the per-event (time, seq) history. Driving the
    # golden grid through single-step execution must reproduce the very
    # same pinned digests the cohort loop does.
    key = f"{algorithm}/{seed}"
    expected = goldens[key]
    actual = fingerprint_run(golden_config(algorithm, seed), loop=_step_loop)
    for field in expected:
        assert actual[field] == expected[field], (
            f"{key}: per-event loop diverged from golden on {field!r}"
        )


@pytest.mark.parametrize("algorithm,seed", GRID)
def test_untraced_run_replays_golden_summary(goldens, algorithm, seed):
    # The goldens are captured with trace=True; every benchmark and
    # experiment runs with the trace off, which takes the same delivery
    # path minus the trace records. The summary digest and the event
    # count must not depend on it.
    key = f"{algorithm}/{seed}"
    expected = goldens[key]
    config = dataclasses.replace(golden_config(algorithm, seed), trace=False)
    result = run_mutex(config)
    payload = json.dumps(result.summary.to_dict(), sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    assert digest == expected["summary_sha256"], f"{key}: summary diverged"
    assert result.sim.events_processed == expected["events_processed"], (
        f"{key}: events_processed diverged"
    )
