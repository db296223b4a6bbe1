"""The four benchmark workloads: inputs from a seed, one repetition, checks.

Each workload drives one public ``repro`` entry point with inputs made
from ``--seed`` and returns a :class:`Rep`: the wall time of the call,
the time spent in its construction step, the operations it completed,
the values its output checks are made on, and the simulated-time
figures that must repeat exactly for a given seed. Why each workload
exists, and which layer each stresses, is in ``NOTES.md``.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The seed whose exact counts are pinned by the output checks.
DEFAULT_SEED = 0


@dataclass
class Rep:
    """One repetition of a workload."""

    #: Units of work completed, the numerator of ``ops_per_s``: CS
    #: executions, acquires, or explorer transitions.
    ops: int
    attempted: int
    failed: int
    wall_s: float  # the whole entry-point call, construction included
    setup_s: float  # the construction step inside that call
    steps: int  # messages sent, or explorer transitions
    #: Process CPU time of the call and of its construction step; the
    #: rest of the wall time was spent waiting (timers, sockets).
    cpu_s: float = 0.0
    setup_cpu_s: float = 0.0
    #: What ``steps`` and the per-layer counts are normalised by: CS
    #: executions, acquires, or explored states. Defaults to ``ops``.
    results: int = 0
    #: Figures for the report: name -> (value, unit, sample count or None).
    report: Dict[str, Tuple[float, str, Optional[int]]] = field(
        default_factory=dict
    )
    #: Values that must repeat exactly for one seed (simulated time and
    #: operation counts); compared across repetitions.
    fingerprint: Tuple = ()
    errors: List[str] = field(default_factory=list)
    #: Counters the per-layer report reads (from the program's own stats).
    layer_counts: Dict[str, float] = field(default_factory=dict)
    #: Request-to-grant waits in ``wait_unit`` (``T`` or ``ms``); the
    #: report pools them over repetitions before taking percentiles.
    waits: List[float] = field(default_factory=list)
    wait_unit: str = ""

    def __post_init__(self) -> None:
        if not self.results:
            self.results = self.ops

    @property
    def run_s(self) -> float:
        return self.wall_s - self.setup_s

    @property
    def run_cpu_s(self) -> float:
        return self.cpu_s - self.setup_cpu_s


class SetupProbe:
    """Times the construction step of one call from outside.

    Replaces ``owner.name`` with a wrapper recording when it is entered
    and left; the set-up time is from the first entry into a ``start``
    point to the last exit from an ``end`` point, in wall and in process
    CPU time. Restored by :meth:`close`.
    """

    def __init__(self) -> None:
        self.first: Optional[Tuple[float, float]] = None
        self.last: Optional[Tuple[float, float]] = None
        self.captured: List[Any] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, start: bool, end: bool,
              capture: bool = False) -> None:
        original = getattr(owner, name)
        probe = self

        def timed(*args, **kwargs):
            if start and probe.first is None:
                probe.first = (time.perf_counter(), time.process_time())
            result = original(*args, **kwargs)
            if end:
                probe.last = (time.perf_counter(), time.process_time())
            if capture:
                probe.captured.append(result)
            return result

        self._saved.append((owner, name, owner.__dict__.get(name, original)))
        setattr(owner, name, timed)

    @property
    def seconds(self) -> float:
        return self._span(0)

    @property
    def cpu_seconds(self) -> float:
        return self._span(1)

    def _span(self, clock: int) -> float:
        if self.first is None or self.last is None:
            raise RuntimeError("construction step was never reached")
        return self.last[clock] - self.first[clock]

    def close(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if not ordered:
        return float("nan")
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def wait_percentiles(waits: Sequence[float]) -> Tuple[float, float]:
    """Median and p99 of a sample of waits."""
    ordered = sorted(waits)
    return percentile(ordered, 0.50), percentile(ordered, 0.99)


def _timed_call(fn: Callable, args: tuple, probe: SetupProbe):
    """Call ``fn(*args)``; returns (result, wall seconds, CPU seconds,
    error text)."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        result = fn(*args)
        error = None
    except Exception as exc:  # a failed run is a failed check, not a crash
        result = None
        error = f"{type(exc).__name__}: {exc}"
    cpu = time.process_time() - c0
    wall = time.perf_counter() - t0
    probe.close()
    return result, wall, cpu, error


def _time_setup(fn: Callable, args: tuple, times: int) -> List[Tuple[float, float]]:
    """Call ``fn(*args)`` ``times`` times; (wall, CPU) seconds of each."""
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        c0 = time.process_time()
        fn(*args)
        out.append((time.perf_counter() - t0, time.process_time() - c0))
    return out


class Workload:
    """Interface of a benchmark workload."""

    name = ""
    #: True when the simulated-time figures and operation counts are a
    #: pure function of the seed (compared across repetitions).
    deterministic = True
    #: Layers this workload must reach; one with no calls is unmeasured.
    layers: Tuple[str, ...] = ()

    def inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def execute(self, inputs: Any, seed: int, work_dir: Path) -> Rep:
        raise NotImplementedError

    def setup_samples(self, inputs: Any) -> List[Tuple[float, float]]:
        """Extra (wall, CPU) timings of the construction step alone, taken
        after each repetition where that step is cheap to run by itself."""
        return []


# -- mutex-saturation ---------------------------------------------------------


class MutexSaturation(Workload):
    name = "mutex-saturation"
    layers = ("sim.event", "sim.network", "core", "verify.check",
              "metrics.summarize", "setup", "other")
    N_SITES = 49
    REQUESTS_PER_SITE = 60
    #: Default-seed pins (cao-singhal, N=49 grid, UniformDelay(0.5, 1.5)).
    PINNED = {"events": 190349, "messages": 172528}

    def inputs(self, seed: int):
        from repro import RunConfig, UniformDelay
        from repro.workload.driver import SaturationWorkload

        return RunConfig(
            algorithm="cao-singhal",
            n_sites=self.N_SITES,
            quorum="grid",
            seed=seed,
            delay_model=UniformDelay(0.5, 1.5),
            workload=SaturationWorkload(self.REQUESTS_PER_SITE),
        )

    def execute(self, inputs, seed: int, work_dir: Path) -> Rep:
        from repro.experiments import runner

        probe = SetupProbe()
        probe.patch(runner, "build_run", start=True, end=True)
        result, wall, cpu, error = _timed_call(runner.run_mutex, (inputs,), probe)
        submitted = self.N_SITES * self.REQUESTS_PER_SITE
        if result is None:
            return Rep(0, submitted, submitted, wall, 0.0, 0,
                       errors=[f"run_mutex raised {error}"])
        summary = result.summary
        sim = result.sim
        events = sim.events_processed
        messages = summary.messages_sent
        c = summary.messages_per_cs / summary.mean_quorum_size
        mean_t = sim.network.mean_delay
        waits = [r.waiting_time / mean_t for r in result.collector.records
                 if r.complete]
        run_s = wall - probe.seconds
        report = {
            "events_per_s": (events / run_s, "1/s", None),
            "cs_per_s": (summary.completed / run_s, "1/s", None),
            "sync_delay_t": (summary.sync_delay_in_t, "T",
                             summary.sync_delay.count),
            "message_complexity_c": (c, "count", summary.completed),
        }
        errors = []
        if summary.completed != submitted:
            errors.append(f"{summary.completed} of {submitted} CS completed")
        if not 3.0 <= c <= 6.0:
            errors.append(f"message_complexity_c={c:.3f} outside [3, 6]")
        if seed == DEFAULT_SEED:
            for key, got in (("events", events), ("messages", messages)):
                if got != self.PINNED[key]:
                    errors.append(
                        f"default seed: {key}={got}, pinned {self.PINNED[key]}"
                    )
        stats = sim.network.stats
        return Rep(
            ops=summary.completed,
            attempted=submitted,
            failed=submitted - summary.completed,
            wall_s=wall,
            setup_s=probe.seconds,
            cpu_s=cpu,
            setup_cpu_s=probe.cpu_seconds,
            steps=messages,
            report=report,
            fingerprint=(events, messages, summary.sync_delay_in_t,
                         *wait_percentiles(waits)),
            errors=errors,
            layer_counts=_network_counts(stats, sim.transport),
            waits=waits,
            wait_unit="T",
        )

    def setup_samples(self, inputs) -> List[Tuple[float, float]]:
        from repro.experiments.runner import build_run

        return _time_setup(build_run, (inputs,), 5)


def _network_counts(stats, transport) -> Dict[str, float]:
    counts: Dict[str, float] = {
        "net_sent": stats.messages_sent,
        "net_dropped": stats.messages_dropped + stats.messages_lost,
    }
    if transport is not None:
        ts = transport.stats
        counts.update(
            tr_data=ts.data_sent, tr_retx=ts.retransmitted,
            tr_acks=ts.acks_sent, tr_dedup=ts.deduped,
            tr_delivered=ts.delivered,
        )
    return counts


# -- locks-zipf-churn -----------------------------------------------------------


class LocksZipfChurn(Workload):
    name = "locks-zipf-churn"
    layers = ("sim.event", "sim.network", "sim.transport", "core", "locks",
              "locks.frontend", "locks.substrate", "verify.check", "setup",
              "other")
    SHARDS = 16
    N_REQUESTS = 4000
    #: Lock hold time in T. A crash fences the holds its site has granted
    #: and not yet released, and those acquires fail. At the service's
    #: default of 0.05 T about one seed in 80 lost an acquire that way; at
    #: 1e-4 T a crash lands inside a hold about 500 times less often.
    HOLD = 1e-4
    PINNED = {"events": 109141, "messages": 64507}

    def inputs(self, seed: int):
        from repro.locks.runner import LockRunConfig
        from repro.sim.network import FaultModel

        return LockRunConfig(
            algorithm="cao-singhal",
            shards=self.SHARDS,
            n_sites=9,
            n_keys=100_000,
            key_skew=1.1,
            n_clients=64,
            arrival_rate=8.0,
            n_requests=self.N_REQUESTS,
            hold_duration=self.HOLD,
            crashes=1,
            fault_model=FaultModel(loss=0.02),
            seed=seed,
        )

    def execute(self, inputs, seed: int, work_dir: Path) -> Rep:
        from repro.locks import runner
        from repro.locks.service import LockService

        probe = SetupProbe()
        probe.patch(LockService, "__init__", start=True, end=True)
        result, wall, cpu, error = _timed_call(
            runner.run_lock_service, (inputs,), probe
        )
        submitted = inputs.n_requests
        if result is None:
            return Rep(0, submitted, submitted, wall, 0.0, 0,
                       errors=[f"run_lock_service raised {error}"])
        s = result.summary
        service = result.service
        sim = result.sim
        events = sim.events_processed
        not_done = s.submitted - s.completed
        run_s = wall - probe.seconds
        waits = [r.wait_time / inputs.delay for r in service.completed]
        report = {
            "events_per_s": (events / run_s, "1/s", None),
            "acquires_per_s": (s.completed / run_s, "1/s", None),
            "msgs_per_acquire": (s.messages_per_acquire, "count", s.completed),
            "failed_frac": (not_done / s.submitted, "share", s.submitted),
            "availability": (s.availability, "share", None),
        }
        errors = []
        resolved = s.completed + s.orphaned + s.aborted
        if resolved != s.submitted or s.submitted != submitted:
            errors.append(
                f"completed+orphaned+aborted={resolved}, submitted="
                f"{s.submitted} of {submitted}"
            )
        if s.violations:
            errors.append(f"{s.violations} mutual-exclusion violations")
        uncrashed = [i for i, t in enumerate(service.degraded_time) if t <= 0]
        if uncrashed:
            errors.append(f"shards never crashed: {uncrashed}")
        if seed == DEFAULT_SEED:
            for key, got in (("events", events), ("messages", s.messages_sent)):
                if got != self.PINNED[key]:
                    errors.append(
                        f"default seed: {key}={got}, pinned {self.PINNED[key]}"
                    )
        counts = _network_counts(sim.network.stats, sim.transport)
        counts.update(
            acquires=s.submitted, quorum_rounds=s.quorum_rounds,
            lease_hits=s.lease_hits, batches=s.batches, retries=s.retries,
            grants=service.stats.grants,
        )
        return Rep(
            ops=s.completed,
            attempted=s.submitted,
            failed=not_done,
            wall_s=wall,
            setup_s=probe.seconds,
            cpu_s=cpu,
            setup_cpu_s=probe.cpu_seconds,
            steps=s.messages_sent,
            report=report,
            fingerprint=(events, s.messages_sent, s.completed, s.p99_wait,
                         s.mean_wait, s.availability, s.retries),
            errors=errors,
            layer_counts=counts,
            waits=waits,
            wait_unit="T",
        )


# -- udp-inproc -------------------------------------------------------------------


class UdpInproc(Workload):
    name = "udp-inproc"
    # Message counts move with wall-clock interleaving (~1.5%).
    deterministic = False
    layers = ("sim.transport", "core", "net.wire", "net.socket", "net.trace",
              "net.merge", "obs.monitor", "setup", "other")
    N_SITES = 9
    #: 360 CS per repetition. Shorter repetitions, more of them per run:
    #: one repetition's rate swings with its wall-clock interleaving, and
    #: the median of many is steadier. The p99 wait pools at least three
    #: repetitions (1,080 samples), so it keeps ten samples beyond it.
    REQUESTS_PER_SITE = 40

    def inputs(self, seed: int):
        from repro.net.config import NetRunConfig

        return NetRunConfig(
            algorithm="cao-singhal",
            n_sites=self.N_SITES,
            requests_per_site=self.REQUESTS_PER_SITE,
            seed=seed,
            reliable=True,
        )

    def execute(self, inputs, seed: int, work_dir: Path) -> Rep:
        from repro.net import launcher, site_proc
        from repro.net.substrate import NetSubstrate

        run_dir = work_dir / "udp-run"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        probe = SetupProbe()
        probe.patch(site_proc, "build_substrate", start=True, end=False)
        probe.patch(NetSubstrate, "start_nodes", start=False, end=True)
        probe.patch(launcher, "merge_shard_files", start=False, end=False,
                    capture=True)
        result, wall, cpu, error = _timed_call(
            launcher.run_net, (inputs, run_dir, "inproc"), probe
        )
        shutil.rmtree(run_dir, ignore_errors=True)
        submitted = self.N_SITES * self.REQUESTS_PER_SITE
        if result is None:
            return Rep(0, submitted, submitted, wall, 0.0, 0,
                       errors=[f"run_net raised {error}"])
        merged = probe.captured[-1]
        waits = [w * inputs.unit * 1000.0 for w in _trace_waits(merged.records)]
        run_s = wall - probe.seconds
        report = {
            "cs_per_s": (result.completed / run_s, "1/s", None),
            "msgs_per_s": (result.messages_sent / run_s, "1/s", None),
            "message_complexity_c": (result.message_complexity_c, "count",
                                     result.completed),
            "failed_frac": ((submitted - result.completed) / submitted,
                            "share", submitted),
        }
        errors = []
        if result.violations:
            errors.append(f"monitor violations: {result.violations[:3]}")
        if result.completed != submitted or result.submitted != submitted:
            errors.append(f"{result.completed} of {submitted} CS completed")
        if len(waits) != submitted:
            errors.append(f"trace pairs {len(waits)} request/enter records")
        c = result.message_complexity_c
        if c is None or not 3.0 <= c <= 6.0:
            errors.append(f"message_complexity_c={c} outside [3, 6]")
        counts: Dict[str, float] = {}
        for key, stat in (("tr_data", "data_sent"), ("tr_retx", "retransmitted"),
                          ("tr_acks", "acks_sent"), ("tr_dedup", "deduped"),
                          ("tr_delivered", "delivered")):
            counts[key] = sum(
                row.get("transport", {}).get(stat, 0)
                for row in result.site_summaries
            )
        counts["datagrams"] = sum(
            row["datagrams_sent"] for row in result.site_summaries
        )
        return Rep(
            ops=result.completed,
            attempted=submitted,
            failed=submitted - result.completed,
            wall_s=wall,
            setup_s=probe.seconds,
            cpu_s=cpu,
            setup_cpu_s=probe.cpu_seconds,
            steps=result.messages_sent,
            report=report,
            errors=errors,
            layer_counts=counts,
            waits=waits,
            wait_unit="ms",
        )


def _trace_waits(records) -> List[float]:
    """Request-to-enter gaps per site from a merged trace (trace units).

    A site runs one request at a time, so its k-th ``cs_enter`` answers
    its k-th ``request``.
    """
    pending: Dict[int, List[float]] = {}
    waits: List[float] = []
    for rec in records:
        if rec.kind == "request":
            pending.setdefault(rec.site, []).append(rec.time)
        elif rec.kind == "cs_enter":
            queue = pending.get(rec.site)
            if queue:
                waits.append(rec.time - queue.pop(0))
    return waits


# -- explore-dpor -----------------------------------------------------------------


class ExploreDpor(Workload):
    name = "explore-dpor"
    layers = ("explore", "explore.clone", "explore.apply",
              "explore.fingerprint", "core", "setup", "other")
    QUORUMS = ({2, 3, 4}, {2, 3, 4}, {2}, {3}, {4})
    REQUESTS = (1, 1, 0, 0, 0)
    #: A relabelling leaves the reachable state space isomorphic, so the
    #: state count holds for every seed; transitions are pinned for the
    #: default seed only (the search order follows the labels).
    STATES = 21565
    PINNED_TRANSITIONS = 41989

    def inputs(self, seed: int):
        """The pinned configuration, its sites relabelled by a permutation
        drawn from the seed (the default seed keeps the labels)."""
        n = len(self.QUORUMS)
        perm = list(range(n))
        if seed != DEFAULT_SEED:
            random.Random(seed).shuffle(perm)
        quorums: List[set] = [set() for _ in range(n)]
        requests = [0] * n
        for i in range(n):
            quorums[perm[i]] = {perm[q] for q in self.QUORUMS[i]}
            requests[perm[i]] = self.REQUESTS[i]
        return quorums, requests

    def execute(self, inputs, seed: int, work_dir: Path) -> Rep:
        from repro.verify.explore import search

        quorums, requests = inputs
        probe = SetupProbe()
        probe.patch(search, "build_world", start=True, end=True)
        result, wall, cpu, error = _timed_call(
            search.explore, (quorums, requests), probe
        )
        if result is None:
            return Rep(0, 1, 1, wall, 0.0, 0,
                       errors=[f"explore raised {error}"])
        states = result.states_explored
        run_s = wall - probe.seconds
        errors = []
        if not result.complete:
            errors.append("search did not complete")
        if states != self.STATES:
            errors.append(f"states={states}, expected {self.STATES}")
        if seed == DEFAULT_SEED and result.transitions != self.PINNED_TRANSITIONS:
            errors.append(
                f"default seed: transitions={result.transitions}, pinned "
                f"{self.PINNED_TRANSITIONS}"
            )
        transitions = result.transitions
        return Rep(
            ops=transitions,
            attempted=transitions,
            failed=transitions if errors else 0,
            wall_s=wall,
            setup_s=probe.seconds,
            cpu_s=cpu,
            setup_cpu_s=probe.cpu_seconds,
            steps=transitions,
            results=states,
            report={
                "states_per_s": (states / run_s, "1/s", None),
                "transitions_per_s": (transitions / run_s, "1/s", None),
            },
            fingerprint=(states, result.transitions, result.dedup_hits,
                         result.sleep_pruned, result.terminal_states,
                         result.max_depth),
            errors=errors,
            layer_counts={
                "states": states,
                "transitions": result.transitions,
                "dedup_hits": result.dedup_hits,
                "sleep_pruned": result.sleep_pruned,
            },
        )

    def setup_samples(self, inputs) -> List[Tuple[float, float]]:
        from repro.verify.explore.world import build_world

        return _time_setup(build_world, inputs, 50)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (MutexSaturation(), LocksZipfChurn(), UdpInproc(), ExploreDpor())
}
