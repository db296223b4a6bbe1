"""One-stop simulation runner used by experiments, benchmarks, and the CLI.

:func:`run_mutex` wires together a simulator, one site per process for the
chosen algorithm, a workload, the metrics collector, and the verification
layer, then returns a :class:`~repro.metrics.summary.RunSummary`. Every
run is verified: mutual exclusion over the recorded intervals, progress
(no deadlock/starvation), and per-site sequentiality. A run that violates
the paper's theorems raises instead of returning numbers.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from repro.core.site import CaoSinghalSite
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import RunSummary, summarize
from repro.mutex.base import DurationSpec, MutexSite
from repro.mutex.registry import get_algorithm_spec
from repro.quorums.registry import make_quorum_system
from repro.sim.network import ConstantDelay, DelayModel, FaultModel, UniformDelay
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace
from repro.sim.transport import ReliableConfig
from repro.verify.checker import check_quiescent
from repro.verify.invariants import (
    check_mutual_exclusion,
    check_progress,
    check_sequential_per_site,
)
from repro.workload.driver import SaturationWorkload, Workload


@dataclass
class RunConfig:
    """Declarative description of one simulation run."""

    algorithm: str = "cao-singhal"
    n_sites: int = 9
    quorum: Optional[str] = None  # defaulted per-algorithm
    seed: int = 0
    delay_model: Optional[DelayModel] = None  # default UniformDelay(0.5, 1.5)
    cs_duration: DurationSpec = 0.05
    workload: Optional[Workload] = None  # default SaturationWorkload(20)
    #: Hard safety caps so a protocol bug cannot hang the harness.
    max_time: float = 1_000_000.0
    max_events: int = 20_000_000
    #: ``False`` (no trace), ``True`` (in-memory trace), or a ready
    #: :class:`~repro.sim.trace.Trace` instance — e.g. a
    #: :class:`~repro.obs.monitor.MonitorTrace`, which checks protocol
    #: invariants online as the run records.
    trace: Union[bool, "Trace"] = False
    verify: bool = True
    #: Adversarial-transport fault injection (loss/burst/dup/reorder);
    #: ``None`` keeps the network reliable and the kernel byte-identical.
    fault_model: Optional[FaultModel] = None
    #: Reliable-channel layer between nodes and the network. ``None``
    #: sends raw; pass a :class:`~repro.sim.transport.ReliableConfig` to
    #: get exactly-once FIFO delivery over a faulty network.
    reliable: Optional[ReliableConfig] = None
    #: Scripted/randomized fault schedule (a
    #: :class:`repro.ft.chaos.FaultPlan` or
    #: :class:`repro.ft.chaos.ChaosSchedule`) installed before the run.
    chaos: Optional[object] = None

    def resolved_quorum(self) -> Optional[str]:
        """The quorum construction to use, or ``None`` for non-quorum
        algorithms."""
        spec = get_algorithm_spec(self.algorithm)
        if not spec.needs_quorum:
            if self.quorum is not None:
                raise ConfigurationError(
                    f"algorithm {self.algorithm!r} does not take a quorum"
                )
            return None
        return self.quorum or "grid"


@dataclass
class RunResult:
    """Summary plus the raw artifacts a test may want to poke at."""

    summary: RunSummary
    sim: Simulator
    sites: List[MutexSite] = field(default_factory=list)
    collector: Optional[MetricsCollector] = None


def build_run(config: RunConfig):
    """Construct (simulator, sites, collector, workload size) for a config."""
    spec = get_algorithm_spec(config.algorithm)
    quorum_name = config.resolved_quorum()
    quorum_system = (
        make_quorum_system(quorum_name, config.n_sites) if quorum_name else None
    )
    if quorum_system is not None:
        quorum_system.validate()

    fault_model = config.fault_model
    if fault_model is None and config.chaos is not None:
        # Chaos overlays (loss bursts, delay spikes) act through the fault
        # branch of Network.send; an all-zero model turns that branch on
        # without injecting any faults of its own.
        fault_model = FaultModel()
    sim = Simulator(
        seed=config.seed,
        delay_model=config.delay_model or UniformDelay(0.5, 1.5),
        trace=config.trace,
        fault_model=fault_model,
    )
    if config.reliable is not None:
        sim.install_transport(config.reliable)
    collector = MetricsCollector()
    sites = [
        spec.factory(i, config.n_sites, quorum_system, config.cs_duration, collector)
        for i in range(config.n_sites)
    ]
    for site in sites:
        sim.add_node(site)
    if sim.transport is not None:
        sim.transport.on_give_up = _give_up_hook(sites)
    if config.chaos is not None:
        plan = config.chaos
        materialize = getattr(plan, "materialize", None)
        if materialize is not None:
            plan = materialize(config.n_sites)
        plan.install(sim, sites)
    workload = config.workload or SaturationWorkload(20)
    submitted = workload.install(sim, sites)
    return sim, sites, collector, quorum_system, submitted


def _give_up_hook(sites: List[MutexSite]):
    """Feed channel give-ups into the failure-detector path.

    When the reliable layer exhausts its retries toward a peer, the local
    site has channel-level evidence the peer is unreachable: a monitored
    site routes it through its heartbeat detector (which broadcasts the
    paper's ``failure(i)``), a plain fault-tolerant site applies the
    Section 6 cleanup directly, and any other algorithm ignores it (it
    has no failure handling to feed).
    """
    from repro.core.faults import FaultTolerantSite
    from repro.ft.recovery import MonitoredSite

    by_id = {site.site_id: site for site in sites}

    def give_up(src: int, dst: int) -> None:
        site = by_id.get(src)
        if site is None or site.crashed:
            return
        if isinstance(site, MonitoredSite):
            site.monitor.force_suspect(dst)
        elif isinstance(site, FaultTolerantSite):
            site.notify_failure(dst)

    return give_up


def run_mutex(
    config: RunConfig,
    loop: Optional[Callable[..., None]] = None,
) -> RunResult:
    """Run one configured simulation to completion and verify it.

    ``loop`` optionally replaces the kernel main loop: it is called as
    ``loop(sim, until=..., max_events=...)`` and must drain the run. The
    profiler uses it to pass an observer to :meth:`Simulator.run`, and
    the equivalence suite to drive the run through :meth:`Simulator.step`.
    """
    sim, sites, collector, quorum_system, _ = build_run(config)
    sim.start()
    # Suppress cyclic GC for the duration of the main loop: the kernel
    # churns through short-lived events/messages that reference counting
    # reclaims on its own, and collector pauses otherwise land mid-run.
    # Restored (and swept once) in finally, so callers see no GC-state
    # change and long experiment grids don't accumulate cycles.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if loop is None:
            sim.run(until=config.max_time, max_events=config.max_events)
        else:
            loop(sim, until=config.max_time, max_events=config.max_events)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()

    duration = sim.last_event_time
    if config.verify:
        check_mutual_exclusion(collector.records)
        check_sequential_per_site(collector.records)
        if sim.pending_events() == 0:
            # The run drained: everything submitted must have been served.
            check_progress(collector.records, context=config.algorithm)
            cs_sites = [s for s in sites if isinstance(s, CaoSinghalSite)]
            if cs_sites:
                check_quiescent(cs_sites)
        else:
            raise ConfigurationError(
                f"run hit its safety cap (time={sim.now:.1f}, "
                f"events={sim.events_processed}); raise max_time/max_events "
                "or shrink the workload"
            )

    quorum_name = config.resolved_quorum()
    summary = summarize(
        algorithm=config.algorithm,
        n_sites=config.n_sites,
        records=collector.records,
        messages_sent=sim.network.stats.messages_sent,
        messages_by_type=sim.network.stats.by_type,
        duration=duration,
        mean_delay_t=sim.network.mean_delay,
        seed=config.seed,
        quorum_name=quorum_name,
        mean_quorum_size=(
            quorum_system.mean_quorum_size() if quorum_system else None
        ),
        channel_stats=_channel_stats(sim),
    )
    return RunResult(summary=summary, sim=sim, sites=sites, collector=collector)


def _channel_stats(sim: Simulator) -> dict:
    """Non-zero reliability counters from the network and transport.

    Returns ``{}`` for a clean run over a reliable network, which keeps
    historical summary digests (golden fingerprints, cache records)
    byte-identical.
    """
    out: dict = {}
    ns = sim.network.stats
    for name in (
        "messages_dropped",
        "messages_lost",
        "messages_duplicated",
        "messages_reordered",
    ):
        value = getattr(ns, name)
        if value:
            out[name] = value
    if sim.transport is not None:
        out.update(sim.transport.stats_dict())
    return out


def run_many(
    configs: "List[RunConfig]",
    workers: Optional[int] = None,
    cache=None,
) -> List[RunSummary]:
    """Run a grid of configs through the parallel trial engine.

    Summaries come back in input order whatever the worker count, so a
    sweep built as a list comprehension reads its results positionally.
    ``workers``/``cache`` are :class:`~repro.parallel.TrialPool` options;
    a failing trial re-raises with its seed attached.
    """
    from repro.parallel.pool import TrialPool

    return TrialPool(workers=workers, cache=cache).run_configs(configs)


def quick_run(
    algorithm: str = "cao-singhal",
    n_sites: int = 9,
    seed: int = 0,
    requests_per_site: int = 20,
    quorum: Optional[str] = None,
    delay: Optional[DelayModel] = None,
) -> RunSummary:
    """Convenience wrapper: heavy-load run, return just the summary."""
    config = RunConfig(
        algorithm=algorithm,
        n_sites=n_sites,
        quorum=quorum,
        seed=seed,
        delay_model=delay or ConstantDelay(1.0),
        workload=SaturationWorkload(requests_per_site),
    )
    return run_mutex(config).summary
