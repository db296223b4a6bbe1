"""Explorable worlds: protocol state + channels + timers + fault oracle.

A :class:`_World` is one state of the model checker: the sites, the
per-ordered-pair FIFO channels, the pending (symbolic) timers, and the
remaining fault budget with its oracle pipeline. Worlds support three
operations the search needs to be fast:

* :meth:`_World.enabled_actions` — the canonical, deterministic action
  menu (channel-head deliveries, timer firings, fault-oracle steps);
* :meth:`_World.apply` — execute one action in place;
* :meth:`_World.clone` — copy-on-apply branching: a hand-rolled clone
  that shares every immutable object (messages, priorities, quorums)
  and shallow-copies the mutable containers, replacing the whole-world
  ``copy.deepcopy`` the first-generation explorer used. The clone is
  exactly as deep as mutation requires; ``tests/test_explore_dpor.py``
  pins clone-vs-fresh-build equivalence differentially.

Fingerprints are incremental: each site's contribution is cached and
invalidated only when an action touches that site (deliveries touch the
destination, timers their owner, oracle steps what they notify), so the
per-state hashing cost scales with the action's footprint instead of the
world size.

**Fault semantics** mirror the timed injectors (`repro.ft.recovery`)
under the fail-stop model:

* ``crash i`` — the site stops; in-flight messages from and to it are
  lost (the network's incarnation rule), its timers die with its
  volatile state, and if it was inside the CS the occupancy count drops
  (the permission is logically lost; recovery reconciles the arbiters).
* ``detect i`` — the oracle detector fires: every live peer processes
  ``failure(i)`` atomically, exactly like :class:`~repro.ft.recovery.
  ChurnPlan`'s detection event.
* ``recover i`` — volatile state reset (``reset_after_recovery``) with
  the oracle's view of who else is still down.
* ``readmit i`` — every live peer processes ``recovery(i)`` and the
  site resumes requesting (``complete_rejoin``), again one atomic
  oracle step.

The pipeline steps are *pending actions*: they interleave freely with
every delivery, which is what lets the checker quantify over "crash
between the forwarded reply and the release" style schedules instead of
sampling them. Link cuts pause a channel (the reliable-transport view
of a sever — nothing is lost, delivery resumes at heal); crashes are
the lossy fault.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.faults import FaultTolerantSite
from repro.core.site import CaoSinghalSite
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    MutualExclusionViolation,
    ProtocolError,
)
from repro.ft.chaos import FaultBudget
from repro.mutex.base import RunListener, SiteState
from repro.quorums.coterie import ExplicitQuorumSystem
from repro.sim.trace import Trace

#: An action is ``(kind, arg)`` with a hashable, orderable arg; the tuple
#: itself is the action's identity for sleep sets and seen-set tracking.
Action = Tuple[str, object]


class _FakeTimer:
    """Symbolic timer with a stable identity ``(site, method, seq)``.

    Timers are stored by key in the world's timer table; ``seq`` is a
    per-site counter, so the identity is a function of the owning site's
    local history and survives world branching (a list index would not:
    independent actions at other sites must not rename this timer).
    """

    __slots__ = ("site_id", "method", "label", "seq", "cancelled")

    def __init__(self, site_id: int, method: str, label: str, seq: int) -> None:
        self.site_id = site_id
        self.method = method
        self.label = label
        self.seq = seq
        self.cancelled = False

    @property
    def key(self) -> Tuple[int, str, int]:
        return (self.site_id, self.method, self.seq)

    def cancel(self) -> None:
        self.cancelled = True

    def clone(self) -> "_FakeTimer":
        new = _FakeTimer(self.site_id, self.method, self.label, self.seq)
        new.cancelled = self.cancelled
        return new


class _FakeSim:
    """The minimal simulator surface a site touches, timeless.

    Message sends and timers never reach it (the explorer's site mixin
    overrides both); only the trace/now properties remain. The trace is
    disabled during search and enabled by the counterexample bridge,
    which also advances ``now`` to the replay step index so the emitted
    records carry monotone synthetic times.
    """

    def __init__(self, world: "_World") -> None:
        self.world = world
        self.trace = Trace(enabled=False)
        self.now = 0.0

    def schedule(self, delay: float, action, label: str = ""):  # pragma: no cover
        raise AssertionError("explorer sites register timers symbolically")

    def deliver_local(self, site: int, message) -> None:  # pragma: no cover
        raise AssertionError("sends are intercepted; deliver_local unused")


class _ChannelMixin:
    """Send/timer overrides shared by the plain and fault-tolerant
    explorer sites.

    Implemented as overrides (not monkeypatched closures) so cloning a
    world rebinds everything consistently. Sends honour the fail-stop
    rule at both ends: a crashed sender stays silent, and a message to a
    crashed destination is dropped at send time (the timed network drops
    it at delivery via the incarnation check; with the destination's
    channels already purged at crash, dropping at send is equivalent).
    """

    def send(self, dst, message, piggybacked: bool = False) -> None:
        if self.crashed:
            return
        world = self.sim.world  # type: ignore[attr-defined]
        if world.sites[dst].crashed:
            return
        world.channels.setdefault((self.site_id, dst), deque()).append(message)

    def set_timer(self, delay, action, label: str = "timer") -> _FakeTimer:
        world = self.sim.world  # type: ignore[attr-defined]
        seq = world.timer_seq[self.site_id]
        world.timer_seq[self.site_id] = seq + 1
        timer = _FakeTimer(self.site_id, action.__name__, label, seq)
        world.timers[timer.key] = timer
        return timer


class _ExploreSite(_ChannelMixin, CaoSinghalSite):
    """Failure-free explorer site (the Section 3 algorithm verbatim)."""


class _ExploreFTSite(_ChannelMixin, FaultTolerantSite):
    """Fault-tolerant explorer site (Section 6 + probe reconciliation)."""


class _SafetyListener(RunListener):
    """Counts CS occupancy online; any overlap is an immediate violation."""

    def __init__(self) -> None:
        self.in_cs = 0
        self.served = 0
        self.abandoned = 0

    def on_enter(self, site, time) -> None:
        self.in_cs += 1
        if self.in_cs > 1:
            raise MutualExclusionViolation(
                f"{self.in_cs} sites in the CS simultaneously"
            )

    def on_exit(self, site, time) -> None:
        self.in_cs -= 1
        self.served += 1

    def on_abandon(self, site, time) -> None:
        # The CS-occupancy bookkeeping happened at crash time (the
        # permission died with the site); here we only account for the
        # request so the terminal liveness check can balance its books.
        self.abandoned += 1

    def clone(self) -> "_SafetyListener":
        new = _SafetyListener()
        new.in_cs = self.in_cs
        new.served = self.served
        new.abandoned = self.abandoned
        return new


def _clone_site(site, fake_sim: _FakeSim, listener: _SafetyListener):
    """Copy-on-apply site clone: exactly as deep as mutation requires.

    Immutable values (priorities, messages, the quorum frozenset, the
    quorum system) are shared; mutable containers are copied one level
    deep — their elements are immutable throughout the protocol state.
    """
    cls = type(site)
    new = cls.__new__(cls)
    # Node
    new.site_id = site.site_id
    new._sim = fake_sim
    new.crashed = site.crashed
    # MutexSite
    new._cs_duration = site._cs_duration
    new.listener = listener
    new.state = site.state
    new.backlog = site.backlog
    new.completed = site.completed
    # CaoSinghalSite
    new.quorum = site.quorum
    new._quorum_sorted = site._quorum_sorted
    new.enable_transfer = site.enable_transfer
    new.arbiter = site.arbiter.clone()
    new.req = site.req.clone()
    new._pending_releases = dict(site._pending_releases)
    new.max_seq_seen = site.max_seq_seen
    if isinstance(site, FaultTolerantSite):
        new.quorum_system = site.quorum_system
        new.known_failed = set(site.known_failed)
        new.inaccessible = site.inaccessible
        new.rejoining = site.rejoining
        new._probe_pending = (
            None if site._probe_pending is None else set(site._probe_pending)
        )
        new._rejoin_waiting = set(site._rejoin_waiting)
        new._rejoin_deferred = list(site._rejoin_deferred)
    return new


class _World:
    """One explored state; see the module docstring for the semantics."""

    __slots__ = (
        "sites",
        "channels",
        "timers",
        "listener",
        "fake_sim",
        "timer_seq",
        "crashes_left",
        "recoveries_left",
        "cuts_left",
        "cut_links",
        "crash_sites",
        "pipeline",
        "cuts",
        "_site_fp",
    )

    def __init__(self, n: int = 0) -> None:
        self.sites: List[CaoSinghalSite] = []
        #: per-ordered-pair FIFO of undelivered messages
        self.channels: Dict[Tuple[int, int], deque] = {}
        #: pending timers by stable key ``(site, method, seq)``
        self.timers: Dict[Tuple[int, str, int], _FakeTimer] = {}
        self.listener = _SafetyListener()
        self.fake_sim: Optional[_FakeSim] = None
        self.timer_seq: List[int] = [0] * n
        self.crashes_left = 0
        self.recoveries_left = 0
        self.cuts_left = 0
        self.cut_links: Tuple[Tuple[int, int], ...] = ()
        self.crash_sites: Tuple[int, ...] = ()
        #: pending oracle steps: ("detect", i), ("recover", i),
        #: ("readmit", i), ("heal", (a, b)) — each enabled until fired.
        self.pipeline: List[Action] = []
        #: currently severed links, normalized (a < b)
        self.cuts: Set[Tuple[int, int]] = set()
        #: per-site fingerprint cache; ``None`` marks a dirty slot
        self._site_fp: List[Optional[Tuple]] = [None] * n

    # -- branching ---------------------------------------------------------

    def clone(self) -> "_World":
        new = _World.__new__(_World)
        listener = self.listener.clone()
        fake_sim = _FakeSim(new)
        new.sites = [_clone_site(s, fake_sim, listener) for s in self.sites]
        new.channels = {
            ch: deque(q) for ch, q in self.channels.items() if q
        }
        new.timers = {k: t.clone() for k, t in self.timers.items()}
        new.listener = listener
        new.fake_sim = fake_sim
        new.timer_seq = list(self.timer_seq)
        new.crashes_left = self.crashes_left
        new.recoveries_left = self.recoveries_left
        new.cuts_left = self.cuts_left
        new.cut_links = self.cut_links
        new.crash_sites = self.crash_sites
        new.pipeline = list(self.pipeline)
        new.cuts = set(self.cuts)
        new._site_fp = list(self._site_fp)
        return new

    # -- actions -----------------------------------------------------------

    def enabled_actions(self) -> List[Action]:
        actions: List[Action] = []
        for channel in sorted(self.channels):
            if self.channels[channel] and not self._is_cut(channel):
                actions.append(("deliver", channel))
        for key in sorted(self.timers):
            if not self.timers[key].cancelled:
                actions.append(("timer", key))
        actions.extend(self.pipeline)
        if self.crashes_left > 0:
            busy = {
                step[1] for step in self.pipeline if isinstance(step[1], int)
            }
            for i in self.crash_sites:
                if not self.sites[i].crashed and i not in busy:
                    actions.append(("crash", i))
        if self.cuts_left > 0:
            for link in self.cut_links:
                if link not in self.cuts:
                    actions.append(("cut", link))
        return actions

    def apply(self, action: Action) -> None:
        kind, arg = action
        if kind == "deliver":
            src, dst = arg  # type: ignore[misc]
            message = self.channels[arg].popleft()
            self._dirty(dst)
            trace = self.fake_sim.trace if self.fake_sim else None
            if trace is not None and trace.enabled:
                trace.record(self.fake_sim.now, "deliver", dst, message)
            self.sites[dst].on_message(src, message)
        elif kind == "timer":
            timer = self.timers.pop(arg)  # type: ignore[arg-type]
            if not timer.cancelled:
                self._dirty(timer.site_id)
                getattr(self.sites[timer.site_id], timer.method)()
        elif kind == "crash":
            self._apply_crash(arg)  # type: ignore[arg-type]
        elif kind == "detect":
            self._apply_detect(arg)  # type: ignore[arg-type]
        elif kind == "recover":
            self._apply_recover(arg)  # type: ignore[arg-type]
        elif kind == "readmit":
            self._apply_readmit(arg)  # type: ignore[arg-type]
        elif kind == "cut":
            self._trace_fault("link-cut", -1, arg)
            self.cuts_left -= 1
            self.cuts.add(arg)  # type: ignore[arg-type]
            self.pipeline.append(("heal", arg))
        elif kind == "heal":
            self._trace_fault("link-heal", -1, arg)
            self.pipeline.remove(action)
            self.cuts.discard(arg)  # type: ignore[arg-type]
        else:  # pragma: no cover - the search only emits known kinds
            raise ProtocolError(f"unknown explorer action {action!r}")

    # -- fault oracle ------------------------------------------------------

    def _apply_crash(self, i: int) -> None:
        self._trace_fault("crash", i)
        site = self.sites[i]
        self.crashes_left -= 1
        site.crashed = True
        if site.state is SiteState.IN_CS:
            # The permission is logically lost with the site; occupancy
            # must drop now or a later legitimate entry would read as a
            # mutual-exclusion violation.
            self.listener.in_cs -= 1
        for channel in [c for c in self.channels if i in c]:
            del self.channels[channel]  # fail-stop: in-flight traffic dies
        for key in [k for k in self.timers if k[0] == i]:
            del self.timers[key]  # volatile state: timers die with the site
        self._dirty(i)
        self.pipeline.append(("detect", i))

    def _apply_detect(self, i: int) -> None:
        self._trace_fault("failure-detected", i)
        self.pipeline.remove(("detect", i))
        for site in self.sites:
            if site.site_id != i and not site.crashed:
                self._dirty(site.site_id)
                site.notify_failure(i)
        if self.recoveries_left > 0:
            self.recoveries_left -= 1
            self.pipeline.append(("recover", i))

    def _apply_recover(self, i: int) -> None:
        self._trace_fault("recover", i)
        self.pipeline.remove(("recover", i))
        site = self.sites[i]
        site.crashed = False
        still_down = {s.site_id for s in self.sites if s.crashed}
        site.reset_after_recovery(known_failed=still_down)
        self._dirty(i)
        self.pipeline.append(("readmit", i))

    def _apply_readmit(self, i: int) -> None:
        self._trace_fault("readmitted", i)
        self.pipeline.remove(("readmit", i))
        for site in self.sites:
            if site.site_id != i and not site.crashed:
                self._dirty(site.site_id)
                site.notify_recovery(i)
        self._dirty(i)
        self.sites[i].complete_rejoin()

    def _is_cut(self, channel: Tuple[int, int]) -> bool:
        if not self.cuts:
            return False
        a, b = channel
        return ((a, b) if a < b else (b, a)) in self.cuts

    def _trace_fault(self, kind: str, site: int, detail=None) -> None:
        trace = self.fake_sim.trace if self.fake_sim else None
        if trace is not None and trace.enabled:
            trace.record(self.fake_sim.now, kind, site, detail)

    # -- fingerprinting ----------------------------------------------------

    def _dirty(self, site_id: int) -> None:
        self._site_fp[site_id] = None

    def _site_part(self, i: int) -> Tuple:
        s = self.sites[i]
        req = s.req
        part: Tuple = (
            s.state.value,
            s.crashed,
            s.backlog,
            s.completed,
            s.max_seq_seen,
            req.priority,
            tuple(sorted(req.replied.items())),
            tuple(sorted(req.grant_epoch.items())),
            req.failed,
            tuple(sorted(req.inq_pending.items())),
            tuple(req.tran_stack),
            s.arbiter.lock,
            s.arbiter.epoch,
            tuple(s.arbiter.req_queue),
            tuple(sorted(s._pending_releases.items())),
        )
        if isinstance(s, FaultTolerantSite):
            part += (
                s.quorum,
                tuple(sorted(s.known_failed)),
                s.inaccessible,
                s.rejoining,
                None
                if s._probe_pending is None
                else tuple(sorted(s._probe_pending)),
                tuple(sorted(s._rejoin_waiting)),
                tuple(m.priority for m in s._rejoin_deferred),
            )
        return part

    def fingerprint(self) -> Tuple:
        """Hashable digest of the full protocol state, for deduplication.

        Exact structural tuples, not hashes: a hash collision would
        silently prune a reachable state, which is unsound. Per-site
        parts come from the incremental cache; timers canonicalize to
        their sorted key multiset so converging interleavings that
        created the same timers in different orders still collide.
        """
        fps = self._site_fp
        for i, part in enumerate(fps):
            if part is None:
                fps[i] = self._site_part(i)
        channel_parts = tuple(
            (channel, tuple(queue))
            for channel, queue in sorted(self.channels.items())
            if queue
        )
        timer_parts = tuple(
            sorted(k for k, t in self.timers.items() if not t.cancelled)
        )
        return (
            tuple(fps),
            channel_parts,
            timer_parts,
            self.listener.in_cs,
            self.crashes_left,
            self.recoveries_left,
            self.cuts_left,
            tuple(self.pipeline),
            tuple(sorted(self.cuts)),
        )


def build_world(
    quorums: Sequence[Iterable[int]],
    requests_per_site: Optional[Sequence[int]] = None,
    enable_transfer: bool = True,
    fault_budget: Optional[FaultBudget] = None,
    site_cls: Optional[type] = None,
    trace: Optional[Trace] = None,
) -> _World:
    """Construct the initial world: sites wired to intercepted channels.

    With a truthy ``fault_budget`` the world is built from fault-tolerant
    sites over an :class:`~repro.quorums.coterie.ExplicitQuorumSystem`
    wrapping ``quorums`` (crash recovery re-runs quorum construction, so
    it needs the whole system, not one fixed set). ``site_cls`` overrides
    the site class; by default the failure-free class is resolved through
    the package attribute ``repro.verify.explore._ExploreSite`` at call
    time, which is what lets tests monkeypatch protocol variants in.
    """
    n = len(quorums)
    requests = list(requests_per_site or [1] * n)
    if len(requests) != n:
        raise ProtocolError("requests_per_site must match the site count")
    budget = fault_budget or FaultBudget()

    world = _World(n)
    fake_sim = _FakeSim(world)
    world.fake_sim = fake_sim
    if trace is not None:
        fake_sim.trace = trace
    world.crashes_left = budget.crashes
    world.recoveries_left = budget.recoveries
    world.cuts_left = budget.cuts
    world.cut_links = budget.cut_links
    world.crash_sites = (
        tuple(sorted(budget.crash_sites))
        if budget.crash_sites is not None
        else tuple(range(n))
    )
    for a, b in world.cut_links:
        if not (0 <= a < n and 0 <= b < n):
            raise ConfigurationError(
                f"cut link ({a}, {b}) references unknown sites"
            )
    for i in world.crash_sites:
        if not 0 <= i < n:
            raise ConfigurationError(f"crash site {i} is out of range")

    if site_cls is None and budget.crashes > 0:
        site_cls = _ExploreFTSite
    if site_cls is None:
        # Resolved through the package namespace so tests can swap in
        # protocol variants (e.g. the paper-literal C.2 rule). Looked up
        # by module name: ``repro.verify`` re-exports the ``explore``
        # *function*, which shadows the submodule as an attribute.
        import importlib

        _pkg = importlib.import_module("repro.verify.explore")
        site_cls = _pkg._ExploreSite
    if budget.crashes > 0 and not issubclass(site_cls, FaultTolerantSite):
        raise ConfigurationError(
            "a crash budget needs fault-tolerant explorer sites"
        )

    ft = issubclass(site_cls, FaultTolerantSite)
    qs = (
        ExplicitQuorumSystem(n, [frozenset(q) for q in quorums]) if ft else None
    )
    for i, quorum in enumerate(quorums):
        if ft:
            site = site_cls(i, qs, cs_duration=1.0, listener=world.listener)
            site.enable_transfer = enable_transfer
        else:
            site = site_cls(
                i,
                quorum,
                cs_duration=1.0,  # becomes a free-fire timer in the explorer
                listener=world.listener,
                enable_transfer=enable_transfer,
            )
        site.bind(fake_sim)  # type: ignore[arg-type]
        world.sites.append(site)

    for site, count in zip(world.sites, requests):
        for _ in range(count):
            site.submit_request()
    return world


def _check_terminal(world: _World, expected: int) -> None:
    """Liveness at a terminal state (Theorems 2-3), fault-aware.

    A terminal state must have served every submitted request — except
    those that died with a still-crashed site, were abandoned by a
    crash-recovery reset (counted by the listener), or belong to a site
    left without any live quorum (``inaccessible``: Theorem 3's
    availability premise does not hold for it, and the fault-tolerance
    experiments count exactly this case as unavailability, not
    deadlock). Everything else still waiting *is* a deadlock.
    """
    listener = world.listener
    if listener.in_cs != 0:
        raise DeadlockError("terminal state with a site stuck inside the CS")
    excused = 0
    for site in world.sites:
        if site.crashed:
            # Down for good (a recovery would be a pending oracle step,
            # and terminal states have none): its backlog and any
            # in-flight request died with it.
            excused += site.backlog
            if site.state is not SiteState.IDLE:
                excused += 1
            continue
        if getattr(site, "inaccessible", False) and (
            site.state is SiteState.REQUESTING
        ):
            excused += site.backlog + 1
            continue
        if getattr(site, "rejoining", False):
            raise DeadlockError(
                f"site {site.site_id} terminally stuck mid-rejoin"
            )
        if site.has_work:
            raise DeadlockError(f"site {site.site_id} still has queued work")
        if not site.arbiter.is_free or len(site.arbiter.req_queue):
            raise DeadlockError(
                f"arbiter {site.site_id} holds residual state at termination"
            )
    accounted = listener.served + listener.abandoned + excused
    if accounted != expected:
        raise DeadlockError(
            f"terminal state served {listener.served} of {expected} "
            f"requests ({listener.abandoned} abandoned, {excused} excused) "
            "— an interleaving deadlocks the protocol"
        )
