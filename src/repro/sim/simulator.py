"""The discrete-event simulator tying clock, network, and nodes together.

Usage sketch::

    sim = Simulator(seed=7, delay_model=ConstantDelay(1.0))
    for i in range(N):
        sim.add_node(MySite(i, ...))
    sim.start()
    sim.run(until=10_000)

The simulator is deliberately small: it owns the clock and the event queue,
delegates transport to :class:`repro.sim.network.Network`, and dispatches
deliveries to :meth:`repro.sim.node.Node.on_message`. Determinism comes
from the seeded RNG streams and the stable event tie-break; two simulators
built with the same seed and the same construction order replay the exact
same history.

Scheduling goes through one kernel API, :meth:`Simulator.schedule_call`:
callbacks are stored as ``(fn, args)`` pairs so the hot path (one network
delivery per message) allocates a single slotted event instead of a
closure per send. :meth:`Simulator.schedule` remains as the zero-argument
convenience wrapper.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.sim.event import Event, EventQueue
from repro.sim.network import DelayModel, FaultModel, Network, UniformDelay
from repro.sim.node import Node
from repro.sim.rng import SeedSequence
from repro.sim.trace import NullTrace, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.transport import ReliableTransport

SiteId = int


class Simulator:
    """Deterministic discrete-event simulator for message-passing systems."""

    __slots__ = (
        "seeds",
        "_queue",
        "_now",
        "_started",
        "nodes",
        "trace",
        "network",
        "transport",
        "events_processed",
        "last_event_time",
    )

    def __init__(
        self,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        trace: Union[bool, Trace] = False,
        trace_capacity: Optional[int] = None,
        fault_model: Optional[FaultModel] = None,
    ) -> None:
        self.seeds = SeedSequence(seed)
        self._queue = EventQueue()
        self._now = 0.0
        self._started = False
        self.nodes: Dict[SiteId, Node] = {}
        #: ``trace`` may be a bool (build a Trace/NullTrace) or a ready
        #: Trace instance — Trace and NullTrace are swappable here and the
        #: call sites (``sim.trace.record(...)``) never need to know.
        if isinstance(trace, Trace):
            self.trace = trace
        elif trace:
            self.trace = Trace(enabled=True, capacity=trace_capacity)
        else:
            self.trace = NullTrace()
        # Fault decisions get their own stream (named by chaos_seed so the
        # same run seed can replay under a different fault pattern);
        # deriving it only when faults are on leaves every fault-free run's
        # RNG usage untouched.
        # The network schedules deliveries straight onto the event queue:
        # ``deliver_at`` is always >= now (positive delays, and the FIFO
        # floor only pushes times later), so the past-check in
        # :meth:`_schedule_at` can never fire and is skipped.
        self.network = Network(
            delay_model=delay_model or UniformDelay(0.5, 1.5),
            rng=self.seeds.derive("network"),
            schedule=self._queue.push,
            now=lambda: self._now,
            fault_model=fault_model,
            fault_rng=(
                self.seeds.derive(f"faults#{fault_model.chaos_seed}")
                if fault_model is not None
                else None
            ),
        )
        self.network.on_deliver(self._dispatch)
        #: Optional reliable-channel layer (see :meth:`install_transport`);
        #: ``None`` means nodes talk straight to the raw network.
        self.transport: Optional["ReliableTransport"] = None
        #: Number of events processed so far (cheap progress/health metric).
        self.events_processed = 0
        #: Time of the most recently processed event. Unlike :attr:`now`,
        #: this never jumps to ``run(until=...)``'s bound, so it measures
        #: when simulated *activity* ended (the duration the metrics layer
        #: normalizes by).
        self.last_event_time = 0.0

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register ``node``; its ``site_id`` must be unique."""
        if node.site_id in self.nodes:
            raise SimulationError(f"duplicate site id {node.site_id}")
        if self._started:
            raise SimulationError("cannot add nodes after start()")
        node.bind(self)
        self.nodes[node.site_id] = node
        return node

    def install_transport(self, config=None):
        """Layer reliable channels between nodes and the raw network.

        Every subsequent :meth:`Node.send` routes through a
        :class:`~repro.sim.transport.ReliableTransport` (sequence numbers,
        cumulative acks, retransmission, dedup/reorder buffering) which
        re-presents exactly-once FIFO delivery to ``on_message``. Call
        before :meth:`start`. Returns the transport for give-up wiring.
        """
        from repro.sim.transport import ReliableConfig, ReliableTransport

        if self._started:
            raise SimulationError("cannot install a transport after start()")
        if self.transport is not None:
            raise SimulationError("a transport is already installed")
        self.transport = ReliableTransport(self, config or ReliableConfig())
        return self.transport

    def start(self) -> None:
        """Invoke every node's ``on_start`` hook. Idempotent."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.on_start()

    # -- clock & scheduling --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule zero-argument ``action`` to run ``delay`` units from now.

        Convenience wrapper over :meth:`schedule_call` for closures and
        bound methods that need no arguments.
        """
        return self.schedule_call(delay, action, (), label)

    def schedule_call(
        self,
        delay: float,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        This is the kernel scheduling API: binding arguments in the event
        instead of a closure keeps per-event allocation to one slotted
        object. Returns the :class:`Event` handle, which supports
        ``cancel()``.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self._now + delay, fn, args, label)

    def _schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        args: Tuple[Any, ...] = (),
        label: str = "",
    ) -> Event:
        """Absolute-time scheduling used by the network layer."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        return self._queue.push(time, fn, args, label)

    # -- substrate send path ---------------------------------------------------

    def send(
        self,
        src: SiteId,
        dst: SiteId,
        message: Any,
        type_name: str,
        piggybacked: bool = False,
    ) -> None:
        """Accept one protocol message from a node (substrate interface).

        Routes through the reliable-channel transport when one is
        installed, else straight to the raw network — the transport
        selection that used to live in :meth:`repro.sim.node.Node.send`,
        hoisted here so nodes depend only on the substrate interface.
        """
        transport = self.transport
        if transport is not None:
            transport.send(src, dst, message, type_name, piggybacked)
            return
        self.network.send(src, dst, message, type_name, piggybacked, self._now)

    def send_many(
        self,
        src: SiteId,
        dsts: Any,
        message: Any,
        type_name: str,
        piggybacked: bool = False,
    ) -> None:
        """Accept one protocol message addressed to several sites:
        :meth:`send` once per destination, in order."""
        for dst in dsts:
            self.send(src, dst, message, type_name, piggybacked)

    def raw_send(
        self,
        src: SiteId,
        dst: SiteId,
        frame: Any,
        type_name: str,
        piggybacked: bool = False,
    ) -> None:
        """Put one frame on the modelled network, bypassing the transport
        (the reliable-channel layer's down-call)."""
        self.network.send(src, dst, frame, type_name, piggybacked, self._now)

    def is_crashed(self, site: SiteId) -> bool:
        """True if hosted ``site`` is currently crashed (substrate API)."""
        return self.nodes[site].crashed

    def rng(self, name: str) -> Any:
        """Named deterministic RNG stream derived from the run seed."""
        return self.seeds.derive(name)

    # -- delivery ------------------------------------------------------------

    def _dispatch(self, src: SiteId, dst: SiteId, payload: Any) -> None:
        """Deliver a message that survived :meth:`Network._deliver`'s drop
        checks to its destination node (or to the transport)."""
        node = self.nodes.get(dst)
        if node is None:
            raise SimulationError(f"message addressed to unknown site {dst}")
        if node.crashed:
            self.network.stats.messages_dropped += 1
            return
        transport = self.transport
        if transport is not None:
            # Raw network frames are transport segments; the transport
            # unwraps, dedups, and re-orders, then hands the protocol
            # payloads back through deliver_protocol.
            transport.on_network_deliver(src, dst, payload)
            return
        trace = self.trace
        if trace.enabled:
            trace.record(self._now, "deliver", dst, payload)
        node.on_message(src, payload)

    # Kept as a name because perfbench/tracer.py wraps every entry point
    # it lists and raises when one is missing.
    _deliver_event = _dispatch

    def deliver_protocol(self, src: SiteId, dst: SiteId, message: Any) -> None:
        """Deliver an unwrapped protocol message (transport layer exit)."""
        node = self.nodes[dst]
        if node.crashed:
            return
        trace = self.trace
        if trace.enabled:
            trace.record(self._now, "deliver", dst, message)
        node.on_message(src, message)

    def deliver_local(self, site: SiteId, message: Any) -> None:
        """Deliver a self-addressed message (no network, no message cost)."""
        node = self.nodes[site]
        if node.crashed:
            return
        trace = self.trace
        if trace.enabled:
            trace.record(self._now, "deliver-local", site, message)
        node.on_message(site, message)

    # -- failure injection -----------------------------------------------------

    def crash(self, site: SiteId) -> None:
        """Fail-stop ``site``: drop its traffic and silence its timers."""
        node = self.nodes[site]
        if node.crashed:
            return
        node.crashed = True
        self.network.crash(site)
        if self.transport is not None:
            # Fail-stop: channel state touching the site is lost, and
            # retransmission must never resurrect its in-flight traffic.
            self.transport.reset_site(site)
        self.trace.record(self._now, "crash", site)
        node.on_crash()

    def recover(self, site: SiteId) -> None:
        """Bring a crashed ``site`` back (crash-recovery model)."""
        node = self.nodes[site]
        if not node.crashed:
            return
        node.crashed = False
        self.network.recover(site)
        self.trace.record(self._now, "recover", site)
        node.on_recover()

    # -- main loop -------------------------------------------------------------

    def step(self) -> bool:
        """Process one event. Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError("time went backwards")
        self._now = event.time
        self.last_event_time = event.time
        self.events_processed += 1
        event.fn(*event.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        observer: Optional[Callable[[str, float], None]] = None,
    ) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` further events have been processed.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.

        ``observer(label, elapsed_seconds)``, when given, is called after
        every processed event with the event's schedule label and the
        wall-clock duration of its callback — the hook the opt-in
        profiler in :mod:`repro.obs.profile` aggregates. It changes no
        event history.

        The loop executes whole same-timestamp *cohorts*
        (:meth:`EventQueue.pop_cohort`): the clock is written once per
        cohort instead of once per event, and the heap is only consulted
        between cohorts. Events scheduled at the current instant from
        inside a cohort form the *next* cohort at the same timestamp
        (their sequence numbers are strictly larger), so the fired order
        is exactly the per-event ``(time, seq)`` order of :meth:`step` —
        cohort execution replays the same history byte-for-byte.

        Clock semantics: when ``until`` is given and the loop stops because
        the queue drained *or* the next event lies beyond ``until``, the
        clock advances to ``until`` (both stop paths behave identically, so
        ``sim.now`` always equals ``until`` afterwards). When the loop
        stops because ``max_events`` ran out, the clock stays at the last
        processed event — the run is mid-flight, not "caught up to"
        ``until``. If a callback raises, the unfired remainder of its
        cohort is requeued (original times and sequence numbers) before
        the exception propagates, so the queue still holds every pending
        event.
        """
        pop_cohort = self._queue.pop_cohort
        # The budget counts down to zero; without max_events it starts
        # below zero and never reaches it.
        start = -1 if max_events is None else max(max_events, 0)
        budget = start
        caught_up = True
        buf: list = []
        cohort: list = buf
        event: Optional[Event] = None
        perf = perf_counter
        try:
            while budget:
                event = None
                cohort = pop_cohort(until, buf)
                if not cohort:
                    break
                self._now = cohort[0].time
                for event in cohort:
                    # Re-check: an earlier cohort member may have
                    # cancelled this one after it was popped.
                    if event.cancelled:
                        continue
                    if not budget:
                        # Budget ran out mid-cohort: requeue the unfired
                        # tail (this event included).
                        self._queue.requeue(cohort[cohort.index(event) :])
                        event = None
                        break
                    budget -= 1
                    if observer is None:
                        event.fn(*event.args)
                    else:
                        t0 = perf()
                        event.fn(*event.args)
                        observer(event.label, perf() - t0)
            else:
                # Budget ran out: the run is mid-flight, the clock stays.
                caught_up = False
        except BaseException:
            # A callback raised: put the unfired tail of the current
            # cohort back so the queue stays complete.
            if event is not None:
                pos = cohort.index(event)
                self._queue.requeue(cohort[pos + 1 :])
            raise
        finally:
            # Keep the counters truthful even when a callback raises; at
            # this point _now is still the last processed event's time.
            processed = start - budget
            self.events_processed += processed
            if processed:
                self.last_event_time = self._now
        if caught_up and until is not None and until > self._now:
            self._now = until

    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)
