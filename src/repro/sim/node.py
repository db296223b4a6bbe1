"""Node abstraction: a process bound to an execution substrate.

A :class:`Node` is the unit the paper calls a *site*: a process plus the
computer it runs on. Nodes interact with the world only through the narrow
:class:`~repro.substrate.Substrate` interface — send a message, set a
timer, read the clock — which keeps algorithm implementations free of
execution plumbing and makes them read like the paper's pseudo-code. The
same node runs unchanged inside the discrete-event
:class:`~repro.sim.simulator.Simulator` or on real asyncio UDP sockets
(:class:`repro.net.substrate.NetSubstrate`).

All scheduling routes through the substrate's ``(fn, args)`` API
(:meth:`~repro.substrate.Substrate.schedule_call`): timers and
self-sends bind their context as event arguments instead of closures, so
on the simulator the per-message and per-timer cost is one slotted event
allocation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.substrate import SiteId, TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.substrate import Substrate

__all__ = ["Node", "SiteId"]


class Node:
    """Base class for protocol processes.

    Subclasses override :meth:`on_message` (and optionally :meth:`on_start`,
    :meth:`on_crash`, :meth:`on_recover`). The substrate wires the node in
    via :meth:`bind`; until then the node is inert and sending raises.

    The base class declares ``__slots__``; subclasses that want ad-hoc
    attributes simply omit their own ``__slots__`` (they then get a
    ``__dict__`` as usual), while the substrate-facing fields here stay
    slotted.
    """

    __slots__ = ("site_id", "_sim", "crashed")

    def __init__(self, site_id: SiteId) -> None:
        self.site_id = site_id
        self._sim: Optional["Substrate"] = None
        self.crashed = False

    # -- lifecycle ---------------------------------------------------------

    def bind(self, sim: "Substrate") -> None:
        """Attach this node to a substrate. Called once by the substrate."""
        self._sim = sim

    @property
    def sim(self) -> "Substrate":
        """The substrate this node runs on (raises if unbound).

        Named ``sim`` for historical reasons — the discrete-event
        simulator was the only substrate for most of this repo's life —
        and kept because every algorithm reads ``self.sim.trace`` etc.
        :attr:`substrate` is the self-describing alias.
        """
        if self._sim is None:
            raise RuntimeError(f"node {self.site_id} is not bound to a substrate")
        return self._sim

    @property
    def substrate(self) -> "Substrate":
        """Alias for :attr:`sim` under its substrate-era name."""
        return self.sim

    @property
    def now(self) -> float:
        """Current time (substrate clock)."""
        return self.sim.now

    # -- messaging ---------------------------------------------------------

    def send(self, dst: SiteId, message: Any, piggybacked: bool = False) -> None:
        """Send ``message`` to site ``dst``.

        Self-sends bypass the network (the paper charges no message cost
        for a site consulting itself, e.g. a site that belongs to its own
        quorum) and are delivered in the same instant via a zero-delay
        event so handler re-entrancy is still impossible. Everything else
        goes through the substrate's send path, which routes via the
        reliable-channel transport when one is installed.
        """
        if self.crashed:
            return
        sim = self._sim
        if sim is None:
            raise RuntimeError(f"node {self.site_id} is not bound to a substrate")
        if dst == self.site_id:
            sim.schedule_call(
                0.0, sim.deliver_local, (dst, message), "self-deliver"
            )
            return
        type_name = getattr(message, "type_name", None) or type(message).__name__
        sim.send(self.site_id, dst, message, type_name, piggybacked)

    def send_fanout(self, dsts: Any, message: Any) -> None:
        """Send ``message`` to every site in ``dsts``, in order: one
        :meth:`send` per destination, so self-sends and subclass
        overrides behave exactly as in a hand-written loop."""
        for dst in dsts:
            self.send(dst, message)

    def set_timer(
        self, delay: float, action: Callable[[], None], label: str = "timer"
    ) -> TimerHandle:
        """Schedule ``action`` to run after ``delay`` time units.

        Returns the timer handle, which may be cancelled (e.g. a failure
        detector timeout refreshed by a heartbeat). Timer actions are
        suppressed while the node is crashed.
        """
        return self.sim.schedule_call(delay, self._fire_timer, (action,), label)

    def _fire_timer(self, action: Callable[[], None]) -> None:
        """Run a timer action unless this node is (now) crashed."""
        if not self.crashed:
            action()

    # -- hooks for subclasses ----------------------------------------------

    def on_start(self) -> None:
        """Called once when the substrate starts."""

    def on_message(self, src: SiteId, message: Any) -> None:
        """Called for every delivered message. Subclasses must override."""
        raise NotImplementedError

    def on_crash(self) -> None:
        """Called when the failure injector crashes this node."""

    def on_recover(self) -> None:
        """Called when the failure injector recovers this node."""
