"""The delay-optimal quorum-based mutual exclusion algorithm (Section 3).

Every site plays two roles at once:

* **requester** — runs steps A.1 (send requests), B (enter the CS when all
  replies are held), and C (exit: honour transfers by forwarding replies
  directly to the next sites, then release every arbiter);
* **arbiter** — manages one permission (its ``lock``), a priority queue of
  waiting requests, and the inquire/fail/yield/transfer traffic (A.2–A.5).

The paper's formal pseudo-code is OCR-damaged in the source scan; the rules
below are reconstructed from the prose of Section 3.2 and pinned down by
the per-case message counts of Section 5.2 (see DESIGN.md, "Protocol
reconstruction notes"). The resulting arbiter rule on a ``request(sn,i)``
arriving while locked is:

1. the newcomer is sent ``fail`` unless it beats **both** the lock holder
   and every queued request (Section 5.2 counts a ``fail`` in cases 1, 3,
   and 5 — including case 1 where the queue is empty, so the newcomer
   itself must be the recipient);
2. if the newcomer becomes the new queue head, the displaced head is sent
   ``fail`` if it had not already been failed (it had not iff it beat the
   lock holder — case 4);
3. if the newcomer becomes the new queue head, the lock holder is sent
   ``transfer(i, j)`` so it can forward the permission directly on exit —
   piggybacked with ``inquire(j)`` iff the newcomer also beats the lock
   holder and no inquire is already outstanding (one is outstanding iff
   the old head beat the lock holder).

The delay optimality comes from step C: the exiting site sends the
``reply`` *directly* to each arbiter's next-in-line (one message delay,
``T``) instead of the Maekawa route release→arbiter→reply (``2T``).

Setting ``enable_transfer=False`` disables the forwarding machinery
entirely (no transfers, releases carry ``max``), which degenerates the
protocol to a Maekawa-style ``2T`` path — the E9 ablation.

**Tenure epochs (reconstruction extension).** The paper relies on FIFO
channels and request timestamps to discard stale control traffic. Once
replies travel through proxies, that is insufficient: the exhaustive
interleaving explorer (``repro.verify.explore``) produced a run where a
``transfer`` sent during a holder's first tenure at an arbiter is
delivered after the holder yielded and *re-acquired* the same arbiter —
same request timestamp, same holder, different tenure — and honouring it
releases a permission to a request that was already served. Every grant
therefore carries the arbiter's tenure number (``epoch``), transfers and
inquires carry the tenure they belong to, and holders honour only
current-tenure instructions. See DESIGN.md, "Reproduction findings".
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.messages import (
    Fail,
    Inquire,
    Release,
    Reply,
    Request,
    Transfer,
    Yield,
)
from repro.core.state import ArbiterState, RequesterState
from repro.errors import ProtocolError
from repro.mutex.base import DurationSpec, MutexSite, RunListener, SiteState
from repro.common import Priority, bundle_or_single
from repro.substrate import SiteId


class CaoSinghalSite(MutexSite):
    """One site of the delay-optimal algorithm.

    Parameters
    ----------
    site_id:
        This site's identifier.
    quorum:
        The site's ``req_set`` (from any intersecting quorum system).
    cs_duration:
        CS hold time (constant or sampler), the paper's ``E``.
    listener:
        Metrics observer.
    enable_transfer:
        Ablation switch; ``False`` disables direct forwarding (see module
        docstring).
    """

    algorithm_name = "cao-singhal"

    __slots__ = (
        "quorum",
        "_quorum_sorted",
        "enable_transfer",
        "arbiter",
        "req",
        "_pending_releases",
        "max_seq_seen",
    )

    def __init__(
        self,
        site_id: SiteId,
        quorum: Iterable[SiteId],
        cs_duration: DurationSpec = 0.1,
        listener: Optional[RunListener] = None,
        enable_transfer: bool = True,
    ) -> None:
        super().__init__(site_id, cs_duration, listener)
        self.quorum = frozenset(quorum)
        if not self.quorum:
            raise ProtocolError(f"site {site_id} has an empty quorum")
        #: The quorum in its canonical (sorted) broadcast order, interned
        #: once — the request/release fanouts iterate it every CS cycle.
        #: Must be refreshed wherever ``quorum`` is reassigned (see
        #: FaultTolerantSite._adopt_new_quorum).
        self._quorum_sorted = tuple(sorted(self.quorum))
        self.enable_transfer = enable_transfer
        self.arbiter = ArbiterState()
        self.req = RequesterState()
        #: Out-of-order releases, keyed by the releasing request.
        #: With direct forwarding a beneficiary can enter and exit the CS
        #: so fast that its release overtakes the proxy's release (which is
        #: what installs the beneficiary as this arbiter's lock holder).
        #: Such a release is buffered and applied the moment the lock
        #: catches up. The paper does not discuss this race; buffering is
        #: the standard remedy and preserves all protocol invariants.
        self._pending_releases: dict = {}
        #: Lamport-style clock: highest sequence number sent, received,
        #: or observed (Section 3.1).
        self.max_seq_seen = 0

    # ------------------------------------------------------------------
    # Requester role
    # ------------------------------------------------------------------

    def _begin_request(self) -> None:
        """Step A.1: timestamp the request and ask every quorum member."""
        self.max_seq_seen += 1
        priority = Priority(self.max_seq_seen, self.site_id)
        self.req.reset_for(priority, self.quorum)
        # One frozen Request shared across the whole fanout: the message
        # is an immutable value object, so every member can receive the
        # same instance (saves |quorum|-1 allocations per CS cycle).
        self.send_fanout(self._quorum_sorted, Request(priority))

    def _record_reply(self, msg: Reply) -> None:
        """Step A.6 plus the entry check of step B."""
        if self.req.priority is None or msg.grantee != self.req.priority:
            return  # reply for a finished request (late forwarded reply)
        if self.state is not SiteState.REQUESTING:
            return
        if msg.arbiter not in self.req.replied:
            raise ProtocolError(
                f"site {self.site_id} got reply on behalf of non-quorum "
                f"arbiter {msg.arbiter}"
            )
        self.req.replied[msg.arbiter] = True
        self.req.grant_epoch[msg.arbiter] = msg.epoch
        if self.req.all_replied:
            # Entering answers any deferred inquires implicitly: the
            # releases sent at exit resolve them at the arbiters.
            self._enter_cs()
            return
        if msg.arbiter in self.req.inq_pending:
            epoch = self.req.inq_pending.pop(msg.arbiter)
            self._consider_inquire(msg.arbiter, epoch)

    def _record_fail(self, msg: Fail) -> None:
        """Step A.7: mark failed and answer deferred inquires with yields."""
        if self.req.priority is None or msg.target != self.req.priority:
            return  # stale fail for a previous request
        if self.state is not SiteState.REQUESTING:
            return  # we already hold everything; the fail is obsolete
        self.req.failed = True
        for arbiter in sorted(self.req.inq_pending):
            if self.req.replied.get(arbiter):
                epoch = self.req.inq_pending.pop(arbiter)
                if epoch == self.req.grant_epoch.get(arbiter):
                    self._yield_to(arbiter)
                # An inquire from another tenure is dead either way.

    def _record_inquire(self, msg: Inquire) -> None:
        """Step A.3 entry point."""
        if self.req.priority is None or msg.target != self.req.priority:
            return  # stale inquire ("arrives after release": ignore)
        if self.state is not SiteState.REQUESTING:
            return  # in the CS; the release will answer the arbiter
        self._consider_inquire(msg.arbiter, msg.epoch)

    def _consider_inquire(self, arbiter: SiteId, epoch: int) -> None:
        """Step A.3 body: yield now, defer, or drop a cross-tenure relic."""
        if self.req.replied.get(arbiter):
            if epoch != self.req.grant_epoch.get(arbiter):
                return  # inquire about another tenure of this permission
            if self.req.failed:
                self._yield_to(arbiter)
                return
        # Either the reply has not arrived yet (it may be travelling via a
        # proxy on a different channel), or we have not failed and may
        # still enter the CS. Defer, remembering the inquired tenure.
        self.req.inq_pending[arbiter] = epoch

    def _yield_to(self, arbiter: SiteId) -> None:
        """Give an arbiter's permission back (and stop acting as its proxy)."""
        assert self.req.priority is not None
        self.req.replied[arbiter] = False
        self.req.failed = True
        self.req.tran_stack.drop_arbiter(arbiter)
        epoch = self.req.grant_epoch.get(arbiter, 0)
        self.send(arbiter, Yield(self.req.priority, epoch))

    def _record_transfer(self, msg: Transfer) -> None:
        """Step A.5: accept a forwarding instruction if still relevant."""
        if self.req.priority is None or msg.holder != self.req.priority:
            return  # outdated transfer (we already released this arbiter)
        if not self.req.replied.get(msg.arbiter):
            return  # outdated: we yielded (or never got) this permission
        if msg.holder_epoch != self.req.grant_epoch.get(msg.arbiter):
            # A relic of an earlier tenure of this very permission
            # (yield-and-reacquire); honouring it would hand the arbiter's
            # permission to a request of the previous tenure's queue.
            return
        self.req.tran_stack.push(msg)

    def _exit_protocol(self) -> None:
        """Step C: forward replies directly, then release every arbiter."""
        assert self.req.priority is not None
        honoured = {}
        if self.enable_transfer:
            while self.req.tran_stack:
                transfer = self.req.tran_stack.pop()
                self.req.tran_stack.drop_arbiter(transfer.arbiter)
                honoured[transfer.arbiter] = transfer.beneficiary
                # Forwarding opens the beneficiary's tenure: one past the
                # tenure the transfer was issued in.
                self.send(
                    transfer.beneficiary.site,
                    Reply(
                        transfer.arbiter,
                        transfer.beneficiary,
                        self.site_id,
                        transfer.holder_epoch + 1,
                    ),
                )
        priority = self.req.priority
        grant_epoch = self.req.grant_epoch
        honoured_get = honoured.get
        for member in self._quorum_sorted:
            self.send(
                member,
                Release(priority, honoured_get(member), grant_epoch.get(member, 0)),
            )
        self.req.priority = None
        self.req.inq_pending.clear()

    # ------------------------------------------------------------------
    # Arbiter role
    # ------------------------------------------------------------------

    def _handle_request(self, msg: Request) -> None:
        """Step A.2."""
        seq = msg.priority.seq
        if seq > self.max_seq_seen:
            self.max_seq_seen = seq
        arb = self.arbiter
        if arb.is_free:
            if arb.req_queue:
                raise ProtocolError(
                    f"arbiter {self.site_id} is free with a non-empty queue"
                )
            arb.install(msg.priority)
            self.send(
                msg.priority.site,
                Reply(self.site_id, msg.priority, None, arb.epoch),
            )
            return

        newcomer = msg.priority
        old_head = arb.req_queue.head()
        becomes_head = old_head is None or newcomer < old_head

        # Rule 1: fail the newcomer unless it beats both lock and queue.
        if newcomer > arb.lock or (old_head is not None and newcomer > old_head):
            self.send(newcomer.site, Fail(self.site_id, newcomer))

        if becomes_head:
            # Rule 2: the displaced head learns it is no longer next —
            # unless it already failed on arrival (it beat nothing then).
            if old_head is not None and old_head < arb.lock:
                self.send(old_head.site, Fail(self.site_id, old_head))
            # Rule 3: instruct the lock holder, maybe asking it to yield.
            parts: List[object] = []
            if self.enable_transfer:
                parts.append(
                    Transfer(newcomer, self.site_id, arb.lock, arb.epoch)
                )
            inquire_outstanding = old_head is not None and old_head < arb.lock
            if newcomer < arb.lock and not inquire_outstanding:
                parts.append(Inquire(self.site_id, arb.lock, arb.epoch))
            if parts:
                self.send(
                    arb.lock.site, bundle_or_single(*parts), piggybacked=len(parts) > 1
                )

        arb.req_queue.push(newcomer)

    def _handle_yield(self, msg: Yield) -> None:
        """Step A.4: reassign the lock to the best waiting request."""
        arb = self.arbiter
        if msg.yielder != arb.lock or msg.epoch != arb.epoch:
            return  # stale yield for a lock tenure that already ended
        arb.req_queue.push(arb.lock)
        new_lock = arb.req_queue.pop_head()
        if new_lock == msg.yielder:
            raise ProtocolError(
                f"arbiter {self.site_id}: yield from {msg.yielder} but no "
                "higher-priority request is waiting"
            )
        arb.install(new_lock)
        self._grant(new_lock)

    def _grant(self, grantee: Priority) -> None:
        """Send ``reply`` to the new lock holder, piggybacking a transfer
        for the next-in-line when one exists (A.4 and C.2)."""
        arb = self.arbiter
        parts: List[object] = [Reply(self.site_id, grantee, None, arb.epoch)]
        head = arb.req_queue.head()
        if head is not None and self.enable_transfer:
            parts.append(Transfer(head, self.site_id, grantee, arb.epoch))
        self.send(grantee.site, bundle_or_single(*parts), piggybacked=len(parts) > 1)

    def _handle_release(self, src: SiteId, msg: Release) -> None:
        """Step C.2: account for a finished CS execution.

        A release whose sender is not (yet) the recorded lock holder is an
        out-of-order release from a forwarding chain (see
        ``_pending_releases``); it is buffered until the proxy's release
        installs the sender as lock holder, then replayed.
        """
        arb = self.arbiter
        if arb.lock != msg.releaser:
            if msg.releaser in arb.req_queue:
                # The sender is still queued here, so its permission came
                # through a forwarding chain this arbiter has not yet
                # heard about. Buffer and replay.
                self._pending_releases[msg.releaser] = msg
                return
            raise ProtocolError(
                f"arbiter {self.site_id}: release from {msg.releaser} but "
                f"lock is {arb.lock}"
            )
        if msg.transferred_to is not None:
            # The permission travelled directly to the beneficiary.
            beneficiary = msg.transferred_to
            if not arb.req_queue.remove(beneficiary):
                raise ProtocolError(
                    f"arbiter {self.site_id}: transferred-to request "
                    f"{beneficiary} is not queued"
                )
            arb.install(beneficiary)
            stashed = self._pending_releases.pop(beneficiary, None)
            if stashed is not None:
                # The beneficiary already exited; its buffered release is
                # now in order. No point sending it a transfer.
                self._handle_release(beneficiary.site, stashed)
                return
            head = arb.req_queue.head()
            if head is not None and self.enable_transfer:
                parts: List[object] = [
                    Transfer(head, self.site_id, beneficiary, arb.epoch)
                ]
                if head < beneficiary:
                    # The queue head outranks the freshly installed lock
                    # holder; any inquire sent during the previous tenure
                    # died with it, so this tenure needs its own (same
                    # rule as A.2, applied at the lock handover).
                    parts.append(Inquire(self.site_id, beneficiary, arb.epoch))
                self.send(
                    beneficiary.site,
                    bundle_or_single(*parts),
                    piggybacked=len(parts) > 1,
                )
            return
        # Permission returned to the arbiter: grant the best waiter, if any.
        if not arb.req_queue:
            arb.lock = Priority.maximum()
            return
        new_lock = arb.req_queue.pop_head()
        arb.install(new_lock)
        self._grant(new_lock)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def on_message(self, src: SiteId, message: object) -> None:
        """Route one (possibly piggybacked) protocol message.

        The seven core message classes dispatch on exact class identity
        (no per-message ``parts`` getattr, no tuple allocation, no
        isinstance chain); anything else — piggyback bundles and the
        extra message types of subclasses — falls through to
        :meth:`_dispatch_part`, which remains the extensible per-part
        entry point.
        """
        cls = message.__class__
        if cls is Request:
            self._handle_request(message)
        elif cls is Reply:
            self._record_reply(message)
        elif cls is Release:
            self._handle_release(src, message)
        elif cls is Inquire:
            self._record_inquire(message)
        elif cls is Fail:
            self._record_fail(message)
        elif cls is Yield:
            self._handle_yield(message)
        elif cls is Transfer:
            self._record_transfer(message)
        else:
            for part in getattr(message, "parts", (message,)):
                self._dispatch_part(src, part)

    def _dispatch_part(self, src: SiteId, part: object) -> None:
        if isinstance(part, Request):
            self._handle_request(part)
        elif isinstance(part, Reply):
            self._record_reply(part)
        elif isinstance(part, Release):
            self._handle_release(src, part)
        elif isinstance(part, Inquire):
            self._record_inquire(part)
        elif isinstance(part, Fail):
            self._record_fail(part)
        elif isinstance(part, Yield):
            self._handle_yield(part)
        elif isinstance(part, Transfer):
            self._record_transfer(part)
        else:
            raise ProtocolError(
                f"site {self.site_id} received unknown message {part!r}"
            )
