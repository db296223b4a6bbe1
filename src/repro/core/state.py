"""Per-site data structures of the delay-optimal algorithm (Section 3.1).

The paper names five structures: ``lock``, ``req_queue``, ``inq_queue``,
``tran_stack``, and the ``replied``/``failed`` request-side flags. They are
small (bounded by the quorum size and the number of sites), so the
implementations favour clarity and cheap removal over asymptotics:
``RequestQueue`` is a sorted list, ``TranStack`` a plain list used LIFO.
"""

from __future__ import annotations

import bisect
from dataclasses import field
from typing import Dict, List, Optional, Set

from repro.core.messages import Transfer
from repro.common import Priority, slotted_dataclass

SiteId = int


#: Bits reserved for the site id in a packed queue key. 2^32 sites is
#: far beyond any simulated system; the guard in :meth:`RequestQueue.push`
#: keeps the encoding honest.
_SITE_BITS = 32
_SITE_LIMIT = 1 << _SITE_BITS


class RequestQueue:
    """The arbiter's priority queue of waiting requests (``req_queue``).

    Kept sorted ascending; the head (index 0) is the highest-priority
    waiting request. Supports the removal patterns the protocol needs:
    pop-head, remove-by-exact-priority, remove-by-site.

    Array-encoded internally: alongside the :class:`Priority` objects the
    queue keeps a parallel ``list[int]`` of packed ``(seq << 32) | site``
    keys. Packed keys order exactly like the paper's ``(seq, site)``
    lexicographic rule, so every bisect runs C integer comparisons
    instead of calling ``Priority.__lt__`` per probe — the queue is on
    the arbiter's per-message hot path. The iteration/head/pop API still
    yields the shared immutable :class:`Priority` objects.
    """

    __slots__ = ("_keys", "_items")

    def __init__(self) -> None:
        self._keys: List[int] = []
        self._items: List[Priority] = []

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, priority: Priority) -> bool:
        keys = self._keys
        key = (priority.seq << _SITE_BITS) | priority.site
        idx = bisect.bisect_left(keys, key)
        return idx < len(keys) and keys[idx] == key

    def __iter__(self):
        return iter(self._items)

    def push(self, priority: Priority) -> None:
        """Insert keeping ascending (highest priority first) order."""
        site = priority.site
        if not 0 <= site < _SITE_LIMIT and not priority.is_max:
            # The free-lock sentinel's (max, max) fields exceed the
            # packed layout, but its key still sorts after every
            # in-range key (the seq term dominates), so it passes.
            raise ValueError(f"site id {site} outside the packed-key range")
        key = (priority.seq << _SITE_BITS) | site
        idx = bisect.bisect_left(self._keys, key)
        self._keys.insert(idx, key)
        self._items.insert(idx, priority)

    def head(self) -> Optional[Priority]:
        """Highest-priority waiting request, or ``None``."""
        return self._items[0] if self._items else None

    def pop_head(self) -> Priority:
        """Remove and return the highest-priority waiting request."""
        del self._keys[0]
        return self._items.pop(0)

    def remove(self, priority: Priority) -> bool:
        """Remove an exact entry; returns whether it was present."""
        keys = self._keys
        key = (priority.seq << _SITE_BITS) | priority.site
        idx = bisect.bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            del keys[idx]
            del self._items[idx]
            return True
        return False

    def remove_site(self, site: SiteId) -> Optional[Priority]:
        """Remove the entry of ``site`` (at most one exists); return it."""
        for idx, item in enumerate(self._items):
            if item.site == site:
                del self._keys[idx]
                return self._items.pop(idx)
        return None

    def clone(self) -> "RequestQueue":
        """Independent copy (entries are immutable and shared)."""
        new = RequestQueue.__new__(RequestQueue)
        new._keys = list(self._keys)
        new._items = list(self._items)
        return new

    def __repr__(self) -> str:
        return f"RequestQueue({[str(p) for p in self._items]})"


class TranStack:
    """The requester-side stack of pending ``transfer`` instructions.

    LIFO order matters: an arbiter may send several transfers as its queue
    head changes (out-of-order request arrivals), and only the most recent
    one per arbiter reflects that arbiter's true next-in-line. On CS exit
    the stack is popped and, per the paper, after honouring a transfer all
    remaining entries from the same arbiter are discarded.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: List[Transfer] = []

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self):
        return iter(self._items)

    def push(self, transfer: Transfer) -> None:
        """Record a transfer instruction."""
        self._items.append(transfer)

    def pop(self) -> Transfer:
        """Remove and return the most recent instruction."""
        return self._items.pop()

    def drop_arbiter(self, arbiter: SiteId) -> int:
        """Discard every instruction from ``arbiter``; returns how many.

        Used when yielding that arbiter's permission (the yielder must no
        longer forward it) and after honouring the arbiter's most recent
        transfer on CS exit.
        """
        before = len(self._items)
        self._items = [t for t in self._items if t.arbiter != arbiter]
        return before - len(self._items)

    def drop_beneficiary(self, site: SiteId) -> int:
        """Discard instructions benefiting ``site`` (Section 6 cleanup)."""
        before = len(self._items)
        self._items = [t for t in self._items if t.beneficiary.site != site]
        return before - len(self._items)

    def clear(self) -> None:
        """Empty the stack (start of a new request)."""
        self._items.clear()

    def clone(self) -> "TranStack":
        """Independent copy (entries are immutable and shared)."""
        new = TranStack.__new__(TranStack)
        new._items = list(self._items)
        return new

    def __repr__(self) -> str:
        return (
            "TranStack(["
            + ", ".join(f"{t.beneficiary}@{t.arbiter}" for t in self._items)
            + "])"
        )


@slotted_dataclass
class ArbiterState:
    """Arbiter-role state: who locks this site's permission and who waits.

    ``epoch`` numbers lock tenures: it increments every time the lock is
    granted to a request (directly, via yield reassignment, or via a
    release installing a transfer beneficiary). Grants, transfers,
    inquires, and yields all carry the tenure they belong to, which is
    what lets receivers discard traffic from an earlier tenure of the
    *same* request — a distinction neither FIFO channels nor request
    timestamps can make once replies travel through proxies (see
    ``repro.core.site``).
    """

    lock: Priority = field(default_factory=Priority.maximum)
    req_queue: RequestQueue = field(default_factory=RequestQueue)
    epoch: int = 0

    def install(self, priority: Priority) -> int:
        """Assign the lock to ``priority``, opening a new tenure."""
        self.lock = priority
        self.epoch += 1
        return self.epoch

    @property
    def is_free(self) -> bool:
        """True when no request holds this arbiter's permission."""
        return self.lock.is_max

    def clone(self) -> "ArbiterState":
        """Independent copy sharing the immutable priorities.

        The interleaving explorer branches worlds thousands of times per
        second; a hand-rolled clone avoids ``copy.deepcopy``'s recursive
        introspection while staying exactly as deep as mutation requires.
        """
        return ArbiterState(
            lock=self.lock, req_queue=self.req_queue.clone(), epoch=self.epoch
        )


@slotted_dataclass
class RequesterState:
    """Requester-role state for the site's current CS request."""

    priority: Optional[Priority] = None
    replied: Dict[SiteId, bool] = field(default_factory=dict)
    #: Tenure under which each arbiter's permission is held (valid while
    #: the matching ``replied`` flag is True).
    grant_epoch: Dict[SiteId, int] = field(default_factory=dict)
    failed: bool = False
    #: Deferred inquires: arbiter -> tenure inquired (reply pending or
    #: undecided at receipt time).
    inq_pending: Dict[SiteId, int] = field(default_factory=dict)
    tran_stack: TranStack = field(default_factory=TranStack)

    def reset_for(self, priority: Priority, quorum) -> None:
        """Re-initialize for a new request (algorithm step A.1)."""
        self.priority = priority
        self.replied = {site: False for site in quorum}
        self.grant_epoch = {}
        self.failed = False
        self.inq_pending.clear()
        self.tran_stack.clear()

    @property
    def all_replied(self) -> bool:
        """True when every quorum member's permission is held (step B)."""
        return bool(self.replied) and all(self.replied.values())

    def clone(self) -> "RequesterState":
        """Independent copy sharing the immutable priorities/transfers."""
        return RequesterState(
            priority=self.priority,
            replied=dict(self.replied),
            grant_epoch=dict(self.grant_epoch),
            failed=self.failed,
            inq_pending=dict(self.inq_pending),
            tran_stack=self.tran_stack.clone(),
        )
