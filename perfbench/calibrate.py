"""Host-speed reference: a fixed pure-Python workload timed between runs.

The benchmark host is shared, and its speed drifts by about ±20% over
minutes while process CPU time stays equal to wall time (the slow-down
is in the CPU itself, not in scheduling). :func:`reference` is a small
discrete-event loop of the same kind of Python as the program under
test: a heap of timestamped events, slotted message objects, method
dispatch, dict and set updates and a fan-out to a quorum of peers. Its
code lives here and never changes with the program, so the time it
takes measures the host alone.

:func:`slowdown` times it for a given span and returns the host's
slowness relative to :data:`NOMINAL_S`; the benchmark divides the CPU
part of each repetition's time by the mean slowness measured just before
and just after it. ``NOTES.md`` has the
measurements behind this.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List

#: Time of one :func:`reference` call on the host the benchmark was
#: tuned on (2 vCPUs of a shared x86-64 VM, CPython 3.11). Only a scale:
#: a figure of ``x`` reference seconds took ``x`` seconds on that host.
NOMINAL_S = 0.1
N_NODES = 25
QUORUM = 5
N_EVENTS = 55_000
#: What :func:`reference` returns; guards against an edit that changes
#: the amount of work without changing :data:`NOMINAL_S`.
CHECKSUM = 163_030


class _Msg:
    __slots__ = ("src", "dst", "kind", "stamp")

    def __init__(self, src: int, dst: int, kind: int, stamp: int) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.stamp = stamp


class _Node:
    __slots__ = ("ident", "clock", "granted", "waiting", "peers")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.clock = 0
        self.granted: Dict[int, int] = {}
        self.waiting: set = set()
        self.peers = [(ident + k * 3) % N_NODES for k in range(1, QUORUM + 1)]

    def handle(self, msg: _Msg, out: List[_Msg]) -> None:
        self.clock = max(self.clock, msg.stamp) + 1
        if msg.kind == 0:  # request: grant it, or queue it
            if self.granted:
                self.waiting.add(msg.src)
            else:
                self.granted[msg.src] = self.clock
                out.append(_Msg(self.ident, msg.src, 1, self.clock))
        elif msg.kind == 1:  # grant: release at once
            out.append(_Msg(self.ident, msg.src, 2, self.clock))
        else:  # release: pass the grant on, or ask the quorum again
            self.granted.pop(msg.src, None)
            if self.waiting:
                nxt = min(self.waiting)
                self.waiting.discard(nxt)
                self.granted[nxt] = self.clock
                out.append(_Msg(self.ident, nxt, 1, self.clock))
            else:
                for peer in self.peers:
                    out.append(_Msg(self.ident, peer, 0, self.clock))


def reference() -> int:
    """Run the fixed loop; returns a checksum of what it did."""
    nodes = [_Node(i) for i in range(N_NODES)]
    heap: list = []
    seq = 0
    for node in nodes:
        for peer in node.peers:
            heapq.heappush(heap, (seq % 7, seq, _Msg(node.ident, peer, 0, 0)))
            seq += 1
    out: List[_Msg] = []
    total = 0
    for _ in range(N_EVENTS):
        when, _, msg = heapq.heappop(heap)
        nodes[msg.dst].handle(msg, out)
        for sent in out:
            seq += 1
            heapq.heappush(heap, (when + 1 + (seq * 2654435761) % 3, seq, sent))
        out.clear()
        total += msg.kind + 1
    return total + seq


def slowdown(min_seconds: float) -> float:
    """Host slowness (1.0 = the tuning host) over at least one reference
    call and at least ``min_seconds`` of them."""
    spent = 0.0
    calls = 0
    while calls == 0 or spent < min_seconds:
        t0 = time.perf_counter()
        check = reference()
        spent += time.perf_counter() - t0
        calls += 1
        if check != CHECKSUM:
            raise RuntimeError(f"reference loop checksum {check}, "
                               f"expected {CHECKSUM}")
    return spent / calls / NOMINAL_S
