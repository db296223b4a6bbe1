"""Outside-in span tracer for the ``repro`` layers.

The tracer never edits ``src/``: :meth:`Tracer.install` replaces the
public entry points of each layer (plus the private callbacks the event
loop fires directly, such as timer and retransmit handlers) with timing
wrappers, and :meth:`Tracer.uninstall` puts the originals back. A
module-level function is also rebound in every loaded ``repro`` module
that imported it by name (``from repro.net.wire import encode_frame``),
so callers that bound the name at import time are traced too.

A span opens only where control crosses into another layer; a call that
stays inside the layer of the innermost open span is counted but not
timed. Each span records (entry point, start, end, parent span) in flat
arrays, so a 10^6-span run stays a few tens of MB. A layer's self time
is the duration of its spans minus the part their child spans cover;
the benchmark opens one root span (layer ``other``) around each
repetition, so the self times of all layers sum to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer the tracer attributes time to, in report order. ``setup``
#: is the construction call of each workload (the one ``setup_s`` times);
#: ``other`` is time under no wrapped entry point: runner glue, the
#: asyncio loop and its idle waits, and the benchmark's own code.
LAYERS = (
    "sim.event",
    "sim.network",
    "sim.transport",
    "core",
    "locks",
    "locks.frontend",
    "locks.substrate",
    "net.wire",
    "net.socket",
    "net.trace",
    "net.merge",
    "obs.monitor",
    "explore",
    "explore.clone",
    "explore.apply",
    "explore.fingerprint",
    "verify.check",
    "metrics.summarize",
    "setup",
    "other",
)

#: (module, class or ``None`` for module functions, names, layer).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.sim.event", "EventQueue",
     ("push", "pop_cohort", "pop_due", "requeue", "peek_time"), "sim.event"),
    ("repro.sim.event", "Event", ("cancel",), "sim.event"),
    ("repro.sim.simulator", "Simulator",
     ("run", "step", "schedule", "schedule_call", "_schedule_at"), "sim.event"),
    ("repro.sim.simulator", "Simulator",
     ("send", "send_many", "raw_send", "_deliver_event", "_dispatch",
      "deliver_protocol", "deliver_local", "crash", "recover"), "sim.network"),
    ("repro.sim.network", "Network", ("send", "send_many", "_deliver"),
     "sim.network"),
    ("repro.sim.node", "Node", ("send", "send_fanout"), "sim.network"),
    ("repro.sim.transport", "ReliableTransport",
     ("send", "on_network_deliver", "_on_rto", "_send_pure_ack",
      "reset_site", "unacked_counts"), "sim.transport"),
    # Timer actions belong to the protocol site that armed them.
    ("repro.sim.node", "Node", ("_fire_timer",), "core"),
    ("repro.mutex.base", "MutexSite",
     ("submit_request", "release_cs", "_leave_cs"), "core"),
    ("repro.core.site", "CaoSinghalSite", ("on_message",), "core"),
    ("repro.core.faults", "FaultTolerantSite",
     ("notify_failure", "notify_recovery", "reset_after_recovery",
      "complete_rejoin"), "core"),
    ("repro.locks.service", "LockService",
     ("acquire", "submit", "_resubmit", "_on_site_crash", "_on_site_recover",
      "finalize_degraded", "on_grant", "on_release"), "locks"),
    ("repro.locks.router", "ShardRouter",
     ("shard_of", "home_site", "place"), "locks"),
    ("repro.locks.frontend", "ShardFrontEnd",
     ("enqueue", "on_granted", "on_site_crashed", "on_site_recovered",
      "_serve_batch", "_grant_head", "_release_one", "_batch_done",
      "_lease_expire", "_release_shard"), "locks.frontend"),
    ("repro.locks.substrate", "ShardView",
     ("schedule_call", "send", "raw_send", "deliver_local",
      "deliver_protocol", "crash", "recover", "is_crashed"),
     "locks.substrate"),
    ("repro.locks.substrate", "_ShardPort",
     ("on_start", "on_message", "on_crash", "on_recover"), "locks.substrate"),
    ("repro.net.wire", None, ("encode_frame", "decode_frame"), "net.wire"),
    ("repro.net.substrate", "NetSubstrate",
     ("send", "raw_send", "datagram_received", "deliver_protocol",
      "deliver_local", "schedule_call", "start_nodes", "idle"), "net.socket"),
    ("repro.net.substrate", "_UdpProtocol", ("datagram_received",),
     "net.socket"),
    ("repro.net.substrate", "JsonlTraceWriter", ("record", "close"),
     "net.trace"),
    ("repro.net.merge", None, ("merge_shard_files", "merge_records"),
     "net.merge"),
    ("repro.obs.monitor", "ProtocolMonitor", ("replay",), "obs.monitor"),
    ("repro.verify.explore.search", None, ("explore",), "explore"),
    ("repro.verify.explore.world", "_World", ("clone",), "explore.clone"),
    ("repro.verify.explore.world", "_World", ("apply",), "explore.apply"),
    ("repro.verify.explore.world", "_World", ("fingerprint",),
     "explore.fingerprint"),
    ("repro.verify.invariants", None,
     ("check_mutual_exclusion", "check_progress", "check_sequential_per_site"),
     "verify.check"),
    ("repro.verify.checker", None, ("check_quiescent",), "verify.check"),
    ("repro.locks.service", "LockService", ("verify",), "verify.check"),
    ("repro.metrics.summary", None, ("summarize",), "metrics.summarize"),
    ("repro.experiments.runner", None, ("build_run",), "setup"),
    ("repro.locks.service", "LockService", ("__init__",), "setup"),
    ("repro.net.site_proc", None, ("build_substrate",), "setup"),
    ("repro.verify.explore.world", None, ("build_world",), "setup"),
)


def _post_pop_cohort(extra: Dict[str, int], args, result) -> None:
    if result:
        extra["cohorts"] += 1
        extra["cohort_events"] += len(result)


def _post_send_many(extra: Dict[str, int], args, result) -> None:
    extra["fanout_calls"] += 1
    extra["fanout_dsts"] += len(args[2])


def _post_encode_frame(extra: Dict[str, int], args, result) -> None:
    extra["frame_bytes"] += len(result)


def _post_on_message(extra: Dict[str, int], args, result) -> None:
    key = "msg." + getattr(args[2], "type_name", type(args[2]).__name__)
    extra[key] = extra.get(key, 0) + 1


def _call(fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


#: Entry points whose arguments or result feed a ratio.
POST_HOOKS: Dict[str, Callable] = {
    "EventQueue.pop_cohort": _post_pop_cohort,
    "Network.send_many": _post_send_many,
    "encode_frame": _post_encode_frame,
    "CaoSinghalSite.on_message": _post_on_message,
}


class Tracer:
    """Span recorder over the ``repro`` entry points in :data:`ENTRY_POINTS`.

    Use as ``install()``, ``root(fn, ...)`` for one repetition, read the
    counters and spans, then ``uninstall()``. :meth:`install` clears the
    counters and spans in place (the wrappers hold references to the
    containers), so each installation reports one repetition.
    """

    def __init__(self) -> None:
        self.entry_names: List[str] = []
        self.entry_layers: List[str] = []
        self.calls: List[int] = []
        self.inclusive: List[float] = []
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.extra: Dict[str, int] = {}
        self.stack: list = []
        self.span_entry = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._saved: List[Tuple[object, str, object]] = []
        self._root_wrapper: Optional[Callable] = None
        self.installed = False
        self._reset()

    # -- per-repetition state ---------------------------------------------

    def _reset(self) -> None:
        self.calls[:] = [0] * len(self.calls)
        self.inclusive[:] = [0.0] * len(self.inclusive)
        for layer in LAYERS:
            self.self_s[layer] = 0.0
        self.extra.clear()
        self.extra.update(
            cohorts=0, cohort_events=0, fanout_calls=0, fanout_dsts=0,
            frame_bytes=0,
        )
        del self.stack[:]
        for arr in (self.span_entry, self.span_parent,
                    self.span_start, self.span_end):
            del arr[:]

    def root(self, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` under the root span (layer
        ``other``) and return its result."""
        if self._root_wrapper is None:
            raise RuntimeError("tracer not installed")
        return self._root_wrapper(fn, *args, **kwargs)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; raises if one no longer exists."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        originals: Dict[int, Tuple[object, Callable]] = {}
        for module_name, class_name, names, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for name in names:
                label = f"{class_name}.{name}" if class_name else name
                if class_name is not None:
                    if name not in owner.__dict__:
                        raise RuntimeError(f"entry point {label} not found")
                    original = owner.__dict__[name]
                else:
                    original = getattr(owner, name)
                if not callable(original):
                    raise RuntimeError(f"entry point {label} is not a function")
                wrapper = self._wrap(original, layer, label)
                self._saved.append((owner, name, original))
                setattr(owner, name, wrapper)
                if class_name is None:
                    originals[id(original)] = (original, wrapper)
        # Rebind module-level functions where other modules imported them.
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._root_wrapper = self._wrap(_call, "other", "root")
        self.installed = True
        self._reset()

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        self.entry_names.clear()
        self.entry_layers.clear()
        self.calls.clear()
        self.inclusive.clear()
        self._root_wrapper = None
        self.installed = False

    def _wrap(self, fn: Callable, layer: str, label: str) -> Callable:
        eid = len(self.entry_names)
        self.entry_names.append(label)
        self.entry_layers.append(layer)
        self.calls.append(0)
        self.inclusive.append(0.0)
        layer = sys.intern(layer)
        hook = POST_HOOKS.get(label)
        perf = time.perf_counter
        calls = self.calls
        inclusive = self.inclusive
        self_s = self.self_s
        extra = self.extra
        stack = self.stack
        entries = self.span_entry
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[eid] += 1
            if stack and stack[-1][0] is layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(starts)
                entries.append(eid)
                parents.append(stack[-1][2] if stack else -1)
                ends.append(0.0)
                frame = [layer, 0.0, idx]
                stack.append(frame)
                t0 = perf()
                starts.append(t0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    duration = t1 - t0
                    self_s[layer] += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                    ends[idx] = t1
                    inclusive[eid] += duration
            if hook is not None:
                hook(extra, args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def write_spans(self, path: Path, meta: dict) -> None:
        """Write this repetition's spans: a JSON header line naming the
        entry points, then the four arrays in native binary layout
        (``entry`` and ``parent`` as int32, ``start`` and ``end`` as
        float64 ``perf_counter`` seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta)
        header.update(
            spans=len(self.span_start),
            entries=self.entry_names,
            layers=self.entry_layers,
            arrays=["entry:i", "parent:i", "start:d", "end:d"],
        )
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.span_entry, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
