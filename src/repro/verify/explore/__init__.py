"""The fault-aware stateless model checker (second-generation explorer).

The first-generation explorer was a single module doing deep-copy DFS
over failure-free worlds. This package keeps its public contract —
``explore`` raises on any safety/liveness failure, ``build_world``
constructs an initial world, ``_ExploreSite`` is the monkeypatchable
default site class — and extends it along three axes (DESIGN.md,
"A fault-aware stateless model checker"):

* :mod:`.search` — sleep-set dynamic partial-order reduction with state
  caching, exact state budgets, and counterexample paths;
* :mod:`.world` — copy-on-write worlds with interned incremental
  fingerprints and a fault-oracle alphabet (crash/detect/recover/readmit, cut/heal)
  bounded by a :class:`~repro.ft.chaos.FaultBudget`;
* :mod:`.counterexample` — shrinking and the JSONL round-trip into
  :class:`~repro.obs.monitor.ProtocolMonitor`.

``from repro.verify.explore import ...`` exposes everything the tests
and the CLI use; ``repro.verify`` re-exports the stable core.
"""

from repro.ft.chaos import FaultBudget
from repro.verify.explore.actions import (
    Action,
    decode_action,
    decode_path,
    encode_action,
    encode_path,
    independent,
)
from repro.verify.explore.counterexample import (
    COUNTEREXAMPLE_KIND,
    counterexample_records,
    export_counterexample,
    load_counterexample,
    replay_counterexample,
    replay_path,
    shrink_path,
)
from repro.verify.explore.search import (
    CounterexampleFound,
    ExplorationResult,
    explore,
)
from repro.verify.explore.world import (
    _check_terminal,
    _ExploreFTSite,
    _ExploreSite,
    _World,
    build_world,
)

__all__ = [
    "Action",
    "COUNTEREXAMPLE_KIND",
    "CounterexampleFound",
    "ExplorationResult",
    "FaultBudget",
    "build_world",
    "counterexample_records",
    "decode_action",
    "decode_path",
    "encode_action",
    "encode_path",
    "explore",
    "export_counterexample",
    "independent",
    "load_counterexample",
    "replay_counterexample",
    "replay_path",
    "shrink_path",
]
