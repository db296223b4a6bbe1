"""The state-space search: sleep-set DPOR over explorable worlds.

The search enumerates every reachable protocol state of a configuration
and checks, on every path:

* **safety** — at most one site is ever inside the CS (Theorem 1), on
  every prefix of every interleaving (checked online by the world's
  listener, so a violation aborts at the exact offending transition);
* **liveness** — every terminal state (no deliverable message, no
  pending timer, no pending fault-oracle step) has served every
  submitted request that fault accounting does not excuse, with all
  live arbiters free (Theorems 2-3: a terminal state with waiting
  requests *is* a deadlock).

**Reduction.** With ``dpor=True`` (the default) the search prunes
commuting interleavings with *sleep sets* (Godefroid): after exploring
action ``a`` from a state, every sibling branch carries ``a`` in its
sleep set for as long as the branch only executes actions independent
of ``a`` — re-executing ``a`` there would reach a permutation of an
already-covered path. Sleep sets prune redundant *transitions*, never
*states*: every reachable state is still visited, so safety and
liveness verdicts — and even the terminal-state fingerprint set — are
identical to the unreduced search (pinned differentially in
``tests/test_explore_dpor.py``). Combined with state caching the
per-state record is the set of actions already explored from it; a
revisit under a different sleep set explores exactly the not-yet-covered
remainder (state caching + sleep sets, ibid.).

**Budgets.** ``max_states`` is exact: the search expands at most that
many distinct states and reports ``complete=False`` when the budget (or
``depth_limit``, or the memory-bounded seen set's re-exploration) cut
anything off. The seen set holds at most ``max_seen`` fingerprints with
FIFO eviction — evicting only costs re-exploration, never soundness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.ft.chaos import FaultBudget
from repro.verify.explore.actions import Action, independent
from repro.verify.explore.world import _World, _check_terminal, build_world


@dataclass
class ExplorationResult:
    """Outcome of an exhaustive exploration."""

    states_explored: int
    terminal_states: int
    max_depth: int
    complete: bool  # False when a state/depth budget was exhausted
    #: Transitions executed (world clones + applies). The reduction
    #: ratio of a DPOR run is the unreduced transition count over this.
    transitions: int = 0
    #: Transitions pruned because they were asleep.
    sleep_pruned: int = 0
    #: Expansions that hit an already-visited state.
    dedup_hits: int = 0
    #: Terminal-state fingerprints with structural site parts, so sets
    #: from separate searches compare (``collect_terminals=True`` only).
    terminal_fingerprints: Optional[FrozenSet] = field(
        default=None, repr=False
    )


class CounterexampleFound(Exception):
    """Wraps a property failure together with the action path reaching it.

    ``path`` is the exact sequence of actions from the initial world;
    replaying it through :meth:`_World.apply` reproduces the failure
    deterministically. :mod:`repro.verify.explore.counterexample` turns
    it into a shrunk, monitor-replayable JSONL artifact.
    """

    def __init__(self, cause: Exception, path: List[Action]) -> None:
        super().__init__(f"{cause} (after {len(path)} actions)")
        self.cause = cause
        self.path = path


def _materialize(node) -> List[Action]:
    """Flatten a ``(parent, action)`` cons chain into an action list."""
    out: List[Action] = []
    while node is not None:
        node, action = node
        out.append(action)
    out.reverse()
    return out


def explore(
    quorums: Sequence[Iterable[int]],
    requests_per_site: Optional[Sequence[int]] = None,
    enable_transfer: bool = True,
    max_states: int = 100_000,
    keep_paths: bool = False,
    *,
    dpor: bool = True,
    dedupe: bool = True,
    fault_budget: Optional[FaultBudget] = None,
    depth_limit: Optional[int] = None,
    max_seen: int = 1_000_000,
    collect_terminals: bool = False,
    site_cls: Optional[type] = None,
) -> ExplorationResult:
    """Explore every interleaving; raise on any safety or liveness failure.

    Raises :class:`~repro.errors.MutualExclusionViolation` the moment any
    interleaving overlaps two CS executions, and
    :class:`~repro.errors.DeadlockError` for any terminal state with
    unserved (and unexcused) requests or residual arbiter state. With
    ``keep_paths=True`` any failure is wrapped in
    :class:`CounterexampleFound` carrying the exact action sequence.

    ``fault_budget`` adds crash/recover and link cut/heal actions to the
    exploration alphabet (see :class:`~repro.ft.chaos.FaultBudget`);
    ``dpor=False`` disables the sleep-set reduction (the differential
    baseline); ``dedupe=False`` disables state caching, turning the
    search into a pure interleaving-tree enumeration — with ``dpor=True``
    that is classical *stateless* sleep-set DPOR, with ``dpor=False`` it
    is the fully unreduced search (the benchmark's reduction baseline);
    ``collect_terminals=True`` returns the terminal-state fingerprint
    set for cross-mode comparison.
    """
    initial = build_world(
        quorums,
        requests_per_site,
        enable_transfer,
        fault_budget=fault_budget,
        site_cls=site_cls,
    )
    requests = list(requests_per_site or [1] * len(quorums))
    expected = sum(requests)

    seen: dict = {}  # fingerprint -> set of actions explored from it
    states = terminals = transitions = dedup_hits = sleep_pruned = 0
    max_depth = 0
    complete = True
    terminal_fps: Optional[Set] = set() if collect_terminals else None
    EMPTY: FrozenSet[Action] = frozenset()
    # Edge stack: (parent world, action, child sleep set, parent path
    # node, parent depth). Worlds are cloned at pop time, so a parent
    # stays alive exactly while it still has unexplored edges.
    stack: List[Tuple[_World, Action, FrozenSet[Action], object, int]] = []

    def fail(cause: Exception, node) -> Exception:
        if keep_paths:
            return CounterexampleFound(cause, _materialize(node))
        return cause

    def expand(world: _World, sleep: FrozenSet[Action], node, depth: int) -> bool:
        """Visit one state; push its outgoing edges. False = budget out."""
        nonlocal states, terminals, dedup_hits, sleep_pruned
        nonlocal max_depth, complete
        if depth > max_depth:
            max_depth = depth
        fp = (
            world.fingerprint()
            if dedupe or terminal_fps is not None
            else None
        )
        explored = seen.get(fp) if dedupe else None
        if explored is None and states >= max_states:
            complete = False
            return False
        enabled = world.enabled_actions()
        if not enabled:
            if explored is None:
                states += 1
                if dedupe:
                    seen[fp] = set()
                terminals += 1
                if terminal_fps is not None:
                    terminal_fps.add(fp)
                try:
                    _check_terminal(world, expected)
                except Exception as cause:
                    raise fail(cause, node) from cause
            else:
                dedup_hits += 1
            return True
        if explored is None:
            states += 1
            to_run = (
                [a for a in enabled if a not in sleep]
                if (dpor and sleep)
                else enabled
            )
            sleep_pruned += len(enabled) - len(to_run)
            prior: Tuple[Action, ...] = ()
            if dedupe:
                seen[fp] = set(to_run)
                while len(seen) > max_seen:
                    # FIFO eviction: oldest fingerprints go first. A
                    # later revisit re-explores them — slower, never
                    # unsound.
                    del seen[next(iter(seen))]
                    complete = False
        else:
            dedup_hits += 1
            to_run = [
                a
                for a in enabled
                if a not in explored and not (dpor and a in sleep)
            ]
            if not to_run:
                return True
            prior = tuple(explored)
            explored.update(to_run)
        if depth_limit is not None and depth >= depth_limit:
            complete = False
            return True
        if dpor:
            base = list(sleep) + [b for b in prior if b not in sleep]
            edges = []
            for action in to_run:
                child_sleep = frozenset(
                    b for b in base if independent(action, b)
                )
                edges.append((world, action, child_sleep, node, depth))
                base.append(action)
            stack.extend(reversed(edges))
        else:
            for action in reversed(to_run):
                stack.append((world, action, EMPTY, node, depth))
        return True

    if expand(initial, EMPTY, None, 0):
        while stack:
            parent, action, sleep, parent_node, depth = stack.pop()
            child = parent.clone()
            node = (parent_node, action) if keep_paths else None
            transitions += 1
            try:
                child.apply(action)
            except Exception as cause:
                raise fail(cause, node) from cause
            if not expand(child, sleep, node, depth + 1):
                break

    return ExplorationResult(
        states_explored=states,
        terminal_states=terminals,
        max_depth=max_depth,
        complete=complete,
        transitions=transitions,
        sleep_pruned=sleep_pruned,
        dedup_hits=dedup_hits,
        terminal_fingerprints=(
            initial.expand_fingerprints(terminal_fps)
            if terminal_fps is not None
            else None
        ),
    )
