"""Differential soundness of the sleep-set partial-order reduction.

Sleep sets prune redundant *transitions*, never *states*: the reduced
search must visit exactly the states the unreduced search visits and
reach exactly the same verdicts. These tests pin that equivalence —
state counts, terminal-state fingerprint sets, and completion — across
a grid of small configurations and across Hypothesis-generated random
coteries, while asserting the reduction actually reduces (fewer
transitions executed) where concurrency exists.

The search's branching is pinned here too: a copy-on-write clone must
leave its parent untouched and reach the same state as a fresh world
replayed along the same path, and the per-site copy must carry every
attribute of the site without sharing any of its mutable containers.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.state import (
    ArbiterState,
    RequesterState,
    RequestQueue,
    TranStack,
)
from repro.verify.explore import FaultBudget, build_world, explore
from repro.verify.explore.world import (
    _clone_site,
    _ExploreFTSite,
    _ExploreSite,
    _FakeSim,
    _SafetyListener,
)

#: Small configurations whose full state space is cheap in both modes:
#: (quorums, requests_per_site). Shapes cover a lone site, shared single
#: arbiters, mutual arbitration (inquire/yield), no-transfer mode, and
#: the two-arbiter forwarding topology the historical bugs live in.
GRID = [
    ([{0}], [2], True),
    ([{2}, {2}, {2}], [1, 1, 0], True),
    ([{2}, {2}, {2}], [2, 1, 0], True),
    ([{3}, {3}, {3}, {3}], [1, 1, 1, 0], True),
    ([{0, 1}, {0, 1}], [1, 1], True),
    ([{0, 1}, {0, 1}], [1, 1], False),
    ([{2, 3}, {2, 3}, {2}, {3}], [1, 1, 0, 0], True),
]


def _both_modes(quorums, requests, enable_transfer):
    reduced = explore(
        quorums,
        requests,
        enable_transfer,
        max_states=1_000_000,
        dpor=True,
        collect_terminals=True,
    )
    unreduced = explore(
        quorums,
        requests,
        enable_transfer,
        max_states=1_000_000,
        dpor=False,
        collect_terminals=True,
    )
    return reduced, unreduced


@pytest.mark.parametrize("quorums,requests,transfer", GRID)
def test_dpor_visits_the_same_state_space(quorums, requests, transfer):
    reduced, unreduced = _both_modes(quorums, requests, transfer)
    assert reduced.complete and unreduced.complete
    assert reduced.states_explored == unreduced.states_explored
    assert reduced.terminal_states == unreduced.terminal_states
    assert (
        reduced.terminal_fingerprints == unreduced.terminal_fingerprints
    )
    # Pruned transitions are why DPOR exists; it must never add any.
    assert reduced.transitions <= unreduced.transitions


def test_dpor_actually_reduces_transitions():
    """On a genuinely concurrent topology the sleep sets must fire."""
    reduced, unreduced = _both_modes(
        [{2, 3}, {2, 3}, {2}, {3}], [1, 1, 0, 0], True
    )
    assert reduced.sleep_pruned > 0
    assert reduced.transitions < unreduced.transitions


@st.composite
def coterie_configs(draw):
    """Random pairwise-intersecting quorums with a small request load.

    Every quorum contains a common pivot site, which guarantees the
    intersection property (the degenerate-but-legal "centralized"
    coterie family); the rest of each quorum is an arbitrary subset.
    Request vectors are kept small so the full state space stays
    explorable in both modes within the test budget.
    """
    n = draw(st.integers(min_value=2, max_value=4))
    pivot = draw(st.integers(min_value=0, max_value=n - 1))
    quorums = []
    for site in range(n):
        extra = draw(
            st.sets(
                st.integers(min_value=0, max_value=n - 1), max_size=n - 1
            )
        )
        quorums.append(extra | {pivot})
    requesters = draw(
        st.lists(
            st.integers(min_value=0, max_value=1), min_size=n, max_size=n
        ).filter(lambda reqs: 1 <= sum(reqs) <= 2)
    )
    enable_transfer = draw(st.booleans())
    return quorums, requesters, enable_transfer


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(coterie_configs())
def test_dpor_differential_on_random_coteries(config):
    quorums, requests, enable_transfer = config
    reduced, unreduced = _both_modes(quorums, requests, enable_transfer)
    assert reduced.complete and unreduced.complete
    assert reduced.states_explored == unreduced.states_explored
    assert (
        reduced.terminal_fingerprints == unreduced.terminal_fingerprints
    )
    assert reduced.transitions <= unreduced.transitions


# -- copy-on-write branching ---------------------------------------------

#: The benchmark's throughput config, and a three-site coterie under a
#: crash/recover budget (fault-tolerant sites, the whole oracle
#: pipeline; crash recovery rebuilds quorums, so it needs a coterie).
BRANCH_CONFIGS = {
    "throughput": dict(
        quorums=[{2, 3, 4}, {2, 3, 4}, {2}, {3}, {4}],
        requests_per_site=[1, 1, 0, 0, 0],
    ),
    "crash-recover": dict(
        quorums=[{0, 1}, {1, 2}, {0, 2}],
        requests_per_site=[1, 1, 1],
        fault_budget=FaultBudget(crashes=1, recoveries=1),
    ),
}


def _structural(world):
    """The world's fingerprint with its site parts un-interned."""
    (fp,) = world.expand_fingerprints([world.fingerprint()])
    return fp


def _random_path(config, seed):
    """A seeded random action path from the initial world to a terminal
    state (replaying it from a fresh world is deterministic)."""
    rng = random.Random(seed)
    world = build_world(**BRANCH_CONFIGS[config])
    path = []
    while True:
        actions = world.enabled_actions()
        if not actions:
            return path
        path.append(rng.choice(actions))
        world.apply(path[-1])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("config", sorted(BRANCH_CONFIGS))
def test_clone_then_apply_leaves_parent_and_matches_fresh_replay(config, seed):
    path = _random_path(config, seed)
    kinds = {kind for kind, _ in path}
    assert "deliver" in kinds
    if config == "crash-recover" and seed == 0:
        assert {"crash", "detect", "recover", "readmit"} <= kinds

    world = build_world(**BRANCH_CONFIGS[config])
    n = len(world.sites)
    for step, action in enumerate(path, 1):
        before = _structural(world)
        parts = [world._site_part(i) for i in range(n)]
        child = world.clone()
        child.apply(action)

        # The parent is untouched: its cached fingerprint and every site
        # recomputed from scratch, shared ones included.
        assert _structural(world) == before
        assert [world._site_part(i) for i in range(n)] == parts
        # A site is the child's own copy, bound to the child, or the
        # very object of an ancestor, bound to that ancestor.
        copied = []
        for i, (mine, theirs) in enumerate(zip(child.sites, world.sites)):
            owned = mine._sim is child.fake_sim
            assert owned == (mine is not theirs)
            assert owned == (mine.listener is child.listener)
            if owned:
                copied.append(i)
        if action[0] == "deliver":
            assert copied == [action[1][1]]  # only the destination
        elif action[0] == "timer":
            assert copied == [action[1][0]]  # only the owner

        fresh = build_world(**BRANCH_CONFIGS[config])
        for replayed in path[:step]:
            fresh.apply(replayed)
        assert _structural(child) == _structural(fresh)
        world = child


def _set_attributes(site):
    """Every attribute set on ``site``: slots across the MRO, then
    ``__dict__``."""
    names = set()
    for cls in type(site).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if hasattr(site, name):
                names.add(name)
    names.update(getattr(site, "__dict__", {}))
    return names


MUTABLE = (dict, set, list, deque, ArbiterState, RequesterState)


def _assert_faithful_copy(world, site):
    sim = _FakeSim(world)
    listener = _SafetyListener()
    copy = _clone_site(site, sim, listener)
    assert type(copy) is type(site)
    names = _set_attributes(site)
    assert _set_attributes(copy) == names
    assert copy._sim is sim and copy.listener is listener
    for name in names - {"_sim", "listener"}:
        value = getattr(site, name)
        if isinstance(value, MUTABLE):
            assert getattr(copy, name) is not value, name
        else:
            assert getattr(copy, name) == value, name
    containers = [
        (site.arbiter.req_queue, copy.arbiter.req_queue),
        (site.req.replied, copy.req.replied),
        (site.req.grant_epoch, copy.req.grant_epoch),
        (site.req.inq_pending, copy.req.inq_pending),
        (site.req.tran_stack, copy.req.tran_stack),
    ]
    for theirs, mine in containers:
        assert mine is not theirs
        if isinstance(theirs, (RequestQueue, TranStack)):
            theirs, mine = list(theirs), list(mine)
        assert mine == theirs


@pytest.mark.parametrize(
    "config,site_cls",
    [("throughput", _ExploreSite), ("crash-recover", _ExploreFTSite)],
)
def test_clone_site_copies_every_attribute_and_shares_no_container(
    config, site_cls
):
    """Every state along seeded random paths, every site: the copy sets
    every attribute the site has set and shares none of its mutable
    containers."""
    for seed in range(4):
        world = build_world(**BRANCH_CONFIGS[config])
        assert {type(site) for site in world.sites} == {site_cls}
        for action in _random_path(config, seed):
            for site in world.sites:
                _assert_faithful_copy(world, site)
            world.apply(action)
        for site in world.sites:
            _assert_faithful_copy(world, site)
