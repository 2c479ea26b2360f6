"""Equivalence suite: wavefront engine vs the space-time A* reference.

The wavefront planner (:class:`WavefrontRouter`) replaced per-cage
heapq A* (now the ``AStarRouter`` oracle in ``routing_oracles``) with level-synchronous boolean-mask dilations, but it must be
a *drop-in* replacement: same prioritised planning order, same
reservation semantics, same completion guarantees.  This suite pins the
behavioural contract on randomized workloads, with and without
dead-electrode fault masks:

* both planners succeed (or both raise) on the same workloads;
* when they succeed, the delivered set is identical;
* every frame of the wavefront plan satisfies the separation rule;
* the wavefront makespan never exceeds the A* reference makespan
  (each cage's wavefront arrival is provably time-optimal against the
  same reservations, so beating the reference is expected, losing to
  it is a bug);
* wavefront plans execute to completion through the real
  :class:`CageManager` array stepping path.
"""

import numpy as np
import pytest

from repro import Biochip
from repro.array import CageManager, ElectrodeGrid
from repro.physics.constants import um
from repro.routing import RoutingError, WavefrontRouter
from repro.workloads import hotspot_workload, random_permutation_workload
from routing_oracles import AStarRouter

SEEDS = tuple(range(10))  # >= 8 randomized instances per scenario


def grid(n=24):
    return ElectrodeGrid(n, n, um(20))


def dead_mask(g, requests, seed, n_dead=12):
    """A random dead-electrode mask that keeps every request legal:
    no dead pixel within Chebyshev distance 1 of a start or goal."""
    rng = np.random.default_rng(seed + 7777)
    mask = np.zeros((g.rows, g.cols), dtype=bool)
    keep_out = np.zeros_like(mask)
    for request in requests:
        for site in (request.start, request.goal):
            r0, r1 = max(0, site[0] - 1), min(g.rows, site[0] + 2)
            c0, c1 = max(0, site[1] - 1), min(g.cols, site[1] + 2)
            keep_out[r0:r1, c0:c1] = True
    candidates = np.flatnonzero(~keep_out)
    chosen = rng.choice(candidates, size=min(n_dead, candidates.size),
                        replace=False)
    mask.ravel()[chosen] = True
    return mask


def plan_or_error(router):
    def attempt(requests):
        try:
            return router.plan(requests), None
        except RoutingError as error:
            return None, error
    return attempt


def assert_separation_every_frame(plan, min_separation=2):
    """Vectorized all-frames pairwise Chebyshev check."""
    sites = plan.sites  # (n, makespan+1, 2)
    for step in range(sites.shape[1]):
        frame = sites[:, step, :]
        diff = np.abs(frame[:, None, :] - frame[None, :, :]).max(axis=2)
        np.fill_diagonal(diff, min_separation)
        assert diff.min() >= min_separation, f"separation violated at {step}"


def assert_equivalent(g, requests, blocked=None):
    ref_plan, ref_err = plan_or_error(AStarRouter(g, blocked=blocked))(requests)
    wav_plan, wav_err = plan_or_error(WavefrontRouter(g, blocked=blocked))(requests)
    # same feasibility verdict
    assert (ref_err is None) == (wav_err is None), (
        f"planners disagree: astar={ref_err!r} wavefront={wav_err!r}"
    )
    if ref_err is not None:
        return None
    # identical completion set
    goals = {r.cage_id: r.goal for r in requests}
    ref_done = {c for c, p in ref_plan.paths.items() if p[-1] == goals[c]}
    wav_done = {c for c, p in wav_plan.paths.items() if p[-1] == goals[c]}
    assert ref_done == set(goals)  # the reference delivers everyone...
    assert wav_done == ref_done  # ...and the wavefront matches it
    # legality of every wavefront frame
    assert_separation_every_frame(wav_plan)
    # per-cage time-optimality against shared reservations implies the
    # batch makespan can only improve
    assert wav_plan.makespan <= ref_plan.makespan, (
        f"wavefront makespan {wav_plan.makespan} exceeds "
        f"reference {ref_plan.makespan}"
    )
    return wav_plan


def execute_through_manager(g, requests, plan):
    manager = CageManager(g)
    ids = {}
    for request in requests:
        ids[request.cage_id] = manager.create(request.start).cage_id
    for step in range(plan.makespan):
        cage_ids, deltas = plan.moves_arrays_at(step)
        manager.step_arrays(cage_ids, deltas)
    final = {c.cage_id: c.site for c in manager.cages}
    for request in requests:
        assert final[ids[request.cage_id]] == request.goal


@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_equivalence(seed):
    g = grid()
    requests = random_permutation_workload(g, n_cages=12, seed=seed)
    plan = assert_equivalent(g, requests)
    if plan is not None:
        execute_through_manager(g, requests, plan)


@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_equivalence_with_dead_electrodes(seed):
    g = grid()
    requests = random_permutation_workload(g, n_cages=10, seed=seed)
    blocked = dead_mask(g, requests, seed)
    plan = assert_equivalent(g, requests, blocked=blocked)
    if plan is not None:
        # routed paths must never park a cage centre on a dead pixel
        sites = plan.sites.reshape(-1, 2)
        assert not blocked[sites[:, 0], sites[:, 1]].any()
        execute_through_manager(g, requests, plan)


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_hotspot_equivalence(seed):
    g = grid(32)
    requests = hotspot_workload(g, n_cages=12, seed=seed)
    plan = assert_equivalent(g, requests)
    if plan is not None:
        execute_through_manager(g, requests, plan)


def test_router_rejects_separation_below_two():
    """min_separation < 2 admits swap/edge conflicts the reservation
    planes do not model, so the router refuses it up front."""
    with pytest.raises(ValueError, match="min_separation"):
        WavefrontRouter(grid(), min_separation=1)


def test_chip_rejects_separation_below_two():
    with pytest.raises(ValueError, match="min_separation"):
        Biochip(grid=grid(), min_separation=1)


def test_stats_expose_tier_counters():
    g = grid()
    requests = random_permutation_workload(g, n_cages=12, seed=2)
    plan = WavefrontRouter(g).plan(requests)
    tiers = (plan.stats["fast_path_hits"] + plan.stats["greedy_walk_hits"])
    assert tiers >= 1  # at least someone took an escalation shortcut
    assert plan.stats["planner"] == "wavefront"
    assert plan.stats["plan_seconds"] > 0.0
