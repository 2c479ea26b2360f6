"""Unit + property tests for the routing stack (experiment X1 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import ElectrodeGrid
from repro.physics.constants import um
from repro.routing import (
    GreedyRouter,
    ObstacleMap,
    RoutingError,
    RoutingRequest,
    WavefrontRouter,
    astar_route,
    chebyshev_heuristic,
    make_requests,
    path_moves,
)
from repro.workloads import hotspot_workload, random_permutation_workload
from routing_oracles import AStarRouter


def grid(n=30):
    return ElectrodeGrid(n, n, um(20))


class TestAstar:
    def test_trivial_route(self):
        assert astar_route(grid(), (5, 5), (5, 5)) == [(5, 5)]

    def test_straight_route_length(self):
        path = astar_route(grid(), (0, 0), (0, 9))
        assert len(path) == 10

    def test_diagonal_route_uses_king_moves(self):
        path = astar_route(grid(), (0, 0), (9, 9))
        assert len(path) == 10  # Chebyshev-optimal

    def test_route_avoids_obstacle(self):
        obstacles = ObstacleMap(grid(), {(5, 5)}, separation=2)
        path = astar_route(grid(), (5, 0), (5, 10), obstacles)
        for site in path:
            assert max(abs(site[0] - 5), abs(site[1] - 5)) >= 2 or site[1] < 4 or site[1] > 6

    def test_blocked_start_raises(self):
        obstacles = ObstacleMap(grid(), {(5, 5)}, separation=2)
        with pytest.raises(RoutingError):
            astar_route(grid(), (5, 4), (5, 10), obstacles)

    def test_unreachable_goal_raises(self):
        g = ElectrodeGrid(5, 5, um(20))
        wall = {(r, 2) for r in range(5)}
        obstacles = ObstacleMap(g, wall, separation=1)
        with pytest.raises(RoutingError):
            astar_route(g, (0, 0), (0, 4), obstacles)

    def test_out_of_bounds_raises(self):
        with pytest.raises(RoutingError):
            astar_route(grid(), (0, 0), (99, 99))

    def test_path_moves(self):
        path = [(0, 0), (0, 1), (1, 2)]
        assert path_moves(path) == [(0, 1), (1, 1)]

    def test_path_moves_rejects_jump(self):
        with pytest.raises(ValueError):
            path_moves([(0, 0), (0, 2)])

    @given(
        start_row=st.integers(0, 14), start_col=st.integers(0, 14),
        goal_row=st.integers(0, 14), goal_col=st.integers(0, 14),
    )
    @settings(max_examples=60, deadline=None)
    def test_astar_optimal_in_open_grid(self, start_row, start_col, goal_row, goal_col):
        """Without obstacles the path length equals Chebyshev distance."""
        g = ElectrodeGrid(15, 15, um(20))
        start, goal = (start_row, start_col), (goal_row, goal_col)
        path = astar_route(g, start, goal)
        assert len(path) - 1 == chebyshev_heuristic(start, goal)


def assert_plan_valid(plan, min_separation=2):
    """A plan is collision-free at every synchronous step."""
    for step in range(plan.makespan + 1):
        sites = [path[step] for path in plan.paths.values()]
        for i, a in enumerate(sites):
            for b in sites[i + 1 :]:
                assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= min_separation, (
                    f"separation violated at step {step}: {a} vs {b}"
                )
    # steps are king moves or waits
    for path in plan.paths.values():
        for a, b in zip(path, path[1:]):
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= 1


@pytest.fixture(params=[AStarRouter, WavefrontRouter], ids=["astar", "wavefront"])
def router_cls(request):
    """Both batch planners must satisfy the same behavioural contract."""
    return request.param


class TestBatchRouter:
    def test_all_reach_goals(self, router_cls):
        requests = make_requests(
            [((0, 0), (20, 20)), ((0, 20), (20, 0)), ((10, 0), (10, 28))]
        )
        plan = router_cls(grid()).plan(requests)
        for request in requests:
            assert plan.paths[request.cage_id][-1] == request.goal

    def test_plan_is_conflict_free(self, router_cls):
        requests = make_requests(
            [((0, 0), (20, 20)), ((0, 20), (20, 0)), ((20, 10), (0, 10)),
             ((10, 0), (10, 28)), ((28, 28), (2, 2))]
        )
        plan = router_cls(grid()).plan(requests)
        assert_plan_valid(plan)

    def test_crossing_swap_requires_maneuver(self, router_cls):
        """Two cages exchanging places must detour or wait, never clip."""
        requests = make_requests([((10, 10), (10, 14)), ((10, 14), (10, 10))])
        plan = router_cls(grid()).plan(requests)
        assert_plan_valid(plan)
        assert plan.makespan >= 4

    def test_duplicate_ids_rejected(self, router_cls):
        requests = [
            RoutingRequest(0, (0, 0), (5, 5)),
            RoutingRequest(0, (10, 10), (15, 15)),
        ]
        with pytest.raises(RoutingError):
            router_cls(grid()).plan(requests)

    def test_conflicting_goals_rejected(self, router_cls):
        requests = make_requests([((0, 0), (5, 5)), ((10, 10), (5, 6))])
        with pytest.raises(RoutingError):
            router_cls(grid()).plan(requests)

    def test_moves_at(self, router_cls):
        requests = make_requests([((0, 0), (0, 3))])
        plan = router_cls(grid()).plan(requests)
        moves = plan.moves_at(0)
        assert moves == {0: (0, 1)}

    def test_total_moves_counts_non_waits(self, router_cls):
        requests = make_requests([((0, 0), (0, 3)), ((10, 10), (10, 10))])
        plan = router_cls(grid()).plan(requests)
        assert plan.total_moves() == 3

    def test_plan_stats_counters(self, router_cls):
        requests = make_requests([((0, 0), (0, 5)), ((10, 10), (14, 14))])
        router = router_cls(grid())
        plan = router.plan(requests)
        assert plan.stats["planner"] == router.planner_name
        assert plan.stats["cages"] == 2
        assert plan.stats["plan_seconds"] >= 0.0
        assert plan.stats["replans"] == 0

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_random_workload_property(self, seed):
        """Property: both batch routers always produce a valid plan that
        delivers every cage, on random 12-cage workloads."""
        g = ElectrodeGrid(24, 24, um(20))
        requests = random_permutation_workload(g, n_cages=12, seed=seed)
        for cls in (AStarRouter, WavefrontRouter):
            plan = cls(g).plan(requests)
            assert_plan_valid(plan)
            for request in requests:
                assert plan.paths[request.cage_id][-1] == request.goal


class TestGreedyRouter:
    def test_simple_case_succeeds(self):
        requests = make_requests([((0, 0), (10, 10))])
        plan, failed = GreedyRouter(grid()).plan(requests)
        assert not failed
        assert plan.paths[0][-1] == (10, 10)

    def test_plans_stay_legal(self):
        g = ElectrodeGrid(24, 24, um(20))
        requests = random_permutation_workload(g, n_cages=10, seed=3)
        plan, __ = GreedyRouter(g).plan(requests)
        assert_plan_valid(plan)

    def test_hotspot_congestion_hurts_greedy(self):
        """On converging traffic the greedy router strands cages that
        the batch router delivers -- the experiment X1 gap."""
        g = ElectrodeGrid(30, 30, um(20))
        requests = hotspot_workload(g, n_cages=16, seed=1)
        __, failed = GreedyRouter(g, max_steps=200).plan(requests)
        batch_plan = WavefrontRouter(g).plan(requests)
        assert_plan_valid(batch_plan)
        delivered = sum(
            batch_plan.paths[r.cage_id][-1] == r.goal for r in requests
        )
        assert delivered == len(requests)
        # greedy strands at least someone on this workload
        assert len(failed) >= 1
