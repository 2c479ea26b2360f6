"""The row-bitset wavefront kernel against its numpy bool-plane oracle.

``WavefrontRouter._wavefront`` runs each BFS level as one packed
row-bitset integer; ``routing_oracles.oracle_wavefront`` is the numpy
bool-plane kernel it replaced.  They must agree exactly:

* per call, the same ``(status, path)`` and the same number of
  ``frontier_steps`` -- checked on every kernel call a plan makes, and
  on randomized direct calls that reach every status;
* per plan, the same ``BatchPlan.sites`` and the same ``stats``.

Scenarios: the permutation, dead-electrode and hotspot seeds of the A*
equivalence suite, a scaled-down rare-cell isolation (stride-4 lattice
of parked cells, a few routed to a bank), windows that must grow, cages
provably stuck in a ring, starts on dead electrodes and goals that
settle later than the cage could arrive.  The packed reservation table
and :func:`distance_field` are pinned to plain-Python references too.
"""

import numpy as np
import pytest

from repro.array import ElectrodeGrid
from repro.physics.constants import um
from repro.routing import RoutingError, WavefrontRouter, distance_field, downhill_path
from repro.routing.astar import MOVES_8, chebyshev_heuristic
from repro.routing.multi import (
    RoutingRequest,
    _ReservationTable,
    _VectorReservationTable,
)
from repro.workloads import hotspot_workload, random_permutation_workload
from routing_oracles import (
    OracleWavefrontRouter,
    bfs_distance_field,
    oracle_wavefront,
)
from test_routing_equivalence import dead_mask

SEEDS = tuple(range(10))


class CheckedWavefrontRouter(WavefrontRouter):
    """Runs the oracle next to every production kernel call and records
    the statuses; a mismatch fails the test at the call that diverged."""

    def __post_init__(self):
        super().__post_init__()
        self.statuses = []

    def _wavefront(self, start, goal, min_arrival, table, horizon, bounds):
        counters = self._counters
        before = counters["frontier_steps"]
        expected = oracle_wavefront(
            self, start, goal, min_arrival, table, horizon, bounds
        )
        oracle_steps = counters["frontier_steps"] - before
        counters["frontier_steps"] = before
        status, path = super()._wavefront(
            start, goal, min_arrival, table, horizon, bounds
        )
        assert counters["frontier_steps"] - before == oracle_steps
        assert status == expected[0]
        if path is None:
            assert expected[1] is None
        else:
            np.testing.assert_array_equal(path, expected[1])
        self.statuses.append(status)
        return status, path


def stationary_first(moving_ids):
    """The platform's plan order: parked cages, then longest moves."""
    def priority(request):
        return (request.cage_id in moving_ids,
                -chebyshev_heuristic(request.start, request.goal))
    return priority


def plan_or_error(router, requests, priority=None):
    try:
        return router.plan(requests, priority=priority)
    except RoutingError as error:
        return str(error)


def assert_kernels_agree(g, requests, blocked=None, priority=None):
    """Per-call and whole-plan agreement; returns the kernel statuses."""
    checked = CheckedWavefrontRouter(g, blocked=blocked)
    new = plan_or_error(checked, requests, priority)
    old = plan_or_error(OracleWavefrontRouter(g, blocked=blocked), requests,
                        priority)
    assert type(new) is type(old)
    if isinstance(new, str):
        assert new == old
    else:
        np.testing.assert_array_equal(new.sites, old.sites)
        np.testing.assert_array_equal(new.cage_ids, old.cage_ids)
        drop = ("plan_seconds",)
        assert ({k: v for k, v in new.stats.items() if k not in drop}
                == {k: v for k, v in old.stats.items() if k not in drop})
    return checked.statuses


def grid(n):
    return ElectrodeGrid(n, n, um(20))


@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_seeds(seed):
    g = grid(24)
    assert_kernels_agree(g, random_permutation_workload(g, 12, seed=seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_dead_electrode_seeds(seed):
    g = grid(24)
    requests = random_permutation_workload(g, 10, seed=seed)
    assert_kernels_agree(g, requests, blocked=dead_mask(g, requests, seed))


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_hotspot_seeds(seed):
    g = grid(32)
    assert_kernels_agree(g, hotspot_workload(g, 12, seed=seed))


def isolation_requests(side, cells, rare, seed):
    """A scaled-down rare-cell isolation: ``cells`` parked on a stride-4
    lattice right of column ``side // 8``; ``rare`` of them routed to a
    bank of lattice slots in columns 2, 6, ... left of it, each into its
    own row or the nearest row with a free slot."""
    rng = np.random.default_rng(seed)
    rows = list(range(0, side, 4))
    cols = list(range(side // 8, side, 4))
    picks = rng.choice(len(rows) * len(cols), size=cells, replace=False)
    starts = [(rows[f // len(cols)], cols[f % len(cols)]) for f in picks.tolist()]
    chosen = sorted(rng.choice(cells, size=rare, replace=False).tolist(),
                    key=lambda i: starts[i])
    free = {row: list(range(2, side // 8 - 2, 4))[::-1] for row in rows}
    goals = {}
    for i in chosen:
        for row in sorted(rows, key=lambda r: (abs(r - starts[i][0]), r)):
            if free[row]:
                goals[i] = (row, free[row].pop(0))
                break
    requests = [RoutingRequest(i, site, goals.get(i, site))
                for i, site in enumerate(starts)]
    return requests, stationary_first(set(goals))


@pytest.mark.parametrize("seed", (1, 2))
def test_isolation_lattice_with_bank(seed):
    g = grid(96)
    requests, priority = isolation_requests(96, cells=270, rare=14, seed=seed)
    statuses = assert_kernels_agree(g, requests, priority=priority)
    assert "found" in statuses


def test_window_must_grow():
    """A parked wall longer than the window margin: the first window is
    clipped ("grow") and a wider one routes around the wall's end."""
    g = grid(64)
    wall = [RoutingRequest(100 + i, (2 * i, 30), (2 * i, 30)) for i in range(14)]
    mover = RoutingRequest(0, (12, 20), (12, 40))
    statuses = assert_kernels_agree(g, wall + [mover],
                                    priority=stationary_first({0}))
    assert statuses[:2] == ["grow", "found"]


def test_cage_in_a_ring_is_dead():
    """A cage ringed by parked cages can only wait in place: the reached
    set is a fixpoint that never touches the window border."""
    g = grid(32)
    ring = [(8, 8), (8, 10), (8, 12), (10, 8), (10, 12), (12, 8), (12, 10),
            (12, 12)]
    requests = [RoutingRequest(100 + i, site, site) for i, site in enumerate(ring)]
    requests.append(RoutingRequest(0, (10, 10), (10, 24)))
    statuses = assert_kernels_agree(g, requests, priority=stationary_first({0}))
    assert statuses[0] == "dead"


def test_start_on_dead_electrode():
    """A cage may leave an electrode that died under it; the static
    probes cannot see it, so the wavefront routes it."""
    g = grid(24)
    requests = random_permutation_workload(g, 8, seed=4)
    blocked = dead_mask(g, requests, 4)
    blocked[requests[0].start] = True
    blocked[requests[1].start] = True
    statuses = assert_kernels_agree(g, requests, blocked=blocked)
    assert statuses.count("found") >= 2


def random_walks(rng, side, horizon):
    """A few random king walks of random length (zero-length ones park
    at once)."""
    walks = []
    for __ in range(int(rng.integers(2, 9))):
        site = rng.integers(0, side, size=2)
        path = [site.copy()]
        for __ in range(int(rng.integers(0, horizon))):
            site = np.clip(site + rng.integers(-1, 2, size=2), 0, side - 1)
            path.append(site.copy())
        walks.append(path)
    return walks


def test_kernel_direct_calls_cover_every_status():
    """Randomized direct kernel calls: random reservations and dead
    electrodes, clipped and full windows, ``min_arrival`` both below and
    beyond the start-goal distance."""
    rng = np.random.default_rng(11)
    seen = set()
    for case in range(160):
        side = int(rng.integers(6, 30))
        horizon = side + 12
        router = WavefrontRouter(grid(side))
        router._blocked_arr = rng.random((side, side)) < 0.15 if case % 2 else None
        table = router._make_table(horizon)
        for cage, path in enumerate(random_walks(rng, side, horizon)):
            table.reserve_path(cage, path)
        start = tuple(int(v) for v in rng.integers(0, side, size=2))
        goal = tuple(int(v) for v in rng.integers(0, side, size=2))
        distance = chebyshev_heuristic(start, goal)
        min_arrival = int(rng.integers(0, distance + 8))
        margin = int(rng.integers(0, side))
        bounds = (max(0, min(start[0], goal[0]) - margin),
                  min(side - 1, max(start[0], goal[0]) + margin),
                  max(0, min(start[1], goal[1]) - margin),
                  min(side - 1, max(start[1], goal[1]) + margin))
        args = (start, goal, min_arrival, table, horizon, bounds)
        router._counters = {"frontier_steps": 0}
        expected = oracle_wavefront(router, *args)
        oracle_steps = router._counters["frontier_steps"]
        router._counters = {"frontier_steps": 0}
        status, path = router._wavefront(*args)
        assert router._counters["frontier_steps"] == oracle_steps
        assert status == expected[0]
        if path is not None:
            np.testing.assert_array_equal(path, expected[1])
            if min_arrival > distance:
                seen.add("late")
        seen.add(status)
    assert seen == {"found", "grow", "dead", "late"}


@pytest.mark.parametrize("separation", [2, 3])
def test_packed_table_matches_reference_table(separation):
    """The bit-packed planes answer ``site_free`` exactly like the
    reference table's flat sets, padding and byte boundaries included."""
    rng = np.random.default_rng(separation)
    side, horizon = 13, 25
    packed = _VectorReservationTable(separation, (side, side), horizon)
    reference = _ReservationTable(separation, (side, side))
    for cage, path in enumerate(random_walks(rng, side, horizon)):
        packed.reserve_path(cage, path)
        reference.reserve_path(cage, path)
    for t in range(horizon + 2):
        for row in range(side):
            for col in range(side):
                assert (packed.site_free((row, col), t)
                        == reference.site_free((row, col), t))


# -- distance_field / downhill_path ------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (5, 9), (13, 30), (24, 17), (9, 64)])
def test_distance_field_matches_bfs(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for density in (0.0, 0.2, 0.45):
        free = rng.random(shape) >= density
        source = tuple(int(rng.integers(0, n)) for n in shape)
        free[source] = True
        np.testing.assert_array_equal(
            distance_field(free, source), bfs_distance_field(free, source)
        )


def test_distance_field_unreachable_is_minus_one():
    free = np.ones((9, 9), dtype=bool)
    free[:, 4] = False  # a full-height wall
    field = distance_field(free, (4, 1))
    assert (field[:, 5:] == -1).all()
    assert (field[:, 4] == -1).all()
    assert (field[:, :4] >= 0).all()


def test_distance_field_blocked_source_allowed():
    rng = np.random.default_rng(3)
    free = rng.random((12, 20)) >= 0.3
    free[6, 7] = False
    field = distance_field(free, (6, 7))
    assert field[6, 7] == 0
    np.testing.assert_array_equal(field, bfs_distance_field(free, (6, 7)))


@pytest.mark.parametrize("max_levels", [0, 1, 3, 7])
def test_distance_field_max_levels(max_levels):
    rng = np.random.default_rng(max_levels)
    free = rng.random((15, 21)) >= 0.25
    free[7, 10] = True
    field = distance_field(free, (7, 10), max_levels=max_levels)
    np.testing.assert_array_equal(
        field, bfs_distance_field(free, (7, 10), max_levels=max_levels)
    )
    assert field.max() <= max_levels


def test_downhill_path_descends_to_source():
    rng = np.random.default_rng(8)
    free = rng.random((16, 16)) >= 0.25
    free[2, 3] = True
    free[14, 13:] = free[15, 13] = False  # walls the corner (15, 15) off
    free[15, 14:] = True
    field = distance_field(free, (2, 3))
    for start in zip(*np.nonzero(field > 0)):
        path = downhill_path(field, start)
        assert path[0] == tuple(start) and path[-1] == (2, 3)
        assert len(path) == field[start] + 1
        for a, b in zip(path, path[1:]):
            assert (b[0] - a[0], b[1] - a[1]) in MOVES_8
            assert field[b] == field[a] - 1
    assert field[15, 15] == -1
    with pytest.raises(RoutingError):
        downhill_path(field, (15, 15))
