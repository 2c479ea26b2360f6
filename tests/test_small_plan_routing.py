"""Small-plan routing: the scalar probes at their edges, and a digest.

``WavefrontRouter`` tries each cage's Chebyshev-optimal direct path
first, as a scalar probe of the reservation planes that stops at the
first blocked step, after a scalar scan of the goal's transient
reservations that fixes the earliest legal arrival.  ``reserve_path``
writes short paths byte by byte and long ones as one numpy scatter.
The numpy forms these replaced live on in ``routing_oracles``
(:func:`oracle_direct_path`, :func:`oracle_min_arrival`,
:func:`oracle_reserve_path`); this suite pins the probes to them on
the edge cases of small serving plans:

* a goal with transient reservations (``min_arrival > 0``, so waits
  are prepended to the direct path);
* a goal inside a parked window;
* a direct path blocked at its first step, and one blocked at its last;
* a start equal to the goal with ``min_arrival > 0``;
* a dead-electrode mask (the distance-field walk).

The digest tests hash the plan sites and stats of 320 random 2-40-cage
batches on ``Biochip.small_chip()``, planned directly and executed
through ``Biochip.move_many`` on one reused chip, against values
recorded before the scalar probes and the O(movers) frame accounting
went in.
"""

import hashlib

import numpy as np
import pytest

from repro import Biochip
from repro.routing import RoutingError, WavefrontRouter
from repro.routing.astar import chebyshev_heuristic
from repro.routing.multi import RoutingRequest, _VectorReservationTable
from routing_oracles import (
    _ReservationTable,
    oracle_direct_path,
    oracle_min_arrival,
    oracle_reserve_path,
)

SMALL = Biochip.small_chip().grid  # 48 x 48

#: sha256 of the plans of :func:`random_batches` (see :func:`plan_digest`),
#: recorded on the numpy-gather direct path and vector-only reservations.
PLAN_DIGEST = (
    "ab387841a05aed4e50c228a7badcebe83281e568e1b056a86231262c068ce5f9"
)
#: sha256 of the same batches executed by ``Biochip.move_many`` (reports,
#: history and final sites; see :func:`chip_digest`), recorded on the
#: whole-grid frame diff.
CHIP_DIGEST = (
    "1e2423544f17a245818f3a2b96ee8e22292d404fadaba7cc2edc961bf52940fb"
)


def table_with(paths, horizon=30, shape=(48, 48)):
    table = _VectorReservationTable(2, shape, horizon)
    for cage, path in enumerate(paths):
        table.reserve_path(cage, path)
    return table


def assert_probes_agree(router, start, goal, table, horizon=30):
    """The scalar goal scan and direct probe against their numpy
    oracles; returns the production direct path (or None)."""
    min_arrival = oracle_min_arrival(table, goal)
    radius = table.radius
    if table.parked_from[goal[0] + radius, goal[1] + radius] > (
            table.latest_parked_time()):
        assert router._min_arrival(goal, table) == min_arrival
    path = router._direct_path(start, goal, min_arrival, table, horizon)
    expected = oracle_direct_path(
        router, start, goal, min_arrival, table, horizon
    )
    if expected is None:
        assert path is None
    else:
        np.testing.assert_array_equal(np.asarray(path), expected)
        assert np.asarray(path).dtype == expected.dtype
    return path, min_arrival


def plain_router(blocked=None):
    router = WavefrontRouter(SMALL, blocked=blocked)
    router._blocked_arr = blocked
    router._blocked_flat = blocked.ravel().tolist() if blocked is not None else None
    router._make_table(30)
    return router


def test_goal_with_transient_reservations_prepends_waits():
    # another cage crosses the goal at t = 3..5 and parks elsewhere
    crossing = [(10, 2), (10, 3), (10, 4), (10, 5), (10, 6), (10, 7),
                (10, 8), (10, 9), (10, 10)]
    table = table_with([crossing])
    router = plain_router()
    path, min_arrival = assert_probes_agree(router, (6, 5), (9, 5), table)
    assert min_arrival == 5
    path = np.asarray(path)
    assert len(path) == min_arrival + 1
    waits = min_arrival - chebyshev_heuristic((6, 5), (9, 5))
    assert waits == 2
    assert (path[: waits + 1] == (6, 5)).all()


def test_parked_goal_window():
    table = table_with([[(20, 20)]])  # parked from t = 0
    router = plain_router()
    assert_probes_agree(router, (20, 26), (21, 21), table)
    request = RoutingRequest(0, (20, 26), (21, 21))
    with pytest.raises(RoutingError):
        router._route_one(request, table, 30)


def test_direct_path_blocked_at_first_step():
    # a cage passes right below the start's first step at t = 1
    table = table_with([[(4, 12), (3, 13), (4, 14), (5, 15)]])
    assert not table.site_free((2, 13), 1)
    assert all(table.site_free((2, 13 + k), 1 + k) for k in range(1, 7))
    router = plain_router()
    path, min_arrival = assert_probes_agree(router, (2, 12), (2, 20), table)
    assert min_arrival == 0
    assert path is None


def test_direct_path_blocked_at_last_step():
    # start (21, 12) -> goal (21, 20) arrives at t = 8; another cage
    # climbs column 21 and sits next to the goal exactly at t = 8, then
    # parks out of the way
    climb = [(30 - k, 21) for k in range(9)] + [(23, 23)]
    table = table_with([climb])
    walk = [(21, 12 + k) for k in range(9)]
    blocked = [t for t in range(1, 9) if not table.site_free(walk[t], t)]
    assert blocked == [8]
    router = plain_router()
    assert router._direct_path((21, 12), (21, 20), 0, table, 30) is None
    assert oracle_direct_path(router, (21, 12), (21, 20), 0, table, 30) is None
    # the goal scan sees the same block: arrive one step later instead,
    # after one wait at the start
    path, min_arrival = assert_probes_agree(router, (21, 12), (21, 20), table)
    assert min_arrival == 9
    assert path is not None and (np.asarray(path)[:2] == (21, 12)).all()
    # one column closer, the cage arrives at t = 7, before the block
    path, min_arrival = assert_probes_agree(router, (21, 13), (21, 20), table)
    assert router._direct_path((21, 13), (21, 20), 0, table, 30) is not None


def test_start_equal_to_goal_with_min_arrival():
    crossing = [(12, 8), (12, 9), (12, 10), (12, 11), (12, 12), (12, 13)]
    table = table_with([crossing])
    router = plain_router()
    path, min_arrival = assert_probes_agree(router, (11, 10), (11, 10), table)
    assert min_arrival > 0
    assert path is None
    # with the goal clear, a zero-length path is the answer
    clear = table_with([])
    path, min_arrival = assert_probes_agree(router, (11, 10), (11, 10), clear)
    assert min_arrival == 0
    np.testing.assert_array_equal(np.asarray(path), [[11, 10]])


def test_dead_mask_takes_the_distance_field_walk():
    rng = np.random.default_rng(5)
    for case in range(40):
        blocked = rng.random((48, 48)) < 0.08
        start = tuple(int(v) for v in rng.integers(0, 48, size=2))
        goal = tuple(int(v) for v in rng.integers(0, 48, size=2))
        blocked[goal] = False
        walks = [[tuple(int(v) for v in rng.integers(0, 48, size=2))]
                 for __ in range(3)]
        table = table_with(walks)
        router = plain_router(blocked)
        assert_probes_agree(router, start, goal, table)


THRESHOLD = _VectorReservationTable.SCALAR_PATH_STEPS


@pytest.mark.parametrize(
    "steps", [0, 1, 2, 7, 8, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 60]
)
@pytest.mark.parametrize("separation", [2, 3, 6])
def test_reserve_path_scalar_and_vector_writes_agree(steps, separation):
    """Both sides of the short-path threshold write the same planes as
    the numpy scatter oracle and answer ``site_free`` like the
    flat-set reference table (separation 6 spans three bytes a row)."""
    rng = np.random.default_rng(steps * 10 + separation)
    side, horizon = 21, 70
    table = _VectorReservationTable(separation, (side, side), horizon)
    oracle = _VectorReservationTable(separation, (side, side), horizon)
    reference = _ReservationTable(separation, (side, side))
    for cage in range(4):
        site = rng.integers(0, side, size=2)
        path = [tuple(int(v) for v in site)]
        for __ in range(steps):
            site = np.clip(site + rng.integers(-1, 2, size=2), 0, side - 1)
            path.append(tuple(int(v) for v in site))
        table.reserve_path(cage, path)
        oracle_reserve_path(oracle, path)
        reference.reserve_path(cage, path)
    np.testing.assert_array_equal(table.blocked, oracle.blocked)
    np.testing.assert_array_equal(table.parked_from, oracle.parked_from)
    assert table.latest_parked_time() == oracle.latest_parked_time()
    for t in range(horizon + 2):
        for row in range(side):
            for col in range(side):
                assert (table.site_free((row, col), t)
                        == reference.site_free((row, col), t))


# -- random small batches, digested --------------------------------------------

def random_batches(count=320, seed=20261018):
    """``count`` random 2-40-cage batches on the 48x48 small chip.

    Each batch is ``(starts, goals, blocked)``: ``starts`` separation-legal
    lattice sites, ``goals`` a dict ``index -> goal`` for the movers (the
    other cages stay put), and ``blocked`` a dead-electrode mask for
    every fourth batch (None otherwise).  Moves are short (reach 6) in
    half the batches, like serving jobs, and anywhere on the chip in the
    rest.
    """
    rng = np.random.default_rng(seed)
    lattice = [(r, c) for r in range(0, 48, 2) for c in range(0, 48, 2)]
    batches = []
    while len(batches) < count:
        case = len(batches)
        n = int(rng.integers(2, 41))
        picks = rng.choice(len(lattice), size=n, replace=False)
        starts = [lattice[i] for i in picks.tolist()]
        movers = int(rng.integers(1, n + 1))
        reach = 6 if case % 2 == 0 else 48
        free = set(lattice) - set(starts[movers:])
        goals = {}
        for index in range(movers):
            start = starts[index]
            options = sorted(
                s for s in free if chebyshev_heuristic(s, start) <= reach
            )
            if not options:
                break
            goal = options[int(rng.integers(len(options)))]
            free.discard(goal)
            goals[index] = goal
        if len(goals) < movers:
            continue
        blocked = None
        if case % 4 == 3:
            blocked = rng.random((48, 48)) < 0.03
            for site in starts + list(goals.values()):
                blocked[site] = False
        batches.append((starts, goals, blocked))
    return batches


def stationary_first(moving):
    def priority(request):
        return (request.cage_id in moving,
                -chebyshev_heuristic(request.start, request.goal))
    return priority


def plan_digest(batches):
    """sha256 over every batch's plan (cage ids, sites, makespan and
    every stats counter but wall-clock seconds) or routing error."""
    digest = hashlib.sha256()
    for starts, goals, blocked in batches:
        requests = [
            RoutingRequest(i, start, goals.get(i, start))
            for i, start in enumerate(starts)
        ]
        router = WavefrontRouter(SMALL, blocked=blocked)
        try:
            plan = router.plan(requests, priority=stationary_first(set(goals)))
        except RoutingError as error:
            digest.update(f"error {error}".encode())
            continue
        digest.update(plan.cage_ids.astype(np.int64).tobytes())
        digest.update(plan.sites.astype(np.int32).tobytes())
        stats = {k: v for k, v in plan.stats.items() if k != "plan_seconds"}
        digest.update(repr((plan.makespan, sorted(stats.items()))).encode())
    return digest.hexdigest()


def chip_digest(batches):
    """sha256 over ``Biochip.move_many`` on one reused small chip: each
    report (minus wall-clock seconds), the history it logged, the final
    sites and the chip clock, batch after batch."""
    chip = Biochip.small_chip()
    digest = hashlib.sha256()
    for starts, goals, blocked in batches:
        if blocked is not None:
            continue
        cages = [chip.trap(site) for site in starts]
        mark = len(chip.history)
        try:
            report = chip.move_many(
                {cages[i].cage_id: goal for i, goal in goals.items()}
            )
        except Exception as error:  # noqa: BLE001 - the type is digested
            digest.update(f"{type(error).__name__} {error}".encode())
        else:
            report = {k: v for k, v in report.items() if k != "plan_seconds"}
            digest.update(repr(sorted(report.items())).encode())
        for when, kind, detail in chip.history[mark:]:
            detail = {k: v for k, v in detail.items() if k != "plan_seconds"}
            digest.update(repr((when, kind, sorted(detail.items()))).encode())
        digest.update(repr([c.site for c in cages]).encode())
        for cage in cages:
            chip.release(cage.cage_id)
        digest.update(repr(chip.elapsed).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def batches():
    return random_batches()


def test_random_batches_cover_the_tiers(batches):
    assert len(batches) >= 300
    sizes = [len(starts) for starts, __, __ in batches]
    assert min(sizes) == 2 and max(sizes) == 40


def test_random_batch_plans_match_recorded_digest(batches):
    assert plan_digest(batches) == PLAN_DIGEST


def test_random_batch_moves_match_recorded_digest(batches):
    assert chip_digest(batches) == CHIP_DIGEST
