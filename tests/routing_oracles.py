"""Behavioural references for the routing kernels.

These are the implementations the package replaced, kept as test
oracles: ``tests/test_routing_equivalence.py`` and
``tests/test_wavefront_kernel.py`` pin the package to them.

* :class:`AStarRouter` -- the space-time A* batch router: the
  :class:`~repro.routing.multi.BatchRouter` harness with a per-node
  heapq search against :class:`_ReservationTable`, a flat-set table
  that also tracks swap (edge) conflicts, so it runs at separation 1
  too.  Exact, but ~1.5 s per cage on a 320x320 array.
* :func:`oracle_wavefront` -- the wavefront level loop on numpy bool
  planes: one :func:`dilate8_into` plus a handful of whole-window mask
  ops per level, backtracking with nine scalar probes per step.  It
  reads the production reservation table, unpacking its bit planes.
* :class:`OracleWavefrontRouter` -- :class:`WavefrontRouter` with
  :func:`oracle_wavefront` as its kernel.
* :func:`bfs_distance_field` -- a plain-Python king-move BFS, the
  reference for :func:`repro.routing.astar.distance_field`.
* :func:`oracle_direct_path`, :func:`oracle_min_arrival` and
  :func:`oracle_reserve_path` -- the numpy forms of the wavefront
  router's small-plan probes: the direct king path checked as one
  vectorized gather, the goal-settle scan as ``np.nonzero`` over a
  gathered bit column, and the reservation write as one scatter per
  byte of the window run (the package keeps that scatter for long
  paths only).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.routing.astar import (
    MOVES_8,
    WAIT,
    RoutingError,
    chebyshev_heuristic,
    downhill_path,
)
from repro.routing.multi import BatchRouter, WavefrontRouter


class _ReservationTable:
    """Space-time occupancy with separation semantics (reference).

    A candidate site conflicts when it comes within ``separation``
    (Chebyshev) of any reserved site at the same step, or crosses
    another cage's edge in the swap sense.  Reservations are kept
    *pre-inflated* -- a per-timestep set of blocked flat indices for
    transient path sites, plus one ``parked_from`` table holding the
    earliest time each site becomes permanently blocked by a parked
    cage -- so ``site_free`` is two O(1) lookups instead of a scan
    over every reserved and parked site.  Flat Python structures, not
    numpy: the space-time A* probes ``site_free`` millions of times
    and a list/set lookup is several times faster than a numpy scalar
    read.
    """

    _NEVER = 1 << 30

    def __init__(self, separation, shape):
        self.separation = separation
        self._rows, self._cols = shape
        self._blocked = {}  # t -> set[flat site index], inflated
        self._parked_from = [self._NEVER] * (self._rows * self._cols)
        self._edges = {}  # t -> set[(from, to)]
        self._latest_parked = 0

    def _window_indices(self, site):
        radius = self.separation - 1
        row0 = max(0, site[0] - radius)
        row1 = min(self._rows - 1, site[0] + radius)
        col0 = max(0, site[1] - radius)
        col1 = min(self._cols - 1, site[1] + radius)
        for row in range(row0, row1 + 1):
            base = row * self._cols
            for col in range(col0, col1 + 1):
                yield base + col

    def reserve_path(self, cage_id, path):
        path = [tuple(site) for site in np.asarray(path).reshape(-1, 2)]
        from_t = len(path) - 1
        # Transient sites: everything but the last.  (The last site's
        # window is covered for all t >= from_t by the parked table, so
        # a blocked entry there would be redundant -- and stationary
        # cages, planned as zero-length paths, skip this loop entirely.)
        for t in range(from_t):
            self._blocked.setdefault(t, set()).update(
                self._window_indices(path[t])
            )
        for t, (a, b) in enumerate(zip(path, path[1:])):
            self._edges.setdefault(t, set()).add((a, b))
        parked = self._parked_from
        for index in self._window_indices(path[-1]):
            if from_t < parked[index]:
                parked[index] = from_t
        self._latest_parked = max(self._latest_parked, from_t)

    def site_free(self, site, t) -> bool:
        index = site[0] * self._cols + site[1]
        if self._parked_from[index] <= t:
            return False
        blocked = self._blocked.get(t)
        return blocked is None or index not in blocked

    def edge_free(self, a, b, t) -> bool:
        """Reject swap/through conflicts: nobody may traverse b->a at t."""
        return (b, a) not in self._edges.get(t, set())

    def latest_parked_time(self) -> int:
        return self._latest_parked


@dataclass
class AStarRouter(BatchRouter):
    """The prioritised planner with per-cage space-time A*.

    ``max_expansions`` is the per-cage search budget; the plan's
    ``stats["expansions"]`` counts the nodes expanded.
    """

    max_expansions: int = 400000

    planner_name = "astar"
    counter_names = ("expansions",)

    def _make_table(self, horizon):
        return _ReservationTable(
            self.min_separation, (self.grid.rows, self.grid.cols)
        )

    def _route_one(self, request, table, horizon):
        """Space-time A* for one cage against the reservation table."""
        start, goal = request.start, request.goal
        # State: (site, t).  A cage may arrive and park only if the goal
        # stays conflict-free afterwards; we approximate by requiring the
        # goal to be free at arrival and at the table's latest parked
        # time (after which nothing reserved moves any more).
        settle_time = table.latest_parked_time()

        def arrival_ok(t):
            check = max(t, settle_time)
            return all(table.site_free(goal, tt) for tt in range(t, check + 1))

        open_heap = [(chebyshev_heuristic(start, goal), 0, start)]
        g_best = {(start, 0): 0}
        came_from = {}
        expansions = 0
        while open_heap:
            __, t, site = heapq.heappop(open_heap)
            if g_best.get((site, t), float("inf")) < t:
                continue
            if site == goal and arrival_ok(t):
                self._counters["expansions"] += expansions
                return self._reconstruct(came_from, (site, t))
            if t >= horizon:
                continue
            expansions += 1
            if expansions > self.max_expansions:
                raise RoutingError(
                    f"cage {request.cage_id}: space-time search budget exhausted"
                )
            blocked_flat = self._blocked_flat
            for dr, dc in MOVES_8 + (WAIT,):
                nxt = (site[0] + dr, site[1] + dc)
                if not self.grid.in_bounds(*nxt):
                    continue
                if (blocked_flat is not None
                        and blocked_flat[nxt[0] * self.grid.cols + nxt[1]]
                        and nxt != start):
                    # dead electrode: no cage centre may enter (waiting
                    # on a blocked *start* stays legal -- the cage must
                    # be able to leave a site that died under it)
                    continue
                nt = t + 1
                if not table.site_free(nxt, nt):
                    continue
                if not table.edge_free(site, nxt, t):
                    continue
                if nt < g_best.get((nxt, nt), float("inf")):
                    g_best[(nxt, nt)] = nt
                    came_from[(nxt, nt)] = (site, t)
                    priority = nt + chebyshev_heuristic(nxt, goal)
                    heapq.heappush(open_heap, (priority, nt, nxt))
        raise RoutingError(
            f"cage {request.cage_id}: no conflict-free route within horizon {horizon}"
        )

    @staticmethod
    def _reconstruct(came_from, state):
        path = [state[0]]
        while state in came_from:
            state = came_from[state]
            path.append(state[0])
        path.reverse()
        return path


def dilate8_into(src, out, tmp):
    """One-step 8-neighbour (king move) dilation of a 2-D bool grid.

    Writes ``src`` OR'd with its eight shifted copies into ``out`` and
    returns ``out``.  ``src``, ``out`` and ``tmp`` must be distinct
    same-shaped bool arrays: a horizontal pass (``src`` -> ``tmp``)
    followed by a vertical pass (``tmp`` -> ``out``).
    """
    np.copyto(tmp, src)
    tmp[:, :-1] |= src[:, 1:]
    tmp[:, 1:] |= src[:, :-1]
    np.copyto(out, tmp)
    out[:-1, :] |= tmp[1:, :]
    out[1:, :] |= tmp[:-1, :]
    return out


def blocked_plane(table, t):
    """The table's time-``t`` blocked plane as padded bool
    ``(rows + 2r, cols + 2r)``."""
    width = table.cols + 2 * table.radius
    bits = np.unpackbits(table.blocked[t], axis=1, bitorder="little")
    return bits[:, :width].view(bool)


def oracle_wavefront(router, start, goal, min_arrival, table, horizon, bounds):
    """Level-synchronous masked BFS inside ``bounds`` on bool planes.

    Same contract as :meth:`WavefrontRouter._wavefront`: returns
    ``("found", path)``, ``("grow", None)`` or ``("dead", None)`` and
    adds one to ``router._counters["frontier_steps"]`` per level.
    """
    row0, row1, col0, col1 = bounds
    height, width = row1 - row0 + 1, col1 - col0 + 1
    radius = table.radius
    window = (slice(row0, row1 + 1), slice(col0, col1 + 1))
    padded = (
        slice(row0 + radius, row1 + 1 + radius),
        slice(col0 + radius, col1 + 1 + radius),
    )
    free = np.ones((height, width), dtype=bool)
    if router._blocked_arr is not None:
        np.logical_not(router._blocked_arr[window], out=free)
    start_local = (start[0] - row0, start[1] - col0)
    goal_local = (goal[0] - row0, goal[1] - col0)
    free[start_local] = True
    parked = table.parked_from[padded]
    stack = np.empty((horizon + 1, height, width), dtype=bool)
    scratch = np.empty((height, width), dtype=bool)
    current = stack[0]
    current[:] = False
    current[start_local] = True
    settle = table.latest_parked_time()
    counters = router._counters
    arrived = -1
    touched_border = False
    for t in range(1, horizon + 1):
        frontier = stack[t]
        dilate8_into(current, frontier, scratch)
        frontier &= free
        np.greater(parked, t, out=scratch)
        frontier &= scratch
        np.logical_not(blocked_plane(table, t)[padded], out=scratch)
        frontier &= scratch
        counters["frontier_steps"] += 1
        if t >= min_arrival and frontier[goal_local]:
            arrived = t
            break
        touched_border = touched_border or bool(
            frontier[0].any() or frontier[-1].any()
            or frontier[:, 0].any() or frontier[:, -1].any()
        )
        if not frontier.any():
            return ("grow" if touched_border else "dead"), None
        if t > settle and np.array_equal(frontier, current):
            return ("grow" if touched_border else "dead"), None
        current = frontier
    if arrived < 0:
        return "grow", None
    path = np.empty((arrived + 1, 2), dtype=np.int32)
    path[arrived] = (goal[0], goal[1])
    row, col = goal_local
    for t in range(arrived, 0, -1):
        previous = stack[t - 1]
        best = None
        best_distance = None
        for dr, dc in (WAIT,) + MOVES_8:
            prow, pcol = row + dr, col + dc
            if not (0 <= prow < height and 0 <= pcol < width):
                continue
            if not previous[prow, pcol]:
                continue
            d = max(abs(prow + row0 - start[0]), abs(pcol + col0 - start[1]))
            if best is None or d < best_distance:
                best, best_distance = (prow, pcol), d
        row, col = best
        path[t - 1] = (row + row0, col + col0)
    return "found", path


class OracleWavefrontRouter(WavefrontRouter):
    """The production router with the numpy bool-plane kernel."""

    def _wavefront(self, start, goal, min_arrival, table, horizon, bounds):
        return oracle_wavefront(
            self, start, goal, min_arrival, table, horizon, bounds
        )


def bfs_distance_field(free, source, max_levels=None):
    """King-move BFS distances from ``source`` over ``free``, one queue
    pop per site; -1 where unreachable or beyond ``max_levels``."""
    free = np.asarray(free, dtype=bool)
    rows, cols = free.shape
    field = [[-1] * cols for __ in range(rows)]
    field[source[0]][source[1]] = 0
    queue = deque([tuple(source)])
    while queue:
        row, col = queue.popleft()
        level = field[row][col] + 1
        if max_levels is not None and level > max_levels:
            continue
        for dr, dc in MOVES_8:
            r, c = row + dr, col + dc
            if 0 <= r < rows and 0 <= c < cols and free[r, c] and field[r][c] < 0:
                field[r][c] = level
                queue.append((r, c))
    return np.asarray(field, dtype=np.int32)


def _blocked_bits(table, t, rows, cols):
    """Transient-blocked flags (0/1) of plane(s) ``t`` at *padded*
    ``(rows, cols)``; numpy index arrays broadcast as in a gather."""
    byte, shift = np.divmod(cols, 8)
    return (table.blocked[t, rows, byte] >> shift) & 1


def oracle_min_arrival(table, goal):
    """Earliest legal arrival at ``goal``: one past its last transient
    reservation up to the table's settle time (0 when there is none)."""
    radius = table.radius
    upto = min(table.latest_parked_time(), table.blocked.shape[0] - 1)
    transients = np.nonzero(
        _blocked_bits(table, slice(0, upto + 1), goal[0] + radius,
                      goal[1] + radius)
    )[0]
    return int(transients[-1]) + 1 if transients.size else 0


def oracle_direct_path(router, start, goal, min_arrival, table, horizon):
    """The static-shortest path probed as one vectorized gather (same
    contract as :meth:`WavefrontRouter._direct_path`)."""
    distance = chebyshev_heuristic(start, goal)
    if distance == 0:
        return np.asarray([start], dtype=np.int32) if min_arrival == 0 else None
    if router._blocked_arr is None:
        steps = np.arange(distance + 1)
        dr, dc = goal[0] - start[0], goal[1] - start[1]
        row_seq = start[0] + np.sign(dr) * np.minimum(steps, abs(dr))
        col_seq = start[1] + np.sign(dc) * np.minimum(steps, abs(dc))
    else:
        fld = router._static_distance(goal)
        if fld[start] != distance:
            return None
        walk = np.asarray(downhill_path(fld, start), dtype=np.int64)
        row_seq, col_seq = walk[:, 0], walk[:, 1]
    arrival = max(distance, min_arrival)
    if arrival > horizon:
        return None
    waits = arrival - distance
    if waits:
        row_seq = np.concatenate(
            [np.full(waits, start[0], dtype=np.int64), row_seq]
        )
        col_seq = np.concatenate(
            [np.full(waits, start[1], dtype=np.int64), col_seq]
        )
    radius = table.radius
    t_seq = np.arange(1, arrival + 1)
    rows = row_seq[1:] + radius
    cols = col_seq[1:] + radius
    if (table.parked_from[rows, cols] <= t_seq).any():
        return None
    if _blocked_bits(table, t_seq, rows, cols).any():
        return None
    return np.column_stack([row_seq, col_seq]).astype(np.int32)


def oracle_reserve_path(table, path):
    """Reserve ``path`` with one scatter per byte of the window run over
    every (t, window row) at once (t differs along the path, so no index
    repeats within a scatter)."""
    arr = np.asarray(path, dtype=np.int64).reshape(-1, 2)
    from_t = len(arr) - 1
    radius = table.radius
    if from_t > 0:
        __, plane_rows, row_bytes = table.blocked.shape
        run = (1 << (2 * radius + 1)) - 1
        run_bytes = (2 * radius + 1 + 7 + 7) // 8
        window_rows = np.arange(2 * radius + 1) * row_bytes
        byte, shift = np.divmod(arr[:from_t, 1], 8)
        top = np.arange(from_t) * plane_rows + arr[:from_t, 0]
        index = (top * row_bytes + byte)[:, None] + window_rows
        bits = (run << shift)[:, None]
        flat = table.blocked.reshape(-1)
        for k in range(run_bytes):
            flat[index + k] |= ((bits >> (8 * k)) & 0xFF).astype(np.uint8)
    goal_r = int(arr[-1, 0]) + radius
    goal_c = int(arr[-1, 1]) + radius
    window = table.parked_from[
        goal_r - radius : goal_r + radius + 1,
        goal_c - radius : goal_c + radius + 1,
    ]
    np.minimum(window, from_t, out=window)
    table._latest_parked = max(table._latest_parked, from_t)
