"""Behavioural references for the routing kernels.

These are the implementations the package replaced, kept as test
oracles: ``tests/test_wavefront_kernel.py`` pins the package to them.

* :func:`oracle_wavefront` -- the wavefront level loop on numpy bool
  planes: one :func:`dilate8_into` plus a handful of whole-window mask
  ops per level, backtracking with nine scalar probes per step.  It
  reads the production reservation table, unpacking its bit planes.
* :class:`OracleWavefrontRouter` -- :class:`WavefrontRouter` with
  :func:`oracle_wavefront` as its kernel.
* :func:`bfs_distance_field` -- a plain-Python king-move BFS, the
  reference for :func:`repro.routing.astar.distance_field`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.routing.astar import MOVES_8, WAIT
from repro.routing.multi import WavefrontRouter


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
