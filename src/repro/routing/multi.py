"""Concurrent multi-cage routing: prioritised space-time planning.

Moving many cages at once is the platform's whole point ("tens of
thousands of DEP cages ... shifted, dragging along the trapped
particles"), and it is a multi-agent path-finding problem with a
domain-specific constraint: cage *centres* must stay ``min_separation``
electrodes apart at every intermediate frame, or the field minima merge
and particles are lost.

* :class:`BatchRouter` -- the prioritised-planning harness: each cage
  is planned in priority order against a space-time reservation table
  (waits allowed), trapped cages are promoted and the batch replanned,
  and a conflict-free synchronous plan is guaranteed on success.  It
  validates requests, keeps the planner stats and owns the
  ``routing.plan`` span; subclasses supply the per-cage search.
* :class:`WavefrontRouter` -- the planner: grid moves are unit-cost,
  so per-cage earliest-arrival search collapses to a level-synchronous
  BFS whose frontiers are whole-window dilations of one packed
  row-bitset integer, masked each timestep by the reservation table's
  pre-inflated bit planes.  One cage's plan is a handful of masked
  dilations (or a single vectorized probe of the direct path).

The per-node space-time A* this planner replaced survives as a test
oracle (``tests/routing_oracles.py``).  The greedy baseline in
:mod:`repro.routing.greedy` shows why planning is needed at all.
"""

from __future__ import annotations

import mmap
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..array.grid import ElectrodeGrid
from ..array.state import first_pairwise_violation
from ..observability import tracing
from .astar import (
    MOVES_8,
    WAIT,
    RoutingError,
    chebyshev_heuristic,
    distance_field,
    downhill_path,
)
from .bitrows import dilate8, pack_rows, repeat_rows, row_stride


def _towards(a, b, length):
    """``length + 1`` values stepping from ``a`` to ``b`` by one, then
    holding at ``b``: one coordinate of a Chebyshev-optimal king path."""
    step = 1 if b >= a else -1
    return list(range(a, b + step, step)) + [b] * (length - abs(b - a))


@lru_cache(maxsize=None)
def _window_ors(radius, row_bytes):
    """A reserved window as byte ORs, per in-byte shift of its first
    column: ``[shift] -> ((byte offset, value), ...)`` over the window's
    ``2 * radius + 1`` rows, zero bytes left out."""
    run = (1 << (2 * radius + 1)) - 1
    n_bytes = (2 * radius + 1 + 7 + 7) // 8
    table = []
    for shift in range(8):
        bits = run << shift
        table.append(tuple(
            (k * row_bytes + b, bits >> (8 * b) & 0xFF)
            for k in range(2 * radius + 1)
            for b in range(n_bytes)
            if bits >> (8 * b) & 0xFF
        ))
    return tuple(table)


@dataclass
class RoutingRequest:
    """One cage's routing job: from ``start`` to ``goal``."""

    cage_id: int
    start: tuple
    goal: tuple

    def __post_init__(self):
        self.start = tuple(self.start)
        self.goal = tuple(self.goal)


class BatchPlan:
    """A synchronous conflict-free plan for a batch of cages.

    Paths are stored as one ``(cages, makespan + 1, 2)`` int array
    (cages that arrive early hold their goal), so executing a plan is
    a per-frame vectorized diff instead of re-walking a path dict per
    cage per frame.  ``paths`` materialises the legacy dict-of-site-
    lists view on demand.

    ``stats`` carries planner observability: planner name, cage count,
    makespan, replans, the planner's own counters (for the wavefront:
    direct-path and greedy-walk hits and frontier dilations), and
    wall-clock planning seconds.
    """

    def __init__(self, paths=None, makespan=0, *,
                 cage_ids=None, sites=None, stats=None):
        if sites is None:
            paths = {} if paths is None else paths
            cage_ids = np.fromiter(
                paths.keys(), dtype=np.int64, count=len(paths)
            )
            sites = np.zeros((len(paths), makespan + 1, 2), dtype=np.int32)
            for i, path in enumerate(paths.values()):
                arr = np.asarray(path, dtype=np.int32).reshape(-1, 2)
                sites[i, : len(arr)] = arr
                sites[i, len(arr):] = arr[-1]
        self._cage_ids = np.asarray(cage_ids, dtype=np.int64)
        self._sites = sites
        self._deltas = None  # per-frame moves, built on first use
        self._moving = None
        self._paths = None
        self.makespan = makespan
        self.stats = stats if stats is not None else {}

    def _frame_moves(self):
        """(deltas (cages, makespan, 2), moving (cages, makespan))."""
        if self._deltas is None:
            self._deltas = self._sites[:, 1:] - self._sites[:, :-1]
            self._moving = self._deltas.any(axis=2)
        return self._deltas, self._moving

    @property
    def cage_ids(self):
        """Planned cage ids, int64 (cages,), in planning order."""
        return self._cage_ids

    @property
    def sites(self):
        """Site array, int32 (cages, makespan + 1, 2)."""
        return self._sites

    @property
    def paths(self) -> dict:
        """cage_id -> list of (row, col) sites of uniform length
        ``makespan + 1`` (the legacy dict view, built on demand)."""
        if self._paths is None:
            self._paths = {
                int(cage_id): [tuple(site) for site in path.tolist()]
                for cage_id, path in zip(self._cage_ids, self._sites)
            }
        return self._paths

    def moves_at(self, step) -> dict:
        """Move dict {cage_id: (drow, dcol)} for frame ``step`` (0-based)."""
        ids, deltas = self.moves_arrays_at(step)
        return {
            int(cage_id): (int(dr), int(dc))
            for cage_id, (dr, dc) in zip(ids, deltas)
        }

    def moves_arrays_at(self, step):
        """Vectorized movers of frame ``step``: (ids, deltas) arrays.

        ``ids`` is int64 (movers,), ``deltas`` int32 (movers, 2); waits
        are already filtered out.  This is the zero-copy-ish path the
        execution layer feeds straight to
        :meth:`~repro.array.cages.CageManager.step_arrays`.
        """
        if not 0 <= step < self.makespan:
            raise IndexError("step outside plan horizon")
        deltas, moving = self._frame_moves()
        moving = moving[:, step]
        return self._cage_ids[moving], deltas[moving, step]

    def diagonal_steps(self) -> list:
        """Per frame, whether any cage moves diagonally (bools, length
        ``makespan``): the frames whose dwell is a pitch times sqrt 2."""
        deltas, __ = self._frame_moves()
        return deltas.all(axis=2).any(axis=0).tolist()

    def total_moves(self) -> int:
        """Total non-wait single-cage moves in the plan."""
        return int(np.count_nonzero(self._frame_moves()[1]))


class _VectorReservationTable:
    """Space-time occupancy with separation semantics, as bit planes.

    A candidate site conflicts when it comes within ``separation``
    (Chebyshev) of any reserved site at the same step.  Reservations
    are kept *pre-inflated* -- transient path windows per timestep,
    plus a parked-from table holding the earliest time each site
    becomes permanently blocked by a parked cage -- so a probe never
    scans the reserved population.  The per-timestep blocked sets are
    bit planes of a single ``uint8``
    ``(horizon + 2, rows + 2r, stride // 8)`` array (the
    :mod:`~repro.routing.bitrows` layout: little bit order, column ``c``
    at bit ``c + r``) and ``parked_from`` an int grid, both padded by
    the inflation radius ``r`` so window writes and band reads never
    need bounds clipping.  ``reserve_path`` ORs a short path's windows
    in byte by byte and a long one's with one vectorized scatter per
    byte a window row spans, and the wavefront reads a window's row
    band at time ``t`` as one contiguous byte slice (:meth:`band`)
    instead of probing ``site_free`` per node.

    Edge (swap) conflicts are not tracked: with ``separation >= 2`` a
    swap is unreachable, because any site adjacent to a reserved
    cage's position is already inside its inflated window at that
    timestep.  :class:`WavefrontRouter` refuses smaller separations.
    """

    _NEVER = 1 << 30
    #: Paths of at most this many steps are reserved by scalar byte
    #: writes (~1 us a step); longer ones by the numpy scatter, whose
    #: ~30 us fixed cost only pays off past about 30 steps.
    SCALAR_PATH_STEPS = 24

    def __init__(self, separation, shape, horizon):
        self.separation = separation
        self.radius = separation - 1
        self.rows, self.cols = shape
        self.horizon = horizon
        pad = 2 * self.radius
        self.stride = row_stride(self.cols, self.radius)
        shape = (horizon + 2, self.rows + pad, self.stride // 8)
        # An anonymous mapping rather than a heap buffer: pages stay
        # zero and non-resident until a reservation writes them, and
        # dropping the table unmaps them.  (Freeing a multi-MB malloc'd
        # buffer raises glibc's dynamic mmap threshold, after which the
        # process keeps later multi-MB arrays on its heap: ~20 MB more
        # peak RSS over a few 320x320 isolation assays.)  Numpy scatters
        # and gathers go through ``blocked``; scalar probes index
        # ``data``, the same bytes, as plain Python ints.
        self.data = mmap.mmap(-1, shape[0] * shape[1] * shape[2])
        self.blocked = np.frombuffer(self.data, dtype=np.uint8).reshape(shape)
        self.parked_from = np.full(
            (self.rows + pad, self.cols + pad), self._NEVER, dtype=np.int64
        )
        self._latest_parked = 0
        # A window row is a run of 2r + 1 bits starting at the site's
        # grid column (its padded column minus r); shifted by up to 7
        # bits it spans this many bytes of a packed row.
        self._run = (1 << (2 * self.radius + 1)) - 1
        self._run_bytes = (2 * self.radius + 1 + 7 + 7) // 8
        self.row_bytes = self.stride // 8
        self.plane_bytes = shape[1] * self.row_bytes
        self._window_ors = _window_ors(self.radius, self.row_bytes)

    def reserve_path(self, cage_id, path):
        radius = self.radius
        from_t = len(path) - 1
        if from_t > self.SCALAR_PATH_STEPS:
            # One scatter per byte of the window run, over every
            # (t, window row) of the path at once: t differs along the
            # path, so no index repeats within a scatter.  A run that
            # fits in fewer bytes ORs zero into the next byte, which
            # always exists (plane horizon + 1 is never written).
            arr = np.asarray(path, dtype=np.int64).reshape(-1, 2)
            __, plane_rows, row_bytes = self.blocked.shape
            byte, shift = np.divmod(arr[:from_t, 1], 8)
            top = np.arange(from_t) * plane_rows + arr[:from_t, 0]
            window_rows = np.arange(2 * radius + 1) * row_bytes
            index = (top * row_bytes + byte)[:, None] + window_rows
            bits = (self._run << shift)[:, None]
            flat = self.blocked.reshape(-1)
            for k in range(self._run_bytes):
                flat[index + k] |= ((bits >> (8 * k)) & 0xFF).astype(np.uint8)
        else:
            # Byte-wise ORs into the mapping: step t's window, shifted
            # to its column, from the per-shift (offset, value) table.
            data = self.data
            row_bytes = self.row_bytes
            plane_bytes = self.plane_bytes
            window_ors = self._window_ors
            sites = path.tolist() if isinstance(path, np.ndarray) else path
            for t in range(from_t):
                row, col = sites[t]
                base = t * plane_bytes + row * row_bytes + (col >> 3)
                for offset, value in window_ors[col & 7]:
                    data[base + offset] |= value
        goal = path[-1]
        goal_r = int(goal[0]) + radius
        goal_c = int(goal[1]) + radius
        window = self.parked_from[
            goal_r - radius : goal_r + radius + 1,
            goal_c - radius : goal_c + radius + 1,
        ]
        np.minimum(window, from_t, out=window)
        self._latest_parked = max(self._latest_parked, from_t)

    def blocked_bit(self, t, row, col) -> int:
        """Transient-blocked flag (0/1) of plane ``t`` at *padded*
        ``(row, col)``, read from the mapping as a plain int."""
        return self.data[
            t * self.plane_bytes + row * self.row_bytes + (col >> 3)
        ] >> (col & 7) & 1

    def band(self, t, row0, row1):
        """Blocked plane ``t`` over grid rows ``row0..row1`` as a band
        integer (:mod:`~repro.routing.bitrows` layout)."""
        radius = self.radius
        return int.from_bytes(
            self.blocked[t, row0 + radius : row1 + radius + 1], "little"
        )

    def site_free(self, site, t) -> bool:
        """Scalar probe (tests pin it to the oracle reference table)."""
        row = site[0] + self.radius
        col = site[1] + self.radius
        if self.parked_from[row, col] <= t:
            return False
        if t < self.blocked.shape[0]:
            return not self.blocked_bit(t, row, col)
        return True

    def latest_parked_time(self) -> int:
        return self._latest_parked


@dataclass
class BatchRouter:
    """Prioritised space-time planning harness for simultaneous cage motion.

    Validates the batch, orders it by priority, plans each cage against
    a shared reservation table, promotes trapped cages and replans, and
    reports the plan's stats.  A subclass supplies the search: a
    ``planner_name``, the names of the counters it keeps in
    ``self._counters`` (``counter_names``), ``_make_table(horizon)``
    returning a fresh reservation table (``reserve_path`` and
    ``latest_parked_time``), and ``_route_one(request, table, horizon)``
    returning one cage's path or raising :class:`RoutingError`.
    :class:`WavefrontRouter` is the package's planner.

    Parameters
    ----------
    grid:
        Array geometry.
    min_separation:
        Cage-centre spacing rule (match the
        :class:`~repro.array.cages.CageManager`).
    horizon_slack:
        Extra timesteps allowed beyond the lower-bound makespan before a
        cage's search is declared failed.
    blocked:
        Optional bool mask of statically forbidden cage-centre sites
        (dead electrodes).  Uninflated: only the centre is excluded.
        Starts on blocked sites are tolerated (a fault may flip under a
        live cage, which must still be able to escape); goals are not.
    replan_attempts:
        Prioritised planning is incomplete: a cage can be sealed in by
        cages planned before it that park across its only corridor
        (corner starts are the classic case).  On failure the whole
        batch is replanned with every trapped cage promoted to the
        front of the order -- it then routes before its jailers park.
        This many retries are allowed before the error propagates.
    """

    grid: ElectrodeGrid
    min_separation: int = 2
    horizon_slack: int = 40
    blocked: object = None
    replan_attempts: int = 2

    planner_name = None
    counter_names = ()

    def __post_init__(self):
        self._blocked_flat = None  # built per plan() call
        self._blocked_arr = None
        self._counters = {}

    def plan(self, requests, priority=None):
        """Plan all requests; returns a :class:`BatchPlan`.

        Parameters
        ----------
        requests:
            List of :class:`RoutingRequest`; starts must be mutually
            separation-legal (they come from a live
            :class:`~repro.array.cages.CageManager` so they are), and
            goals must be pairwise separation-legal too.
        priority:
            Optional ordering key over requests; default plans longer
            jobs first (they are the hardest to fit).

        Raises
        ------
        RoutingError
            When any cage cannot reach its goal within the horizon.
        """
        # Planning is host work, not chip time: the span is wall-only
        # (no domain clock) and carries the plan's own stats --
        # makespan, replans and the planner's counters.
        with tracing.span("routing.plan") as span:
            plan = self._plan(requests, priority=priority)
            if span.recording:
                span.set_attributes(dict(plan.stats))
            return plan

    def _plan(self, requests, priority=None):
        """The untraced :meth:`plan` body."""
        requests = list(requests)
        self._blocked_arr = (
            np.asarray(self.blocked, dtype=bool)
            if self.blocked is not None
            else None
        )
        # Flat-list probe table for the static blocked mask: scalar
        # probes read a Python list several times faster than a numpy
        # scalar.
        self._blocked_flat = (
            self._blocked_arr.ravel().tolist()
            if self._blocked_arr is not None
            else None
        )
        self._validate(requests)
        if priority is None:
            def priority(req):
                return -chebyshev_heuristic(req.start, req.goal)
        ordered = sorted(requests, key=priority)
        horizon = (
            max(
                (chebyshev_heuristic(r.start, r.goal) for r in requests),
                default=0,
            )
            + self.horizon_slack
        )
        self._counters = dict.fromkeys(self.counter_names, 0)
        started = time.perf_counter()
        promoted = []  # trapped cage ids, planned first on the retry
        for attempt in range(self.replan_attempts + 1):
            table = self._make_table(horizon)
            paths = {}
            failed = []
            rank = {cage_id: i for i, cage_id in enumerate(promoted)}
            batch = sorted(ordered, key=lambda r: rank.get(r.cage_id, len(rank)))
            for request in batch:
                try:
                    path = self._route_one(request, table, horizon)
                except RoutingError:
                    if attempt == self.replan_attempts:
                        raise
                    # keep going: one retry then discovers *every* cage
                    # trapped by this attempt's reservations at once
                    failed.append(request.cage_id)
                    continue
                table.reserve_path(request.cage_id, path)
                paths[request.cage_id] = path
            if not failed:
                break
            promoted = failed + [c for c in promoted if c not in failed]
        plan_seconds = time.perf_counter() - started
        makespan = max((len(p) - 1 for p in paths.values()), default=0)
        stats = {
            "planner": self.planner_name,
            "cages": len(requests),
            "makespan": makespan,
            "plan_seconds": plan_seconds,
            "replans": attempt,
            **self._counters,
        }
        return BatchPlan(paths=paths, makespan=makespan, stats=stats)

    def _make_table(self, horizon):
        raise NotImplementedError

    def _route_one(self, request, table, horizon):
        raise NotImplementedError

    def _validate(self, requests):
        seen = set()
        rows, cols = self.grid.rows, self.grid.cols
        blocked_flat = self._blocked_flat
        for request in requests:
            if request.cage_id in seen:
                raise RoutingError(f"duplicate cage id {request.cage_id}")
            seen.add(request.cage_id)
            for site, label in ((request.start, "start"), (request.goal, "goal")):
                if not (0 <= site[0] < rows and 0 <= site[1] < cols):
                    raise RoutingError(
                        f"cage {request.cage_id} {label} {site} out of bounds"
                    )
            if (blocked_flat is not None
                    and blocked_flat[request.goal[0] * cols + request.goal[1]]
                    and request.goal != request.start):
                raise RoutingError(
                    f"cage {request.cage_id} goal {request.goal} is a "
                    f"dead electrode"
                )
        for sites, label in (
            ([r.start for r in requests], "starts"),
            ([r.goal for r in requests], "goals"),
        ):
            # Vectorized all-pairs check (scatter + box-sum) instead of
            # the O(n^2) Python loop -- whole-array batches validate
            # tens of thousands of sites in milliseconds.
            violation = first_pairwise_violation(
                sites, self.min_separation, self.grid.rows, self.grid.cols
            )
            if violation is not None:
                a, b = violation
                raise RoutingError(f"{label} {a} and {b} violate separation")


@dataclass
class WavefrontRouter(BatchRouter):
    """Vectorized wavefront batch router.

    Plans in the :class:`BatchRouter` harness's prioritised order; each
    cage's space-time search is a level-synchronous BFS: the set
    of sites reachable at time ``t`` is one row-bitset integer
    (:mod:`~repro.routing.bitrows`), and the step to ``t + 1`` is a
    shift-based 8-neighbour dilation ANDed with the static free mask
    and the reservation table's time-``t+1`` blocked band.  Grid moves
    are unit cost, so this finds each cage's earliest arrival in
    O(frontier-levels) whole-window integer ops instead of O(nodes)
    heap expansions.

    Two short-cuts keep typical batches far off the mask path:

    * direct-path probe -- the Chebyshev-optimal king path (detoured by
      a cached per-goal static :func:`distance_field` when dead
      electrodes are present) is validated against the reservation
      planes as one vectorized gather; uncongested cages never build a
      frontier at all;
    * windowing -- the wavefront runs on the start/goal bounding box
      plus ``window_margin``, growing (to the full grid if needed)
      only when congestion forces a wide detour.

    ``min_separation`` must be at least 2, the platform's spacing rule:
    below it swaps become reachable, and the reservation planes do not
    encode edge conflicts.
    """

    window_margin: int = 8

    planner_name = "wavefront"
    counter_names = ("fast_path_hits", "greedy_walk_hits", "frontier_steps")

    def __post_init__(self):
        if self.min_separation < 2:
            raise ValueError(
                f"WavefrontRouter needs min_separation >= 2, "
                f"got {self.min_separation}"
            )
        super().__post_init__()
        self._field_cache = {}
        self._free_rows = None

    def _make_table(self, horizon):
        self._field_cache = {}
        table = _VectorReservationTable(
            self.min_separation,
            (self.grid.rows, self.grid.cols),
            horizon,
        )
        # the static free mask in the table's packed-row layout, read
        # per wavefront call as one band integer
        self._free_rows = (
            pack_rows(~self._blocked_arr, table.radius, table.stride)
            if self._blocked_arr is not None
            else None
        )
        return table

    def _route_one(self, request, table, horizon):
        start, goal = request.start, request.goal
        radius = table.radius
        settle = table.latest_parked_time()
        goal_r, goal_c = goal[0] + radius, goal[1] + radius
        if table.parked_from[goal_r, goal_c] <= settle:
            # a parked window covers the goal and never clears
            raise RoutingError(
                f"cage {request.cage_id}: no conflict-free route within "
                f"horizon {horizon}"
            )
        min_arrival = self._min_arrival(goal, table)
        path = self._direct_path(start, goal, min_arrival, table, horizon)
        if path is not None:
            self._counters["fast_path_hits"] += 1
            return path
        path = self._greedy_walk(start, goal, min_arrival, table, horizon)
        if path is not None:
            self._counters["greedy_walk_hits"] += 1
            return path
        rows, cols = self.grid.rows, self.grid.cols
        margin = self.window_margin
        while True:
            row0 = max(0, min(start[0], goal[0]) - margin)
            row1 = min(rows - 1, max(start[0], goal[0]) + margin)
            col0 = max(0, min(start[1], goal[1]) - margin)
            col1 = min(cols - 1, max(start[1], goal[1]) + margin)
            status, path = self._wavefront(
                start, goal, min_arrival, table, horizon,
                (row0, row1, col0, col1),
            )
            if status == "found":
                return path
            full = (row0, col0) == (0, 0) and (row1, col1) == (rows - 1, cols - 1)
            if status == "dead" or full:
                raise RoutingError(
                    f"cage {request.cage_id}: no conflict-free route within "
                    f"horizon {horizon}"
                )
            # congestion pushed the detour outside the window: widen it
            margin *= 4

    # -- fast path ---------------------------------------------------------

    def _static_distance(self, goal):
        """Static distance-to-goal field, shared across cages with the
        same goal (built only when a dead-electrode mask is present)."""
        field = self._field_cache.get(goal)
        if field is None:
            field = distance_field(~self._blocked_arr, goal)
            self._field_cache[goal] = field
        return field

    @staticmethod
    def _min_arrival(goal, table):
        """Earliest legal arrival at ``goal``: it must stay free from
        arrival through the table's settle time, which for transient
        blocks means one step after the last one (0 when there is
        none).  A scalar scan of the goal's bit down the planes, from
        the settle time, that stops at the first blocked plane."""
        col = goal[1] + table.radius
        # blocked_bit(t, row, col) with the (row, col) part hoisted: the
        # scan covers every plane up to the settle time
        offset = (goal[0] + table.radius) * table.row_bytes + (col >> 3)
        shift = col & 7
        data = table.data
        plane_bytes = table.plane_bytes
        upto = min(table.latest_parked_time(), table.blocked.shape[0] - 1)
        for t in range(upto, -1, -1):
            if data[t * plane_bytes + offset] >> shift & 1:
                return t + 1
        return 0

    def _direct_path(self, start, goal, min_arrival, table, horizon):
        """Probe the static-shortest path, one scalar read per step.

        Builds the Chebyshev-optimal king path (via the shared
        per-goal distance field when dead electrodes force a detour),
        prepends start waits if the goal needs settling time, and
        checks each (site, t) against the parked table and the
        reservation planes, stopping at the first blocked step.
        Returns the path as an int32 ``(arrival + 1, 2)`` array, or
        None when the probe fails and the full wavefront must run.
        """
        distance = chebyshev_heuristic(start, goal)
        if distance == 0:
            return np.asarray([start], dtype=np.int32) if min_arrival == 0 else None
        if self._blocked_arr is None:
            # each coordinate walks straight to the goal's, then holds
            rows = _towards(start[0], goal[0], distance)
            cols = _towards(start[1], goal[1], distance)
            walk = list(zip(rows, cols))
        else:
            fld = self._static_distance(goal)
            if fld[start] != distance:
                # start unreachable statically, or a dead-pixel detour
                # is needed: the wavefront handles both
                return None
            walk = downhill_path(fld, start)
        arrival = max(distance, min_arrival)
        if arrival > horizon:
            return None
        waits = arrival - distance
        if waits:
            walk = [walk[0]] * waits + walk
        radius = table.radius
        parked = table.parked_from
        for t in range(1, arrival + 1):
            row, col = walk[t]
            row += radius
            col += radius
            if parked[row, col] <= t or table.blocked_bit(t, row, col):
                return None
        return np.array(walk, dtype=np.int32)

    def _greedy_walk(self, start, goal, min_arrival, table, horizon):
        """Middle tier of the fast-path ladder: a scalar greedy walk.

        Steps one site at a time, always keeping the invariant
        ``t + static_distance(site) <= bound`` where ``bound`` is the
        cage's unconditional earliest arrival (static shortest distance
        vs goal settling time).  Because the invariant forbids losing
        ground, the walk either arrives exactly at ``bound`` -- which
        is provably the earliest arrival the wavefront would find, so
        accepting it preserves equivalence -- or gets stuck and returns None for the
        exact wavefront to take over.  Costs ~30 scalar probes per step
        versus a whole-window mask op per wavefront level, and dodges
        the single crossing tube that defeats the straight-line probe.
        """
        field = None
        if self._blocked_arr is None:
            static_dist = chebyshev_heuristic(start, goal)
        else:
            field = self._static_distance(goal)
            static_dist = int(field[start])
            if static_dist < 0:
                return None
        bound = max(static_dist, min_arrival)
        if bound > horizon:
            return None
        radius = table.radius
        parked = table.parked_from
        data = table.data
        __, plane_rows, row_bytes = table.blocked.shape
        blocked_flat = self._blocked_flat
        cols = self.grid.cols
        rows = self.grid.rows
        site = start
        path = [start]
        for t in range(1, bound + 1):
            slack = bound - t
            best = None
            plane = t * plane_rows
            for dr, dc in ((0, 0),) + MOVES_8:
                nr, nc = site[0] + dr, site[1] + dc
                if not (0 <= nr < rows and 0 <= nc < cols):
                    continue
                if field is not None:
                    remaining = int(field[nr, nc])
                    if remaining < 0:
                        continue
                else:
                    remaining = max(abs(nr - goal[0]), abs(nc - goal[1]))
                if remaining > slack:
                    continue  # would lose the earliest-arrival bound
                if (blocked_flat is not None
                        and blocked_flat[nr * cols + nc]
                        and (nr, nc) != start):
                    continue
                if parked[nr + radius, nc + radius] <= t:
                    continue
                pc = nc + radius
                byte = (plane + nr + radius) * row_bytes + (pc >> 3)
                if data[byte] >> (pc & 7) & 1:
                    continue
                if best is None or remaining < best[0]:
                    best = (remaining, nr, nc)
            if best is None:
                return None
            site = (best[1], best[2])
            path.append(site)
        return np.asarray(path, dtype=np.int32)

    # -- wavefront ---------------------------------------------------------

    def _wavefront(self, start, goal, min_arrival, table, horizon, bounds):
        """Level-synchronous masked BFS inside ``bounds``.

        Each level is one band integer in the reservation table's
        packed-row layout (:mod:`~repro.routing.bitrows`): grid rows
        ``row0..row1`` at the table's full padded row width, column
        ``c`` of band row ``i`` at bit ``i * stride + c + radius``.
        The step to ``t`` is a shift-based 8-dilation ANDed with the
        open mask (window, static free sites, parked-from > ``t``) and
        the complement of the table's time-``t`` blocked band -- about
        a dozen big-integer operations per level.

        Returns ``(status, path)``: ``("found", path)`` on success, or
        ``(status, None)`` where ``"grow"`` means the reached set was
        clipped by the window (a wider one may route) and ``"dead"``
        means the cage is provably stuck -- the reached set hit a
        fixpoint, or died out, without ever touching the window border,
        so no amount of widening changes the evolution.
        """
        row0, row1, col0, col1 = bounds
        height = row1 - row0 + 1
        radius = table.radius
        stride = table.stride
        window_row = ((1 << (col1 - col0 + 1)) - 1) << (col0 + radius)
        static = repeat_rows(window_row, height, stride)
        border = (
            window_row
            | window_row << ((height - 1) * stride)
            | repeat_rows(
                1 << (col0 + radius) | 1 << (col1 + radius), height, stride
            )
        )
        if self._free_rows is not None:
            static &= int.from_bytes(self._free_rows[row0 : row1 + 1], "little")
        # a cage may keep sitting on (or leave) an electrode that died
        # under it; only *entering* dead sites is forbidden
        current = 1 << ((start[0] - row0) * stride + start[1] + radius)
        static |= current
        goal_bit = 1 << ((goal[0] - row0) * stride + goal[1] + radius)
        # Parked windows only ever close: the open mask changes at the
        # band's distinct parked_from times, re-packed when t reaches one.
        parked = table.parked_from[row0 + radius : row1 + radius + 1]
        park_times = np.unique(parked[parked <= horizon]).tolist()
        park_times.append(horizon + 1)
        next_park = 0
        open_bits = static
        settle = table.latest_parked_time()
        levels = [current]
        arrived = -1
        touched_border = False
        status = "grow"
        for t in range(1, horizon + 1):
            if park_times[next_park] <= t:
                while park_times[next_park] <= t:
                    next_park += 1
                # ``parked`` is already padded: its column 0 is bit 0
                closed = pack_rows(parked <= t, 0, stride)
                open_bits = static ^ (static & int.from_bytes(closed, "little"))
            frontier = dilate8(current, stride) & open_bits
            # x ^ (x & b) clears b's bits without the negative ~b
            frontier ^= frontier & table.band(t, row0, row1)
            levels.append(frontier)
            if t >= min_arrival and frontier & goal_bit:
                arrived = t
                break
            touched_border = touched_border or bool(frontier & border)
            if not frontier:
                # the reached set died out entirely; unless it was ever
                # clipped by the window, widening cannot revive it
                status = "grow" if touched_border else "dead"
                break
            if t > settle and frontier == current:
                # static world from here on and the reached set is a
                # fixpoint that excludes the goal: genuinely stuck --
                # and provably so in any window if it never touched
                # this window's border
                status = "grow" if touched_border else "dead"
                break
            current = frontier
        self._counters["frontier_steps"] += len(levels) - 1
        if arrived < 0:
            return status, None
        # Backtrack through the stored levels: at each step pick the
        # predecessor closest to the start (ties prefer waiting, then
        # MOVES_8 order), which yields a direct, low-move path with the
        # earliest arrival time.  The 3x3
        # neighbourhood is three 3-bit slices of the previous level.
        path = np.empty((arrived + 1, 2), dtype=np.int32)
        path[arrived] = (goal[0], goal[1])
        row, col = goal[0] - row0, goal[1] + radius  # band row, bit column
        for t in range(arrived, 0, -1):
            previous = levels[t - 1]
            base = row * stride + col - 1
            neighbourhood = (
                previous >> (base - stride) & 7 if row else 0,
                previous >> base & 7,
                previous >> (base + stride) & 7,
            )
            best = None
            best_distance = None
            for dr, dc in (WAIT,) + MOVES_8:
                if not neighbourhood[dr + 1] >> (dc + 1) & 1:
                    continue
                d = max(
                    abs(row + dr + row0 - start[0]),
                    abs(col + dc - radius - start[1]),
                )
                if best is None or d < best_distance:
                    best, best_distance = (row + dr, col + dc), d
            row, col = best
            path[t - 1] = (row + row0, col - radius)
        return "found", path
