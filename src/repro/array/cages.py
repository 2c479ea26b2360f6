"""DEP cage management on the electrode grid.

A *cage* is the field minimum above a counter-phase electrode; the chip
holds one particle per cage and moves particles by stepping the
counter-phase site to a neighbouring electrode ("changing the pattern of
voltages, the DEP cages can be shifted, thus dragging along the trapped
particles").

:class:`CageManager` owns the set of live cages, enforces the spacing
rule that keeps neighbouring cages from merging accidentally, performs
atomic parallel steps, and emits the corresponding
:class:`~repro.array.patterns.ArrayFrame` sequence for the addressing
and physics layers.

Since the vectorization refactor the geometry bookkeeping lives in a
:class:`~repro.array.state.ArrayState` (numpy occupancy + cage-id
grids): a frame step validates only the movers' dirty neighbourhoods
with gather-indexed array ops, so stepping K cages out of the paper's
tens of thousands costs O(K), not O(population).  The original dict
implementation survives as a test oracle (``LegacyCageManager`` in
``tests/array_oracles.py``) for the equivalence suite and the
before/after benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .grid import ElectrodeGrid
from .patterns import ArrayFrame
from .state import NO_CAGE, ArrayState, separation_offsets


class CageError(Exception):
    """Violation of cage placement or motion rules."""


class DeadElectrodeError(CageError):
    """A cage centre was requested on a dead (fault-model) electrode."""


class Cage:
    """One DEP cage: an identity plus a grid site and optional payload.

    When created by the vectorized :class:`CageManager`, ``site`` is a
    live view into the manager's :class:`~repro.array.state.ArrayState`
    id-indexed site table, so batch steps never need a per-cage Python
    update pass.  Standalone construction (and the legacy manager)
    stores the site on the instance and assignment works as before.
    """

    __slots__ = ("cage_id", "payload", "_site", "_state")

    def __init__(self, cage_id, site, payload=None, state=None):
        self.cage_id = cage_id
        self.payload = payload
        self._state = state
        self._site = tuple(site) if state is None else None

    @property
    def site(self) -> tuple:
        """(row, col) of the cage centre."""
        if self._state is not None:
            return self._state.site_of(self.cage_id)
        return self._site

    @site.setter
    def site(self, value):
        if self._state is not None:
            raise AttributeError(
                "cage sites are owned by the ArrayState; move cages "
                "through CageManager.step"
            )
        self._site = tuple(value)

    @property
    def occupied(self) -> bool:
        return self.payload is not None

    def __repr__(self):
        return f"Cage(cage_id={self.cage_id}, site={self.site}, payload={self.payload!r})"


@dataclass
class CageManager:
    """The live set of cages on one array.

    Parameters
    ----------
    grid:
        Array geometry.
    min_separation:
        Minimum Chebyshev distance between any two cage centres.  With
        the counter-phase encoding, separation 2 guarantees each cage
        keeps its own ring of in-phase electrodes, so cages never share
        a wall and payloads cannot hop cages.  Separation 2 on a 320x320
        array allows 160 x 160 = 25,600 simultaneous cages -- the
        paper's "tens of thousands of DEP cages".
    """

    grid: ElectrodeGrid
    min_separation: int = 2
    _cages: dict = field(default_factory=dict)
    _next_id: int = 0

    def __post_init__(self):
        if self.min_separation < 1:
            raise CageError("min_separation must be >= 1")
        self._state = ArrayState(self.grid)

    # -- queries ---------------------------------------------------------

    def __len__(self):
        return len(self._cages)

    @property
    def state(self) -> ArrayState:
        """The numpy occupancy/cage-id grids (single source of truth)."""
        return self._state

    @property
    def cages(self):
        """List of live cages (stable id order)."""
        return [self._cages[cid] for cid in sorted(self._cages)]

    def cage(self, cage_id) -> Cage:
        """Look up a cage by id."""
        try:
            return self._cages[cage_id]
        except KeyError:
            raise CageError(f"no cage with id {cage_id}") from None

    def cage_at(self, site):
        """The cage occupying ``site``, or None."""
        site = tuple(site)
        if not self.grid.in_bounds(*site):
            return None
        cage_id = self._state.id_at(site)
        return self._cages[cage_id] if cage_id is not None else None

    def sites(self):
        """Sorted list of occupied sites (row-major grid order)."""
        return self._state.sites()

    def max_cage_count(self) -> int:
        """Capacity of the array under the separation rule."""
        step = self.min_separation
        return ((self.grid.rows + step - 1) // step) * (
            (self.grid.cols + step - 1) // step
        )

    def _conflicts(self, site, ignore_id=None):
        """Cage ids violating separation against a (proposed) site.

        Separation is a local property, so only the (2s-1)^2 site
        neighbourhood needs checking -- one clipped window gather on the
        cage-id grid, keeping creation O(1) per cage even with the
        paper's tens of thousands of cages live.
        """
        return self._state.ids_in_window(
            site, self.min_separation - 1, ignore_id=ignore_id
        )

    # -- mutations -------------------------------------------------------

    def set_dead_mask(self, mask):
        """Install the fault model's dead-electrode mask (see
        :meth:`~repro.array.state.ArrayState.set_dead_mask`)."""
        self._state.set_dead_mask(mask)

    def create(self, site, payload=None) -> Cage:
        """Create a cage at ``site``; raises on bounds/spacing violation."""
        site = tuple(site)
        if not self.grid.in_bounds(*site):
            raise CageError(f"cage site {site} out of bounds")
        if self._state.has_dead and self._state.dead[site]:
            raise DeadElectrodeError(
                f"cage site {site} is a dead electrode"
            )
        if self._state.window_occupied(site, self.min_separation - 1):
            raise CageError(f"cage at {site} violates min separation {self.min_separation}")
        cage = Cage(self._next_id, site, payload, state=self._state)
        self._state.add(cage.cage_id, site)
        self._cages[cage.cage_id] = cage
        self._next_id += 1
        return cage

    def release(self, cage_id):
        """Remove a cage (dropping its payload back to the chamber)."""
        cage = self.cage(cage_id)
        site = cage.site
        # Detach the cage from the state before the site entry dies, so
        # callers holding the returned object can still read its last
        # position.
        cage._state = None
        cage._site = site
        self._state.remove(site)
        del self._cages[cage_id]
        return cage

    def step(self, moves):
        """Atomically move several cages by one electrode each.

        Parameters
        ----------
        moves:
            Mapping of cage_id -> (drow, dcol) with each component in
            {-1, 0, +1}.  All moves are validated against the *post*
            state: the step is applied only if every destination is in
            bounds and the separation rule holds afterwards, otherwise
            ``CageError`` is raised and nothing changes.

        One call corresponds to one array-frame update: this is the
        granularity at which the addressing layer reprograms rows and
        the physics layer drags particles.  Validation is a dirty-region
        pass over the movers only (only pairs involving a mover can
        newly collide, swap, or violate separation), as vectorized
        gathers on the :class:`~repro.array.state.ArrayState` grids.
        """
        if not moves:
            return
        k = len(moves)
        if k <= 8:
            # Scalar fast path: for a handful of movers (single-cage
            # routing steps, small protocols) the numpy conversion and
            # gather setup costs more than it saves.  Same grids, same
            # checks, same error priorities.
            return self._step_scalar(moves)
        ids = np.fromiter(moves.keys(), dtype=np.int64, count=k)
        # Flattened scalar fromiter is ~3x faster than the (int64, 2)
        # record dtype for the dict -> array conversion, which dominates
        # whole-array steps.
        deltas = np.fromiter(
            chain.from_iterable(moves.values()), dtype=np.int64, count=2 * k
        ).reshape(k, 2)
        return self._step_vector(ids, deltas)

    def step_arrays(self, ids, deltas):
        """Array-native :meth:`step`: movers as ``(ids, deltas)`` arrays.

        This is the zero-conversion execution path for array-backed
        routing plans (:meth:`BatchPlan.moves_arrays_at
        <repro.routing.multi.BatchPlan.moves_arrays_at>` emits exactly
        this shape): ``ids`` int (movers,), ``deltas`` int (movers, 2).
        ``ids`` must be unique -- plans guarantee it, and the dict form
        of :meth:`step` cannot even express a duplicate.  Validation,
        error priorities, and atomicity match :meth:`step` exactly.
        """
        ids = np.asarray(ids, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64).reshape(-1, 2)
        if ids.size == 0:
            return
        if ids.size <= 8:
            moves = {
                int(cage_id): (int(dr), int(dc))
                for cage_id, (dr, dc) in zip(ids, deltas)
            }
            return self._step_scalar(moves)
        return self._step_vector(ids, deltas)

    def _step_vector(self, ids, deltas):
        state = self._state
        # Per-mover validity (vectorized, reported in the legacy
        # per-mover priority: oversize delta, then unknown cage, then
        # destination bounds -- for the first bad mover in moves order).
        bad_delta = (np.abs(deltas) > 1).any(axis=1)
        alive = state.alive_mask(ids)
        clipped = np.clip(ids, 0, state._site_r.size - 1)
        orig_r, orig_c = state.sites_of(clipped)
        dest_r = orig_r + deltas[:, 0]
        dest_c = orig_c + deltas[:, 1]
        bad_bounds = (
            (dest_r < 0)
            | (dest_r >= self.grid.rows)
            | (dest_c < 0)
            | (dest_c >= self.grid.cols)
        )
        bad = bad_delta | ~alive | bad_bounds
        if bad.any():
            index = int(np.argmax(bad))
            cage_id = int(ids[index])
            if bad_delta[index]:
                raise CageError(f"cage {cage_id}: step larger than one electrode")
            if not alive[index]:
                raise CageError(f"no cage with id {cage_id}")
            dest = (int(dest_r[index]), int(dest_c[index]))
            raise CageError(f"cage {cage_id}: destination {dest} out of bounds")
        if state.has_dead:
            on_dead = state.dead[dest_r, dest_c]
            if on_dead.any():
                index = int(np.argmax(on_dead))
                dest = (int(dest_r[index]), int(dest_c[index]))
                raise DeadElectrodeError(
                    f"cage {int(ids[index])}: destination {dest} is a "
                    f"dead electrode"
                )

        # Collisions (a): two movers claiming the same destination.
        dest_keys = dest_r * self.grid.cols + dest_c
        order = np.argsort(dest_keys, kind="stable")
        sorted_keys = dest_keys[order]
        dup = np.nonzero(sorted_keys[1:] == sorted_keys[:-1])[0]
        if dup.size:
            i, j = int(order[dup[0]]), int(order[dup[0] + 1])
            raise CageError(
                f"cages {int(ids[i])} and {int(ids[j])} collide at "
                f"{(int(dest_r[j]), int(dest_c[j]))}"
            )
        # Collisions (b): a mover's destination holds a non-mover.  A
        # pre-state occupant that IS a mover is a legal chain (it vacates
        # this frame) -- unless it swaps with us, handled below.
        occupant = state.cage_ids[dest_r, dest_c]
        occupied = occupant != NO_CAGE
        is_mover = np.zeros(state._site_r.size, dtype=bool)
        is_mover[ids] = True
        stationary_hit = occupied & ~is_mover[np.where(occupied, occupant, 0)]
        if stationary_hit.any():
            index = int(np.argmax(stationary_hit))
            raise CageError(
                f"cages {int(occupant[index])} and {int(ids[index])} "
                f"collide at {(int(dest_r[index]), int(dest_c[index]))}"
            )
        # Swaps: mover m lands on mover o's origin while o lands on m's
        # origin -- the cages would pass through each other mid-frame,
        # which physically merges them.
        chained = occupied & (occupant != ids)
        if chained.any():
            dest_of_r = np.full(state._site_r.size, -1, dtype=np.int64)
            dest_of_c = np.full(state._site_r.size, -1, dtype=np.int64)
            dest_of_r[ids] = dest_r
            dest_of_c[ids] = dest_c
            others = occupant[chained]
            swap = (dest_of_r[others] == orig_r[chained]) & (
                dest_of_c[others] == orig_c[chained]
            )
            if swap.any():
                index = int(np.nonzero(chained)[0][np.argmax(swap)])
                raise CageError(
                    f"cages {int(ids[index])} and {int(occupant[index])} "
                    f"swap sites {(int(dest_r[index]), int(dest_c[index]))}"
                )
        # Separation: check only the movers' post-state neighbourhoods.
        conflict = state.post_move_conflict(
            orig_r, orig_c, dest_r, dest_c, self.min_separation
        )
        if conflict is not None:
            index, site, other = conflict
            raise CageError(
                f"separation violated between cages {int(ids[index])} "
                f"and {other} at {site}"
            )
        # Commit: grids and the id-indexed site table update in one
        # vectorized pass; Cage.site reads the table, so no per-cage
        # Python update is needed.
        state.move_cages(orig_r, orig_c, dest_r, dest_c, ids)

    def _step_scalar(self, moves):
        """Scalar step for small mover counts (same semantics as the
        vectorized path, on the same :class:`ArrayState` grids).

        Grid reads go through ``ndarray.item`` on flat indices -- the
        cheapest scalar access numpy offers -- since a one-mover step
        only touches a couple of dozen sites.
        """
        state = self._state
        rows, cols = self.grid.rows, self.grid.cols
        site_r = state._site_r
        site_c = state._site_c
        cage_grid = state.cage_ids
        capacity = site_r.size
        origins = {}
        dests = {}
        for cage_id, (drow, dcol) in moves.items():
            if abs(drow) > 1 or abs(dcol) > 1:
                raise CageError(f"cage {cage_id}: step larger than one electrode")
            orig_row = (
                site_r.item(cage_id) if 0 <= cage_id < capacity else -1
            )
            if orig_row < 0:
                raise CageError(f"no cage with id {cage_id}")
            orig_col = site_c.item(cage_id)
            dest = (orig_row + drow, orig_col + dcol)
            if not (0 <= dest[0] < rows and 0 <= dest[1] < cols):
                raise CageError(f"cage {cage_id}: destination {dest} out of bounds")
            if state.has_dead and state.dead[dest]:
                raise DeadElectrodeError(
                    f"cage {cage_id}: destination {dest} is a dead electrode"
                )
            origins[cage_id] = (orig_row, orig_col)
            dests[cage_id] = dest
        claimed = {}
        for cage_id, dest in dests.items():
            first = claimed.get(dest)
            if first is not None:
                raise CageError(
                    f"cages {first} and {cage_id} collide at {dest}"
                )
            claimed[dest] = cage_id
        for cage_id, dest in dests.items():
            occupant = cage_grid.item(dest[0] * cols + dest[1])
            if occupant == NO_CAGE or occupant == cage_id:
                continue
            if occupant not in dests:
                raise CageError(
                    f"cages {occupant} and {cage_id} collide at {dest}"
                )
            if dests[occupant] == origins[cage_id]:
                raise CageError(
                    f"cages {cage_id} and {occupant} swap sites {dest}"
                )
        for cage_id, dest in dests.items():
            for drow, dcol in separation_offsets(self.min_separation):
                row, col = dest[0] + drow, dest[1] + dcol
                if not (0 <= row < rows and 0 <= col < cols):
                    continue
                other = claimed.get((row, col))
                if other is None:
                    occupant = cage_grid.item(row * cols + col)
                    if occupant != NO_CAGE and occupant not in dests:
                        other = occupant
                if other is not None and other != cage_id:
                    raise CageError(
                        f"separation violated between cages {cage_id} "
                        f"and {other} at {dest}"
                    )
        # Commit: clear every origin first so chains move correctly.
        occupancy = state.occupancy
        for cage_id, site in origins.items():
            occupancy[site] = False
            cage_grid[site] = NO_CAGE
        for cage_id, dest in dests.items():
            occupancy[dest] = True
            cage_grid[dest] = cage_id
            site_r[cage_id] = dest[0]
            site_c[cage_id] = dest[1]

    def merge(self, cage_id_a, cage_id_b):
        """Merge cage b into cage a (they must be adjacent within 2*sep).

        Models the droplet/cell-pairing operation: cage b is released
        and its payload is attached to cage a as a list payload.
        """
        cage_a = self.cage(cage_id_a)
        cage_b = self.cage(cage_id_b)
        distance = max(
            abs(cage_a.site[0] - cage_b.site[0]), abs(cage_a.site[1] - cage_b.site[1])
        )
        if distance > 2 * self.min_separation:
            raise CageError("cages too far apart to merge")
        payloads = []
        for payload in (cage_a.payload, cage_b.payload):
            if payload is None:
                continue
            if isinstance(payload, list):
                payloads.extend(payload)
            else:
                payloads.append(payload)
        self.release(cage_id_b)
        cage_a.payload = payloads if payloads else None
        return cage_a

    # -- frame generation --------------------------------------------------

    def frame(self) -> ArrayFrame:
        """The :class:`ArrayFrame` realising the current cage set.

        Emitted straight from the occupancy grid (two whole-array numpy
        ops) instead of looping over sorted cage sites.
        """
        return ArrayFrame(self.grid, self._state.frame_phases())


def tile_cages(manager, spacing=None, payloads=None):
    """Fill the array with a regular lattice of cages.

    Places cages every ``spacing`` electrodes (default: the manager's
    min separation) starting at (0, 0); optionally attaches payloads in
    order.  Returns the created cages.  This is how the platform loads
    "tens of thousands" of cages at startup.
    """
    spacing = spacing if spacing is not None else manager.min_separation
    if spacing < manager.min_separation:
        raise CageError("tile spacing below the separation rule")
    created = []
    payload_iter = iter(payloads) if payloads is not None else None
    for row in range(0, manager.grid.rows, spacing):
        for col in range(0, manager.grid.cols, spacing):
            payload = None
            if payload_iter is not None:
                try:
                    payload = next(payload_iter)
                except StopIteration:
                    payload_iter = None
            created.append(manager.create((row, col), payload))
    return created
