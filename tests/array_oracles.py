"""Behavioural reference for the array core.

:class:`LegacyCageManager` is the original dict-based cage manager
(per-site Python dicts, ``(2s-1)^2`` dict probes per cage per frame,
full post-state rebuild on every step) that the vectorized
:class:`~repro.array.cages.CageManager` replaced.  It is kept as a test
oracle for two jobs:

* the randomized equivalence suite (``tests/test_array_equivalence.py``)
  replays identical operation sequences through this class and the
  vectorized manager and asserts identical sites, errors and payloads;
* ``benchmarks/bench_array.py`` measures the before/after frame-step
  throughput against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.array.cages import Cage, CageError
from repro.array.grid import ElectrodeGrid
from repro.array.patterns import ArrayFrame, cage_frame


@dataclass
class LegacyCageManager:
    """Dict-of-Cage bookkeeping: the pre-:class:`ArrayState` core."""

    grid: ElectrodeGrid
    min_separation: int = 2
    _cages: dict = field(default_factory=dict)
    _sites: dict = field(default_factory=dict)
    _next_id: int = 0

    def __post_init__(self):
        if self.min_separation < 1:
            raise CageError("min_separation must be >= 1")

    # -- queries ---------------------------------------------------------

    def __len__(self):
        return len(self._cages)

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
        cage_id = self._sites.get(tuple(site))
        return self._cages[cage_id] if cage_id is not None else None

    def sites(self):
        """Sorted list of occupied sites."""
        return sorted(self._sites)

    def max_cage_count(self) -> int:
        """Capacity of the array under the separation rule."""
        step = self.min_separation
        return ((self.grid.rows + step - 1) // step) * (
            (self.grid.cols + step - 1) // step
        )

    def _conflicts(self, site, ignore_id=None):
        """Cage ids violating separation against a (proposed) site."""
        row, col = site
        radius = self.min_separation - 1
        conflicts = []
        for dr in range(-radius, radius + 1):
            for dc in range(-radius, radius + 1):
                other_id = self._sites.get((row + dr, col + dc))
                if other_id is not None and other_id != ignore_id:
                    conflicts.append(other_id)
        return conflicts

    # -- mutations -------------------------------------------------------

    def create(self, site, payload=None) -> Cage:
        """Create a cage at ``site``; raises on bounds/spacing violation."""
        site = tuple(site)
        if not self.grid.in_bounds(*site):
            raise CageError(f"cage site {site} out of bounds")
        if self._conflicts(site):
            raise CageError(f"cage at {site} violates min separation {self.min_separation}")
        cage = Cage(self._next_id, site, payload)
        self._cages[cage.cage_id] = cage
        self._sites[site] = cage.cage_id
        self._next_id += 1
        return cage

    def release(self, cage_id):
        """Remove a cage (dropping its payload back to the chamber)."""
        cage = self.cage(cage_id)
        del self._sites[cage.site]
        del self._cages[cage_id]
        return cage

    def step(self, moves):
        """Atomically move several cages by one electrode each.

        Validates the complete post state (every cage re-checked against
        the ``(2s-1)^2`` neighbourhood) before committing -- the
        O(cages) path the vectorized manager replaces.
        """
        destinations = {}
        for cage_id, (drow, dcol) in moves.items():
            if abs(drow) > 1 or abs(dcol) > 1:
                raise CageError(f"cage {cage_id}: step larger than one electrode")
            cage = self.cage(cage_id)
            dest = (cage.site[0] + drow, cage.site[1] + dcol)
            if not self.grid.in_bounds(*dest):
                raise CageError(f"cage {cage_id}: destination {dest} out of bounds")
            destinations[cage_id] = dest
        # Post-state sites: moved cages at destinations, others in place.
        post = {}
        for cage_id, cage in self._cages.items():
            site = destinations.get(cage_id, cage.site)
            if site in post:
                raise CageError(f"cages {post[site]} and {cage_id} collide at {site}")
            post[site] = cage_id
        # Reject swaps: two cages exchanging sites would have to pass
        # through each other mid-frame, which physically merges them.
        for cage_id, dest in destinations.items():
            other_id = self._sites.get(dest)
            if other_id is not None and other_id != cage_id:
                other_dest = destinations.get(other_id)
                if other_dest == self._cages[cage_id].site:
                    raise CageError(
                        f"cages {cage_id} and {other_id} swap sites {dest}"
                    )
        radius = self.min_separation - 1
        for (row, col), cage_id in post.items():
            for dr in range(-radius, radius + 1):
                for dc in range(-radius, radius + 1):
                    if dr == 0 and dc == 0:
                        continue
                    other_id = post.get((row + dr, col + dc))
                    if other_id is not None:
                        raise CageError(
                            f"separation violated between cages {cage_id} "
                            f"and {other_id} at ({row}, {col})"
                        )
        # Commit.
        for cage_id, dest in destinations.items():
            cage = self._cages[cage_id]
            del self._sites[cage.site]
            cage.site = dest
            self._sites[dest] = cage_id

    def merge(self, cage_id_a, cage_id_b):
        """Merge cage b into cage a (they must be adjacent within 2*sep)."""
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
        """The :class:`ArrayFrame` realising the current cage set."""
        return cage_frame(self.grid, self.sites())
