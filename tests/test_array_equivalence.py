"""Randomized equivalence: legacy dict core vs the ArrayState engine.

Replays identical trap/step/merge/release/sense sequences through the
pre-vectorization ``LegacyCageManager`` (``array_oracles``) and the
:class:`~repro.array.state.ArrayState`-backed
:class:`~repro.array.cages.CageManager`, asserting at every operation:

* identical outcome class (success, or ``CageError`` of the same
  category: swap, separation, collision, bounds, oversize step,
  unknown cage);
* identical cage sites, ids, and payloads afterwards;
* identical emitted frames;
* identical seeded sense detections through a :class:`Biochip` backed by
  either engine.

This is the behavioural-parity contract the vectorization refactor must
hold: the grids are an optimization, not a semantics change.
"""

import random

import numpy as np
import pytest

from repro import Biochip
from repro.array import CageError, CageManager, ElectrodeGrid
from repro.bio import mammalian_cell, polystyrene_bead
from repro.physics.constants import um
from array_oracles import LegacyCageManager

ERROR_CATEGORIES = (
    "swap",
    "separation",
    "collide",
    "out of bounds",
    "larger than one electrode",
    "no cage",
    "too far apart",
)


def _category(message):
    for marker in ERROR_CATEGORIES:
        if marker in message:
            return marker
    return message


def _apply(fn):
    try:
        return ("ok", fn())
    except CageError as exc:
        return ("err", _category(str(exc)))


def _assert_same_state(legacy, vector):
    assert len(legacy) == len(vector)
    assert legacy.sites() == vector.sites()
    legacy_cages = {c.cage_id: (c.site, c.payload) for c in legacy.cages}
    vector_cages = {c.cage_id: (c.site, c.payload) for c in vector.cages}
    assert legacy_cages == vector_cages


class _Replayer:
    """Drives one random operation stream through both engines."""

    def __init__(self, seed, rows=24, cols=24):
        self.rng = random.Random(seed)
        grid = ElectrodeGrid(rows=rows, cols=cols, pitch=um(20.0))
        self.legacy = LegacyCageManager(grid)
        self.vector = CageManager(grid)
        self.rows = rows
        self.cols = cols

    def _random_site(self):
        return (
            self.rng.randrange(-1, self.rows + 1),
            self.rng.randrange(-1, self.cols + 1),
        )

    def _live_id(self):
        ids = sorted(self.vector._cages)
        if ids and self.rng.random() < 0.9:
            return self.rng.choice(ids)
        return self.rng.randrange(0, 64)  # maybe-dead id

    def _random_moves(self):
        ids = sorted(self.vector._cages)
        if not ids:
            return {self._live_id(): (0, 1)}
        k = self.rng.randint(1, len(ids))
        chosen = self.rng.sample(ids, k)
        moves = {}
        for cage_id in chosen:
            if self.rng.random() < 0.03:
                delta = (self.rng.choice((-2, 2)), self.rng.randint(-1, 1))
            else:
                delta = (self.rng.randint(-1, 1), self.rng.randint(-1, 1))
            moves[cage_id] = delta
        if self.rng.random() < 0.05:
            moves[self.rng.randrange(0, 64)] = (0, 1)  # maybe-unknown mover
        return moves

    def _one_op(self):
        roll = self.rng.random()
        if roll < 0.30:
            site = self._random_site()
            payload = self.rng.choice(("cell", "bead", None))
            return lambda m: m.create(site, payload)
        if roll < 0.75:
            moves = self._random_moves()
            return lambda m: m.step(dict(moves))
        if roll < 0.85:
            a, b = self._live_id(), self._live_id()
            return lambda m: m.merge(a, b)
        cage_id = self._live_id()
        return lambda m: m.release(cage_id)

    def run(self, n_ops=150):
        outcomes = {"ok": 0, "err": 0}
        for index in range(n_ops):
            op = self._one_op()
            legacy_status, legacy_out = _apply(lambda: op(self.legacy))
            vector_status, vector_out = _apply(lambda: op(self.vector))
            assert legacy_status == vector_status, (
                f"op {index}: legacy {legacy_status}:{legacy_out!r} vs "
                f"vector {vector_status}:{vector_out!r}"
            )
            if legacy_status == "err":
                assert legacy_out == vector_out, (
                    f"op {index}: error category {legacy_out!r} vs {vector_out!r}"
                )
            outcomes[legacy_status] += 1
            _assert_same_state(self.legacy, self.vector)
            if index % 25 == 0:
                np.testing.assert_array_equal(
                    self.legacy.frame().phases, self.vector.frame().phases
                )
        return outcomes


@pytest.mark.parametrize("seed", range(8))
def test_randomized_operation_equivalence(seed):
    outcomes = _Replayer(seed).run()
    # the stream must actually exercise both paths
    assert outcomes["ok"] > 20
    assert outcomes["err"] > 20


class TestTargetedErrorEquivalence:
    """The named CageError classes raise identically in both engines."""

    def _pair(self, min_separation=2):
        grid = ElectrodeGrid(rows=16, cols=16, pitch=um(20.0))
        return (
            LegacyCageManager(grid, min_separation),
            CageManager(grid, min_separation),
        )

    def _assert_same_error(self, build, op, min_separation=2, exact=True):
        results = []
        for manager in self._pair(min_separation):
            build(manager)
            with pytest.raises(CageError) as excinfo:
                op(manager)
            results.append(str(excinfo.value))
        if exact:
            assert results[0] == results[1]
        else:
            # engines may name the offending pair in either order
            assert _category(results[0]) == _category(results[1])

    def test_swap(self):
        self._assert_same_error(
            lambda m: (m.create((5, 5)), m.create((5, 7))),
            lambda m: m.step({0: (0, 1), 1: (0, -1)}),
        )

    def test_separation(self):
        # pair naming is perspective-dependent (the vectorized engine
        # reports mover-first, the legacy scan post-order) -- the
        # category and the raise/no-raise decision are the contract
        self._assert_same_error(
            lambda m: (m.create((5, 5)), m.create((5, 7))),
            lambda m: m.step({1: (0, -1)}),
            exact=False,
        )

    def test_bounds(self):
        self._assert_same_error(
            lambda m: m.create((0, 0)),
            lambda m: m.step({0: (-1, 0)}),
        )

    def test_oversize_delta(self):
        self._assert_same_error(
            lambda m: m.create((5, 5)),
            lambda m: m.step({0: (0, 2)}),
        )

    def test_unknown_cage(self):
        self._assert_same_error(
            lambda m: None,
            lambda m: m.step({3: (0, 1)}),
        )

    def test_collision_with_stationary(self):
        # only reachable with separation 1: a mover lands exactly on a
        # stationary neighbour (with separation >= 2 the spacing rule
        # trips first)
        self._assert_same_error(
            lambda m: (m.create((5, 5)), m.create((5, 6))),
            lambda m: m.step({0: (0, 1)}),
            min_separation=1,
            exact=False,
        )

    def test_mover_mover_collision(self):
        self._assert_same_error(
            lambda m: (m.create((5, 4)), m.create((5, 6))),
            lambda m: m.step({0: (0, 1), 1: (0, -1)}),
            min_separation=1,
            exact=False,
        )

    def test_vectorized_and_scalar_paths_name_the_same_pair(self):
        """With several simultaneous separation violations, the >8-mover
        vectorized path and the <=8-mover scalar path must raise the
        identical message (mover-major, first offending offset)."""

        def build():
            grid = ElectrodeGrid(rows=40, cols=40, pitch=um(20.0))
            manager = CageManager(grid)
            for index in range(12):  # movers 0..11 on row 4, 3 apart
                manager.create((4, 3 * index + 2))
            manager.create((6, 8))   # id 12: victim below mover 2's dest
            manager.create((6, 17))  # id 13: victim below mover 5's dest
            return manager

        moves = {i: (1, 0) for i in range(12)}  # all movers to row 5
        errors = []
        for runner in (
            lambda m: m.step(dict(moves)),          # k=12 -> vectorized
            lambda m: m._step_scalar(dict(moves)),  # forced scalar
        ):
            with pytest.raises(CageError) as excinfo:
                runner(build())
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert "cages 2 and 12" in errors[0]  # first mover in batch order

    def test_atomicity_on_failure(self):
        """A rejected step leaves both engines untouched."""
        for manager in self._pair():
            manager.create((5, 5))
            manager.create((5, 8))
            before = manager.sites()
            with pytest.raises(CageError):
                manager.step({0: (0, 1), 1: (0, -1), 99: (0, 0)})
            assert manager.sites() == before


def _legacy_chip(seed):
    """A Biochip whose cage bookkeeping runs on the legacy dict core."""
    chip = Biochip.small_chip(rows=24, cols=24, seed=seed)
    chip.cages = LegacyCageManager(chip.grid, chip.min_separation)
    return chip


def test_seeded_sense_detections_equivalent():
    """Identical op sequence + seed -> identical readings/detections."""
    seed = 42
    chips = (Biochip.small_chip(rows=24, cols=24, seed=seed), _legacy_chip(seed))
    outcomes = []
    for chip in chips:
        cell = mammalian_cell()
        bead = polystyrene_bead()
        chip.cages.create((2, 2), cell)
        chip.cages.create((2, 6), bead)
        chip.cages.create((8, 2), None)
        chip.cages.create((8, 8), cell)
        chip.cages.step({0: (1, 1), 2: (0, 1)})
        chip.cages.merge(0, 1)
        chip.cages.release(3)
        chip.cages.create((14, 14), bead)
        results = chip.sense_all(n_samples=400)
        results += [(0, chip.sense(0, n_samples=400))]
        outcomes.append(
            [
                (cage_id, r.reading, r.detected, r.expected)
                for cage_id, r in results
            ]
        )
    assert outcomes[0] == outcomes[1]


def test_sense_all_matches_scalar_chain_distribution():
    """Batched sense_all and the per-cage scalar chain agree on who is
    detected (same signals, same thresholds; independent noise draws)."""
    chip = Biochip.small_chip(rows=24, cols=24, seed=3)
    cell = mammalian_cell()
    for row in range(0, 23, 4):
        for col in range(0, 23, 4):
            chip.cages.create((row, col), cell if (row + col) % 8 == 0 else None)
    batched = {cid: r.detected for cid, r in chip.sense_all(n_samples=500)}
    duration = 500 * chip.addresser.frame_scan_time()
    scalar = {
        cage.cage_id: chip._sense_reading(cage, 500, duration).detected
        for cage in chip.cages.cages
    }
    assert batched == scalar


@pytest.mark.parametrize("separation", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_step_reports_the_frame_dirty_rows(separation, seed):
    """``step``/``step_arrays`` return exactly the rows whose phases
    differ between the frames before and after the step, on both the
    scalar (<= 8 movers) and the vectorized path, chains included."""
    rng = random.Random(seed * 10 + separation)
    grid = ElectrodeGrid(rows=30, cols=30, pitch=um(20.0))
    manager = CageManager(grid, min_separation=separation)
    for row in range(0, 30, separation + 1):
        for col in range(0, 30, separation + 1):
            if rng.random() < 0.7:
                manager.create((row, col))
    steps = {"scalar": 0, "vector": 0}
    for __ in range(300):
        ids = sorted(manager._cages)
        chosen = rng.sample(ids, rng.randint(1, min(len(ids), 20)))
        shift = (rng.randint(-1, 1), rng.randint(-1, 1))
        if rng.random() < 0.5:  # a shared shift: chains, mostly legal
            moves = {c: shift for c in chosen}
        else:
            moves = {c: (rng.randint(-1, 1), rng.randint(-1, 1))
                     for c in chosen}
        before = manager.frame()
        try:
            if rng.random() < 0.5:
                rows = manager.step(moves)
            else:
                rows = manager.step_arrays(
                    np.fromiter(moves, dtype=np.int64),
                    np.asarray(list(moves.values())),
                )
        except CageError:
            assert np.array_equal(manager.frame().phases, before.phases)
            continue
        assert rows == manager.frame().dirty_rows(before)
        steps["scalar" if len(moves) <= 8 else "vector"] += 1
    assert steps["scalar"] > 5 and steps["vector"] > 5
