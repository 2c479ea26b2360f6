"""Unit tests for the fault model, the injector, and the fault paths
wired through the array, routing and sensing layers."""

import numpy as np
import pytest

from repro import Biochip, ChipFault, FaultInjector, FaultModel, FleetFaultPlan
from repro.array.cages import CageManager, DeadElectrodeError
from repro.array.grid import ElectrodeGrid
from repro.core.backend import DryRunBackend
from repro.routing.astar import ObstacleMap, RoutingError, astar_route
from repro.routing.multi import RoutingRequest, WavefrontRouter
from repro.sensing.quarantine import ReadingBounds, SensorQuarantine
from routing_oracles import AStarRouter

SHAPE = (32, 32)

# the production batch router and the space-time A* oracle
BATCH_ROUTERS = (WavefrontRouter, AStarRouter)


def grid32():
    return ElectrodeGrid(rows=32, cols=32, pitch=20e-6)


def model_with(dead=(), dead_sensors=(), noisy=(), **kwargs):
    masks = {}
    for name, sites in (
        ("dead_electrodes", dead),
        ("dead_sensors", dead_sensors),
        ("noisy_sensors", noisy),
    ):
        mask = np.zeros(SHAPE, dtype=bool)
        for site in sites:
            mask[site] = True
        masks[name] = mask
    return FaultModel(shape=SHAPE, **masks, **kwargs)


class TestFaultModel:
    def test_none_has_no_faults(self):
        model = FaultModel.none(SHAPE)
        assert not model.has_faults
        assert not model.has_sensor_faults
        assert model.counts()["dead_electrodes"] == 0

    def test_random_is_deterministic_per_seed(self):
        a = FaultModel.random(SHAPE, dead_pixel_fraction=0.05, seed=7)
        b = FaultModel.random(SHAPE, dead_pixel_fraction=0.05, seed=7)
        c = FaultModel.random(SHAPE, dead_pixel_fraction=0.05, seed=8)
        assert np.array_equal(a.dead_electrodes, b.dead_electrodes)
        assert not np.array_equal(a.dead_electrodes, c.dead_electrodes)

    def test_dead_rows_and_cols_kill_whole_lines(self):
        model = FaultModel.random(SHAPE, dead_rows=2, dead_cols=1, seed=3)
        full_rows = np.where(model.dead_electrodes.all(axis=1))[0]
        full_cols = np.where(model.dead_electrodes.all(axis=0))[0]
        assert len(full_rows) == 2
        assert len(full_cols) == 1

    def test_sensor_fault_classification(self):
        model = model_with(dead_sensors=[(1, 1)], noisy=[(2, 2)])
        assert model.sensor_fault((1, 1)) == "dead"
        assert model.sensor_fault((2, 2)) == "noisy"
        assert model.sensor_fault((3, 3)) is None
        assert model.sensor_fault((-1, 99)) is None  # out of bounds

    def test_bad_rate_and_shape_rejected(self):
        with pytest.raises(ValueError, match="transient_rate"):
            FaultModel(shape=SHAPE, transient_rate=1.5)
        with pytest.raises(ValueError, match="shape"):
            FaultModel(shape=SHAPE, dead_electrodes=np.zeros((4, 4), bool))

    def test_fleet_plan_gives_each_chip_its_own_map(self):
        plan = FleetFaultPlan(dead_pixel_fraction=0.05, seed=11)
        m0 = plan.model_for(0, SHAPE)
        m1 = plan.model_for(1, SHAPE)
        assert not np.array_equal(m0.dead_electrodes, m1.dead_electrodes)
        # deterministic replay
        assert np.array_equal(
            m0.dead_electrodes, plan.model_for(0, SHAPE).dead_electrodes
        )

    def test_fleet_plan_explicit_override(self):
        special = model_with(dead=[(5, 5)])
        plan = FleetFaultPlan(models={2: special})
        assert plan.model_for(2, SHAPE) is special
        assert not plan.model_for(0, SHAPE).has_faults


class TestFaultInjector:
    def test_dead_site_raises_chip_fault(self):
        injector = FaultInjector(
            DryRunBackend(grid=grid32()), model_with(dead=[(4, 4)])
        )
        with pytest.raises(ChipFault, match="dead electrode"):
            injector.trap((4, 4))
        assert injector.counters["dead_site"] == 1
        # live sites still work
        cage_id = injector.trap((10, 10))
        assert injector.cage_count == 1
        with pytest.raises(ChipFault, match="dead electrode"):
            injector.move(cage_id, (4, 4))

    def test_scheduled_transient_fires_at_exact_op(self):
        injector = FaultInjector(
            DryRunBackend(grid=grid32()),
            model_with(transient_ops={1}),
        )
        injector.trap((2, 2))  # op 0: fine
        with pytest.raises(ChipFault, match="op 1"):
            injector.trap((8, 8))
        assert injector.counters["transient"] == 1

    def test_transient_stream_is_seeded(self):
        def outcomes(seed):
            injector = FaultInjector(
                DryRunBackend(grid=grid32()),
                model_with(transient_rate=0.5),
                seed=seed,
            )
            fired = []
            for i in range(12):
                try:
                    injector.trap((2 * (i % 10) + 1, 25))
                except ChipFault:
                    fired.append(i)
                finally:
                    for cage_id in list(injector.backend._cages):
                        injector.release(cage_id)
            return fired

        assert outcomes(3) == outcomes(3)
        assert outcomes(3) != outcomes(4)

    def test_incubate_and_release_never_fault(self):
        injector = FaultInjector(
            DryRunBackend(grid=grid32()),
            model_with(transient_rate=1.0),
        )
        injector.incubate(5.0)  # clock sync must be fault-free
        assert injector.elapsed == 5.0
        with pytest.raises(ChipFault):
            injector.trap((2, 2))

    def test_spawn_keeps_defects_reseeds_transients(self):
        parent = FaultInjector(
            DryRunBackend(grid=grid32()),
            model_with(dead=[(7, 7)], transient_rate=0.2),
            seed=9,
        )
        child = parent.spawn()
        assert child.model is parent.model
        assert child.counters == {"transient": 0, "dead_site": 0}
        assert child.seed != parent.seed

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            FaultInjector(
                DryRunBackend(grid=grid32()), FaultModel.none((8, 8))
            )


class TestArrayDeadMask:
    def test_create_on_dead_site_raises(self):
        manager = CageManager(grid32())
        mask = np.zeros(SHAPE, dtype=bool)
        mask[6, 6] = True
        manager.set_dead_mask(mask)
        with pytest.raises(DeadElectrodeError):
            manager.create((6, 6))
        manager.create((20, 20))  # live site unaffected

    def test_step_onto_dead_site_raises(self):
        manager = CageManager(grid32())
        cage = manager.create((10, 10))
        mask = np.zeros(SHAPE, dtype=bool)
        mask[10, 11] = True
        manager.set_dead_mask(mask)
        with pytest.raises(DeadElectrodeError, match="dead electrode"):
            manager.step({cage.cage_id: (0, 1)})
        manager.step({cage.cage_id: (1, 0)})  # sideways is fine
        assert cage.site == (11, 10)

    def test_step_many_vectorized_path_checks_dead(self):
        # >8 movers forces the vectorized step path (scalar fast path
        # covers small batches).
        manager = CageManager(grid32())
        cages = [
            manager.create((4 * i + 2, 4 * j + 2))
            for i in range(4) for j in range(3)
        ]
        mask = np.zeros(SHAPE, dtype=bool)
        mask[cages[5].site[0], cages[5].site[1] + 1] = True
        manager.set_dead_mask(mask)
        with pytest.raises(DeadElectrodeError):
            manager.step({c.cage_id: (0, 1) for c in cages})


class TestRoutingAroundDead:
    def test_astar_hard_mask_blocks_centres_without_inflation(self):
        grid = grid32()
        dead = np.zeros(SHAPE, dtype=bool)
        dead[:, 10] = True  # dead column wall
        dead[5, 10] = False  # with one live gap
        obstacles = ObstacleMap.from_mask(
            grid, np.zeros(SHAPE, dtype=bool), separation=2, hard_mask=dead
        )
        path = astar_route(grid, (5, 2), (5, 20), obstacles=obstacles)
        assert (5, 10) in path  # squeezes through the gap: no inflation
        assert not any(site[1] == 10 and site[0] != 5 for site in path)

    def test_batch_router_goal_on_dead_pixel_rejected(self):
        dead = np.zeros(SHAPE, dtype=bool)
        dead[8, 8] = True
        for router_cls in BATCH_ROUTERS:
            router = router_cls(grid32(), blocked=dead)
            with pytest.raises(RoutingError, match="dead electrode"):
                router.plan([RoutingRequest(1, (2, 2), (8, 8))])

    def test_batch_router_routes_around_dead_pixels(self):
        dead = np.zeros(SHAPE, dtype=bool)
        dead[4:12, 6] = True
        for router_cls in BATCH_ROUTERS:
            router = router_cls(grid32(), blocked=dead)
            plan = router.plan([RoutingRequest(1, (8, 2), (8, 12))])
            assert all(not dead[site] for site in plan.paths[1])

    def test_cage_may_escape_a_site_that_died_under_it(self):
        dead = np.zeros(SHAPE, dtype=bool)
        dead[8, 2] = True  # the cage's own start
        for router_cls in BATCH_ROUTERS:
            router = router_cls(grid32(), blocked=dead)
            plan = router.plan([RoutingRequest(1, (8, 2), (8, 6))])
            assert plan.paths[1][0] == (8, 2)
            assert all(not dead[site] for site in plan.paths[1][1:])


class TestSensorQuarantine:
    def test_bounds_separate_signal_from_rail(self):
        chip = Biochip.small_chip()
        bounds = ReadingBounds.for_readout(chip.readout)
        assert bounds.ok(0.003)  # mV-scale legit signal
        assert not bounds.ok(0.75)  # stuck rail minus pedestal

    def test_quarantine_flags_and_remembers(self):
        quarantine = SensorQuarantine(ReadingBounds(max_abs=0.1))
        assert quarantine.admit((3, 3), 0.01)
        assert not quarantine.admit((4, 4), 0.9)
        assert quarantine.is_flagged((4, 4))
        assert not quarantine.is_flagged((3, 3))
        assert quarantine.stats()["flagged"] == 1

    def test_dead_sensor_rescanned_from_neighbour(self):
        chip = Biochip.small_chip()
        model = FaultModel(
            shape=(48, 48),
            dead_sensors=_one_site_mask((48, 48), (10, 10)),
        )
        chip.apply_faults(model)
        cage = chip.trap((10, 10))
        result = chip.sense(cage.cage_id, n_samples=200)
        assert result.rescanned
        assert abs(result.reading) < 0.1  # clean value, not the rail
        assert cage.site == (10, 10)  # stepped over and back
        assert chip.sensor_quarantine.is_flagged((10, 10))
        assert chip.sensor_quarantine.stats()["rescans"] == 1

    def test_noisy_sensor_rescanned(self):
        chip = Biochip.small_chip()
        model = FaultModel(
            shape=(48, 48),
            noisy_sensors=_one_site_mask((48, 48), (20, 20)),
        )
        chip.apply_faults(model)
        cage = chip.trap((20, 20))
        result = chip.sense(cage.cage_id, n_samples=200)
        assert result.rescanned
        assert abs(result.reading) < 0.1

    def test_boxed_in_cage_raises_chip_fault_not_garbage(self):
        chip = Biochip.small_chip()
        dead_sensors = np.zeros((48, 48), dtype=bool)
        dead_sensors[9:12, 9:12] = True  # site and all 8 neighbours
        chip.apply_faults(FaultModel(shape=(48, 48), dead_sensors=dead_sensors))
        cage = chip.trap((10, 10))
        with pytest.raises(ChipFault, match="no healthy neighbour"):
            chip.sense(cage.cage_id, n_samples=200)

    def test_sense_all_corrupts_and_rescans(self):
        chip = Biochip.small_chip()
        chip.apply_faults(
            FaultModel(
                shape=(48, 48),
                dead_sensors=_one_site_mask((48, 48), (30, 30)),
            )
        )
        healthy = chip.trap((10, 10))
        broken = chip.trap((30, 30))
        outcomes = dict(chip.sense_all(n_samples=100))
        assert not outcomes[healthy.cage_id].rescanned
        assert outcomes[broken.cage_id].rescanned
        assert abs(outcomes[broken.cage_id].reading) < 0.1

    def test_healthy_chip_pays_no_overhead(self):
        chip = Biochip.small_chip()
        cage = chip.trap((10, 10))
        result = chip.sense(cage.cage_id, n_samples=200)
        assert not result.rescanned
        assert chip.sensor_quarantine is None


def _one_site_mask(shape, site):
    mask = np.zeros(shape, dtype=bool)
    mask[site] = True
    return mask
