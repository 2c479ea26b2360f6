"""Integration tests: the full stack working together.

These tests exercise multi-module paths end to end -- the scenarios a
downstream user of the library would actually run -- and check the
paper's claims at the *system* level rather than per-module.
"""

import numpy as np
import pytest

from repro import Biochip, Protocol, Session
from repro.array import CageManager
from repro.array.addressing import RowColumnAddresser, TimingBudget
from repro.bio import Sample, cells_per_ml, mammalian_cell, polystyrene_bead
from repro.core.compiler import compile_protocol
from repro.designflow import electronic_scenario, fluidic_scenario
from repro.packaging import paper_device_stack
from repro.physics.constants import ul, um, um_per_s
from repro.technology import TechnologySelector, ApplicationRequirements
from repro.workloads import random_permutation_workload, split_sort_workload


class TestPlatformPhysicsConsistency:
    """The chip's configured operating point must be physically
    self-consistent -- voltage, speed, cage stability all agree."""

    def test_paper_chip_can_drag_beads_at_speed(self):
        chip = Biochip.small_chip()
        assert chip.verify_speed(polystyrene_bead(um(5)))

    def test_cage_levitation_inside_chamber(self):
        chip = Biochip.small_chip()
        cage = chip.dep_cage(polystyrene_bead(um(5)))
        height = cage.levitation_height()
        assert height is not None
        assert 0.0 < height < chip.chamber.height

    def test_packaging_chamber_feeds_field_model(self):
        """The Fig. 3 stack's chamber height is what the DEP cage model
        sees as lid height -- and the cage still works."""
        stack = paper_device_stack()
        chip = Biochip.small_chip()
        chip.chamber = stack.chamber()
        cage = chip.dep_cage(polystyrene_bead(um(5)))
        assert cage.levitation_height() is not None


def place_and_goals(chip, requests):
    """Create a cage at every request start; return {cage_id: goal}."""
    return {
        chip.cages.create(request.start).cage_id: request.goal
        for request in requests
    }


def electronics_fraction(report):
    """Share of a ``move_many`` report's wall clock spent reprogramming."""
    return report["program_time"] / (
        report["program_time"] + report["dwell_time"]
    )


class TestSortingPipeline:
    """Workload -> batch router -> cage manager -> timing accounting."""

    def test_split_sort_executes(self):
        chip = Biochip.small_chip(rows=30, cols=30)
        requests, labels = split_sort_workload(chip.grid, n_per_class=4, seed=0)
        report = chip.move_many(place_and_goals(chip, requests))
        final_sites = {c.site for c in chip.cages.cages}
        assert final_sites == {r.goal for r in requests}
        # the paper's C2 shape at pipeline level
        assert electronics_fraction(report) < 1e-3

    def test_sorting_wall_clock_scales_with_distance_not_cages(self):
        """Parallel manipulation: 8 cages take barely longer than 2."""
        def run(n_cages, seed):
            grid_chip = Biochip.small_chip(rows=40, cols=40, seed=seed)
            requests = random_permutation_workload(
                grid_chip.grid, n_cages=n_cages, seed=seed
            )
            report = grid_chip.move_many(place_and_goals(grid_chip, requests))
            return report["program_time"] + report["dwell_time"]

        few = run(2, seed=1)
        many = run(8, seed=1)
        assert many < 4.0 * few


class TestAssayEndToEnd:
    def test_compiled_protocol_runs_and_measures(self):
        chip = Biochip.small_chip(seed=11)
        protocol = (
            Protocol("assay")
            .trap("cell", (5, 5), mammalian_cell())
            .trap("ref", (5, 25))
            .move("cell", (20, 20))
            .sense("cell", samples=3000)
            .sense("ref", samples=3000)
            .merge("cell", "ref")
            .release("cell")
        )
        program = compile_protocol(protocol, chip.grid)
        result = Session.simulator(chip).run(program)
        assert result.detection_accuracy() == 1.0
        assert result.count() == len(protocol)

    def test_sample_to_measurement(self):
        """Load a drawn sample, sense a few cages, check ground truth."""
        chip = Biochip.small_chip(rows=64, cols=64, seed=5)
        sample = Sample(volume=ul(0.5)).add(
            mammalian_cell(), cells_per_ml(5e4)
        )
        cages = chip.load_sample(sample, max_particles=10)
        assert cages
        detected = [
            chip.sense(c.cage_id, n_samples=3000).detected for c in cages[:5]
        ]
        assert all(detected)


class TestClaimsCrossCheck:
    """System-level checks of the four headline claims together."""

    def test_c1_and_platform_agree(self):
        """The selector's best node can actually drive the platform's
        requirement (chosen drive >= platform drive)."""
        requirements = ApplicationRequirements(
            cell_radius=um(10),
            electrode_pitch=um(20),
            target_speed=um_per_s(50),
        )
        best = TechnologySelector(requirements).best()
        assert best.drive_voltage >= 3.3

    def test_c2_timing_budget_vs_executed_motion(self):
        """The analytic slack ratio matches an executed batch move's
        electronics fraction within an order of magnitude."""
        chip = Biochip.small_chip(rows=30, cols=30)
        budget = TimingBudget(
            RowColumnAddresser(chip.grid), cell_speed=chip.cage_speed
        )
        cage = chip.cages.create((0, 0))
        report = chip.move_many({cage.cage_id: (20, 20)})
        analytic = 1.0 / budget.slack_ratio()
        executed = electronics_fraction(report)
        assert executed < 10.0 * analytic

    def test_c3_averaging_fits_in_motion_budget(self):
        """The samples needed for reliable bead detection fit within one
        motion step's sensing budget."""
        from repro.physics.noise import samples_for_target_snr
        from repro.sensing.averaging import averaging_budget

        chip = Biochip.small_chip()
        bead = polystyrene_bead(um(5))
        signal = chip.readout.signal_voltage(bead)
        needed = samples_for_target_snr(signal, chip.readout.noise_floor(), 14.0)
        assert needed is not None
        step_time = chip.grid.pitch / chip.cage_speed
        available = averaging_budget(step_time, 1e-6)
        assert needed < available

    def test_f1_f2_opposite_winners(self):
        sim_e, build_e = electronic_scenario(runs=60, seed=3)
        sim_f, build_f = fluidic_scenario(runs=60, seed=3)
        assert sim_e.median_time < build_e.median_time
        assert build_f.median_time < sim_f.median_time


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        def run(seed):
            chip = Biochip.small_chip(seed=seed)
            protocol = (
                Protocol("det")
                .trap("a", (5, 5), mammalian_cell())
                .sense("a", samples=500)
                .release("a")
            )
            return Session.simulator(chip).run(protocol).readings("a")

        assert run(9) == run(9)
        assert run(9) != run(10)
