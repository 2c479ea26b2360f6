"""Ablation benches for the design choices DESIGN.md calls out.

A1 -- cage separation rule: capacity vs routing makespan.  Separation 2
     is the design point (25,600 cages, paper's "tens of thousands");
     separation 3 costs >50% capacity for little routing benefit.
A2 -- design-flow interpretation bonus: Fig. 2 keeps simulation in the
     loop to interpret test data.  Ablating it shows how much of the
     build-first flow's win comes from that retained role.
A3 -- readout averaging duty: how detection-grade averaging degrades as
     the sensing duty cycle within a motion step is squeezed.
A4 -- router priority heuristic: longest-job-first (default) vs
     shortest-job-first prioritised planning.
"""

import numpy as np
from conftest import report

from repro.analysis import ascii_table, format_seconds
from repro.array import CageManager, ElectrodeGrid
from repro.designflow import BuildTestFlow, DesignProblem, FlowStatistics, fluidic_fidelity, run_flow_monte_carlo
from repro.packaging import dry_film_iteration
from repro.physics.constants import um
from repro.routing import WavefrontRouter
from repro.routing.astar import chebyshev_heuristic
from repro.sensing.averaging import averaging_budget
from repro.workloads import random_permutation_workload


def test_a1_separation_rule(benchmark):
    """Capacity/makespan trade of the cage spacing rule."""
    def sweep():
        rows = []
        grid = ElectrodeGrid(40, 40, um(20))
        for separation in (2, 3, 4):
            capacity = CageManager(
                ElectrodeGrid(320, 320, um(20)), min_separation=separation
            ).max_cage_count()
            requests = random_permutation_workload(
                grid, n_cages=12, separation=separation, seed=0
            )
            plan = WavefrontRouter(grid, min_separation=separation).plan(requests)
            rows.append((separation, capacity, plan.makespan, plan.total_moves()))
        return rows

    rows = benchmark(sweep)
    report(
        ascii_table(
            ["separation", "cages on 320x320", "makespan (12 cages, 40x40)", "moves"],
            rows,
            title="A1: cage separation rule ablation",
        )
    )
    capacities = [c for __, c, __, __ in rows]
    # capacity falls steeply with the rule; sep=2 is the only point
    # meeting the paper's "tens of thousands"
    assert capacities[0] >= 10_000
    assert capacities[1] < 0.5 * capacities[0]


def test_a2_interpretation_bonus(benchmark):
    """Fig. 2's retained simulation role: ablate the interpretation
    bonus and measure the slowdown of the build-first flow."""
    def run_both():
        problem = DesignProblem()
        fidelity = fluidic_fidelity()
        fabrication = dry_film_iteration()
        with_sim = BuildTestFlow(problem, fidelity, fabrication,
                                 interpret_with_simulation=True)
        without = BuildTestFlow(problem, fidelity, fabrication,
                                interpret_with_simulation=False)
        stats_with = FlowStatistics.from_outcomes(
            run_flow_monte_carlo(with_sim, runs=120, seed=0)
        )
        stats_without = FlowStatistics.from_outcomes(
            run_flow_monte_carlo(without, runs=120, seed=0)
        )
        return stats_with, stats_without

    stats_with, stats_without = benchmark(run_both)
    report(
        ascii_table(
            ["variant", "median time", "mean fabs"],
            [
                ["build-test + simulation interpretation",
                 format_seconds(stats_with.median_time),
                 f"{stats_with.mean_fabrications:.2f}"],
                ["build-test, no simulation",
                 format_seconds(stats_without.median_time),
                 f"{stats_without.mean_fabrications:.2f}"],
            ],
            title="A2: ablating Fig. 2's simulation-interpretation role",
        )
    )
    # interpretation reduces the number of builds needed
    assert stats_with.mean_fabrications <= stats_without.mean_fabrications


def test_a3_averaging_duty(benchmark):
    """Averaging budget vs sensing duty cycle within a motion step."""
    def sweep():
        step_time = um(20) / 50e-6
        rows = []
        for duty in (0.5, 0.1, 0.01, 0.001):
            budget = averaging_budget(step_time, 1e-6, duty=duty)
            snr_gain_db = 10.0 * np.log10(budget)
            rows.append((f"{duty:.1%}", budget, f"{snr_gain_db:.0f} dB"))
        return rows

    rows = benchmark(sweep)
    report(
        ascii_table(
            ["sensing duty", "samples/step", "white-noise SNR gain"],
            rows,
            title="A3: averaging budget vs duty cycle (50 um/s, 1 us/sample)",
        )
    )
    # even at 0.1% duty there are hundreds of samples: the averaging
    # opportunity is robust, not an artifact of generous assumptions
    assert rows[-1][1] >= 100


def test_a4_router_priority(benchmark):
    """Prioritised planning order: longest-first vs shortest-first."""
    grid = ElectrodeGrid(40, 40, um(20))

    def run_both():
        results = []
        for seed in (0, 1, 2, 3):
            requests = random_permutation_workload(grid, n_cages=14, seed=seed)
            longest = WavefrontRouter(grid).plan(requests)

            def shortest_first(req):
                return chebyshev_heuristic(req.start, req.goal)

            shortest = WavefrontRouter(grid).plan(
                requests, priority=shortest_first
            )
            results.append((seed, longest.makespan, shortest.makespan))
        return results

    results = benchmark(run_both)
    report(
        ascii_table(
            ["seed", "longest-first makespan", "shortest-first makespan"],
            results,
            title="A4: router priority heuristic ablation",
        )
    )
    # longest-first never loses in aggregate (it protects the critical
    # cage); both always deliver (plan() would raise otherwise)
    total_longest = sum(l for __, l, __ in results)
    total_shortest = sum(s for __, __, s in results)
    assert total_longest <= total_shortest + 4
