"""Routing benchmarks: wavefront batch planner at paper scale + X1 baseline.

Two layers:

* The wavefront engine (:class:`~repro.routing.multi.WavefrontRouter`)
  is measured on permutation and hot-spot traffic at 160x160 and
  320x320, on a 10k-cage block shift at 320x320 (the paper's
  "shift tens of thousands of cages at once" pass), and against the
  space-time A* reference on an identical 320x320 workload -- the A*
  sample is small because the reference needs ~1.5 s *per cage* there,
  which is precisely why the wavefront engine exists.  Results are
  reported as planner cages/s, us/cage, and routed-frames/s
  (plan + execute through :meth:`CageManager.step_arrays`), and
  persisted under the ``routing`` key of ``BENCH_array.json``.

* Experiment X1 (batch planner vs the uncoordinated greedy baseline)
  stays as the behavioural comparison: completion rate and makespan on
  permutation and converging traffic.

Run with:  pytest benchmarks/bench_routing.py --benchmark-only -s
"""

import json
import os
import time
from pathlib import Path

from conftest import report

from repro.analysis import ascii_table
from repro.array import CageManager, ElectrodeGrid
from repro.physics.constants import um
from repro.routing import GreedyRouter, WavefrontRouter
from repro.routing.multi import RoutingRequest
from repro.workloads import hotspot_workload, random_permutation_workload
from repro.workloads.sorting import _lattice_sites
from routing_oracles import AStarRouter

# REPRO_BENCH_SMOKE=1 (the CI smoke job) shrinks the run to "does the
# script work" scale and drops the perf-bar asserts.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_array.json"

SEED = 3


def _merge_json(key, payload):
    """Update one top-level key of BENCH_array.json in place, so this
    file and bench_array.py can share the artifact without clobbering
    each other's sections."""
    data = {}
    if JSON_PATH.exists():
        try:
            data = json.loads(JSON_PATH.read_text())
        except ValueError:
            data = {}
    data[key] = payload
    JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def shift_workload(grid, n_cages, shift=(8, 8), separation=2, seed=0):
    """A block shift: ``n_cages`` lattice cages all translate by
    ``shift`` -- the paper's whole-array manipulation pass."""
    import numpy as np

    sites = [
        s for s in _lattice_sites(grid, separation)
        if 0 <= s[0] + shift[0] < grid.rows and 0 <= s[1] + shift[1] < grid.cols
    ]
    if n_cages > len(sites):
        raise ValueError(f"grid fits only {len(sites)} shiftable cages")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(sites), size=n_cages, replace=False)
    return [
        RoutingRequest(i, sites[j], (sites[j][0] + shift[0], sites[j][1] + shift[1]))
        for i, j in enumerate(sorted(int(c) for c in chosen))
    ]


def _plan_and_step(router, grid, requests):
    """Plan with ``router`` and execute every frame through the cage
    manager's array path; returns the metrics dict."""
    started = time.perf_counter()
    plan = router.plan(requests)
    plan_seconds = time.perf_counter() - started

    manager = CageManager(grid)
    for request in requests:  # cage ids are 0..n-1 in request order
        manager.create(request.start)
    started = time.perf_counter()
    for step in range(plan.makespan):
        ids, deltas = plan.moves_arrays_at(step)
        manager.step_arrays(ids, deltas)
    step_seconds = time.perf_counter() - started

    n = len(requests)
    total = plan_seconds + step_seconds
    return {
        "cages": n,
        "makespan": plan.makespan,
        "total_moves": plan.total_moves(),
        "plan_seconds": plan_seconds,
        "step_seconds": step_seconds,
        "cages_per_s": n / plan_seconds if plan_seconds > 0 else 0.0,
        "us_per_cage": plan_seconds / n * 1e6,
        "routed_frames_per_s": plan.makespan / total if total > 0 else 0.0,
        "fast_path_hits": plan.stats.get("fast_path_hits", 0),
        "greedy_walk_hits": plan.stats.get("greedy_walk_hits", 0),
        "frontier_steps": plan.stats.get("frontier_steps", 0),
        "replans": plan.stats.get("replans", 0),
    }


def _scenarios():
    if SMOKE:
        side_mid, side_full = 48, 64
        n_perm_mid, n_hot_mid = 40, 24
        n_perm_full, n_shift = 60, 200
    else:
        side_mid, side_full = 160, 320
        n_perm_mid, n_hot_mid = 600, 400
        n_perm_full, n_shift = 1500, 10000
    grid_mid = ElectrodeGrid(side_mid, side_mid, um(20))
    grid_full = ElectrodeGrid(side_full, side_full, um(20))
    return [
        (f"perm_{side_mid}", grid_mid,
         random_permutation_workload(grid_mid, n_perm_mid, seed=SEED)),
        (f"hotspot_{side_mid}", grid_mid,
         hotspot_workload(grid_mid, n_hot_mid, seed=SEED)),
        (f"perm_{side_full}", grid_full,
         random_permutation_workload(grid_full, n_perm_full, seed=SEED)),
        (f"shift_{side_full}", grid_full,
         shift_workload(grid_full, n_shift, seed=SEED)),
    ]


def _astar_reference():
    """The A* reference on the full-scale grid, on a sample small
    enough to finish: ~1.5 s/cage at 320x320 is the planner ceiling
    this PR removes, so the sample IS the measurement."""
    side, n = (48, 24) if SMOKE else (320, 24)
    grid = ElectrodeGrid(side, side, um(20))
    requests = random_permutation_workload(grid, n, seed=SEED)
    started = time.perf_counter()
    plan = AStarRouter(grid, max_expansions=3_000_000).plan(requests)
    plan_seconds = time.perf_counter() - started
    return {
        "grid": f"{side}x{side}",
        "cages": n,
        "makespan": plan.makespan,
        "plan_seconds": plan_seconds,
        "cages_per_s": n / plan_seconds,
        "us_per_cage": plan_seconds / n * 1e6,
        "expansions": plan.stats["expansions"],
    }


def test_wavefront_scale(benchmark):
    scenarios = _scenarios()

    def run_all():
        results = {}
        for name, grid, requests in scenarios:
            results[name] = _plan_and_step(WavefrontRouter(grid), grid, requests)
        return results

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)
    reference = _astar_reference()

    full_perm = results["perm_48" if SMOKE else "perm_320"]
    speedup = full_perm["cages_per_s"] / reference["cages_per_s"]
    payload = {
        "planner": "wavefront",
        "seed": SEED,
        "scenarios": results,
        "astar_reference": reference,
        "speedup_vs_astar": speedup,
    }
    _merge_json("routing", payload)

    table_rows = [
        [
            name,
            f"{r['cages']:,}",
            f"{r['makespan']}",
            f"{r['cages_per_s']:.0f}",
            f"{r['us_per_cage']:.0f}",
            f"{r['routed_frames_per_s']:.1f}",
            f"{r['fast_path_hits']}/{r['greedy_walk_hits']}/{r['frontier_steps']}",
            f"{r['replans']}",
        ]
        for name, r in results.items()
    ]
    table_rows.append(
        [
            f"astar_{reference['grid']} (ref)",
            f"{reference['cages']:,}",
            f"{reference['makespan']}",
            f"{reference['cages_per_s']:.2f}",
            f"{reference['us_per_cage']:.0f}",
            "-",
            f"exp={reference['expansions']:,}",
            "-",
        ]
    )
    report(
        ascii_table(
            ["scenario", "cages", "frames", "cages/s", "us/cage",
             "routed frm/s", "fast/walk/frontier", "replans"],
            table_rows,
            title=(
                f"wavefront batch routing (speedup vs A* reference: "
                f"{speedup:.0f}x); JSON -> {JSON_PATH.name}:routing"
            ),
        )
    )

    if SMOKE:
        return  # smoke job: fail on crash, not on perf regression
    # the ISSUE acceptance bar: >= 5x planner throughput at 320x320
    assert speedup >= 5.0
    # the headline pass: >= 10k cages routed in one congestion-aware plan
    assert results["shift_320"]["cages"] >= 10000
    assert results["shift_320"]["plan_seconds"] < 30.0


# -- X1: batch planner vs greedy baseline --------------------------------


def grid():
    return ElectrodeGrid(40, 40, um(20))


def run_comparison(workload_fn, n_cages, seeds):
    g = grid()
    rows = []
    for seed in seeds:
        requests = workload_fn(g, n_cages, seed=seed)
        batch_plan = WavefrontRouter(g).plan(requests)
        batch_done = sum(
            batch_plan.paths[r.cage_id][-1] == r.goal for r in requests
        )
        greedy_plan, failed = GreedyRouter(g, max_steps=300).plan(requests)
        rows.append(
            (
                seed,
                batch_done,
                len(requests),
                batch_plan.makespan,
                len(requests) - len(failed),
                greedy_plan.makespan,
            )
        )
    return rows


def test_permutation_traffic(benchmark):
    rows = benchmark(
        run_comparison, random_permutation_workload, 16, seeds=(0, 1, 2)
    )
    table_rows = [
        [seed, f"{bd}/{n}", bm, f"{gd}/{n}", gm]
        for seed, bd, n, bm, gd, gm in rows
    ]
    report(
        ascii_table(
            ["seed", "batch delivered", "batch makespan",
             "greedy delivered", "greedy makespan"],
            table_rows,
            title="X1: random permutation traffic, 16 cages on 40x40",
        )
    )
    # batch router always delivers everyone
    assert all(bd == n for __, bd, n, __, __, __ in rows)


def test_hotspot_traffic(benchmark):
    rows = benchmark(run_comparison, hotspot_workload, 16, seeds=(0, 1, 2))
    table_rows = [
        [seed, f"{bd}/{n}", bm, f"{gd}/{n}", gm]
        for seed, bd, n, bm, gd, gm in rows
    ]
    report(
        ascii_table(
            ["seed", "batch delivered", "batch makespan",
             "greedy delivered", "greedy makespan"],
            table_rows,
            title="X1b: hot-spot (converging) traffic, 16 cages on 40x40",
        )
    )
    # the batch router always delivers; greedy strands cages somewhere
    assert all(bd == n for __, bd, n, __, __, __ in rows)
    greedy_delivered = sum(r[4] for r in rows)
    total = sum(r[2] for r in rows)
    assert greedy_delivered < total  # greedy fails somewhere


def test_batch_router_scales(benchmark):
    """Planning cost for a 48-cage batch stays interactive (< seconds),
    so protocol compilation can route on the fly."""
    g = ElectrodeGrid(60, 60, um(20))
    requests = random_permutation_workload(g, n_cages=48, seed=7)

    plan = benchmark(WavefrontRouter(g).plan, requests)
    report(
        ascii_table(
            ["quantity", "value"],
            [
                ["cages", len(requests)],
                ["makespan (frames)", plan.makespan],
                ["total moves", plan.total_moves()],
                ["fast-path hits", plan.stats["fast_path_hits"]],
                ["greedy-walk hits", plan.stats["greedy_walk_hits"]],
                ["frontier steps", plan.stats["frontier_steps"]],
            ],
            title="X1c: batch router at 48 cages on 60x60",
        )
    )
    assert all(
        plan.paths[r.cage_id][-1] == r.goal for r in requests
    )
