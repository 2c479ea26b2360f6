"""Array-state benchmark: legacy dict core vs vectorized ArrayState engine.

The paper's chip steps tens of thousands of DEP cages per array frame
and scans every sensor in one pass; the pre-vectorization core paid
O(population) Python dict work per frame and one scalar readout-chain
evaluation per cage per scan.  This benchmark measures, at three array
scales up to the full 320x320 paper grid (~10k cages):

* frame-step throughput [frames/s] -- every cage shuttles one electrode
  east/west, the all-movers worst case -- through
  ``LegacyCageManager`` (before; the test oracle in
  ``tests/array_oracles.py``) and the
  :class:`~repro.array.state.ArrayState`-backed
  :class:`~repro.array.cages.CageManager` (after);
* array-scan throughput [scans/s] -- per-cage scalar readout (before)
  vs the batched ``sense_all`` path (after) on the same chip.

Emits ``BENCH_array.json`` at the repo root so the frame-step perf
trajectory is tracked across PRs.  The acceptance bar is the ISSUE's:
>= 10x frame-step throughput at paper scale with >= 5k live cages.

Run with:  pytest benchmarks/bench_array.py --benchmark-only -s
"""

import json
import os
import time
from pathlib import Path

from conftest import report

from repro import Biochip
from repro.analysis import ascii_table
from repro.array import CageManager, ElectrodeGrid
from repro.bio import mammalian_cell
from repro.physics.constants import um
from array_oracles import LegacyCageManager

# REPRO_BENCH_SMOKE=1 (the CI smoke job) shrinks the run to "does the
# script work" scale and drops the perf-bar asserts: CI fails on a
# benchmark crash, not on a slow runner.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

SCALES = ((32, 32), (48, 48)) if SMOKE else ((48, 48), (160, 160), (320, 320))
SPACING = 3  # one cage every 3 electrodes: 320x320 -> 11,449 cages
SENSE_SAMPLES = 64
STEP_BUDGET = 0.1 if SMOKE else 1.5  # wall seconds per frame-step measurement
SCAN_BUDGET = 0.1 if SMOKE else 1.5  # wall seconds per scan measurement

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_array.json"


def _populate(manager, rows, cols):
    for row in range(0, rows - 1, SPACING):
        for col in range(0, cols - 1, SPACING):
            manager.create((row, col))


def _frames_per_second(manager):
    """Shuttle the whole population one electrode east, then west."""
    ids = sorted(manager._cages)
    east = {cage_id: (0, 1) for cage_id in ids}
    west = {cage_id: (0, -1) for cage_id in ids}
    frames = 0
    start = time.perf_counter()
    while time.perf_counter() - start < STEP_BUDGET or frames < 4:
        manager.step(east)
        manager.step(west)
        frames += 2
    return frames / (time.perf_counter() - start)


def _chip_with_population(rows, cols):
    chip = Biochip.small_chip(rows=rows, cols=cols)
    cell = mammalian_cell()
    for row in range(0, rows - 1, SPACING):
        for col in range(0, cols - 1, SPACING):
            chip.cages.create((row, col), cell)
    return chip


def _scans_per_second(scan):
    scans = 0
    start = time.perf_counter()
    while time.perf_counter() - start < SCAN_BUDGET or scans < 2:
        scan()
        scans += 1
    return scans / (time.perf_counter() - start)


def _measure_scale(rows, cols):
    grid = ElectrodeGrid(rows=rows, cols=cols, pitch=um(20.0))
    legacy = LegacyCageManager(grid)
    vector = CageManager(grid)
    _populate(legacy, rows, cols)
    _populate(vector, rows, cols)
    n_cages = len(vector)

    legacy_fps = _frames_per_second(legacy)
    vector_fps = _frames_per_second(vector)

    chip = _chip_with_population(rows, cols)
    duration = SENSE_SAMPLES * chip.addresser.frame_scan_time()

    def scalar_scan():
        # the pre-vectorization array scan: one scalar readout-chain
        # evaluation (noise draw, quantise, average) per cage
        return [
            chip._sense_reading(cage, SENSE_SAMPLES, duration)
            for cage in chip.cages.cages
        ]

    scalar_sps = _scans_per_second(scalar_scan)
    batched_sps = _scans_per_second(
        lambda: chip.sense_all(n_samples=SENSE_SAMPLES)
    )

    return {
        "cages": n_cages,
        "legacy_frames_per_s": legacy_fps,
        "vector_frames_per_s": vector_fps,
        "step_speedup": vector_fps / legacy_fps,
        "scalar_scans_per_s": scalar_sps,
        "batched_scans_per_s": batched_sps,
        "scan_speedup": batched_sps / scalar_sps,
    }


def test_array_state_throughput(benchmark):
    results = {}
    for rows, cols in SCALES[:-1]:
        results[f"{rows}x{cols}"] = _measure_scale(rows, cols)
    rows, cols = SCALES[-1]
    results[f"{rows}x{cols}"] = benchmark.pedantic(
        _measure_scale, args=(rows, cols), iterations=1, rounds=1
    )

    payload = {
        "spacing": SPACING,
        "sense_samples": SENSE_SAMPLES,
        "scales": results,
    }
    # Merge-write: bench_routing.py owns the "routing" key of the same
    # artifact, so update only our keys instead of overwriting the file.
    data = {}
    if JSON_PATH.exists():
        try:
            data = json.loads(JSON_PATH.read_text())
        except ValueError:
            data = {}
    data.update(payload)
    JSON_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    table_rows = []
    for label, r in results.items():
        table_rows.append(
            [
                label,
                f"{r['cages']:,}",
                f"{r['legacy_frames_per_s']:.1f}",
                f"{r['vector_frames_per_s']:.1f}",
                f"{r['step_speedup']:.1f}x",
                f"{r['scalar_scans_per_s']:.2f}",
                f"{r['batched_scans_per_s']:.2f}",
                f"{r['scan_speedup']:.1f}x",
            ]
        )
    report(
        ascii_table(
            ["scale", "cages", "dict frm/s", "vec frm/s", "step",
             "scalar scan/s", "batch scan/s", "scan"],
            table_rows,
            title=(
                f"array-state engine, all-movers frame steps + "
                f"{SENSE_SAMPLES}-sample array scans; "
                f"JSON -> {JSON_PATH.name}"
            ),
        )
    )

    if SMOKE:
        return  # smoke job: fail on crash, not on perf regression
    full = results[f"{SCALES[-1][0]}x{SCALES[-1][1]}"]
    # the paper-scale acceptance bar: tens of thousands of cages
    # stepping at >= 10x the dict core's frame rate
    assert full["cages"] >= 5000
    assert full["step_speedup"] >= 10.0
    # batched sensing must beat the per-cage scalar chain at scale
    assert full["scan_speedup"] >= 5.0
    # the vectorized engine gets *faster* per cage as the array grows;
    # at every scale it must at least not lose to the dict core
    assert all(r["step_speedup"] >= 1.0 for r in results.values())
