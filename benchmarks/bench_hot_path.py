"""Per-call host cost of the chip's hot calls.

A serving job on a small chip is three traps, one 3-cage ``move_many``,
three ``sense(200)`` reads and three releases; an array scan is one
``sense_all`` over thousands of cages.  This benchmark times the three
calls that dominate that host time, so their per-call cost shows in
every benchmark log:

* ``Biochip.sense(200)`` on ``Biochip.small_chip()``;
* a 3-cage ``move_many`` of 3 columns on ``Biochip.small_chip()``
  (alternating out and back, so every call plans and executes 3 frames);
* ``sense_all(2000)`` over 3,000 cages of the paper chip.

The cages are empty (no particle), like the serving benchmark's jobs:
the reading still runs the whole noise, quantisation and averaging
chain.  ``REPRO_BENCH_SMOKE=1`` cuts the rounds and shrinks the scan to
300 cages x 200 samples.  No perf bar is asserted: the numbers are for
the log.

Run with:  pytest benchmarks/bench_hot_path.py --benchmark-only -s
"""

import os

from conftest import report

from repro import Biochip
from repro.analysis import ascii_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
SENSE_ROUNDS = 200 if SMOKE else 3000
MOVE_ROUNDS = 100 if SMOKE else 1500
SCAN_CAGES, SCAN_SAMPLES, SCAN_ROUNDS = (300, 200, 1) if SMOKE else (3000, 2000, 3)


def _per_call_us(benchmark, calls_per_round=1):
    return benchmark.stats.stats.mean / calls_per_round * 1e6


def test_sense_200(benchmark):
    chip = Biochip.small_chip(seed=1)
    cage = chip.trap((10, 12))
    result = benchmark.pedantic(
        chip.sense, args=(cage.cage_id, 200), rounds=SENSE_ROUNDS,
        warmup_rounds=20,
    )
    assert result.n_samples == 200 and not result.expected
    report(ascii_table(
        ["call", "rounds", "us per call"],
        [["sense(200), small chip", SENSE_ROUNDS,
          f"{_per_call_us(benchmark):.1f}"]],
    ))


def test_move_many_three_cages(benchmark):
    chip = Biochip.small_chip(seed=1)
    column = chip.grid.cols // 4
    cages = [chip.trap((2 * i, column)) for i in range(3)]
    out = {c.cage_id: (2 * i, column + 3) for i, c in enumerate(cages)}
    back = {c.cage_id: (2 * i, column) for i, c in enumerate(cages)}

    def there_and_back():
        first = chip.move_many(out)
        second = chip.move_many(back)
        return first, second

    first, second = benchmark.pedantic(
        there_and_back, rounds=MOVE_ROUNDS, warmup_rounds=20
    )
    assert first["frames"] == second["frames"] == 3
    assert first["moves"] == 9
    totals = chip.routing_totals
    plan_us = totals["plan_seconds"] / totals["plans"] * 1e6
    report(ascii_table(
        ["call", "rounds", "us per call", "of it planning (us)"],
        [["move_many, 3 cages x 3 frames, small chip", 2 * MOVE_ROUNDS,
          f"{_per_call_us(benchmark, 2):.1f}", f"{plan_us:.1f}"]],
    ))


def test_sense_all_over_many_cages(benchmark):
    chip = Biochip.paper_chip(seed=1)
    sites = [(r, c) for r in range(0, 320, 4) for c in range(0, 320, 4)]
    for site in sites[:SCAN_CAGES]:
        chip.trap(site)
    outcomes = benchmark.pedantic(
        chip.sense_all, args=(SCAN_SAMPLES,), rounds=SCAN_ROUNDS,
        warmup_rounds=0,
    )
    assert len(outcomes) == SCAN_CAGES
    report(ascii_table(
        ["call", "rounds", "ms per call"],
        [[f"sense_all({SCAN_SAMPLES}) over {SCAN_CAGES} cages, paper chip",
          SCAN_ROUNDS, f"{benchmark.stats.stats.mean * 1e3:.1f}"]],
    ))
