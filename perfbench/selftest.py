"""Smoke-size self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every workload, run for one second, prints every end-to-end metric
  (``--trace 0``) and every per-layer metric (``--trace 1``) named in
  ``BENCHMARK.json``, each with its unit, and exits 0;
* the ``sim_*`` metrics repeat exactly for two runs with one seed;
* a deliberately corrupted output trips each workload's check;
* a failed check makes the command exit nonzero;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files the command fails without printing a result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def run_command(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def check_metric_lines(spec):
    """Every workload, both trace modes, at smoke size."""
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            child = run_command(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            expect(child.returncode == 0,
                   f"{label} exits 0 ({child.stderr.strip()[-300:]})")
            try:
                result = json.loads(child.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{label} prints a JSON last line")
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   f"{label} result has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label} attempted {result['attempted']}, "
                   f"failed {result['failed']}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{label} emits every {key} metric "
                                  f"with its unit")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{label} values are numbers")


def check_sim_repeats(spec):
    """The ``sim_*`` metrics repeat exactly under one seed."""
    for workload in (w["name"] for w in spec["workloads"]):
        values = []
        for __ in range(2):
            child = run_command(ROOT, workload, 0, seconds="3")
            metrics = json.loads(child.stdout.strip().splitlines()[-1])[
                "metrics"]
            values.append({name: m["value"] for name, m in metrics.items()
                           if name.startswith("sim_")})
        expect(values[0] == values[1] and values[0],
               f"{workload} sim_* metrics repeat under one seed: {values[0]}")


def check_corruptions():
    """Each workload's output check catches a corrupted output."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import loads
    from repro import Biochip

    # serve_hot / serve_wall: one served wave, then damaged copies
    service = loads.hot_service()
    grid = service.fleet.workers[0].session.backend.grid
    protocols = loads.hot_wave(grid, SEED, 0)[:20]
    handles = service.submit_many(protocols)
    service.drain()
    results = [h.result(wait=False) for h in handles]
    expect(loads.check_jobs(protocols, results)[0] == 0,
           "served wave passes its check")
    key = next(iter(results[0].run.measurements))
    results[0].run.measurements[key].pop()
    results[1].run.events.pop()
    expect(loads.check_jobs(protocols, results)[0] == 2,
           "a dropped measurement and a dropped run event fail the check")

    with loads.wall_service() as wall:
        protocols = [loads.wall_protocol(0, i) for i in range(8)]
        handles = wall.submit_many(protocols)
        wall.drain(timeout=60.0)
    results = [h.result(wait=False) for h in handles]
    expect(loads.check_jobs(protocols, results)[0] == 0,
           "wall-clock jobs pass their check")
    results[3].run.events.append(results[3].run.events[0])
    expect(loads.check_jobs(protocols, results)[0] == 1,
           "an extra run event fails the wall-clock check")

    # assay_cold: a job repeated on two chips hits a cache at least
    # once, which the one-miss-per-job check forbids
    cold = loads.cold_service()
    particles = loads.cold_particles()
    protocols = [loads.cold_protocol(
        cold.fleet.workers[0].session.backend.grid, SEED, 0, particles)] * 3
    before = cold.fleet.cache_stats().misses
    handles = cold.submit_many(protocols)
    cold.drain()
    results = [h.result(wait=False) for h in handles]
    misses = cold.fleet.cache_stats().misses - before
    expect(loads.check_jobs(protocols, results)[0] == 0,
           "repeated cold job is DONE with full outputs")
    expect(loads.check_cold_wave(protocols, results, misses)[0] == 3,
           "a cache hit on assay_cold fails the one-miss-per-job check")

    # isolate_320: shift one rare cell's goal by one site
    chip = Biochip.paper_chip()
    starts, goals = loads.isolate_inputs(chip.grid, SEED, 0)
    cage_ids, finals, scan, __ = loads.isolation_assay(
        chip, starts, goals, particles)
    expect(not loads.check_isolation(cage_ids, starts, goals, finals, scan,
                                     chip.cage_count),
           "isolation assay passes its check")
    first = next(iter(goals))
    shifted = dict(goals)
    shifted[first] = (goals[first][0], goals[first][1] + 1)
    expect(bool(loads.check_isolation(cage_ids, starts, shifted, finals,
                                      scan, chip.cage_count)),
           "a rare cell's goal shifted by one site fails the check")
    expect(bool(loads.check_isolation(cage_ids, starts, goals, finals,
                                      scan[:-1], chip.cage_count)),
           "a missing scan reading fails the check")


def check_exit_code():
    """A workload reporting a failed job makes ``run.py`` exit 1."""
    import loads
    import run

    real = loads.WORKLOADS["serve_hot"]

    def failing(seed, seconds, recorder=None):
        out = real(seed, seconds, recorder)
        out["failed"] = 1
        out["problems"] = ["injected by the self-test"]
        return out

    loads.WORKLOADS["serve_hot"] = failing
    try:
        code = run.main(["--workload", "serve_hot", "--seed", str(SEED),
                         "--seconds", "0.5", "--trace", "0"])
    finally:
        loads.WORKLOADS["serve_hot"] = real
    expect(code == 1, "a failed check exits with code 1")


def check_bare_directory():
    """Without the program's source the command must fail, silently."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        child = run_command(bare, "serve_hot", 0)
        expect(child.returncode != 0 and not child.stdout.strip(),
               "bare directory: nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check_bare_directory()
    check_corruptions()
    check_exit_code()
    check_metric_lines(spec)
    check_sim_repeats(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
