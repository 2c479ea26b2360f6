"""The four workloads: seeded input generators, timed loops, output checks.

Every input comes from the generators in this file, driven by the seed
given on the command line; the package's own ``repro.workloads``
generators are deliberately not called, so a later change to them
cannot alter a workload.  Each generator call takes ``(seed, stream,
index)`` and draws from its own ``numpy`` stream, so the first rounds
of a run are the same whatever its length: the ``sim_*`` metrics are
read from a fixed prefix and are identical across runs with one seed.
``sim_chip_s_per_job`` is the mean simulated chip time a job's run
accounted, over that prefix.

Inputs are generated outside the timed sections.  Every workload
checks its outputs after each round (also outside timing) and counts a
job that did not reach DONE or failed a check as failed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import tracemalloc
from collections import Counter

import numpy as np

#: A traced closed-loop run traces every other round (the even ones),
#: so the tracing overhead is measured against the untraced rounds of
#: the same run.
TRACE_EVERY = 2


def rng_for(seed, stream, index=0):
    """An independent generator for one (seed, stream, index) cell."""
    return np.random.default_rng([int(seed), stream, index])


def rss_mb():
    """Peak resident memory of this process so far [MB]."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, p):
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[int(rank) - 1]


class Deadline:
    """Ends a time-bounded loop on a unit boundary without running past
    the budget: another unit starts only while the last one would still
    fit in the time left."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.began = self.mark = time.perf_counter()
        self.last = 0.0

    def another(self):
        """Close the unit just run; True when the next one fits."""
        now = time.perf_counter()
        self.last, self.mark = now - self.mark, now
        return now - self.began + self.last <= self.seconds


class Rounds:
    """The rounds of a closed loop: (jobs, host seconds, traced) each,
    with tracing switched on for every other round of a traced run."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.records = []
        self.traced = False

    def start(self, index):
        """Begin round ``index``; call right before its timed section."""
        self.traced = self.recorder is not None and index % TRACE_EVERY == 0
        if self.recorder is not None:
            self.recorder.active = self.traced

    def add(self, jobs, seconds):
        """End the round started last; call right after its timing."""
        if self.recorder is not None:
            self.recorder.active = False
        self.records.append((jobs, seconds, self.traced))

    def rate(self, traced):
        """Jobs per host second over the rounds with this trace flag."""
        picked = [(j, s) for j, s, t in self.records if t == traced]
        seconds = sum(s for __, s in picked)
        return sum(j for j, __ in picked) / seconds if seconds else 0.0

    def metrics(self):
        """``jobs_per_s`` (untraced rounds) and the ``trace.*`` figures."""
        traced, untraced = self.rate(True), self.rate(False)
        return {
            "jobs_per_s": untraced,
            "trace.overhead_frac":
                1.0 - traced / untraced if traced and untraced else 0.0,
            "trace.host_s": sum(s for __, s, t in self.records if t),
            "trace.jobs": sum(j for j, __, t in self.records if t),
        }


# -- output checks -------------------------------------------------------------


def check_service_job(protocol, result):
    """Problems with one served job; an empty list means correct.

    The job must be DONE, its run must hold exactly one event per
    command (op ids are ``<index>:<command type>``), and every sense
    command must have left one measurement of its sample count under
    its handle.
    """
    from repro import JobState
    from repro.core.protocol import SenseCmd

    if result.state is not JobState.DONE:
        return [f"job {result.job_id}: {result.state.value}"]
    run = result.run
    expected_ops = {
        f"{i}:{type(cmd).__name__}" for i, cmd in enumerate(protocol.commands)
    }
    ops = [event.op_id for event in run.events]
    if len(ops) != len(expected_ops) or set(ops) != expected_ops:
        return [f"job {result.job_id}: {len(ops)} run events for "
                f"{len(expected_ops)} commands"]
    wanted = Counter()
    for cmd in protocol.commands:
        if isinstance(cmd, SenseCmd):
            wanted[cmd.store_as or cmd.handle] += 1
    got = {key: len(values) for key, values in run.measurements.items()}
    if got != dict(wanted):
        return [f"job {result.job_id}: measurements {got} != {dict(wanted)}"]
    samples = {
        (cmd.store_as or cmd.handle): cmd.samples
        for cmd in protocol.commands if isinstance(cmd, SenseCmd)
    }
    for key, values in run.measurements.items():
        if any(m.n_samples != samples[key] for m in values):
            return [f"job {result.job_id}: wrong sample count under {key}"]
    return []


def check_jobs(protocols, results):
    """Per-job check over a round; returns the number of failed jobs
    and the first few problems."""
    failed = 0
    problems = []
    for protocol, result in zip(protocols, results):
        found = check_service_job(protocol, result)
        if found:
            failed += 1
            problems.extend(found[:1])
    return failed, problems[:3]


def check_isolation(cage_ids, starts, goals, finals, scan, left_after):
    """Problems with one isolation assay; an empty list means correct.

    ``goals`` maps cage index -> bank goal for the rare cells; every
    other cage must end where it was trapped.  The scan must hold one
    reading per cage and the chip must be empty after release.
    """
    problems = []
    for i, final in enumerate(finals):
        want = goals.get(i, starts[i])
        if tuple(final) != tuple(want):
            kind = "rare" if i in goals else "parked"
            problems.append(f"{kind} cell {i} at {tuple(final)}, want {want}")
            break
    scanned = [cage_id for cage_id, __ in scan]
    if len(scanned) != len(cage_ids) or set(scanned) != set(cage_ids):
        problems.append(
            f"scan returned {len(scanned)} readings for {len(cage_ids)} cages"
        )
    elif not all(np.isfinite(r.reading) for __, r in scan):
        problems.append("scan returned a non-finite reading")
    if left_after:
        problems.append(f"{left_after} cages left after release")
    return problems


# -- serve_hot -----------------------------------------------------------------

HOT_WAVE = 100          # jobs per closed batch
HOT_COLD_JOBS = 10      # jobs per wave not on the hot variant
HOT_SIM_WAVES = 5       # sim_* metrics are read after this many waves
HOT_RSS_WAVES = 60      # peak_rss_mb is read after this many waves
HOT_SOAK_WAVES = 4      # waves measured under tracemalloc (traced run)


def hot_protocol(grid, variant, job):
    """Trap a 3-cage band, move it as one group, sense, release.

    The shape of ``repro.workloads.service_protocol_variant``: variant
    ``v`` travels ``3 + 2v`` columns and senses ``200 * (1 + v)``
    samples, so variants fingerprint apart while every repeat of one
    variant hits the compiled-program cache.
    """
    from repro import Protocol

    column = grid.cols // 4
    goal_column = column + 3 + 2 * variant
    handles = [f"j{job}h{i}" for i in range(3)]
    protocol = Protocol(f"job{job}-v{variant}")
    for i, handle in enumerate(handles):
        protocol.trap(handle, (2 * i, column))
    protocol.move_many({h: (2 * i, goal_column) for i, h in enumerate(handles)})
    for handle in handles:
        protocol.sense(handle, samples=200 * (1 + variant))
    for handle in handles:
        protocol.release(handle)
    return protocol


def hot_wave(grid, seed, wave):
    """One wave of serving jobs: 90 on variant 0 and 10 drawn from
    variants 1..3, in a seeded order.  A fixed hot share per wave keeps
    the wave's work from swinging with the draw."""
    rng = rng_for(seed, 1, wave)
    variants = np.concatenate([
        np.zeros(HOT_WAVE - HOT_COLD_JOBS, dtype=int),
        rng.integers(1, 4, size=HOT_COLD_JOBS),
    ])
    rng.shuffle(variants)
    return [hot_protocol(grid, int(v), wave * HOT_WAVE + i)
            for i, v in enumerate(variants.tolist())]


def hot_service():
    from repro import Biochip, ExecutionService, ServiceConfig

    return ExecutionService.simulator(
        ServiceConfig(n_chips=8, policy="affinity"),
        chip=Biochip.small_chip(),
    )


def run_serve_hot(seed, seconds, recorder=None):
    """Closed batch: waves of 100 jobs, one monitoring scrape per wave."""
    service = hot_service()
    grid = service.fleet.workers[0].session.backend.grid
    rounds = Rounds(recorder)
    attempted = failed = 0
    problems = []
    turnarounds = []
    chip_seconds = []
    sim_makespan = 0.0
    scrape_ms = 0.0
    peak_rss = None
    wave = 0
    deadline = Deadline(seconds)
    while True:
        protocols = hot_wave(grid, seed, wave)
        rounds.start(wave)
        t0 = time.perf_counter()
        handles = service.submit_many(protocols)
        service.drain()
        t1 = time.perf_counter()
        service.snapshot()
        service.telemetry.to_prometheus(fleet=service.fleet)
        t2 = time.perf_counter()
        rounds.add(len(protocols), t2 - t0)
        scrape_ms = (t2 - t1) * 1e3
        results = [handle.result(wait=False) for handle in handles]
        bad, found = check_jobs(protocols, results)
        attempted += len(protocols)
        failed += bad
        problems += found
        wave += 1
        if wave <= HOT_SIM_WAVES:
            turnarounds += [r.turnaround for r in results]
            chip_seconds += [r.run.wall_time for r in results if r.run]
            sim_makespan = service.fleet.now
        if wave == HOT_RSS_WAVES:
            peak_rss = rss_mb()
        del handles, results, protocols
        if not deadline.another():
            break
    out = {
        **rounds.metrics(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak_rss or rss_mb(),
        "sim_chip_s_per_job": statistics.fmean(chip_seconds),
        "service.sim_makespan_s": sim_makespan,
        "service.sim_turnaround_p50_s": percentile(turnarounds, 50),
        "service.sim_turnaround_p99_s": percentile(turnarounds, 99),
        "service.scrape_ms": scrape_ms,
    }
    if recorder is not None:
        out["service.retained_kb_per_1k_jobs"] = _hot_soak(
            service, grid, seed, wave
        )
    return out


def _hot_soak(service, grid, seed, first_wave):
    """Retained memory per 1000 jobs: tracemalloc's current size after
    one wave against after ``HOT_SOAK_WAVES`` more, results dropped."""
    tracemalloc.start()
    try:
        sizes = []
        for k in range(HOT_SOAK_WAVES + 1):
            service.submit_many(hot_wave(grid, seed, first_wave + k))
            service.drain()
            service.snapshot()
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    grown = sizes[-1] - sizes[0]
    return grown / 1024.0 / (HOT_SOAK_WAVES * HOT_WAVE) * 1000.0


# -- assay_cold ----------------------------------------------------------------

COLD_SIZES = tuple(range(120, 201, 10))  # cells per job, one round
COLD_WAVE = 3                             # jobs per closed batch
COLD_ROUND_WAVES = len(COLD_SIZES) // COLD_WAVE
COLD_RSS_ROUNDS = 3     # peak_rss_mb is read after this many rounds


def cold_particles():
    from repro.bio.particles import mammalian_cell

    return mammalian_cell(viable=True), mammalian_cell(viable=False)


def cold_protocol(grid, seed, job, particles):
    """A distinct per-cell assay: trap k cells on random stride-3
    lattice sites, sense each for 100..399 samples, release each.

    ``k`` walks a seeded permutation of ``COLD_SIZES``, so every nine
    consecutive jobs carry the same total size whatever the seed.
    """
    from repro import Protocol

    k = int(rng_for(seed, 2, job // len(COLD_SIZES)).permutation(
        COLD_SIZES)[job % len(COLD_SIZES)])
    rng = rng_for(seed, 3, job)
    rows = np.arange(0, grid.rows, 3)
    cols = np.arange(0, grid.cols, 3)
    picks = rng.choice(rows.size * cols.size, size=k, replace=False)
    dead = rng.random(k) < 0.1
    # one sample depth from each of k equal strata of 100..400, in a
    # random order: the depths cover the range evenly in every job, which
    # keeps the compile cost of a job from swinging with the draw
    samples = rng.permutation(
        100 + (300 * (np.arange(k) + rng.random(k)) / k).astype(int)
    )
    protocol = Protocol(f"cold{job}")
    for i, flat in enumerate(picks.tolist()):
        site = (int(rows[flat // cols.size]), int(cols[flat % cols.size]))
        protocol.trap(f"c{i}", site, particle=particles[int(dead[i])])
    for i in range(k):
        protocol.sense(f"c{i}", samples=int(samples[i]))
    for i in range(k):
        protocol.release(f"c{i}")
    return protocol


def check_cold_wave(protocols, results, misses):
    """:func:`check_jobs` plus exactly one cache miss per distinct job
    (``misses`` is the fleet's miss count across the wave)."""
    bad, found = check_jobs(protocols, results)
    hit_jobs = sum(1 for r in results if r.cache_hit)
    if misses != len(protocols) or hit_jobs:
        bad = len(protocols)
        found.append(f"{misses} cache misses and {hit_jobs} hits for "
                      f"{len(protocols)} distinct jobs")
    return bad, found


def cold_service():
    from repro import Biochip, ExecutionService, ServiceConfig

    return ExecutionService.simulator(
        ServiceConfig(n_chips=2), chip=Biochip.paper_chip()
    )


def run_assay_cold(seed, seconds, recorder=None):
    """Closed batch of distinct assays: every job misses the cache."""
    service = cold_service()
    grid = service.fleet.workers[0].session.backend.grid
    particles = cold_particles()
    rounds = Rounds(recorder)
    attempted = failed = 0
    problems = []
    turnarounds = []
    chip_seconds = []
    sim_makespan = 0.0
    peak_rss = None
    wave = 0
    deadline = Deadline(seconds)
    while True:
        protocols = [
            cold_protocol(grid, seed, wave * COLD_WAVE + i, particles)
            for i in range(COLD_WAVE)
        ]
        misses_before = service.fleet.cache_stats().misses
        rounds.start(wave)
        t0 = time.perf_counter()
        handles = service.submit_many(protocols)
        service.drain()
        rounds.add(len(protocols), time.perf_counter() - t0)
        results = [handle.result(wait=False) for handle in handles]
        bad, found = check_cold_wave(
            protocols, results,
            service.fleet.cache_stats().misses - misses_before,
        )
        attempted += len(protocols)
        failed += bad
        problems += found
        wave += 1
        if wave <= COLD_ROUND_WAVES:
            turnarounds += [r.turnaround for r in results]
            chip_seconds += [r.run.wall_time for r in results if r.run]
            sim_makespan = service.fleet.now
        if wave == COLD_RSS_ROUNDS * COLD_ROUND_WAVES:
            peak_rss = rss_mb()
        # stop on whole rounds only, so every run carries the same mix
        # of job sizes
        if wave % COLD_ROUND_WAVES == 0 and not deadline.another():
            break
    return {
        **rounds.metrics(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak_rss or rss_mb(),
        "sim_chip_s_per_job": statistics.fmean(chip_seconds),
        "service.sim_makespan_s": sim_makespan,
        "service.sim_turnaround_p50_s": percentile(turnarounds, 50),
        "service.sim_turnaround_p99_s": percentile(turnarounds, 99),
    }


# -- isolate_320 ---------------------------------------------------------------

ISO_CELLS = 3000
ISO_RARE = 150
ISO_STRIDE = 4
ISO_FIRST_COLUMN = 40
ISO_BANK_COLUMNS = tuple(range(2, 36, ISO_STRIDE))  # 2, 6, ..., 34
ISO_SCAN_SAMPLES = 2000
ISO_RSS_ASSAYS = 4      # peak_rss_mb is read after this many assays


def isolate_inputs(grid, seed, assay):
    """Sites, rare-cell mask and bank goals of one isolation assay.

    3000 cells sit on a stride-4 lattice in columns 40..319; 150 of
    them are dead ("rare").  Each rare cell gets a bank site in its own
    lattice row, columns 2..34, the leftmost cell taking the rightmost
    free slot so that no two rare cells of one row have to cross; a
    row whose slots run out spills into the nearest row with room.
    """
    rng = rng_for(seed, 4, assay)
    rows = list(range(0, grid.rows, ISO_STRIDE))
    cols = list(range(ISO_FIRST_COLUMN, grid.cols, ISO_STRIDE))
    picks = rng.choice(len(rows) * len(cols), size=ISO_CELLS, replace=False)
    starts = [(rows[f // len(cols)], cols[f % len(cols)])
              for f in picks.tolist()]
    rare = sorted(rng.choice(ISO_CELLS, size=ISO_RARE, replace=False).tolist(),
                  key=lambda i: (starts[i][0], starts[i][1]))
    free = {row: sorted(ISO_BANK_COLUMNS, reverse=True) for row in rows}
    goals = {}
    for i in rare:
        row = starts[i][0]
        for candidate in sorted(rows, key=lambda r: (abs(r - row), r)):
            if free[candidate]:
                goals[i] = (candidate, free[candidate].pop(0))
                break
    return starts, goals


def isolation_assay(chip, starts, goals, particles):
    """One assay on ``chip``: trap every cell, scan, move the rare cells
    to the bank in one group move, release all.

    Returns ``(cage_ids, finals, scan, host_seconds)``; ``finals`` are
    the cage sites just before release, read outside the timing.
    """
    viable, dead = particles
    payloads = [dead if i in goals else viable for i in range(len(starts))]
    t0 = time.perf_counter()
    cages = [chip.trap(site, payload) for site, payload in zip(starts, payloads)]
    scan = chip.sense_all(ISO_SCAN_SAMPLES)
    chip.move_many({cages[i].cage_id: goal for i, goal in goals.items()})
    t1 = time.perf_counter()
    finals = [cage.site for cage in cages]
    cage_ids = [cage.cage_id for cage in cages]
    t2 = time.perf_counter()
    for cage_id in cage_ids:
        chip.release(cage_id)
    t3 = time.perf_counter()
    return cage_ids, finals, scan, (t1 - t0) + (t3 - t2)


def run_isolate_320(seed, seconds, recorder=None):
    """Back-to-back rare-cell isolation assays on one paper chip."""
    from repro import Biochip

    chip = Biochip.paper_chip()
    particles = cold_particles()
    rounds = Rounds(recorder)
    attempted = failed = 0
    problems = []
    sim_chip = 0.0
    peak_rss = None
    assay = 0
    deadline = Deadline(seconds)
    while True:
        starts, goals = isolate_inputs(chip.grid, seed, assay)
        chip_before = chip.elapsed
        rounds.start(assay)
        cage_ids, finals, scan, host_s = isolation_assay(
            chip, starts, goals, particles
        )
        rounds.add(1, host_s)
        found = check_isolation(cage_ids, starts, goals, finals, scan,
                                 chip.cage_count)
        attempted += 1
        failed += bool(found)
        problems += found[:1]
        if assay == 0:
            sim_chip = chip.elapsed - chip_before
        assay += 1
        if assay == ISO_RSS_ASSAYS:
            peak_rss = rss_mb()
        if not deadline.another():
            break
    return {
        **rounds.metrics(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak_rss or rss_mb(),
        "sim_chip_s_per_job": sim_chip,
    }


# -- serve_wall ----------------------------------------------------------------

WALL_WORKERS = 2
WALL_RATES = (100, 200)
WALL_PHASE_JOBS = 1000    # jobs per phase; shorter runs scale it down


def wall_protocol(variant, job):
    """A compact job (the shape of ``small_footprint_protocol``): two
    cages at the origin, travel 4 columns, sense 120 * (1 + v)."""
    from repro import Protocol

    handles = [f"j{job}h{i}" for i in range(2)]
    protocol = Protocol(f"job{job}-sf{variant}")
    for i, handle in enumerate(handles):
        protocol.trap(handle, (2 * i, 0))
    protocol.move_many({h: (2 * i, 4) for i, h in enumerate(handles)})
    for handle in handles:
        protocol.sense(handle, samples=120 * (1 + variant))
    for handle in handles:
        protocol.release(handle)
    return protocol


def wall_phase_inputs(seed, stream, phase, n_jobs, rate=None):
    """Protocols (90% hot) and due offsets [s] of one phase; without a
    rate every job is due at once (a backlog)."""
    rng = rng_for(seed, stream, phase)
    protocols = []
    for i in range(n_jobs):
        variant = 0 if rng.random() < 0.9 else int(rng.integers(1, 4))
        protocols.append(wall_protocol(variant, f"{stream}-{phase}-{i}"))
    if rate is None:
        offsets = [0.0] * n_jobs
    else:
        offsets = np.cumsum(rng.exponential(1.0 / rate, size=n_jobs)).tolist()
    return protocols, offsets


def wall_service():
    from repro import Biochip, ConcurrentConfig, ConcurrentExecutionService

    return ConcurrentExecutionService.simulator(
        ConcurrentConfig(n_workers=WALL_WORKERS, mode="thread", max_tenants=4),
        chip=Biochip.small_chip(),
    )


def _open_loop(service, protocols, offsets, stats):
    """Send each job when it is due; returns per-job latency [s] from
    due time to terminal event, and the handles."""
    done = [None] * len(protocols)

    def terminal(index):
        def on_event(event):
            if event["kind"] in ("done", "failed", "rejected", "shed",
                                 "expired"):
                done[index] = time.perf_counter()
        return on_event

    handles = []
    t0 = time.perf_counter()
    for i, (protocol, offset) in enumerate(zip(protocols, offsets)):
        due = t0 + offset
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
            now = time.perf_counter()
        stats["late"].append(now - due)
        handle = service.submit(protocol)
        stats["submit"].append(time.perf_counter() - now)
        handle.subscribe(terminal(i))
        handles.append(handle)
    service.drain(timeout=120.0)
    latencies = [d - (t0 + off) for d, off in zip(done, offsets)
                 if d is not None]
    return latencies, handles


def _backlog(service, protocols, stats):
    """Submit every job at once and drain; returns (jobs/s, results)."""
    t0 = time.perf_counter()
    handles = []
    for protocol in protocols:
        s0 = time.perf_counter()
        handles.append(service.submit(protocol))
        stats["submit"].append(time.perf_counter() - s0)
    service.drain(timeout=120.0)
    rate = len(protocols) / (time.perf_counter() - t0)
    return rate, [h.result(wait=False) for h in handles]


def run_serve_wall(seed, seconds, recorder=None):
    """Backlogs of jobs submitted at once and drained, back to back.

    The traced run instead sends two untraced open-loop phases (Poisson
    arrivals at 100 then 200 jobs/s) for the latency figures, then one
    traced backlog and an untraced one of the same size as the
    tracing-overhead baseline.
    """
    n_jobs = min(WALL_PHASE_JOBS, max(20, int(40 * seconds)))
    stats = {"late": [], "submit": []}
    out = {}
    attempted = failed = 0
    problems = []
    rates = []
    sim_chip = 0.0

    def account(protocols, results):
        nonlocal attempted, failed
        bad, found = check_jobs(protocols, results)
        attempted += len(protocols)
        failed += bad
        problems.extend(found)

    def backlog(index):
        nonlocal sim_chip
        protocols, __ = wall_phase_inputs(seed, 5, index, n_jobs)
        rate, results = _backlog(service, protocols, stats)
        account(protocols, results)
        if index == 0:
            sim_chip = statistics.fmean(
                r.run.wall_time for r in results if r.run is not None)
        return rate, results

    with wall_service() as service:
        if recorder is None:
            deadline = Deadline(seconds)
            while True:
                rates.append(backlog(len(rates))[0])
                if not deadline.another():
                    break
        else:
            results = []
            for phase, rate in enumerate(WALL_RATES):
                protocols, offsets = wall_phase_inputs(
                    seed, 6, phase, n_jobs, rate)
                latencies, handles = _open_loop(
                    service, protocols, offsets, stats)
                phase_results = [h.result(wait=False) for h in handles]
                account(protocols, phase_results)
                results += phase_results
                for q in (50, 99):
                    out[f"service.concurrent.latency_p{q}_ms.r{rate}"] = (
                        percentile(latencies, q) * 1e3)
            recorder.active = True
            traced_rate, backlog_results = backlog(0)
            recorder.active = False
            results += backlog_results
            snap = service.snapshot()
            untraced_rate = backlog(1)[0]
            rates.append(traced_rate)
            waits = [r.queue_wait * 1e3 for r in results]
            services = [r.service_time * 1e3 for r in results]
            out.update({
                "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
                "trace.host_s": n_jobs / traced_rate,
                "trace.jobs": n_jobs,
                "service.concurrent.submit_p99_ms":
                    percentile(stats["submit"], 99) * 1e3,
                "service.concurrent.queue_wait_p50_ms": percentile(waits, 50),
                "service.concurrent.queue_wait_p99_ms": percentile(waits, 99),
                "service.concurrent.service_p50_ms":
                    percentile(services, 50),
                "service.concurrent.utilization_min": min(
                    snap["pool"]["utilization"].values()),
                "tenancy.co_residency_mean":
                    snap["tenancy"]["co_residency"]["mean"],
                "tenancy.frame_merge_ratio_mean":
                    snap["tenancy"]["frame_merge_ratio"]["mean"],
                "loadgen.late_p99_ms": percentile(stats["late"], 99) * 1e3,
                "loadgen.late_max_ms": max(stats["late"]) * 1e3,
            })
    out.update({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:3],
        "jobs_per_s": statistics.median(rates),
        "peak_rss_mb": rss_mb(),
        "sim_chip_s_per_job": sim_chip,
    })
    return out


WORKLOADS = {
    "serve_hot": run_serve_hot,
    "assay_cold": run_assay_cold,
    "isolate_320": run_isolate_320,
    "serve_wall": run_serve_wall,
}


def build_for_setup(name):
    """Construct what a workload needs before its first submit (the
    set-up probe times this in a fresh interpreter); returns a callable
    that releases it."""
    if name == "serve_hot":
        hot_service()
    elif name == "assay_cold":
        cold_service()
        cold_particles()
    elif name == "isolate_320":
        from repro import Biochip

        Biochip.paper_chip()
        cold_particles()
    elif name == "serve_wall":
        return wall_service().close
    else:
        raise ValueError(f"unknown workload {name!r}")
    return lambda: None
