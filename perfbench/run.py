"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, throughput,
peak memory, simulated chip seconds per job).  ``--trace 1`` patches spans around
every measured layer's public callables and prints the per-layer
metrics instead.  The last line of standard output is always the JSON
result; the line before it records the machine.  A failed output check
makes the command exit with code 1.  The program is imported from
``src/`` of the checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MB",
    "sim_chip_s_per_job": "s",
}

#: name -> (unit, better).  Spans give ``calls`` and ``self_s``; the
#: other names are counts read at the same boundaries or figures the
#: workload measures itself.
PER_LAYER = {
    "core.compile.calls": ("count", "lower"),
    "core.compile.self_s": ("s", "lower"),
    "core.compile.total_s": ("s", "lower"),
    "scheduling.schedule.self_s": ("s", "lower"),
    "core.fingerprint.calls": ("count", "lower"),
    "core.fingerprint.self_s": ("s", "lower"),
    "core.session.calls": ("count", "lower"),
    "core.session.self_s": ("s", "lower"),
    "service.step.self_s": ("s", "lower"),
    "service.telemetry.self_s": ("s", "lower"),
    "service.cache.hits": ("count", "higher"),
    "service.cache.misses": ("count", "lower"),
    "service.cache.hit_ratio": ("ratio", "higher"),
    "service.cache.self_s": ("s", "lower"),
    "service.scrape_ms": ("ms", "lower"),
    "service.retained_kb_per_1k_jobs": ("KB", "lower"),
    "service.sim_makespan_s": ("s", "lower"),
    "service.sim_turnaround_p50_s": ("s", "lower"),
    "service.sim_turnaround_p99_s": ("s", "lower"),
    "routing.plan.calls": ("count", "lower"),
    "routing.plan.self_s": ("s", "lower"),
    "routing.cages_planned": ("count", "lower"),
    "routing.fast_path_hits": ("count", "higher"),
    "routing.greedy_walk_hits": ("count", "higher"),
    "routing.frontier_steps": ("count", "lower"),
    "routing.replans": ("count", "lower"),
    "routing.makespan_frames": ("count", "lower"),
    "chip.move_many.self_s": ("s", "lower"),
    "chip.trap.self_s": ("s", "lower"),
    "chip.release.self_s": ("s", "lower"),
    "array.step.calls": ("count", "lower"),
    "array.step.self_s": ("s", "lower"),
    "array.cage_moves": ("count", "lower"),
    "sensing.sense.calls": ("count", "lower"),
    "sensing.sense.self_s": ("s", "lower"),
    "sensing.sense_all.self_s": ("s", "lower"),
    "sensing.samples": ("count", "lower"),
    "service.concurrent.submit_p99_ms": ("ms", "lower"),
    "service.concurrent.queue_wait_p50_ms": ("ms", "lower"),
    "service.concurrent.queue_wait_p99_ms": ("ms", "lower"),
    "service.concurrent.service_p50_ms": ("ms", "lower"),
    "service.concurrent.utilization_min": ("ratio", "higher"),
    "service.concurrent.latency_p50_ms.r100": ("ms", "lower"),
    "service.concurrent.latency_p99_ms.r100": ("ms", "lower"),
    "service.concurrent.latency_p50_ms.r200": ("ms", "lower"),
    "service.concurrent.latency_p99_ms.r200": ("ms", "lower"),
    "tenancy.co_residency_mean": ("count", "higher"),
    "tenancy.frame_merge_ratio_mean": ("ratio", "higher"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.late_max_ms": ("ms", "lower"),
    "import.repro_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.host_s": ("s", "lower"),
    "trace.jobs": ("count", "higher"),
}

#: Spans whose call count is reported next to their self time.
COUNTED_SPANS = ("core.compile", "core.fingerprint", "core.session",
                 "routing.plan", "array.step", "sensing.sense")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help="time import and set-up of WORKLOAD in this "
                             "interpreter and print it (used by the parent)")
    return parser.parse_args(argv)


def use_checkout_source():
    """Put the checkout's ``src/`` first on the path; False when the
    checkout has no program to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    return True


def setup_probe(name):
    """Child mode: import the program and build the workload's chips,
    service and workers, timing both from a fresh interpreter."""
    t0 = time.perf_counter()
    import repro  # noqa: F401 -- the import is what is timed

    t1 = time.perf_counter()
    import loads

    release = loads.build_for_setup(name)
    t2 = time.perf_counter()
    release()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


def measure_setup(name):
    """Median import and set-up seconds over fresh interpreters."""
    setups, imports = [], []
    for __ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", name],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr[-2000:]}")
        probe = json.loads(child.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


def environment():
    """The machine record printed with every result."""
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=ROOT,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(base, filename)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "loadavg": list(os.getloadavg()),
    }


def per_layer_metrics(recorder, measured, import_s):
    """Every per-layer metric, 0.0 where the workload has none."""
    values = {name: 0.0 for name in PER_LAYER}
    for name, (calls, self_s, total_s) in recorder.self_times().items():
        values[f"{name}.self_s"] = self_s
        if name in COUNTED_SPANS:
            values[f"{name}.calls"] = calls
        if name == "core.compile":
            # compile including the list scheduler it calls (a child)
            values["core.compile.total_s"] = total_s
    values.update(recorder.counts)
    lookups = values["service.cache.hits"] + values["service.cache.misses"]
    if lookups:
        values["service.cache.hit_ratio"] = (
            values["service.cache.hits"] / lookups)
    for name in PER_LAYER:
        if name in measured:
            values[name] = measured[name]
    values["import.repro_s"] = import_s
    values["trace.spans"] = len(recorder.spans)
    return {name: values[name] for name in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    if not use_checkout_source():
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    import loads
    import spans

    if args.workload not in loads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(loads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    setup_s, import_s = measure_setup(args.workload)
    recorder = None
    if args.trace:
        recorder = spans.install_layer_spans(spans.SpanRecorder(args.workload))
    try:
        measured = loads.WORKLOADS[args.workload](
            args.seed, args.seconds, recorder
        )
    finally:
        if recorder is not None:
            recorder.unpatch_all()
    if args.trace:
        values = per_layer_metrics(recorder, measured, import_s)
        units = {name: unit for name, (unit, __) in PER_LAYER.items()}
    else:
        values = {**measured, "setup_s": setup_s}
        units = END_TO_END
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.write_jsonl(os.path.join(OUT, f"spans-{stem}.jsonl"))
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as log:
        log.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "problems": measured["problems"], **result,
        }) + "\n")
    for problem in measured["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("perfbench env: " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
