"""Benchmark-side tracing: spans around the calls into each layer.

The traced run wraps public callables of the ``repro`` package from
outside it.  Each wrapper is patched where the caller looks the name
up (``repro.core.session`` imports ``compile_protocol`` by name, so
that is where it is replaced; methods are replaced on their class).
A span records name, start, end, parent, thread and workload; every
thread keeps its own parent stack because the wall-clock tier runs
spans on worker threads.  Spans stay in memory and are written as
JSONL when the run ends.

Self time is a span's duration minus the part its child spans cover.
Children run on the parent's thread and nest inside it, so the covered
part is the sum of the children's durations.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """In-memory spans plus the counters read at the same boundaries.

    ``active`` switches recording on and off between rounds, so one
    run can interleave traced and untraced rounds; wrappers stay
    installed but fall through to the original callable while it is
    off.
    """

    def __init__(self, workload):
        self.workload = workload
        self.active = False
        # (name, start, end, span_id, parent_id, thread_id)
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self):
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, name, fn, on_result=None):
        """``fn`` wrapped in a span called ``name``.

        ``on_result(recorder, args, kwargs, result)`` runs after a
        recorded call to add counts read at the same boundary.
        """
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = recorder._new_id()
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (name, start, end, span_id, parent,
                     threading.get_ident())
                )
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` by its traced wrapper (undone by
        :meth:`unpatch_all`)."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def unpatch_all(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self):
        """``{span name: (calls, self seconds, total seconds)}`` over
        every span."""
        child_time = defaultdict(float)
        for name, start, end, span_id, parent, __ in self.spans:
            if parent:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, span_id, __, __ in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time.get(span_id, 0.0)
            entry[2] += end - start
        return {name: tuple(entry) for name, entry in totals.items()}

    def write_jsonl(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, span_id, parent, thread in self.spans:
                out.write(json.dumps({
                    "name": name,
                    "start": start,
                    "end": end,
                    "span_id": span_id,
                    "parent_id": parent or None,
                    "thread": thread,
                    "workload": self.workload,
                }) + "\n")


def install_layer_spans(recorder):
    """Patch the public callables of every measured layer.

    Returns the recorder for chaining.  Must run after ``repro`` is
    importable; the wrappers look at ``recorder.active`` on each call.
    """
    from repro.array.cages import CageManager
    from repro.core import session as session_module
    from repro.core.platform import Biochip
    from repro.core.protocol import Protocol
    from repro.routing.multi import BatchRouter
    from repro.scheduling.schedulers import ListScheduler
    from repro.service.cache import ProgramCache
    from repro.service.scheduler import ExecutionService
    from repro.service.telemetry import Telemetry

    def count_cache(rec, args, kwargs, result):
        rec.counts["service.cache.hits" if result[1]
                   else "service.cache.misses"] += 1

    def count_plan(rec, args, kwargs, plan):
        stats = plan.stats
        rec.counts["routing.cages_planned"] += stats.get("cages", 0)
        for key in ("fast_path_hits", "greedy_walk_hits",
                    "frontier_steps", "replans"):
            rec.counts["routing." + key] += stats.get(key, 0)
        rec.counts["routing.makespan_frames"] += plan.makespan

    def count_step(rec, args, kwargs, result):
        rec.counts["array.cage_moves"] += len(args[1])

    def count_sense(rec, args, kwargs, result):
        rec.counts["sensing.samples"] += result.n_samples

    def count_sense_all(rec, args, kwargs, outcomes):
        if outcomes:
            rec.counts["sensing.samples"] += (
                outcomes[0][1].n_samples * len(outcomes)
            )

    recorder.patch(session_module, "compile_protocol", "core.compile")
    recorder.patch(ListScheduler, "schedule", "scheduling.schedule")
    recorder.patch(Protocol, "fingerprint", "core.fingerprint")
    recorder.patch(session_module.Session, "run", "core.session")
    recorder.patch(ExecutionService, "step", "service.step")
    recorder.patch(ProgramCache, "get_or_compile", "service.cache",
                   count_cache)
    for method in ("count", "observe_served", "observe_routing",
                   "observe_tenancy", "snapshot", "to_prometheus"):
        recorder.patch(Telemetry, method, "service.telemetry")
    recorder.patch(BatchRouter, "plan", "routing.plan", count_plan)
    recorder.patch(Biochip, "move_many", "chip.move_many")
    recorder.patch(Biochip, "trap", "chip.trap")
    recorder.patch(Biochip, "release", "chip.release")
    recorder.patch(CageManager, "step", "array.step", count_step)
    recorder.patch(CageManager, "step_arrays", "array.step", count_step)
    recorder.patch(Biochip, "sense", "sensing.sense", count_sense)
    recorder.patch(Biochip, "sense_all", "sensing.sense_all",
                   count_sense_all)
    return recorder
