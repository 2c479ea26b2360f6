"""The job lifecycle shared by both serving tiers.

The virtual-clock :class:`~repro.service.scheduler.ExecutionService`
and the wall-clock
:class:`~repro.service.concurrent.workers.ConcurrentExecutionService`
serve jobs through the one lifecycle defined here:

* :func:`run_attempt` -- the attempt body: compile-or-hit, run, error
  classification, the cage sweep, the timeout check and the attempt
  span.  It never raises; every failure comes back as a structured
  :class:`~repro.service.jobs.JobError` on the :class:`Attempt`.
* :func:`lease_for` / :func:`leased_view` -- region leases for
  co-scheduled tenants and the fresh, region-clipped chip view each
  tenant runs on.
* :class:`JobLifecycle` -- the front end (admission, unserved terminal
  states, resolution) and settlement (retry-or-terminal, backoff, the
  served :class:`~repro.service.jobs.JobResult`).  Every transition
  bumps its telemetry counter and records its span event in one call.

A tier supplies only what differs: its clock (chip seconds of the
worker for the virtual tier, a shared :class:`WallClock` for the
concurrent tier), its executor (the inline drain loop, or threads and
processes behind message queues), and its placement policy.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass

from ..core.backend import Backend, DryRunBackend, SimulatorBackend
from ..core.errors import BiochipError
from ..core.platform import Biochip
from ..core.session import sweep_handles
from ..faults import FaultInjector, FaultModel, FleetFaultPlan
from ..observability import tracing
from .fleet import RegionLeaseAllocator
from .jobs import ErrorKind, Job, JobError, JobResult, JobState, classify_error
from .tenancy import LeasedBackend, protocol_footprint, routing_separation

log = logging.getLogger("repro.service")

#: Admission behaviours when the queue is at ``max_queue_depth``.
ADMISSION_POLICIES = ("reject", "shed-lowest")

#: Bounds on the serving fields both tier configs share:
#: ``(field, check, requirement)``.
_FIELD_BOUNDS = (
    ("max_retries", lambda v: v >= 0, ">= 0"),
    ("retry_backoff", lambda v: v >= 0.0, ">= 0"),
    ("job_timeout", lambda v: v is None or v > 0.0, "positive"),
    ("quarantine_after", lambda v: v is None or v >= 1, ">= 1"),
    ("restart_cooldown", lambda v: v is None or v >= 0.0, ">= 0"),
    ("max_tenants", lambda v: v >= 1, ">= 1"),
    ("lease_margin", lambda v: v >= 0, ">= 0"),
)


def validate_serving_config(config):
    """Check the serving fields both tier configs share; raises
    :class:`ValueError` on the first bad one."""
    if config.admission not in ADMISSION_POLICIES:
        raise ValueError(
            f"admission must be one of {ADMISSION_POLICIES}, "
            f"got {config.admission!r}"
        )
    for name, check, requirement in _FIELD_BOUNDS:
        value = getattr(config, name)
        if not check(value):
            raise ValueError(f"{name} must be {requirement}, got {value}")


# -- faults -------------------------------------------------------------------


def fleet_fault_plan(faults, chip_ids):
    """Normalise a service's ``faults`` argument: one
    :class:`~repro.faults.FaultModel` applies to every chip."""
    if isinstance(faults, FaultModel):
        return FleetFaultPlan(models={i: faults for i in chip_ids})
    return faults


def with_faults(backend, plan, chip_id, *seed):
    """``backend`` wrapped in a fault injector per ``plan`` (unchanged
    when there is no plan).

    Seeded by ``(plan seed, chip, *seed)``: callers pass the chip's
    restart count, so the defect map survives restarts (defects are
    physical, per-die) while the transient stream re-seeds (glitches
    are per-power-up); leased tenant views add their job id.
    """
    if plan is None:
        return backend
    grid = backend.grid
    model = plan.model_for(chip_id, (grid.rows, grid.cols))
    return FaultInjector(backend, model, seed=(plan.seed, chip_id, *seed))


def add_counts(totals, counters) -> dict:
    """Add the ``counters`` mapping into ``totals``; returns ``totals``."""
    for name, value in counters.items():
        totals[name] = totals.get(name, 0) + value
    return totals


def bank_faults(totals, backend) -> dict:
    """Add ``backend``'s injected-fault counters into ``totals`` (a
    no-op for a backend without an injector); returns ``totals``."""
    if isinstance(backend, FaultInjector):
        add_counts(totals, backend.counters)
    return totals


# -- leases -------------------------------------------------------------------


def can_lease(template) -> bool:
    """True when the chip backend can clip itself to a region; other
    backends are served exclusively (tenancy is an optimisation)."""
    return type(template).set_region is not Backend.set_region


def lease_allocator(template, chip_id) -> RegionLeaseAllocator:
    """A fresh lease allocator for one chip spawned from ``template``,
    its guard band the backend's routing separation."""
    grid = template.grid
    return RegionLeaseAllocator(
        grid.rows, grid.cols,
        guard=routing_separation(template),
        chip_id=chip_id,
    )


def lease_for(job, allocator, margin):
    """``(lease, offset)`` for ``job``'s footprint, or None (no static
    footprint, or no window left on the chip).

    ``offset`` maps the job's own (protocol) coordinates into its lease
    interior: lease origin plus the margin, minus the footprint origin.
    """
    footprint = protocol_footprint(job.protocol)
    if footprint is None:
        return None
    lease = allocator.allocate(
        footprint.rows + 2 * margin, footprint.cols + 2 * margin
    )
    if lease is None:
        return None
    offset = (
        lease.origin[0] + margin - footprint.row0,
        lease.origin[1] + margin - footprint.col0,
    )
    return lease, offset


def leased_view(template, lease, offset, plan, chip_id, restarts, job_id):
    """One tenant's chip view: a fresh spawn of ``template`` clipped to
    ``lease`` (the chip's die faults re-attached, the transient stream
    seeded per tenant) behind a coordinate-translating
    :class:`~repro.service.tenancy.LeasedBackend`, so the job runs in
    its own protocol coordinates and its events come out bit-identical
    to an exclusive run.  The view dies with the attempt; the caller
    banks its injector's counters (``view.inner``)."""
    view = template.spawn()
    view.set_region(lease.origin, lease.rows, lease.cols)
    inner = with_faults(view, plan, chip_id, restarts, job_id)
    return LeasedBackend(inner, offset=offset)


# -- the attempt body ---------------------------------------------------------


@dataclass
class Attempt:
    """Everything one attempt produced.

    Timestamps are on the tier's clock; ``chip_seconds`` is the chip
    time the attempt accounted.  ``program_time``/``frames`` feed the
    frame-merge cost model of a lease group.  The attempt span's ids
    ride along so an error raised after the span closed (a lease
    group's timeout) still resolves to its span tree.  Picklable:
    process workers ship it to the coordinator.
    """

    started_at: float = 0.0
    finished_at: float = 0.0
    run: object = None
    error: JobError | None = None
    cache_hit: bool = False
    chip_seconds: float = 0.0
    program_time: float = 0.0
    frames: int = 0
    trace_id: str = ""
    span_id: str = ""

    def enforce_timeout(self, budget, chip_id, attempts):
        """Fail a clean attempt that ran past ``budget`` seconds with a
        retryable TIMEOUT; its run is discarded, not trusted."""
        took = self.finished_at - self.started_at
        if self.error is not None or budget is None or took <= budget:
            return
        self.error = JobError(
            kind=ErrorKind.TIMEOUT,
            message=(
                f"attempt took {took:.3f}s, over the {budget:.3f}s "
                f"job timeout"
            ),
            chip_id=chip_id,
            attempts=attempts,
            trace_id=self.trace_id,
            span_id=self.span_id,
        )
        self.run = None


def next_streak(streak, error) -> int:
    """A chip's consecutive-failure streak after one attempt.

    A clean attempt resets it and a chip-attributable (retryable)
    failure extends it; a PERMANENT error is the job's own fault and
    says nothing about the chip.
    """
    if error is None:
        return 0
    return streak + 1 if error.retryable else streak


def run_attempt(job, session, cache, chip_id, clock, *, registry=None,
                parent=None, lease=None, budget=None, pace=None) -> Attempt:
    """One guarded attempt of ``job`` on ``session``'s chip.

    Compiles the job's program (or hits ``cache``), runs it, folds any
    failure into a :class:`~repro.service.jobs.JobError`, and always
    sweeps the cages the job left behind -- leftover cages would poison
    the chip for every later job; the sweep is charged to the job's
    chip time, like a cleanup flush.  ``pace(started_at, chip_seconds)``
    (wall tier) then waits out device latency before the ``budget``
    check, so a timeout covers the paced attempt.

    The attempt span runs on ``clock`` and is parented explicitly on
    ``parent`` (the job's root span, or its shipped ``(trace_id,
    span_id)`` pair): the root span is never made ambient.
    """
    backend = session.backend
    chip_before = backend.elapsed
    attempt = Attempt(started_at=clock())
    attributes = {"attempt": job.attempts + 1, "chip": chip_id}
    if lease is not None:
        attributes["leased"] = True
        attributes["lease"] = f"{lease.origin}+{lease.rows}x{lease.cols}"
    handles = {}
    with tracing.span(
        "attempt", parent=parent, attributes=attributes, clock=clock,
    ) as span:
        attempt.trace_id, attempt.span_id = span.trace_id, span.span_id
        try:
            program, attempt.cache_hit = cache.get_or_compile(
                job.protocol, session, registry=registry,
                fingerprint=job.fingerprint,
            )
            attempt.run = session.run(program, handles=handles)
        except BiochipError as exc:
            attempt.error = classify_error(
                exc, chip_id=chip_id, attempts=job.attempts + 1
            )
        except Exception as exc:  # noqa: BLE001 -- the service must
            # survive *any* dispatch bug: an unclassified exception
            # still terminalises the job (PERMANENT -- retrying a
            # software bug elsewhere is pointless) instead of escaping
            # with the job stuck RUNNING and its cages leaked.
            attempt.error = JobError(
                kind=ErrorKind.PERMANENT,
                message=f"unexpected {type(exc).__name__}: {exc}",
                cause=exc,
                chip_id=chip_id,
                attempts=job.attempts + 1,
            )
        finally:
            sweep_handles(backend, handles)
        attempt.chip_seconds = backend.elapsed - chip_before
        if lease is not None:  # a LeasedBackend meters the merge inputs
            attempt.program_time = backend.program_time
            attempt.frames = backend.frames
        if pace is not None:
            pace(attempt.started_at, attempt.chip_seconds)
        attempt.finished_at = clock()
        attempt.enforce_timeout(budget, chip_id, job.attempts + 1)
        error = attempt.error
        if error is not None:
            error.trace_id, error.span_id = span.trace_id, span.span_id
        if span.recording:
            span.set_attributes({
                "cache_hit": attempt.cache_hit,
                "chip_seconds": attempt.chip_seconds,
            })
            if error is not None:
                span.set_attribute("error.kind", error.kind.value)
                span.set_error(error.message)
    return attempt


# -- front end and settlement -------------------------------------------------


class JobLifecycle:
    """Admission, settlement and resolution, shared by both tiers.

    A tier provides ``config`` (the shared serving fields), ``clock``,
    ``registry`` and ``telemetry``, calls :meth:`_init_lifecycle` from
    its constructor, and implements two hooks: ``_new_handle(job)``
    (its handle type) and ``_requeue(job, error)`` (where a retry,
    ``not_before`` already set, waits out its backoff).  Everything else about a job's life -- admit, dispatch,
    migrate, timeout, evict, retry, terminal -- happens here, once.
    """

    #: Messages for terminal states the service imposed (no chip ran).
    _UNSERVED_MESSAGES = {
        JobState.REJECTED: "rejected at admission: queue full",
        JobState.SHED: "shed from the queue for a higher-priority job",
        JobState.EXPIRED: "deadline expired before a chip was free",
    }

    def _init_lifecycle(self):
        self._queue = []         # heap of (sort_key, Job)
        self._queued_count = 0   # QUEUED entries (heap may hold shed ones)
        self._handles = {}       # job_id -> handle, dropped on resolve
        self._job_spans = {}     # job_id -> live root Span (tracing on)
        self._next_id = 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def simulator(cls, config=None, chip=None, registry=None, faults=None,
                  **options):
        """A service whose chips are full physical simulators."""
        chip = chip if chip is not None else Biochip.small_chip()
        return cls(SimulatorBackend(chip), config=config, registry=registry,
                   faults=faults, **options)

    @classmethod
    def dry_run(cls, config=None, registry=None, faults=None,
                **backend_kwargs):
        """A service on time/geometry-only chips, for planning scale."""
        return cls(DryRunBackend(**backend_kwargs), config=config,
                   registry=registry, faults=faults)

    # -- span events and counters -------------------------------------------

    def _event(self, job, name, **attributes):
        """Record ``name`` on the job's root span (tracing on)."""
        span = self._job_spans.get(job.job_id)
        if span is not None:
            span.add_event(name, **attributes)

    def _transition(self, job, counter, event=None, **attributes):
        """Count one lifecycle transition and record its span event."""
        self.telemetry.count(counter)
        if event is not None:
            self._event(job, event, **attributes)

    def _quarantined(self, chip_id, error, how):
        """Count a chip's quarantine.  The log line carries the span ids
        of the ``error`` that tripped the streak, so it greps back to
        the span tree in the trace; the flight recorder dumps."""
        self.telemetry.count("quarantined")
        log.warning(
            "chip %d quarantined %s (trace_id=%s span_id=%s)",
            chip_id, how,
            error.trace_id if error is not None else "",
            error.span_id if error is not None else "",
        )
        tracing.dump_flight("chip %d quarantined" % chip_id)

    def _restarted(self, chip_id, restarts, how):
        """Count a chip's restart (fresh spawn, same defect map)."""
        self.telemetry.count("restarted")
        log.info("chip %d restarted (restart #%d, %s)", chip_id, restarts, how)

    def _observe_group(self, tenants, ratio):
        """Meter one lease group: its size and frame-merge ratio."""
        self.telemetry.observe_tenancy(tenants, ratio)
        self.telemetry.count("leased", tenants)
        if tenants > 1:
            self.telemetry.count("merged", tenants)

    # -- front end ----------------------------------------------------------

    def submit_many(self, jobs, **kwargs) -> list:
        """Submit a batch; each item is a protocol or a
        ``(protocol, priority)`` / ``(protocol, priority, deadline)``
        tuple (keyword arguments go to every ``submit``).  Returns the
        handles in submission order."""
        return [
            self.submit(*item, **kwargs) if isinstance(item, tuple)
            else self.submit(item, **kwargs)
            for item in jobs
        ]

    def _enter(self, protocol, priority, deadline, fingerprint, tier):
        """Create, trace and admit one job; returns its handle (already
        terminal REJECTED when admission refused it)."""
        job = Job(
            protocol=protocol,
            job_id=self._next_id,
            priority=priority,
            deadline=deadline,
            submitted_at=self.clock.now(),
            fingerprint=fingerprint,
        )
        self._next_id += 1
        handle = self._new_handle(job)
        self._handles[job.job_id] = handle
        tracer = tracing.get_tracer()
        if tracer is not None:
            root = tracer.start_span(
                "job",
                parent=None,
                attributes={
                    "job_id": job.job_id,
                    "protocol": getattr(protocol, "name", ""),
                    "tier": tier,
                    "priority": priority,
                },
                clock=self.clock.now,
            )
            job.trace_id, job.root_span_id = root.trace_id, root.span_id
            self._job_spans[job.job_id] = root
        self.telemetry.count("submitted")
        if not self._admit(job):
            self._finish_unserved(job, JobState.REJECTED, "rejected")
            return handle
        self._event(job, "admit", queue_depth=self._queued_count + 1)
        heapq.heappush(self._queue, (job.sort_key(), job))
        self._queued_count += 1
        return handle

    def _admit(self, job) -> bool:
        """Apply the queue bound; True when ``job`` may be enqueued."""
        limit = self.config.max_queue_depth
        if limit is None or self._queued_count < limit:
            return True
        if self.config.admission == "reject":
            return False
        # shed-lowest: drop the weakest queued job iff the newcomer
        # outranks it; ties keep the incumbent (FIFO fairness).
        queued = [j for __, j in self._queue if j.state is JobState.QUEUED]
        if not queued:  # max_queue_depth=0: nothing to shed, refuse
            return False
        weakest = min(queued, key=lambda j: (j.priority, -j.job_id))
        if job.priority <= weakest.priority:
            return False
        self._finish_unserved(weakest, JobState.SHED, "shed")
        self._queued_count -= 1  # lazily removed from the heap later
        return True

    def _finish_unserved(self, job, state, counter, message=None) -> JobResult:
        """Terminalise a job that never reached a chip."""
        job.state = state
        self.telemetry.count(counter)
        return self._resolve(
            job,
            JobResult(
                job_id=job.job_id,
                state=state,
                protocol_name=getattr(job.protocol, "name", ""),
                error=JobError(
                    kind=ErrorKind.REJECTED,
                    message=message or self._UNSERVED_MESSAGES[state],
                    chip_id=job.last_chip,
                    attempts=job.attempts,
                ),
                submitted_at=job.submitted_at,
                started_at=job.submitted_at,
                finished_at=job.submitted_at,
                attempts=job.attempts,
            ),
        )

    def _resolve(self, job, result) -> JobResult:
        """Close the job's root span, then hand ``result`` to its handle
        and forget the job.

        The span ends first so a caller woken by the handle sees a
        closed trace.  Dropping the ``_handles`` entry is what keeps a
        long-running service's memory flat: the caller's own handle is
        the only thing pinning a terminal job's result.
        """
        span = self._job_spans.pop(job.job_id, None)
        if span is not None:
            span.set_attributes({
                "state": result.state.value,
                "attempts": result.attempts,
                "chip": result.chip_id,
            })
            if result.error is not None:
                span.set_attribute("error.kind", result.error.kind.value)
            if result.state is JobState.FAILED:
                span.set_error(result.error.message)
            span.end()
            if result.state is JobState.FAILED:
                tracing.dump_flight(
                    "job %d failed: %s"
                    % (job.job_id, result.error.kind.value)
                )
        self._handles.pop(job.job_id)._resolve(result)
        return result

    # -- dispatch and settlement --------------------------------------------

    def _dispatched(self, job, chip_id):
        """Mark ``job`` running on ``chip_id``; a retry landing on other
        hardware than its last attempt is a migration."""
        if job.attempts > 0 and chip_id != job.last_chip:
            self._transition(
                job, "migrated", "migrate",
                from_chip=job.last_chip, to_chip=chip_id,
            )
        job.state = JobState.RUNNING
        self._event(job, "dispatch", chip=chip_id, attempt=job.attempts + 1)

    def _settle(self, job, chip_id, attempt, now, group=None):
        """Settle one attempt of ``job`` on ``chip_id``.

        A retryable failure with budget left re-queues the job with
        exponential backoff counted from ``now`` (the tier's clock) and
        returns None; anything else terminalises it and returns its
        :class:`JobResult`.  ``group`` is ``(tenants, ratio,
        group_time)`` for an attempt that ran in a lease group: a fault
        (or timeout) inside one lease evicts only that tenant -- the
        rest of the group keeps its results.
        """
        error = attempt.error
        if group is not None:
            tenants, ratio, group_time = group
            self._event(
                job, "frame_merge", chip=chip_id, tenants=tenants,
                ratio=ratio, group_time=group_time,
            )
        if error is not None and error.kind is ErrorKind.TIMEOUT:
            self._transition(job, "timeout")
        if error is not None and error.retryable:
            if group is not None:
                self._transition(
                    job, "evicted", "evict",
                    chip=chip_id, error=error.kind.value,
                )
            if job.attempts < self.config.max_retries:
                job.attempts += 1
                job.last_chip = chip_id
                job.tried_chips.add(chip_id)
                backoff = self.config.retry_backoff * (2 ** (job.attempts - 1))
                job.not_before = now + backoff
                job.state = JobState.QUEUED
                self._transition(
                    job, "retried", "backoff",
                    attempt=job.attempts, chip=chip_id,
                    error=error.kind.value, backoff=backoff,
                    not_before=job.not_before,
                )
                self._requeue(job, error)
                return None
        job.state = JobState.DONE if error is None else JobState.FAILED
        self._transition(job, "completed" if error is None else "failed")
        result = JobResult(
            job_id=job.job_id,
            state=job.state,
            protocol_name=getattr(job.protocol, "name", ""),
            run=attempt.run,
            error=error,
            chip_id=chip_id,
            cache_hit=attempt.cache_hit,
            submitted_at=job.submitted_at,
            started_at=attempt.started_at,
            finished_at=attempt.finished_at,
            attempts=job.attempts + 1,
        )
        self.telemetry.observe_served(result)
        return self._resolve(job, result)
