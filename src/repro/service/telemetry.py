"""Service telemetry: counters, latency histograms, utilization report.

Minimal in-process observability for the fleet execution service --
monotonic counters for job lifecycle events, sample-keeping histograms
for the two halves of job latency (submit->start queue wait and
start->done service time), and a ``snapshot()`` dict / ``report()``
table for benchmarks and dashboards.  On the virtual-clock tier all
durations are fleet virtual seconds, so every number is deterministic
for a given workload; the wall-clock tier meters real seconds through
the same classes.

Every meter is thread-safe with its own lock (lock-sharded: two
threads bumping *different* counters never contend), because the
concurrent tier's coordinator, workers and submitting callers all
write telemetry at once.  The single-threaded virtual tier pays one
uncontended lock acquisition per event, which is noise next to a
protocol dispatch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..analysis import ascii_table, format_seconds


class Counter:
    """A monotonic event counter.  Thread-safe per instance."""

    def __init__(self, name):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot add {amount}")
        with self._lock:
            self.value += amount

    def __int__(self):
        return self.value


class Histogram:
    """A sample-keeping latency/throughput histogram.

    Keeps every observation (service workloads are bounded, and exact
    percentiles beat bucketed ones for reproduction assertions); exposes
    nearest-rank percentiles, mean and max.  Thread-safe per instance:
    writers append under the lock, readers take a consistent snapshot
    of the samples under it.
    """

    def __init__(self, name):
        self.name = name
        self.samples = []
        self._lock = threading.Lock()

    def observe(self, value):
        value = float(value)  # coerce outside the lock; may raise
        with self._lock:
            self.samples.append(value)

    def _snapshot(self) -> list:
        with self._lock:
            return list(self.samples)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self.samples)

    @property
    def mean(self) -> float:
        samples = self._snapshot()
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def max(self) -> float:
        samples = self._snapshot()
        return max(samples) if samples else 0.0

    def percentile(self, p) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]; 0.0 when empty."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self._snapshot())
        if not ordered:
            return 0.0
        rank = max(1, -(-p * len(ordered) // 100))  # ceil without math
        return ordered[int(rank) - 1]

    #: What :meth:`summary` reports before any observation -- one
    #: structural guard instead of per-field conditionals, so empty
    #: histograms can never divide by zero or index an empty list
    #: (``report()`` renders a fresh service's tables safely).
    EMPTY_SUMMARY = {
        "count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
        "max": 0.0,
    }

    def summary(self) -> dict:
        """count/mean/p50/p90/p99/max of the observations so far."""
        samples = sorted(self._snapshot())
        if not samples:
            return dict(self.EMPTY_SUMMARY)

        def nearest_rank(p):
            return samples[int(max(1, -(-p * len(samples) // 100))) - 1]

        return {
            "count": len(samples),
            "mean": sum(samples) / len(samples),
            "p50": nearest_rank(50),
            "p90": nearest_rank(90),
            "p99": nearest_rank(99),
            "max": samples[-1],
        }


#: Lifecycle counters every service tracks.  The second row is the
#: fault-tolerance meters: attempts re-queued after retryable failures,
#: retries that landed on a different chip than the one that failed,
#: attempts cut off by the per-job service-time budget, chips benched
#: by the self-healing loop, and chip restarts (manual or cooldown).
#: The third row is the multi-tenancy meters: region leases granted,
#: tenants evicted by a fault in their group, and jobs whose frames
#: landed in a merged (>= 2 tenant) frame group.
COUNTER_NAMES = (
    "submitted", "completed", "failed", "rejected", "shed", "expired",
    "retried", "migrated", "timeout", "quarantined", "restarted",
    "leased", "evicted", "merged",
)


@dataclass
class Telemetry:
    """All the meters of one :class:`ExecutionService`."""

    counters: dict = field(
        default_factory=lambda: {n: Counter(n) for n in COUNTER_NAMES}
    )
    queue_wait: Histogram = field(
        default_factory=lambda: Histogram("queue_wait")
    )
    service_time: Histogram = field(
        default_factory=lambda: Histogram("service_time")
    )
    routing_plan_time: Histogram = field(
        default_factory=lambda: Histogram("routing_plan_time")
    )
    co_residency: Histogram = field(
        default_factory=lambda: Histogram("co_residency")
    )
    frame_merge_ratio: Histogram = field(
        default_factory=lambda: Histogram("frame_merge_ratio")
    )
    routing_totals: dict = field(
        default_factory=lambda: {
            "plans": 0,
            "cages_planned": 0,
            "plan_seconds": 0.0,
            "fast_path_hits": 0,
            "greedy_walk_hits": 0,
            "frontier_steps": 0,
            "replans": 0,
        }
    )
    # routing_totals is the one multi-field meter, so its merges need a
    # lock of their own (counters/histograms shard theirs per instance).
    _routing_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, name, amount=1):
        self.counters[name].inc(amount)

    def observe_served(self, job_result):
        """Record latencies of a job that actually ran (done/failed)."""
        self.queue_wait.observe(job_result.queue_wait)
        self.service_time.observe(job_result.service_time)

    def observe_routing(self, delta):
        """Fold one job's batch-planner cost into the routing meters.

        ``delta`` is the difference of the executing chip's
        ``routing_totals`` across the job (host wall-clock seconds and
        counters; routing cost is host work, not chip virtual time).
        Jobs that never planned a batch (``plans == 0``) are skipped so
        the plan-time histogram stays a per-planning-job distribution.
        """
        if not delta or not delta.get("plans"):
            return
        with self._routing_lock:
            for key, value in delta.items():
                if key in self.routing_totals:
                    self.routing_totals[key] += value
        self.routing_plan_time.observe(delta.get("plan_seconds", 0.0))

    def observe_tenancy(self, tenants, merge_ratio):
        """Record one lease group dispatch: how many tenants shared the
        chip and the frame-merge ratio their movement achieved
        (sum of per-tenant frames over merged frames; 1.0 = nothing
        merged)."""
        self.co_residency.observe(tenants)
        self.frame_merge_ratio.observe(merge_ratio)

    @property
    def served(self) -> int:
        return self.counters["completed"].value + self.counters["failed"].value

    def throughput(self, makespan) -> float:
        """Served jobs per fleet virtual second over ``makespan``."""
        return self.served / makespan if makespan > 0.0 else 0.0

    def snapshot(self, fleet=None) -> dict:
        """One JSON-ready dict of every meter.

        With ``fleet`` given, adds cache hit rate, per-chip utilization
        and fleet throughput over the current virtual makespan.
        """
        with self._routing_lock:
            routing = dict(self.routing_totals)
        snap = {
            "counters": {n: c.value for n, c in self.counters.items()},
            "queue_wait": self.queue_wait.summary(),
            "service_time": self.service_time.summary(),
            "routing": {
                **routing,
                "plan_time": self.routing_plan_time.summary(),
            },
            "tenancy": {
                "groups": self.co_residency.count,
                "co_residency": self.co_residency.summary(),
                "frame_merge_ratio": self.frame_merge_ratio.summary(),
            },
        }
        if fleet is not None:
            stats = fleet.cache_stats()
            snap["cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "hit_rate": stats.hit_rate,
            }
            snap["fleet"] = {
                "n_chips": len(fleet),
                "makespan": fleet.now,
                "throughput": self.throughput(fleet.now),
                "utilization": fleet.utilization(),
                "jobs_per_chip": {
                    w.chip_id: w.jobs_done for w in fleet.workers
                },
                "health": {
                    w.chip_id: getattr(
                        getattr(w, "health", None), "value", "healthy"
                    )
                    for w in fleet.workers
                },
                "restarts": {
                    w.chip_id: getattr(w, "restarts", 0)
                    for w in fleet.workers
                },
            }
        return snap

    def to_prometheus(self, fleet=None, namespace="repro") -> str:
        """Render every meter in the Prometheus text exposition format.

        Counters become one labelled ``{namespace}_jobs_total`` family
        (``event="submitted"`` ...); the latency histograms export as
        summaries (``quantile`` labels plus ``_sum``/``_count``);
        routing totals and -- with ``fleet`` given -- per-chip
        utilization/health/restart gauges follow.  Safe on a fresh
        service: empty histograms render zero-valued summaries instead
        of dividing by zero.
        """
        snap = self.snapshot(fleet=fleet)
        lines = [
            f"# HELP {namespace}_jobs_total Job lifecycle events.",
            f"# TYPE {namespace}_jobs_total counter",
        ]
        for name, value in snap["counters"].items():
            lines.append(f'{namespace}_jobs_total{{event="{name}"}} {value}')
        lines += [
            f"# HELP {namespace}_latency_seconds Job latency by stage.",
            f"# TYPE {namespace}_latency_seconds summary",
        ]
        stages = [
            ("queue_wait", snap["queue_wait"]),
            ("service_time", snap["service_time"]),
            ("routing_plan", snap["routing"]["plan_time"]),
        ]
        for stage, summary in stages:
            for quantile, key in (("0.5", "p50"), ("0.9", "p90"),
                                  ("0.99", "p99")):
                lines.append(
                    f'{namespace}_latency_seconds{{stage="{stage}",'
                    f'quantile="{quantile}"}} {summary[key]:.9g}'
                )
            total = summary["mean"] * summary["count"]
            lines.append(
                f'{namespace}_latency_seconds_sum{{stage="{stage}"}} '
                f"{total:.9g}"
            )
            lines.append(
                f'{namespace}_latency_seconds_count{{stage="{stage}"}} '
                f"{summary['count']}"
            )
        lines += [
            f"# HELP {namespace}_routing_total Batch-planner work done.",
            f"# TYPE {namespace}_routing_total counter",
        ]
        for metric, value in snap["routing"].items():
            if metric == "plan_time":
                continue
            lines.append(
                f'{namespace}_routing_total{{metric="{metric}"}} {value:.9g}'
            )
        tenancy = snap["tenancy"]
        lines += [
            f"# HELP {namespace}_tenancy_groups_total Lease group "
            f"dispatches.",
            f"# TYPE {namespace}_tenancy_groups_total counter",
            f"{namespace}_tenancy_groups_total {tenancy['groups']}",
            f"# HELP {namespace}_tenancy_co_residency Mean co-resident "
            f"tenants per lease group.",
            f"# TYPE {namespace}_tenancy_co_residency gauge",
            f"{namespace}_tenancy_co_residency "
            f"{tenancy['co_residency']['mean']:.9g}",
            f"# HELP {namespace}_tenancy_frame_merge_ratio Mean "
            f"per-tenant frames over merged frames.",
            f"# TYPE {namespace}_tenancy_frame_merge_ratio gauge",
            f"{namespace}_tenancy_frame_merge_ratio "
            f"{tenancy['frame_merge_ratio']['mean']:.9g}",
        ]
        if fleet is not None:
            cache = snap["cache"]
            fleet_snap = snap["fleet"]
            lines += [
                f"# HELP {namespace}_cache_events_total Program cache.",
                f"# TYPE {namespace}_cache_events_total counter",
            ]
            for event in ("hits", "misses", "evictions"):
                lines.append(
                    f'{namespace}_cache_events_total{{event="{event}"}} '
                    f"{cache[event]}"
                )
            lines += [
                f"# HELP {namespace}_fleet_throughput_jobs_per_second "
                f"Served jobs per fleet second.",
                f"# TYPE {namespace}_fleet_throughput_jobs_per_second gauge",
                f"{namespace}_fleet_throughput_jobs_per_second "
                f"{fleet_snap['throughput']:.9g}",
                f"# HELP {namespace}_chip_utilization Busy fraction per "
                f"chip.",
                f"# TYPE {namespace}_chip_utilization gauge",
            ]
            for chip_id, fraction in fleet_snap["utilization"].items():
                lines.append(
                    f'{namespace}_chip_utilization{{chip="{chip_id}"}} '
                    f"{fraction:.9g}"
                )
            lines += [
                f"# HELP {namespace}_chip_health Chip health "
                f"(1 = in the labelled state).",
                f"# TYPE {namespace}_chip_health gauge",
            ]
            for chip_id, health in fleet_snap["health"].items():
                lines.append(
                    f'{namespace}_chip_health{{chip="{chip_id}",'
                    f'state="{health}"}} 1'
                )
            lines += [
                f"# HELP {namespace}_chip_restarts_total Power cycles "
                f"per chip.",
                f"# TYPE {namespace}_chip_restarts_total counter",
            ]
            for chip_id, restarts in fleet_snap["restarts"].items():
                lines.append(
                    f'{namespace}_chip_restarts_total{{chip="{chip_id}"}} '
                    f"{restarts}"
                )
        return "\n".join(lines) + "\n"

    def report(self, fleet=None) -> str:
        """Human-readable telemetry tables."""
        snap = self.snapshot(fleet=fleet)
        sections = [
            ascii_table(
                ["counter", "value"],
                [[name, str(value)] for name, value in
                 snap["counters"].items()],
                title="job lifecycle",
            )
        ]
        latency_rows = []
        for label in ("queue_wait", "service_time"):
            s = snap[label]
            latency_rows.append([
                label, str(s["count"]), format_seconds(s["mean"]),
                format_seconds(s["p50"]), format_seconds(s["p99"]),
                format_seconds(s["max"]),
            ])
        sections.append(
            ascii_table(
                ["latency", "count", "mean", "p50", "p99", "max"],
                latency_rows,
                title="latency (fleet virtual time)",
            )
        )
        routing = snap["routing"]
        if routing["plans"]:
            plan_time = routing["plan_time"]
            sections.append(
                ascii_table(
                    ["metric", "value"],
                    [
                        ["plans", str(routing["plans"])],
                        ["cages planned", str(routing["cages_planned"])],
                        ["planner host time", format_seconds(routing["plan_seconds"])],
                        ["plan time p99", format_seconds(plan_time["p99"])],
                        ["fast-path hits", str(routing["fast_path_hits"])],
                        ["greedy-walk hits", str(routing["greedy_walk_hits"])],
                        ["frontier steps", str(routing["frontier_steps"])],
                        ["replans", str(routing["replans"])],
                    ],
                    title="batch routing (host time)",
                )
            )
        tenancy = snap["tenancy"]
        if tenancy["groups"]:
            co = tenancy["co_residency"]
            ratio = tenancy["frame_merge_ratio"]
            sections.append(
                ascii_table(
                    ["metric", "mean", "p50", "max"],
                    [
                        ["co-residency", f"{co['mean']:.2f}",
                         f"{co['p50']:.0f}", f"{co['max']:.0f}"],
                        ["frame-merge ratio", f"{ratio['mean']:.2f}",
                         f"{ratio['p50']:.2f}", f"{ratio['max']:.2f}"],
                    ],
                    title=f"multi-tenancy ({tenancy['groups']} lease groups)",
                )
            )
        if fleet is not None:
            cache = snap["cache"]
            fleet_snap = snap["fleet"]
            sections.append(
                ascii_table(
                    ["chip", "jobs", "utilization", "health"],
                    [
                        [str(chip_id),
                         str(fleet_snap["jobs_per_chip"][chip_id]),
                         f"{fraction:.0%}",
                         fleet_snap["health"][chip_id]]
                        for chip_id, fraction in
                        fleet_snap["utilization"].items()
                    ],
                    title=(
                        f"fleet: {fleet_snap['n_chips']} chips, "
                        f"{fleet_snap['throughput']:.2f} jobs/s over "
                        f"{format_seconds(fleet_snap['makespan'])}; "
                        f"cache hit rate {cache['hit_rate']:.0%} "
                        f"({cache['hits']}/{cache['hits'] + cache['misses']})"
                    ),
                )
            )
        return "\n\n".join(sections)
