"""Shared fixtures for the service suites."""

import threading

import pytest

from repro import Biochip
from repro.service import ConcurrentConfig, ConcurrentExecutionService
from repro.workloads import small_footprint_traffic


@pytest.fixture
def timed_out_lease_group():
    """Serve jobs on a one-worker wall-clock pool where every attempt
    times out, and return ``(handles, snapshot)``.

    The first job runs alone, paced to its chip time; the other
    ``tenants`` jobs are submitted while it runs, so they wait in the
    worker's lane and are pulled together as ONE lease group -- a
    deterministic group on a real-time tier.  With ``max_retries=0``
    every job ends FAILED with a TIMEOUT error.
    """

    def run(tenants=4):
        grid = Biochip.small_chip().grid
        protocols = small_footprint_traffic(grid, tenants + 1, seed=0)
        config = ConcurrentConfig(
            n_workers=1, max_tenants=tenants, job_timeout=0.01,
            time_scale=0.02, max_retries=0, quarantine_after=None,
            poll_interval=0.005,
        )
        with ConcurrentExecutionService.dry_run(config, grid=grid) as service:
            started = threading.Event()
            first = service.submit(protocols[0])
            first.subscribe(
                lambda event: event["kind"] == "started" and started.set()
            )
            assert started.wait(30.0)
            handles = [first] + service.submit_many(protocols[1:])
            service.drain(timeout=60.0)
            snapshot = service.snapshot()
        assert snapshot["tenancy"]["co_residency"]["max"] == tenants
        return handles, snapshot

    return run
