"""Wall-clock concurrent execution tier.

The real-time counterpart of the virtual-clock
:class:`~repro.service.scheduler.ExecutionService`: a pool of chip
workers (threads by default, ``multiprocessing`` spawn processes on
request) serving protocol jobs off a shared priority queue, with the
same admission / retry / quarantine semantics in wall seconds, plus an
asyncio front end with streaming job handles and queue backpressure.

This package never imports the virtual-clock scheduler, and the
scheduler never imports this package (both read their clocks from
:mod:`repro.service.clocks`), so either tier can be used without the
other: ``import repro`` loads this package, and asyncio with it, only
when one of its names is first used.
"""

from .frontend import AsyncExecutionService, AsyncJobHandle
from .syncbridge import Clock, FleetClock, SenseTap, WallClock
from .workers import (
    ConcurrentConfig,
    ConcurrentExecutionService,
    ConcurrentJobHandle,
)

__all__ = [
    "AsyncExecutionService",
    "AsyncJobHandle",
    "Clock",
    "ConcurrentConfig",
    "ConcurrentExecutionService",
    "ConcurrentJobHandle",
    "FleetClock",
    "SenseTap",
    "WallClock",
]
