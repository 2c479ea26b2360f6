"""Thread-safety bridges for the wall-clock execution tier.

The tiers' clocks live in :mod:`repro.service.clocks` (re-exported
here): both tiers read one ``now()`` interface, the virtual tier
through :class:`FleetClock`, this tier through a shared
:class:`WallClock`.

:class:`SenseTap` is the streaming bridge: a transparent backend proxy
that forwards every sense outcome to a callback as it happens, which is
how the asyncio front end streams per-cage sense events out of a worker
thread mid-protocol.
"""

from __future__ import annotations

from ..clocks import Clock, FleetClock, WallClock

__all__ = ["Clock", "FleetClock", "SenseTap", "WallClock"]


class SenseTap:
    """Backend proxy that streams sense outcomes to a callback.

    Wraps any :class:`~repro.core.backend.Backend` (including a
    :class:`~repro.faults.FaultInjector`) and forwards every
    :class:`~repro.core.platform.SenseResult` the protocol produces to
    ``on_sense(sense_result)`` *as it is read* -- the hook the
    concurrent tier uses to push live sense events into a job handle
    while the protocol is still running.  Everything else delegates
    untouched, so the tap is behaviourally invisible.
    """

    def __init__(self, backend, on_sense):
        self.backend = backend
        self.on_sense = on_sense

    def __getattr__(self, name):
        # Delegate everything not overridden (grid, elapsed, trap,
        # move, move_many, merge, incubate, release, history, ...).
        return getattr(self.backend, name)

    def sense(self, cage_id, n_samples=1000):
        outcome = self.backend.sense(cage_id, n_samples=n_samples)
        self.on_sense(outcome)
        return outcome

    def sense_all(self, n_samples=1000):
        outcomes = self.backend.sense_all(n_samples=n_samples)
        for __, sense_result in outcomes:
            self.on_sense(sense_result)
        return outcomes
