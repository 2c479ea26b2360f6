"""The protocol compiler: protocol -> bound, scheduled assay program.

Lowers a validated :class:`~repro.core.protocol.Protocol` to

1. an :class:`~repro.scheduling.taskgraph.AssayGraph` (one operation per
   command, dependency edges from handle data flow),
2. physical durations from the
   :class:`~repro.scheduling.taskgraph.DurationModel` (move durations
   from actual site-to-site distances),
3. a resource-bound :class:`~repro.scheduling.schedulers.Schedule` via
   the list scheduler.

Lowering is table-driven: each command's registered
:class:`~repro.core.registry.CommandSpec` emits its own operation
through a shared :class:`~repro.core.registry.LoweringContext`, so new
command types compile without changes here.

The result (:class:`CompiledProgram`) carries everything the executor
needs plus the predicted makespan the run can be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..scheduling.binder import Binder
from ..scheduling.schedulers import ListScheduler, Schedule
from ..scheduling.taskgraph import AssayGraph, DurationModel
from .protocol import Protocol
from .registry import LoweringContext, default_registry


@dataclass
class CompiledProgram:
    """A protocol lowered to a scheduled operation graph."""

    protocol: Protocol
    graph: AssayGraph
    schedule: Schedule
    binder: Binder
    op_commands: dict = field(default_factory=dict)  # op_id -> command
    registry: object = None  # the CommandRegistry it was compiled with
    run_order: tuple = ()  # (start, op_id) pairs, see ordered_commands

    @property
    def makespan(self) -> float:
        """Predicted assay duration [s]."""
        return self.schedule.makespan

    def ordered_commands(self):
        """(start_time, op_id, command) sorted by scheduled start.

        Ties are broken by op insertion order, so handle data flow is
        preserved for equal starts.  The order is fixed at compile time;
        commands are looked up in ``op_commands``, so a program rebound to
        another protocol's commands runs those.
        """
        commands = self.op_commands
        return [(start, op_id, commands[op_id]) for start, op_id in self.run_order]


def _run_order(graph, schedule):
    """(start, op_id) of every scheduled op, by start then topological order."""
    order = {op.op_id: i for i, op in enumerate(graph.operations())}
    entries = sorted(schedule.entries, key=lambda e: (e.start, order[e.op_id]))
    return tuple((e.start, e.op_id) for e in entries)


def compile_protocol(
    protocol, grid, duration_model=None, binder=None, registry=None
) -> CompiledProgram:
    """Compile ``protocol`` for a chip with the given ``grid``.

    Raises :class:`~repro.core.errors.CompileError` for geometric
    problems (off-grid sites); protocol-level semantic errors surface
    from ``protocol.validate()`` as :class:`ProtocolError`.
    """
    registry = registry or default_registry
    protocol.validate(registry=registry)
    duration_model = duration_model or DurationModel(pitch=grid.pitch)
    binder = binder or Binder()
    graph = AssayGraph(name=protocol.name)
    ctx = LoweringContext(grid=grid, duration_model=duration_model, graph=graph)
    op_commands = {}

    for index, cmd in enumerate(protocol.commands):
        op_id = f"{index}:{type(cmd).__name__}"
        registry.spec_for(cmd).lower(cmd, ctx, op_id)
        op_commands[op_id] = cmd

    schedule = ListScheduler(binder).schedule(graph)
    schedule.validate(graph, binder)
    return CompiledProgram(
        protocol=protocol,
        graph=graph,
        schedule=schedule,
        binder=binder,
        op_commands=op_commands,
        registry=registry,
        run_order=_run_order(graph, schedule),
    )
