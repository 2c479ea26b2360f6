"""repro: a CMOS DEP-array lab-on-a-chip simulator and CAD stack.

Reproduction of Manaresi et al., "New Perspectives and Opportunities
From the Wild West of Microelectronic Biochips" (DATE 2005): the
platform the paper describes (a >100,000-electrode CMOS chip creating
tens of thousands of dielectrophoretic cages that trap, move and sense
individual cells) together with the design-automation stack its thesis
calls for (protocol compiler, cage router, assay scheduler,
technology-selection optimizer, fluidic packaging DRC and cost models,
and a quantitative simulation of the paper's Fig. 1 vs Fig. 2 design
flows).

Quick start::

    from repro import Protocol, Session
    from repro.bio import polystyrene_bead

    session = Session.simulator()
    protocol = (
        Protocol("hello-cage")
        .trap("p", site=(10, 10), particle=polystyrene_bead())
        .move("p", (30, 30))
        .sense("p", samples=2000)
        .release("p")
    )
    result = session.run(protocol)
    print(result.summary())
"""

from .core import (
    Backend,
    Biochip,
    BiochipError,
    ChipFault,
    CommandRegistry,
    CommandSpec,
    CompileError,
    CompiledProgram,
    DryRunBackend,
    ExecutionError,
    Protocol,
    ProtocolError,
    RunResult,
    RunSet,
    SenseResult,
    Session,
    SimulatorBackend,
    compile_protocol,
    default_registry,
)
from .faults import FaultInjector, FaultModel, FleetFaultPlan
from .observability import FlightRecorder, JsonlSpanExporter, Tracer
from .service import (
    ErrorKind,
    ExecutionService,
    JobError,
    JobState,
    ServiceConfig,
)

__version__ = "2.0.0"

#: The wall-clock tier, resolved from :mod:`repro.service` on first use
#: so that ``import repro`` does not load it (or asyncio).
_CONCURRENT = frozenset({
    "AsyncExecutionService",
    "ConcurrentConfig",
    "ConcurrentExecutionService",
})


def __getattr__(name):
    if name in _CONCURRENT:
        from . import service

        value = getattr(service, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsyncExecutionService",
    "Backend",
    "Biochip",
    "BiochipError",
    "ChipFault",
    "CommandRegistry",
    "CommandSpec",
    "CompileError",
    "CompiledProgram",
    "ConcurrentConfig",
    "ConcurrentExecutionService",
    "DryRunBackend",
    "ErrorKind",
    "ExecutionError",
    "ExecutionService",
    "FaultInjector",
    "FaultModel",
    "FleetFaultPlan",
    "FlightRecorder",
    "JobError",
    "JobState",
    "JsonlSpanExporter",
    "Protocol",
    "ProtocolError",
    "RunResult",
    "RunSet",
    "SenseResult",
    "ServiceConfig",
    "Session",
    "SimulatorBackend",
    "Tracer",
    "compile_protocol",
    "default_registry",
    "__version__",
]
