"""The scheduling CAD against its behavioural references.

The package's assay graph (plain adjacency lists) and slot search (a
sweep over an occupancy step function) must reproduce the networkx
graph and the interval-rescan slot search in ``scheduling_oracles``
exactly: the same ``earliest_slot`` answers, the same topological
order, the same list and FCFS schedules and the same run order of
compiled programs.  A scale guard keeps compile time near linear.
"""

import time
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Biochip, Protocol
from repro.core import compiler
from repro.core.compiler import compile_protocol
from repro.scheduling import (
    AssayGraph,
    Binder,
    FcfsScheduler,
    ListScheduler,
    Operation,
    OpType,
    Resource,
    default_chip_resources,
    schedulers,
)
from repro.scheduling.schedulers import _ResourceState
from repro.workloads import (
    assays,
    random_assay,
    serial_assay,
    service_protocol_variant,
    wide_assay,
)
from scheduling_oracles import OracleAssayGraph, OracleResourceState


@contextmanager
def oracle_stack():
    """Build graphs and schedules with the reference implementations."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(assays, "AssayGraph", OracleAssayGraph))
        stack.enter_context(mock.patch.object(compiler, "AssayGraph", OracleAssayGraph))
        stack.enter_context(
            mock.patch.object(schedulers, "_ResourceState", OracleResourceState)
        )
        yield


def both(build):
    """``build()`` with the package, then with the oracles."""
    new = build()
    with oracle_stack():
        old = build()
    return new, old


BINDERS = {
    "default": lambda: Binder(),
    "tight": lambda: Binder(
        default_chip_resources(zones=2, cages_per_zone=2, sense_channels=1, loaders=1)
    ),
}


# -- slot search ---------------------------------------------------------

TIMES = st.one_of(
    st.integers(0, 20).map(float),
    st.integers(0, 60).map(lambda k: k * 0.1),  # inexact sums on purpose
)
DURATIONS = st.one_of(
    st.just(0.0),
    st.integers(1, 8).map(float),
    st.integers(1, 30).map(lambda k: k * 0.1),
    st.floats(0.0, 10.0),
)
STEPS = st.lists(
    st.tuples(st.sampled_from(["place", "query", "force"]), TIMES, DURATIONS),
    max_size=60,
)


def replay(capacity, steps):
    """Run one commit/query trace on both slot searches; every query
    must agree.  ``place`` commits the found slot, ``force`` commits at
    the ready time regardless of capacity."""
    resource = Resource("r", capacity, frozenset())
    new, old = _ResourceState(resource), OracleResourceState(resource)
    for mode, ready, duration in steps:
        slot = new.earliest_slot(ready, duration)
        assert slot == old.earliest_slot(ready, duration), (mode, ready, duration)
        if mode != "query":
            start = slot if mode == "place" else ready
            new.commit(start, start + duration)
            old.commit(start, start + duration)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 4), steps=STEPS)
def test_earliest_slot_matches_oracle(capacity, steps):
    replay(capacity, steps)


@pytest.mark.parametrize("seed", range(8))
def test_earliest_slot_matches_oracle_on_long_traces(seed):
    rng = np.random.default_rng(seed)
    for __ in range(25):
        steps = []
        for __ in range(120):
            duration = [0.0, float(rng.integers(1, 9)), rng.integers(1, 31) * 0.1][
                rng.integers(3)
            ]
            ready = (
                float(rng.integers(0, 40))
                if rng.random() < 0.5
                else rng.integers(0, 400) * 0.1
            )
            mode = rng.choice(["place", "place", "place", "query", "force"])
            steps.append((str(mode), ready, duration))
        replay(int(rng.integers(1, 5)), steps)


# -- assay graphs and schedules -----------------------------------------

def assert_same_graph(new, old):
    assert [op.op_id for op in new.operations()] == [
        op.op_id for op in old.operations()
    ]
    assert len(new) == len(old)
    assert new.edge_count() == old.edge_count()
    assert new.roots() == old.roots()
    for op in old.operations():
        assert new.predecessors(op.op_id) == old.predecessors(op.op_id)
        assert new.successors(op.op_id) == old.successors(op.op_id)
    assert new.bottom_levels() == old.bottom_levels()
    assert new.critical_path_length() == old.critical_path_length()
    assert new.total_work() == old.total_work()


def assert_same_schedules(new_graph, old_graph, binder):
    for scheduler in (ListScheduler, FcfsScheduler):
        new = scheduler(binder).schedule(new_graph)
        with oracle_stack():
            old = scheduler(binder).schedule(old_graph)
        assert new.entries == old.entries, scheduler.__name__


def test_hand_built_graph_matches_oracle():
    """Repeated dependencies collapse to one edge, and a late ``depend``
    edge is ordered after the successors its source already had."""
    def build(graph_class):
        graph = graph_class("hand")
        graph.add(Operation("a", OpType.TRAP, 1.0))
        graph.add(Operation("b", OpType.MOVE, 2.0), after=["a", "a"])
        graph.add(Operation("c", OpType.TRAP, 1.0))
        graph.add(Operation("d", OpType.SENSE, 1.0), after=["c", "b", "c"])
        graph.depend("a", "c")
        graph.depend("a", "c")
        graph.add(Operation("e", OpType.RELEASE, 0.5), after=["a"])
        return graph

    assert_same_graph(build(AssayGraph), build(OracleAssayGraph))
    assert [op.op_id for op in build(AssayGraph).operations()] == [
        "a", "b", "c", "e", "d"
    ]


GENERATORS = {
    "random": lambda seed: random_assay(
        n_chains=1 + seed % 24,
        merge_fraction=0.5,
        incubate_fraction=0.5,
        seed=seed,
    ),
    "random-default": lambda seed: random_assay(seed=seed),
    "serial": lambda seed: serial_assay(n_steps=5 + seed % 30, seed=seed),
    "wide": lambda seed: wide_assay(n_parallel=4 + seed % 90, seed=seed),
}


@pytest.mark.parametrize("binder", sorted(BINDERS))
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generated_assays_match_oracle(kind, binder):
    for seed in range(30):
        new, old = both(lambda: GENERATORS[kind](seed))
        assert_same_graph(new, old)
        assert_same_schedules(new, old, BINDERS[binder]())


# -- compiled protocols --------------------------------------------------

GRID = Biochip.paper_chip().grid


def random_protocol(seed, n_handles=12, n_ops=40):
    """A valid random protocol: traps on a lattice, then random moves,
    senses, incubations, merges and releases over live handles."""
    rng = np.random.default_rng(seed)
    lattice = [(r, c) for r in range(2, 60, 4) for c in range(2, 60, 4)]
    picks = rng.choice(len(lattice), size=n_handles, replace=False)
    protocol = Protocol(f"rand{seed}")
    live = []
    for i, pick in enumerate(picks.tolist()):
        protocol.trap(f"h{i}", lattice[pick])
        live.append(f"h{i}")
    for __ in range(n_ops):
        if not live:
            break
        handle = live[rng.integers(len(live))]
        action = rng.choice(["move", "sense", "incubate", "release", "merge"])
        if action == "move":
            protocol.move(handle, lattice[rng.integers(len(lattice))])
        elif action == "sense":
            protocol.sense(handle, samples=int(rng.integers(1, 500)))
        elif action == "incubate":
            protocol.incubate(handle, float(rng.integers(0, 30)))
        elif action == "release":
            protocol.release(handle)
            live.remove(handle)
        elif len(live) >= 2:
            other = next(h for h in live if h != handle)
            protocol.merge(handle, other)
            live.remove(other)
    for handle in live:
        protocol.release(handle)
    return protocol


def trap_sense_release(k, seed=0):
    """k cells trapped on a stride-3 lattice, each sensed, each released."""
    rng = np.random.default_rng(seed)
    rows = cols = GRID.cols // 3
    picks = rng.choice(rows * cols, size=k, replace=False)
    protocol = Protocol(f"tsr{k}")
    for i, flat in enumerate(picks.tolist()):
        protocol.trap(f"c{i}", (3 * (flat // cols), 3 * (flat % cols)))
    for i in range(k):
        protocol.sense(f"c{i}", samples=int(rng.integers(100, 400)))
    for i in range(k):
        protocol.release(f"c{i}")
    return protocol


def reference_run_order(program):
    """The run order as ``ordered_commands`` computed it per run."""
    order = {op.op_id: i for i, op in enumerate(program.graph.operations())}
    entries = sorted(program.schedule.entries, key=lambda e: (e.start, order[e.op_id]))
    return [(e.start, e.op_id, program.op_commands[e.op_id]) for e in entries]


PROTOCOLS = (
    [random_protocol(seed) for seed in range(25)]
    + [service_protocol_variant(GRID, variant=v, n_cages=6) for v in range(4)]
    + [trap_sense_release(k, seed=k) for k in (1, 7, 40, 100)]
)


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
def test_compiled_programs_match_oracle(protocol):
    new, old = both(lambda: compile_protocol(protocol, GRID))
    assert_same_graph(new.graph, old.graph)
    assert new.schedule.entries == old.schedule.entries
    assert new.ordered_commands() == reference_run_order(old)


def test_compile_scales_to_thousands_of_commands():
    protocol = trap_sense_release(1334)
    assert len(protocol.commands) == 4002
    t0 = time.perf_counter()
    program = compile_protocol(protocol, GRID)
    elapsed = time.perf_counter() - t0
    assert len(program.ordered_commands()) == 4002
    assert elapsed < 2.0, f"4002-command compile took {elapsed:.2f} s"
