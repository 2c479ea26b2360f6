"""Behavioural references for the assay scheduling CAD.

These are the original implementations the package replaced, kept as
test oracles: ``tests/test_scheduling_equivalence.py`` pins the package
to them.

* :class:`OracleResourceState` -- slot search by rescanning every
  committed interval for every candidate start and every probe.
* :class:`OracleAssayGraph` -- the networkx-backed assay graph, whose
  ``operations()`` is :func:`networkx.topological_sort`.
"""

from __future__ import annotations

import networkx as nx


class OracleResourceState:
    """Tracks committed (start, end) intervals on one resource.

    ``earliest_slot`` finds the first time >= ready_time at which the
    occupancy stays below capacity for an entire operation duration --
    candidate starts are the ready time and every interval end after it
    (occupancy only decreases at interval ends).
    """

    def __init__(self, resource):
        self.resource = resource
        self.intervals = []  # list of (start, end)

    def _occupancy_below_capacity(self, start, end):
        # count max overlap within [start, end): evaluate at candidate
        # instants = start and every interval start inside the window.
        probes = [start] + [
            t0 for t0, __ in self.intervals if start < t0 < end
        ]
        for probe in probes:
            count = sum(1 for t0, t1 in self.intervals if t0 <= probe < t1)
            if count >= self.resource.capacity:
                return False
        return True

    def earliest_slot(self, ready_time, duration):
        """Earliest start >= ready_time with capacity for ``duration``."""
        if duration <= 0.0:
            duration = 1e-12  # degenerate ops still occupy an instant
        candidates = sorted(
            {ready_time} | {end for __, end in self.intervals if end > ready_time}
        )
        for candidate in candidates:
            if self._occupancy_below_capacity(candidate, candidate + duration):
                return candidate
        # all intervals end before the last candidate; that one must fit
        return candidates[-1]

    def commit(self, start, end):
        self.intervals.append((start, end))


class OracleAssayGraph:
    """A DAG of operations over :class:`networkx.DiGraph`."""

    def __init__(self, name="assay"):
        self.name = name
        self._graph = nx.DiGraph()

    def add(self, operation, after=()):
        """Add an operation, depending on the ids in ``after``."""
        if operation.op_id in self._graph:
            raise ValueError(f"duplicate operation id {operation.op_id}")
        self._graph.add_node(operation.op_id, op=operation)
        for dep in after:
            if dep not in self._graph:
                raise ValueError(f"dependency {dep} not in graph")
            self._graph.add_edge(dep, operation.op_id)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_node(operation.op_id)
            raise ValueError(f"adding {operation.op_id} would create a cycle")
        return operation

    def depend(self, before, after):
        """The edge ``before -> after``, as a direct networkx insert."""
        self._graph.add_edge(before, after)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(before, after)
            raise ValueError(f"edge {before} -> {after} would create a cycle")

    def __len__(self):
        return self._graph.number_of_nodes()

    def __contains__(self, op_id):
        return op_id in self._graph

    def operation(self, op_id):
        return self._graph.nodes[op_id]["op"]

    def operations(self):
        """All operations in insertion-stable topological order."""
        return [self.operation(op_id) for op_id in nx.topological_sort(self._graph)]

    def predecessors(self, op_id):
        return sorted(self._graph.predecessors(op_id))

    def successors(self, op_id):
        return sorted(self._graph.successors(op_id))

    def roots(self):
        return sorted(n for n in self._graph if self._graph.in_degree(n) == 0)

    def edge_count(self) -> int:
        return self._graph.number_of_edges()

    def total_work(self) -> float:
        return sum(op.duration for op in self.operations())

    def critical_path_length(self) -> float:
        longest = {}
        for op_id in nx.topological_sort(self._graph):
            duration = self.operation(op_id).duration
            preds = list(self._graph.predecessors(op_id))
            longest[op_id] = duration + (max(longest[p] for p in preds) if preds else 0.0)
        return max(longest.values(), default=0.0)

    def bottom_levels(self):
        levels = {}
        for op_id in reversed(list(nx.topological_sort(self._graph))):
            duration = self.operation(op_id).duration
            succs = list(self._graph.successors(op_id))
            levels[op_id] = duration + (max(levels[s] for s in succs) if succs else 0.0)
        return levels

    def validate(self):
        if not nx.is_directed_acyclic_graph(self._graph):
            raise ValueError("assay graph has a cycle")
        for op in self.operations():
            if op.duration < 0.0:
                raise ValueError(f"operation {op.op_id} has negative duration")
        return True
