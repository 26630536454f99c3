"""Timing graph construction.

The timing graph's vertices are circuit nodes and its edges are the stage
timing arcs extracted by :class:`repro.delay.StageDelayCalculator`.  Static
analysis needs a DAG; real nMOS netlists contain structural feedback
(cross-coupled static latches, bus keepers), so construction condenses
strongly connected components and removes a minimal-by-construction set of
feedback edges, which are recorded on the graph for reporting -- TV likewise
reported the feedback paths it cut rather than silently mis-analyzing them.

The graph is a plain insertion-ordered adjacency dict with a Kahn
topological sort: building it is on the analyze() hot path (experiment
R-T3 / the ``repro/bench/perf.py`` harness), so it avoids general-purpose
graph-library overhead.

A graph can also be kept across edits.  A width edit changes arc timings,
never the (trigger, output) sequence the structure is built from, so
:meth:`TimingGraph.update` swaps the re-extracted arcs into their slots
in place -- the result equals a fresh :meth:`TimingGraph.build` of the
new arc list -- and reports which live arcs changed, for the incremental
sweep in :func:`repro.core.arrival.propagate`.  Any structural difference
makes it decline, and the caller builds afresh.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from operator import is_not

from ..delay import StageArc
from ..errors import TimingError

__all__ = ["TimingGraph", "sweep_graph"]


@dataclass
class TimingGraph:
    """A leveled timing graph over circuit nodes.

    Attributes
    ----------
    arcs_from:
        Adjacency: node name -> outgoing :class:`StageArc` list (feedback
        arcs removed).
    order:
        Topological order of every node that appears in some arc.
    cut_arcs:
        Arcs removed to break structural feedback loops.
    source_arcs:
        The arc sequence the graph was built from (kept by
        :meth:`update`).
    """

    arcs_from: dict[str, list[StageArc]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    cut_arcs: list[StageArc] = field(default_factory=list)
    source_arcs: tuple[StageArc, ...] = field(
        default=(), repr=False, compare=False
    )
    # Built lazily by the first update()/fanin(), so a graph that is
    # built, swept once and dropped pays nothing for them.
    _slots: list | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _fanin: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def build(cls, arcs: list[StageArc]) -> "TimingGraph":
        """Assemble a DAG from timing arcs, cutting feedback edges."""
        # Insertion-ordered adjacency; inner dicts act as ordered edge sets.
        successors: dict[str, dict[str, None]] = {}
        arc_table: dict[tuple[str, str], list[StageArc]] = {}
        for arc in arcs:
            if arc.trigger == arc.output:
                # A self-arc can only arise from degenerate feedback inside
                # one stage; it carries no timing information for a static
                # pass and would break topological ordering.
                continue
            key = (arc.trigger, arc.output)
            existing = arc_table.get(key)
            if existing is None:
                arc_table[key] = [arc]
                successors.setdefault(arc.trigger, {})[arc.output] = None
            else:
                existing.append(arc)
        nodes: dict[str, None] = {}
        for arc in arcs:
            nodes[arc.trigger] = None
            nodes[arc.output] = None

        cut_arcs: list[StageArc] = []
        for edge in _feedback_edges(nodes, successors):
            cut_arcs.extend(arc_table.pop(edge, []))
            successors[edge[0]].pop(edge[1], None)

        graph = cls(cut_arcs=cut_arcs, source_arcs=tuple(arcs))
        graph.order = _topological_order(nodes, successors)
        for (trigger, _output), arc_list in arc_table.items():
            graph.arcs_from.setdefault(trigger, []).extend(arc_list)
        return graph

    def update(self, arcs: list[StageArc]) -> list[StageArc] | None:
        """Swap a re-extracted arc sequence into this graph, in place.

        ``arcs`` is the sequence the graph would be rebuilt from, with
        every unchanged arc the very object it holds already (as the
        extraction cache serves them).  When each replaced arc keeps its
        predecessor's signature -- trigger, output, inverting, via, and
        which of rise/fall it has -- the structure (order, cut set,
        adjacency) is the one :meth:`build` would produce, so the new
        arcs just take their predecessors' slots.  Returns the replaced
        arcs that sit in the DAG (cut and self arcs excluded), in
        sequence order.  Returns None, leaving the graph untouched, when
        the sequence differs structurally: the caller must rebuild.
        """
        old = self.source_arcs
        if len(arcs) != len(old):
            return None
        changed = list(compress(range(len(arcs)), map(is_not, arcs, old)))
        for k in changed:
            arc, was = arcs[k], old[k]
            if (
                arc.trigger != was.trigger
                or arc.output != was.output
                or arc.inverting != was.inverting
                or arc.via != was.via
                or (arc.rise is None) != (was.rise is None)
                or (arc.fall is None) != (was.fall is None)
            ):
                return None
        slots = self._slot_index()
        if slots is None:
            return None
        cut = self.cut_arcs
        live: list[StageArc] = []
        for k in changed:
            slot = slots[k]
            if slot is None:  # self-arc: never part of the graph
                continue
            container, index = slot
            container[index] = arcs[k]
            if container is not cut:
                live.append(arcs[k])
        self.source_arcs = tuple(arcs)
        return live

    def _slot_index(self) -> list | None:
        """Per source position: ``(container list, index)`` or None.

        None marks a dropped self-arc.  Returns None (so :meth:`update`
        declines) if one arc object fills two slots, which no extraction
        produces but which would make the positions ambiguous.
        """
        if self._slots is None:
            where: dict[int, tuple[list, int]] = {}
            filled = 0
            for container in (*self.arcs_from.values(), self.cut_arcs):
                for index, arc in enumerate(container):
                    where[id(arc)] = (container, index)
                    filled += 1
            if len(where) != filled:
                return None
            self._slots = [where.get(id(arc)) for arc in self.source_arcs]
        return self._slots

    def fanin(self) -> tuple[dict[str, int], dict[str, list]]:
        """Topological positions and per-node fan-in, built once.

        Returns ``(position, fanin)``: ``position[node]`` is the node's
        index in :attr:`order`, and ``fanin[node]`` lists ``(trigger,
        indices)`` pairs in topological order of the trigger, where
        ``indices`` are the positions in ``arcs_from[trigger]`` of the
        arcs reaching ``node``.  That is the order in which a full sweep
        offers ``node`` its candidate arrivals.  Arc swaps by
        :meth:`update` keep both valid.
        """
        if self._fanin is None:
            position = {node: i for i, node in enumerate(self.order)}
            incoming: dict[str, dict[str, list[int]]] = {}
            arcs_from = self.arcs_from
            for node in self.order:
                for index, arc in enumerate(arcs_from.get(node, ())):
                    incoming.setdefault(arc.output, {}).setdefault(
                        node, []
                    ).append(index)
            fanin = {
                node: list(by_trigger.items())
                for node, by_trigger in incoming.items()
            }
            self._fanin = (position, fanin)
        return self._fanin

    @property
    def nodes(self) -> list[str]:
        return list(self.order)

    def arc_count(self) -> int:
        """Number of arcs surviving in the DAG (cut arcs excluded)."""
        return sum(len(v) for v in self.arcs_from.values())


def sweep_graph(
    calculator,
    sweep: tuple,
    arcs: list[StageArc],
    kept: TimingGraph | None = None,
) -> tuple[TimingGraph, list[StageArc] | None]:
    """The timing graph of one sweep's arcs, and the arcs swapped into it.

    ``sweep`` is ``(active_clocks, open_gates)``.  Within an MCMM run
    (``calculator.batch`` is set), the graph a corner built for the
    sweep is kept in the run's batch; outside one, ``kept`` is the
    caller's graph of an earlier run of the sweep, if any.  When the
    arcs have that graph's structure they are swapped into its slots
    (:meth:`TimingGraph.update`), and the second element lists the
    changed arcs in the DAG; any structural difference, such as a
    deadline skip or a quarantine, builds afresh, and the second
    element is None.  Reusing a graph in place is safe only because no
    result keeps one: arrivals and paths hold arcs, never the graph.
    The trace counts builds as ``graph_builds``.
    """
    batch = calculator.batch
    graph = kept if batch is None else batch.graphs.get(sweep)
    if graph is not None:
        changed = graph.update(arcs)
        if changed is not None:
            return graph, changed
    graph = TimingGraph.build(arcs)
    calculator.trace.incr("graph_builds")
    if batch is not None:
        batch.graphs[sweep] = graph
    return graph, None


def _feedback_edges(
    nodes: dict[str, None], successors: dict[str, dict[str, None]]
) -> list[tuple[str, str]]:
    """Edges whose removal acyclifies the graph (DFS back edges).

    A depth-first search from every root classifies back edges; removing
    exactly those acyclifies the graph.  The set is not guaranteed minimum
    (that problem is NP-hard) but is deterministic and small in practice:
    one edge per cross-coupled latch loop.
    """
    back_edges: list[tuple[str, str]] = []
    visited: set[str] = set()
    on_stack: set[str] = set()

    def visit(start: str) -> None:
        stack: list[tuple[str, iter]] = [
            (start, iter(successors.get(start, ())))
        ]
        visited.add(start)
        on_stack.add(start)
        while stack:
            node, succ_iter = stack[-1]
            advanced = False
            for succ in succ_iter:
                if succ in on_stack:
                    back_edges.append((node, succ))
                elif succ not in visited:
                    visited.add(succ)
                    on_stack.add(succ)
                    stack.append((succ, iter(successors.get(succ, ()))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_stack.discard(node)

    for node in sorted(nodes):
        if node not in visited:
            visit(node)
    return back_edges


def _topological_order(
    nodes: dict[str, None], successors: dict[str, dict[str, None]]
) -> list[str]:
    """Kahn's algorithm over the insertion-ordered adjacency."""
    indegree = dict.fromkeys(nodes, 0)
    for succ_set in successors.values():
        for succ in succ_set:
            indegree[succ] += 1
    ready = deque(name for name in nodes if indegree[name] == 0)
    order: list[str] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for succ in successors.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(nodes):  # pragma: no cover - cutting guarantees DAG
        raise TimingError("internal error: feedback cutting left a cycle")
    return order
