"""Two-phase clock verification.

For a two-phase non-overlapping design, TV answered three questions the
designers could not get from simulation without exhaustive vectors:

1. **How wide must each phase be?**  Everything that moves during phi-k --
   launched by the phase's clock edge or flowing out of the previous
   phase's latches -- must settle before phi-k falls.  The minimum width of
   the phase is the latest arrival at any node captured during the phase.
2. **What is the minimum cycle time?**  Both minimum widths plus the two
   non-overlap gaps.
3. **Are there races?**  A signal must never cross two latches of the *same*
   phase in one traversal (it would race through both while the phase is
   high).  We check this structurally: reachability from a phase's storage
   nodes back into another latch of the same phase, both across stages
   (through the timing graph) and within one stage (through the conduction
   network).

Per-phase analysis re-extracts timing arcs with only that phase's clocks
active, so conduction through the other phase's latches is cut -- this is
what makes a two-phase pipeline acyclic phase by phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clocks import TwoPhaseClock
from ..delay import FALL, RISE, StageContext, StageDelayCalculator
from ..errors import ClockingError
from ..netlist import DeviceKind, Netlist, Transistor
from ..stages import StageGraph
from .arrival import ArrivalMap, propagate
from .graph import TimingGraph, sweep_graph
from .paths import PathMemo, TimingPath, critical_paths

__all__ = [
    "PhaseResult",
    "RaceViolation",
    "ClockVerification",
    "latch_devices",
    "storage_nodes_of_phase",
    "verify_two_phase",
]


@dataclass(frozen=True)
class RaceViolation:
    """Signal can cross two same-phase latches in one phase."""

    phase: str
    from_node: str
    to_node: str
    kind: str  # "cross-stage" or "same-stage"

    def __str__(self) -> str:
        return (
            f"race ({self.kind}): {self.from_node} -> {self.to_node} "
            f"through two {self.phase} latches"
        )


@dataclass
class PhaseResult:
    """Analysis of one clock phase."""

    phase: str
    arrivals: ArrivalMap
    width: float
    storage_written: frozenset[str]
    critical: TimingPath | None
    cut_arc_count: int = 0

    def violations_at_width(self, width: float) -> list[TimingPath]:
        """Capture-set arrivals that do not fit in a given phase width."""
        late = []
        for path in critical_paths(
            self.arrivals, set(self.storage_written) or None, k=10**9
        ):
            if path.arrival > width:
                late.append(path)
        return late


@dataclass
class ClockVerification:
    """Complete two-phase verification outcome.

    ``overlap_margins`` (one per phase direction) give the maximum clock
    overlap the design tolerates before data races through two latches --
    see :mod:`repro.core.mindelay`.
    """

    clock: TwoPhaseClock
    phases: dict[str, PhaseResult] = field(default_factory=dict)
    races: list[RaceViolation] = field(default_factory=list)
    overlap_margins: list = field(default_factory=list)

    @property
    def min_cycle(self) -> float:
        widths = [self.phases[p].width for p in self.clock.phases]
        return self.clock.cycle_time(*widths)

    def summary(self, time_unit: float = 1e-9, unit_name: str = "ns") -> str:
        """Human-readable verification report (widths, cycle, races)."""
        lines = ["two-phase clock verification"]
        for phase in self.clock.phases:
            result = self.phases[phase]
            lines.append(
                f"  min width {phase}: "
                f"{result.width / time_unit:.3f} {unit_name} "
                f"({len(result.storage_written)} capture nodes)"
            )
        lines.append(
            f"  non-overlap gap: "
            f"{self.clock.nonoverlap / time_unit:.3f} {unit_name} (x2)"
        )
        lines.append(
            f"  min cycle time : {self.min_cycle / time_unit:.3f} {unit_name}"
        )
        if self.races:
            lines.append(f"  RACES: {len(self.races)}")
            lines.extend(f"    {race}" for race in self.races)
        else:
            lines.append("  races: none")
        for margin in self.overlap_margins:
            lines.append(f"  {margin.describe()}")
        return "\n".join(lines)


def qualified_low_nodes(
    netlist: Netlist,
    clock: TwoPhaseClock,
    phase: str,
    graph: StageGraph | None = None,
) -> frozenset[str]:
    """Control nodes provably low while ``phase`` is high.

    TV's *clock qualification* analysis: with the phase's clocks at 1, the
    opposite phase at 0, and every data input unknown, any node that
    settles to a definite 0 is a qualified clock that cannot enable its
    switches during this phase (a read word line ``dec AND phi2`` during
    phi1, for example).  Computed with the three-valued switch-level
    simulator, so only *provable* constants qualify.  Falls back to the
    empty set if the circuit does not settle (oscillating feedback).

    The answer reads the netlist's structure and clock labels only, never
    a width or the technology.  ``graph`` is the netlist's stage
    decomposition, if one is at hand; otherwise the simulator makes its
    own.
    """
    from ..sim.switchsim import SwitchSim  # local import: avoid cycle

    sim = SwitchSim(netlist, graph)
    assignments: dict[str, object] = {}
    for node, node_phase in netlist.clocks.items():
        assignments[node] = 1 if node_phase == phase else 0
    try:
        sim.set_inputs(assignments)
        sim.settle()
    except Exception:
        return frozenset()
    low = frozenset(
        name
        for name in netlist.nodes
        if sim.value(name) == 0
        and netlist.gate_loads(name)
        and not netlist.is_rail(name)
        and name not in netlist.clocks
    )
    return low


def latch_devices(netlist: Netlist, phase_clocks: frozenset[str]) -> list[Transistor]:
    """Clock-gated pass switches gated by the given clocks."""
    result = []
    for dev in netlist.devices.values():
        if dev.kind is not DeviceKind.ENH:
            continue
        if dev.gate not in phase_clocks:
            continue
        if netlist.vdd in dev.channel_nodes:
            continue  # precharge device, not a latch
        if netlist.gnd in dev.channel_nodes:
            continue  # qualified pull-down, not a latch
        result.append(dev)
    return result


def _receiving_terminal(netlist: Netlist, dev: Transistor) -> str:
    """The channel terminal a latch writes (data flows into it)."""
    if dev.flows_into(dev.source) and not dev.flows_into(dev.drain):
        return dev.source
    if dev.flows_into(dev.drain) and not dev.flows_into(dev.source):
        return dev.drain
    # Unresolved/bidirectional: the non-boundary, non-driven side.
    for terminal in dev.channel_nodes:
        if not netlist.is_boundary(terminal) and not netlist.has_pullup(terminal):
            return terminal
    return dev.drain


def storage_nodes_of_phase(
    netlist: Netlist, clock: TwoPhaseClock, phase: str
) -> frozenset[str]:
    """Nodes written by the latches of ``phase``."""
    clocks = clock.clock_nodes(netlist, phase)
    return frozenset(
        _receiving_terminal(netlist, dev)
        for dev in latch_devices(netlist, clocks)
    )


def verify_two_phase(
    netlist: Netlist,
    calculator: StageDelayCalculator,
    clock: TwoPhaseClock,
    *,
    input_arrivals: dict[str, float] | None = None,
    top_k: int = 5,
) -> ClockVerification:
    """Run the full two-phase verification (see module docstring)."""
    clock.check(netlist)
    input_arrivals = input_arrivals or {}
    for name in input_arrivals:
        if name not in netlist.inputs:
            raise ClockingError(
                f"arrival given for {name!r}, which is not a primary input"
            )

    verification = ClockVerification(clock=clock)
    storage = {
        phase: storage_nodes_of_phase(netlist, clock, phase)
        for phase in clock.phases
    }

    for phase in clock.phases:
        active = clock.clock_nodes(netlist, phase)
        # Corner siblings share the calculator's memo, so an MCMM sweep
        # settles the switch-level simulator once per phase.
        open_gates = calculator._qualified_low.get(phase)
        if open_gates is None:
            open_gates = qualified_low_nodes(
                netlist, clock, phase, calculator.graph
            )
            calculator._qualified_low[phase] = open_gates
        arcs = calculator.all_arcs(active_clocks=active, open_gates=open_gates)
        graph, _changed = sweep_graph(calculator, (active, open_gates), arcs)

        sources: dict[tuple[str, str], float] = {}
        for clk in active:
            sources[(clk, RISE)] = 0.0
        for node in storage[clock.other(phase)]:
            sources.setdefault((node, RISE), 0.0)
            sources.setdefault((node, FALL), 0.0)
        for name in netlist.inputs:
            time = input_arrivals.get(name, 0.0)
            sources.setdefault((name, RISE), time)
            sources.setdefault((name, FALL), time)

        arrivals = propagate(graph, sources, calculator.slope)

        # Everything launched during the phase must settle before the phase
        # ends -- including nodes written through *qualified* switches
        # (word-line-gated cells), which are not raw clock latches.  The
        # minimum width is therefore the latest arrival anywhere.  Only
        # the phase's worst path is kept, so only that one is traced.
        memo = PathMemo()
        top = critical_paths(arrivals, None, k=min(top_k, 1), memo=memo)
        width = memo.worst.time if memo.worst is not None else 0.0

        verification.phases[phase] = PhaseResult(
            phase=phase,
            arrivals=arrivals,
            width=width,
            storage_written=storage[phase],
            critical=top[0] if top else None,
            cut_arc_count=len(graph.cut_arcs),
        )
        verification.races.extend(
            _find_races(netlist, calculator, graph, clock, phase, storage[phase])
        )

    from .mindelay import cross_phase_margins  # local import: avoid cycle

    verification.overlap_margins = cross_phase_margins(
        netlist, calculator, clock
    )
    return verification


def _find_races(
    netlist: Netlist,
    calculator: StageDelayCalculator,
    graph: TimingGraph,
    clock: TwoPhaseClock,
    phase: str,
    phase_storage: frozenset[str],
) -> list[RaceViolation]:
    races: list[RaceViolation] = []
    clocks = clock.clock_nodes(netlist, phase)
    latches = latch_devices(netlist, clocks)
    data_sides = {}
    for dev in latches:
        receiving = _receiving_terminal(netlist, dev)
        data_sides[dev.other_channel(receiving)] = receiving

    # Cross-stage: from a freshly written storage node, can the timing
    # graph (with this phase active) reach the data side of another latch
    # of the same phase?
    for start in phase_storage:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for arc in graph.arcs_from.get(node, ()):
                target = arc.output
                if target in seen:
                    continue
                seen.add(target)
                if target in phase_storage and target != start:
                    races.append(
                        RaceViolation(phase, start, target, "cross-stage")
                    )
                frontier.append(target)

    # Same-stage: two latches of the phase on one conduction path.  The
    # receiving node of one latch reaching the data side of another through
    # the phase-active pass network means both are transparent together.
    for stage in calculator.graph:
        members = set(stage.device_names)
        member_latches = [d for d in latches if d.name in members]
        if len(member_latches) < 2:
            continue
        cut = calculator._cut_map(frozenset(clocks), frozenset()).get(
            stage.index, frozenset()
        )
        edges = StageContext(calculator, stage, cut).pass_edges(RISE)
        adjacency: dict[str, set[str]] = {}
        for a, b, *_rest in edges:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        for dev in member_latches:
            start = _receiving_terminal(netlist, dev)
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbor in adjacency.get(node, ()):
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    frontier.append(neighbor)
            for other in member_latches:
                if other.name == dev.name:
                    continue
                if _receiving_terminal(netlist, other) in seen - {start}:
                    races.append(
                        RaceViolation(
                            phase,
                            start,
                            _receiving_terminal(netlist, other),
                            "same-stage",
                        )
                    )

    # Deduplicate.
    unique: dict[tuple[str, str, str], RaceViolation] = {}
    for race in races:
        unique.setdefault((race.phase, race.from_node, race.to_node), race)
    return list(unique.values())
