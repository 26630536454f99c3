"""Worst-case arrival-time propagation.

The static analysis itself: given a timing graph and a set of *sources*
(externally driven transitions with known times), compute for every node and
transition the latest possible arrival, the accompanying slew, and the
predecessor pointer for path reconstruction.  One linear sweep in
topological order -- this is what makes TV's whole-chip analysis take
seconds where simulation takes hours (experiment R-T3).

Transitions are propagated separately for rise and fall:

* an inverting arc maps input-rise -> output-fall (using the arc's fall
  timing) and input-fall -> output-rise;
* a non-inverting arc maps rise -> rise and fall -> fall.

Slope handling: each arc's intrinsic delay is corrected by the configured
:class:`~repro.delay.SlopeModel` using the input slew at the trigger, and
the output slew is derived from the arc's time constant.

After an edit, :func:`propagate` can re-sweep incrementally: given the
map an earlier sweep of the same graph produced and the arcs that
:meth:`~repro.core.graph.TimingGraph.update` swapped in since, it
recomputes only the nodes downstream of those arcs and stops wherever an
arrival's (time, slew) comes out bit-identical.  The result equals a full
sweep exactly, down to the ``pred``/``arc`` tie-breaks and the map's
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from ..delay import FALL, RISE, SlopeModel, StageArc
from ..errors import TimingError
from .graph import TimingGraph

__all__ = ["Arrival", "ArrivalMap", "propagate", "DEFAULT_INPUT_SLEW"]

#: Assumed transition time of externally driven sources, seconds.
DEFAULT_INPUT_SLEW = 2e-9


@dataclass(frozen=True)
class Arrival:
    """Worst-case arrival of one transition at one node.

    ``pred`` is the (node, transition) whose change caused this one (None
    for sources); ``arc`` is the stage arc traversed (None for sources).
    """

    node: str
    transition: str
    time: float
    slew: float
    pred: tuple[str, str] | None = None
    arc: StageArc | None = None


class ArrivalMap:
    """Arrivals keyed by (node, transition).

    ``recomputed`` is the number of nodes an incremental :func:`propagate`
    re-swept to produce the map, or None when a full sweep produced it.
    """

    def __init__(self) -> None:
        self._map: dict[tuple[str, str], Arrival] = {}
        self.recomputed: int | None = None

    def get(self, node: str, transition: str) -> Arrival | None:
        """The recorded arrival, or None if the transition never occurs."""
        return self._map.get((node, transition))

    def set(self, arrival: Arrival) -> None:
        """Record (or overwrite) one arrival."""
        self._map[(arrival.node, arrival.transition)] = arrival

    def worst(self, node: str) -> Arrival | None:
        """The later of the node's rise/fall arrivals."""
        rise = self.get(node, RISE)
        fall = self.get(node, FALL)
        if rise is None:
            return fall
        if fall is None:
            return rise
        return rise if rise.time >= fall.time else fall

    def items(self) -> list[Arrival]:
        """Every recorded arrival (both transitions, all nodes)."""
        return list(self._map.values())

    def nodes(self) -> set[str]:
        """Nodes with at least one recorded arrival."""
        return {node for node, _t in self._map}

    def max_arrival(self, restrict_to: set[str] | None = None) -> Arrival | None:
        """The globally latest arrival (optionally among given nodes)."""
        best: Arrival | None = None
        for arrival in self._map.values():
            if restrict_to is not None and arrival.node not in restrict_to:
                continue
            if best is None or arrival.time > best.time:
                best = arrival
        return best

    def __len__(self) -> int:
        return len(self._map)


def propagate(
    graph: TimingGraph,
    sources: dict[tuple[str, str], float],
    slope: SlopeModel,
    *,
    source_slew: float = DEFAULT_INPUT_SLEW,
    previous: ArrivalMap | None = None,
    changed: list[StageArc] = (),
) -> ArrivalMap:
    """Propagate worst-case arrivals through the timing graph.

    ``sources`` maps (node, transition) to its externally known time; both
    transitions of a node may be seeded independently (a clock's rise and
    fall differ by the phase width, for example).

    ``previous`` asks for the incremental sweep (module docstring): it is
    the map a sweep of ``graph`` with the same ``sources``, ``slope`` and
    ``source_slew`` produced before ``graph.update`` swapped in the
    ``changed`` arcs.  It is copied, never modified.  If an arrival would
    appear or vanish, the full sweep runs instead.
    """
    if not sources:
        raise TimingError("arrival propagation needs at least one source")
    for _node, transition in sources:
        if transition not in (RISE, FALL):
            raise TimingError(f"unknown transition {transition!r}")
    if previous is not None:
        arrivals = _resweep(
            graph, sources, slope, source_slew, previous, changed
        )
        if arrivals is not None:
            return arrivals
    arrivals = ArrivalMap()
    for (node, transition), time in sources.items():
        arrivals.set(
            Arrival(node=node, transition=transition, time=time, slew=source_slew)
        )

    amap = arrivals._map
    arcs_from = graph.arcs_from
    plain_slope = type(slope) is SlopeModel
    for node in graph.order:
        arcs = arcs_from.get(node)  # node == arc.trigger
        if arcs:
            _relax(amap, amap, node, arcs, slope, plain_slope)
    return arrivals


def _relax(
    arrived: dict[tuple[str, str], Arrival],
    amap: dict[tuple[str, str], Arrival],
    node: str,
    arcs: list[StageArc],
    slope: SlopeModel,
    plain_slope: bool,
) -> None:
    """Offer ``node``'s rise, then fall arrival (looked up in ``arrived``)
    through each of ``arcs`` -- all triggered by ``node`` -- to the arc
    outputs' entries in ``amap``; a candidate replaces an entry only if
    strictly later.

    The sweep's inner loop (every arc, both transitions), so the map and
    the slope coefficients are accessed directly.  The coefficient fast
    path applies only to a plain SlopeModel -- a subclass with overridden
    methods keeps its behaviour.
    """
    for transition in (RISE, FALL):
        incoming = arrived.get((node, transition))
        if incoming is None:
            continue
        in_time = incoming.time
        in_slew = incoming.slew
        for arc in arcs:
            if arc.inverting:
                out_transition = FALL if transition == RISE else RISE
                tracking = False
            else:
                out_transition = transition
                tracking = arc.via == "channel"
            timing = arc.rise if out_transition == RISE else arc.fall
            if timing is None:
                continue
            if plain_slope:
                alpha = slope.alpha_tracking if tracking else slope.alpha
                time = in_time + (timing.delay + alpha * in_slew)
            else:
                time = in_time + slope.delay(
                    timing.delay, in_slew, tracking=tracking
                )
            existing = amap.get((arc.output, out_transition))
            if existing is not None and existing.time >= time:
                continue
            if plain_slope:
                out_slew = slope.gamma * timing.tau + slope.beta * in_slew
            else:
                out_slew = slope.output_slew(timing.tau, in_slew)
            amap[(arc.output, out_transition)] = Arrival(
                node=arc.output,
                transition=out_transition,
                time=time,
                slew=out_slew,
                pred=(node, transition),
                arc=arc,
            )


def _resweep(
    graph: TimingGraph,
    sources: dict[tuple[str, str], float],
    slope: SlopeModel,
    source_slew: float,
    previous: ArrivalMap,
    changed: list[StageArc],
) -> ArrivalMap | None:
    """The incremental sweep behind ``propagate(previous=...)``.

    Dirty nodes are visited in topological order.  Each is recomputed
    from its fan-in in the order a full sweep offers it candidates --
    source seed first, then by trigger position, RISE before FALL, and
    ``arcs_from`` order -- through the same :func:`_relax`, so
    strict-improvement ties resolve to the same ``pred`` and ``arc``.
    Returns None if an arrival would appear or vanish: the caller then
    runs the full sweep, which also keeps the map's insertion order
    exact.
    """
    position, fanin = graph.fanin()
    arcs_from = graph.arcs_from
    old = previous._map
    amap = dict(old)
    plain_slope = type(slope) is SlopeModel
    heap: list[tuple[int, str]] = []
    queued: set[str] = set()

    def enqueue(node: str) -> None:
        if node not in queued:
            queued.add(node)
            heappush(heap, (position[node], node))

    for arc in changed:
        enqueue(arc.output)
    recomputed = 0
    while heap:
        _pos, node = heappop(heap)
        recomputed += 1
        fresh: dict[tuple[str, str], Arrival] = {}
        for transition in (RISE, FALL):
            seed = sources.get((node, transition))
            if seed is not None:
                fresh[(node, transition)] = Arrival(
                    node=node,
                    transition=transition,
                    time=seed,
                    slew=source_slew,
                )
        for trigger, indices in fanin.get(node, ()):
            arcs = arcs_from[trigger]
            feeding = [arcs[index] for index in indices]
            _relax(amap, fresh, trigger, feeding, slope, plain_slope)
        moved = False
        for transition in (RISE, FALL):
            key = (node, transition)
            arrival, prior = fresh.get(key), old.get(key)
            if (arrival is None) != (prior is None):
                return None
            if arrival is None:
                continue
            amap[key] = arrival
            if arrival.time != prior.time or arrival.slew != prior.slew:
                moved = True
        if moved:
            for arc in arcs_from.get(node, ()):
                enqueue(arc.output)
    arrivals = ArrivalMap()
    arrivals._map = amap
    arrivals.recomputed = recomputed
    return arrivals
