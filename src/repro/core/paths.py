"""Critical-path extraction and ranking.

After arrival propagation, the critical path to any endpoint is recovered by
walking predecessor pointers.  :func:`critical_paths` ranks endpoints by
arrival time and reconstructs the top-k paths -- the report format TV
printed for the MIPS designers (experiment R-T2).

A step depends on its :class:`~repro.core.arrival.Arrival` alone, so a
call builds each step once.  The k paths of a report mostly share their
source-side steps: a walk that reaches an arrival an earlier path of the
same call traced takes that path's steps from there back to the source,
so the paths share step objects from their first common arrival on.
Across calls, a :class:`PathMemo` carries the last call's steps: after
an incremental sweep (``propagate(previous=...)``) every arrival the
sweep did not recompute is the very object it was, and its step is
reused as it is.  Only the steps of recomputed arrivals are new.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .arrival import Arrival, ArrivalMap

__all__ = [
    "PathMemo",
    "PathStep",
    "TimingPath",
    "critical_paths",
    "trace_path",
]


@dataclass(frozen=True)
class PathStep:
    """One hop of a timing path."""

    node: str
    transition: str
    time: float
    slew: float
    stage_index: int | None  # None for the source step
    via: str | None  # "gate" / "channel" / None
    devices: tuple[str, ...]  # devices of the worst RC path of this hop


@dataclass(frozen=True)
class TimingPath:
    """A reconstructed worst-case path ending at ``endpoint``."""

    endpoint: str
    transition: str
    arrival: float
    steps: tuple[PathStep, ...]

    @property
    def startpoint(self) -> str:
        return self.steps[0].node

    @property
    def length(self) -> int:
        """Number of stage traversals."""
        return len(self.steps) - 1

    def format(self, time_unit: float = 1e-9, unit_name: str = "ns") -> str:
        """Human-readable path listing."""
        lines = [
            f"path to {self.endpoint} ({self.transition}): "
            f"{self.arrival / time_unit:.3f} {unit_name}, "
            f"{self.length} stages"
        ]
        for step in self.steps:
            via = f" via {step.via}" if step.via else " (source)"
            devices = f" [{', '.join(step.devices)}]" if step.devices else ""
            lines.append(
                f"  {step.time / time_unit:8.3f} {unit_name}  "
                f"{step.node} {step.transition}{via}{devices}"
            )
        return "\n".join(lines)


class PathMemo:
    """What one :func:`critical_paths` call leaves for its caller.

    ``steps`` maps each ``(node, transition)`` the call traced to
    ``(arrival, step, path steps, index)``: the step of that arrival and
    where it sits in the first path that reached it.  A later call given
    the memo reuses the step of every arrival that is the same object.
    ``worst`` is the latest arrival among the candidate endpoints (the
    first in map order on a tie, as :meth:`ArrivalMap.max_arrival`
    picks), found by the ranking scan.
    """

    __slots__ = ("steps", "worst")

    def __init__(self) -> None:
        self.steps: dict[tuple[str, str], tuple] = {}
        self.worst: Arrival | None = None


def _step(arrival: Arrival) -> PathStep:
    arc = arrival.arc
    timing = arc.timing(arrival.transition) if arc is not None else None
    return PathStep(
        node=arrival.node,
        transition=arrival.transition,
        time=arrival.time,
        slew=arrival.slew,
        stage_index=arc.stage_index if arc is not None else None,
        via=arc.via if arc is not None else None,
        devices=timing.path if timing is not None else (),
    )


def _trace(
    amap: dict[tuple[str, str], Arrival],
    arrival: Arrival,
    kept: dict[tuple[str, str], tuple],
    traced: dict[tuple[str, str], tuple],
) -> TimingPath:
    """Walk ``arrival``'s predecessor chain back to its source.

    The walk stops at the first arrival already in ``traced`` and takes
    the steps of the path that traced it from there back; every step it
    walked itself is added to ``traced``.  A step comes from ``kept``
    when that memo holds the very same arrival object.
    """
    walked: list[tuple[tuple[str, str], Arrival, PathStep]] = []
    head: tuple[PathStep, ...] = ()
    current: Arrival | None = arrival
    while current is not None:
        key = (current.node, current.transition)
        joined = traced.get(key)
        if joined is not None:
            earlier, index = joined[2:]
            head = earlier[: index + 1]
            break
        if len(walked) >= 100_000:  # pragma: no cover - corrupt pred chain
            raise RuntimeError("predecessor chain does not terminate")
        entry = kept.get(key)
        if entry is not None and entry[0] is current:
            step = entry[1]
        else:
            step = _step(current)
        walked.append((key, current, step))
        current = amap.get(current.pred) if current.pred is not None else None
    walked.reverse()
    steps = head + tuple(step for _key, _arrival, step in walked)
    for index, (key, current, step) in enumerate(walked, len(head)):
        traced[key] = (current, step, steps, index)
    return TimingPath(
        endpoint=arrival.node,
        transition=arrival.transition,
        arrival=arrival.time,
        steps=steps,
    )


def trace_path(arrivals: ArrivalMap, endpoint: str, transition: str) -> TimingPath:
    """Reconstruct the worst path to one (endpoint, transition)."""
    arrival = arrivals.get(endpoint, transition)
    if arrival is None:
        raise KeyError(f"no arrival recorded at {endpoint!r} ({transition})")
    return _trace(arrivals._map, arrival, {}, {})


def critical_paths(
    arrivals: ArrivalMap,
    endpoints: set[str] | None = None,
    k: int = 5,
    *,
    memo: PathMemo | None = None,
) -> list[TimingPath]:
    """The ``k`` latest-arriving endpoint transitions, as full paths.

    ``endpoints`` restricts the candidates (e.g. to primary outputs and
    storage nodes); None considers every node with an arrival.  At most one
    path (the later transition) is reported per endpoint node.

    ``memo`` holds an earlier call's steps (module docstring); the call
    reuses those whose arrival is the same object, and leaves in it its
    own steps and the latest candidate arrival.
    """
    per_node: dict[str, Arrival] = {}
    worst: Arrival | None = None
    for arrival in arrivals._map.values():
        node = arrival.node
        if endpoints is not None and node not in endpoints:
            continue
        time = arrival.time
        if worst is None or time > worst.time:
            worst = arrival
        best = per_node.get(node)
        if best is None or time > best.time:
            per_node[node] = arrival
    ranked = sorted(per_node.values(), key=attrgetter("time"), reverse=True)
    kept = memo.steps if memo is not None else {}
    traced: dict[tuple[str, str], tuple] = {}
    paths = [
        _trace(arrivals._map, arrival, kept, traced) for arrival in ranked[:k]
    ]
    if memo is not None:
        memo.steps = traced
        memo.worst = worst
    return paths
