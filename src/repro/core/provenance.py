"""Arrival-time provenance: *why* is this node late?

TV's value to the MIPS designers was not just the worst-case number but
the explanation -- which stage, which arc family, which RC term made a
path critical.  This module reconstructs that explanation for any
recorded arrival as a chain of :class:`ProvenanceRecord`\\ s, each carrying
the stage index, the arc family, and the delay-model terms (intrinsic RC
delay, slope correction, input slew) of one hop.

The records are *exact*: each hop's contribution is recomputed with the
same expressions, in the same association order, as
:func:`repro.core.arrival.propagate` used, and the chain is verified
hop-by-hop against the stored arrival times while it is built.  The sum
of the delay terms therefore equals the reported arrival time to the last
bit -- asserted here, re-asserted in ``tests/test_provenance.py`` for
every circuit generator.  If the two computations ever disagree (a
refactor changed one side), building the explanation raises
:class:`~repro.errors.TimingError` instead of reporting fiction.

Arc families (``kind``):

``source``
    Externally seeded transition (primary input, clock edge, or a storage
    node written by the previous phase); contributes its seed time.
``gate``
    Inverting gate arc: a gate input switched and the ratioed stage pulled
    the output the other way.
``transfer``
    Non-inverting gate-triggered transfer: clocked pass switch, precharge,
    depletion follower, or mux/shifter select re-routing the output.
``channel``
    Signal injected at an externally driven boundary node of the stage's
    pass network (tracking arc: reduced slope penalty).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..delay import SlopeModel
from ..errors import TimingError
from .arrival import ArrivalMap

__all__ = [
    "ProvenanceRecord",
    "SensitivityRecord",
    "Explanation",
    "explain_arrival",
]

#: Every ``ProvenanceRecord.kind`` value, in pipeline order.
ARC_FAMILIES = ("source", "gate", "transfer", "channel")


@dataclass(frozen=True)
class ProvenanceRecord:
    """One hop of the causal chain behind an arrival time.

    ``time`` is the cumulative arrival after this hop; ``delta`` is the
    hop's exact contribution (``intrinsic_delay`` + slope correction for
    the plain model), so ``prev.time + delta == time`` bit-for-bit.  For
    the source record ``delta`` is the seed time itself and the arc
    fields are None.
    """

    node: str
    transition: str
    time: float
    slew: float
    kind: str  # one of ARC_FAMILIES
    delta: float
    stage_index: int | None = None
    trigger: str | None = None
    inverting: bool | None = None
    intrinsic_delay: float = 0.0
    slope_delay: float = 0.0
    input_slew: float = 0.0
    tau: float = 0.0
    devices: tuple[str, ...] = ()
    truncated: bool = False

    def to_json(self) -> dict:
        """JSON-serializable form (schema: see ``repro.core.report``)."""
        return {
            "node": self.node,
            "transition": self.transition,
            "time": self.time,
            "slew": self.slew,
            "kind": self.kind,
            "delta": self.delta,
            "stage": self.stage_index,
            "trigger": self.trigger,
            "inverting": self.inverting,
            "intrinsic_delay": self.intrinsic_delay,
            "slope_delay": self.slope_delay,
            "input_slew": self.input_slew,
            "tau": self.tau,
            "devices": list(self.devices),
            "truncated": self.truncated,
        }


@dataclass(frozen=True)
class SensitivityRecord:
    """One parameter's leverage on an explained arrival.

    ``sensitivity`` is the central-difference slope of the endpoint's
    arrival with respect to a *relative* change of the parameter, in
    seconds per unit relative change: a sensitivity of ``2e-9`` means a
    +1% parameter move adds ~0.02 ns to the arrival.  Expressing it per
    relative change makes parameters with different units (ohms/square,
    farads, dimensionless derates) directly comparable -- the ranking
    answers "which parameter moves this path most?".
    """

    parameter: str
    nominal: float
    sensitivity: float

    def to_json(self) -> dict:
        """JSON-serializable form (schema: see ``repro.core.report``)."""
        return {
            "parameter": self.parameter,
            "nominal": self.nominal,
            "sensitivity": self.sensitivity,
        }


@dataclass(frozen=True)
class Explanation:
    """The full causal chain for one (endpoint, transition) arrival.

    ``phase`` names the clock phase the chain was computed under
    (None for combinational analysis); ``scenario`` names the MCMM
    scenario it came from (None for single-scenario analysis).
    ``sensitivities`` is populated only when the explanation was built
    with ``sensitivity=True``: per-parameter arrival slopes of this
    endpoint, largest magnitude first (see
    :class:`SensitivityRecord` and :data:`repro.delay.parametric.PARAMETERS`).
    """

    endpoint: str
    transition: str
    arrival: float
    records: tuple[ProvenanceRecord, ...]
    phase: str | None = None
    scenario: str | None = None
    sensitivities: tuple[SensitivityRecord, ...] | None = None

    @property
    def total(self) -> float:
        """Sum of the records' delay terms, in propagation order.

        Accumulated exactly as :func:`~repro.core.arrival.propagate` did,
        so it equals :attr:`arrival` bit-for-bit (the package's core
        explainability invariant).
        """
        time = 0.0
        first = True
        for record in self.records:
            time = record.delta if first else time + record.delta
            first = False
        return time

    @property
    def startpoint(self) -> str:
        """The source node the chain starts from."""
        return self.records[0].node

    def verify(self) -> bool:
        """True iff the delay terms reproduce the arrival exactly."""
        return self.total == self.arrival

    def format(self, time_unit: float = 1e-9, unit_name: str = "ns") -> str:
        """Human-readable causal chain, one hop per line."""
        header = f"explain {self.endpoint} ({self.transition})"
        if self.phase is not None:
            header += f" during {self.phase}"
        if self.scenario is not None:
            header += f" in scenario {self.scenario}"
        lines = [
            f"{header}: {self.arrival / time_unit:.3f} {unit_name}, "
            f"{len(self.records) - 1} hop(s)"
        ]
        for record in self.records:
            if record.kind == "source":
                detail = "source"
            else:
                detail = (
                    f"{record.kind} stage {record.stage_index} "
                    f"from {record.trigger}"
                )
            terms = (
                f"+{record.intrinsic_delay / time_unit:.3f} rc "
                f"+{record.slope_delay / time_unit:.3f} slope"
                if record.kind != "source"
                else f"seed {record.delta / time_unit:+.3f}"
            )
            devices = (
                f" [{', '.join(record.devices)}]" if record.devices else ""
            )
            flag = " (truncated)" if record.truncated else ""
            lines.append(
                f"  {record.time / time_unit:8.3f} {unit_name}  "
                f"{record.node} {record.transition:<4} {detail} "
                f"({terms}){devices}{flag}"
            )
        lines.append(
            f"  sum of terms = {self.total / time_unit:.3f} {unit_name} "
            f"({'exact' if self.verify() else 'MISMATCH'})"
        )
        if self.sensitivities is not None:
            lines.append("sensitivities (d arrival / d relative change):")
            for rec in self.sensitivities:
                lines.append(
                    f"  {rec.parameter:<20} "
                    f"{rec.sensitivity / time_unit:+8.4f} {unit_name}/1.0  "
                    f"(nominal {rec.nominal:g})"
                )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-serializable form (schema: see ``repro.core.report``)."""
        return {
            "endpoint": self.endpoint,
            "transition": self.transition,
            "arrival": self.arrival,
            "phase": self.phase,
            "scenario": self.scenario,
            "exact": self.verify(),
            "records": [record.to_json() for record in self.records],
            "sensitivities": (
                None
                if self.sensitivities is None
                else [rec.to_json() for rec in self.sensitivities]
            ),
        }


def explain_arrival(
    arrivals: ArrivalMap,
    slope: SlopeModel,
    endpoint: str,
    transition: str | None = None,
    *,
    phase: str | None = None,
) -> Explanation:
    """Build the provenance chain for one arrival.

    ``slope`` must be the model the analysis ran with (the analyzer passes
    its own); ``transition`` defaults to the endpoint's *worst* (latest)
    transition.  Raises :class:`TimingError` if the node has no recorded
    arrival, or if the recomputed chain fails to reproduce the stored
    times exactly (which would mean the provenance and propagation code
    paths have diverged -- a bug, never user error).
    """
    if transition is None:
        worst = arrivals.worst(endpoint)
        if worst is None:
            raise TimingError(f"no arrival recorded at {endpoint!r}")
        transition = worst.transition
    arrival = arrivals.get(endpoint, transition)
    if arrival is None:
        raise TimingError(
            f"no arrival recorded at {endpoint!r} ({transition})"
        )

    chain = []
    current = arrival
    guard = 0
    while current is not None:
        guard += 1
        if guard > 100_000:  # pragma: no cover - corrupt pred chain
            raise TimingError("predecessor chain does not terminate")
        chain.append(current)
        current = (
            arrivals.get(*current.pred) if current.pred is not None else None
        )
    chain.reverse()

    records: list[ProvenanceRecord] = []
    source = chain[0]
    records.append(
        ProvenanceRecord(
            node=source.node,
            transition=source.transition,
            time=source.time,
            slew=source.slew,
            kind="source",
            delta=source.time,
            input_slew=source.slew,
        )
    )
    for pred, step in zip(chain, chain[1:]):
        arc = step.arc
        if arc is None:  # pragma: no cover - non-source without an arc
            raise TimingError(
                f"arrival at {step.node!r} has a predecessor but no arc"
            )
        timing = arc.timing(step.transition)
        if timing is None:  # pragma: no cover - arc cannot have fired
            raise TimingError(
                f"arc {arc.trigger}->{arc.output} has no "
                f"{step.transition} timing"
            )
        # Recompute the hop's contribution with the exact expressions (and
        # association order) of arrival.propagate -- this is what makes the
        # terms sum to the reported arrival bit-for-bit.
        tracking = False if arc.inverting else arc.via == "channel"
        in_time = pred.time
        in_slew = pred.slew
        alpha = slope.alpha_tracking if tracking else slope.alpha
        slope_delay = alpha * in_slew
        delta = timing.delay + slope_delay
        if in_time + delta != step.time:  # pragma: no cover - divergence bug
            raise TimingError(
                f"provenance mismatch at {step.node!r} ({step.transition}): "
                f"recomputed {in_time + delta!r}, stored {step.time!r}; "
                "provenance and propagation have diverged"
            )
        if arc.inverting:
            kind = "gate"
        elif arc.via == "channel":
            kind = "channel"
        else:
            kind = "transfer"
        records.append(
            ProvenanceRecord(
                node=step.node,
                transition=step.transition,
                time=step.time,
                slew=step.slew,
                kind=kind,
                delta=delta,
                stage_index=arc.stage_index,
                trigger=arc.trigger,
                inverting=arc.inverting,
                intrinsic_delay=timing.delay,
                slope_delay=slope_delay,
                input_slew=in_slew,
                tau=timing.tau,
                devices=timing.path,
                truncated=timing.truncated,
            )
        )
    explanation = Explanation(
        endpoint=endpoint,
        transition=transition,
        arrival=arrival.time,
        records=tuple(records),
        phase=phase,
    )
    if not explanation.verify():  # pragma: no cover - divergence bug
        raise TimingError(
            f"provenance terms for {endpoint!r} sum to "
            f"{explanation.total!r}, report says {arrival.time!r}"
        )
    return explanation
