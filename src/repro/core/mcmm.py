"""Multi-corner multi-mode (MCMM) analysis.

1983 signoff ran the same design three times -- slow, typical, and fast
silicon -- and compared the reports by hand.  This module promotes that
loop to a first-class engine mode: a :class:`Scenario` is one
``(technology corner x clock mode)`` combination, and
:func:`analyze_mcmm` evaluates a netlist under many scenarios in a
single run, sharing everything that does not depend on the corner.

The sharing exploits a structural fact of the pipeline: ERC, signal-flow
inference, stage decomposition, and the per-device structural facts are
functions of the netlist *geometry* only, while a corner rescales
resistances and capacitances uniformly.  So the structural phases run
once (on the :class:`~repro.core.analyzer.TimingAnalyzer` that hosts the
MCMM run) and each scenario gets a calculator retargeted to its corner
(:meth:`StageDelayCalculator.retarget`).  The host's calculator
extracts the arcs once, as analytic terms (:mod:`repro.delay.parametric`)
kept in its own arc cache, and every scenario only evaluates them at its
corner -- under every delay model, error policy and deadline.  When
extraction is pooled, it runs on one persistent worker pool for the
whole sweep.  Each sweep's timing graph is built once and shared by the
corners, combinational or two-phase.

The correctness anchor is **parity**: every scenario's
:class:`~repro.core.analyzer.AnalysisResult` is byte-identical
(``to_json``) to a standalone
``TimingAnalyzer(netlist, tech=scenario.tech, clock=scenario.clock)``
analysis, because a term replays the floating-point operations of the
concrete extraction in the same order.  The path search behind each
term ran at the hosting analyzer's technology, so parity holds wherever
a search at the scenario's corner would pick the same paths -- at the
shipped corners, which scale every resistance alike, among others.

Typical use::

    from repro import TimingAnalyzer, Technology
    from repro.core.mcmm import corner_scenarios

    tv = TimingAnalyzer(netlist)
    mcmm = tv.analyze_mcmm(corner_scenarios(netlist.tech))
    print(mcmm.report())
    worst = mcmm.dominant_scenario()        # usually "slow"
    corner = mcmm.dominant_corner("alu_out")
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

from ..clocks import TwoPhaseClock
from ..delay.parametric import CornerBatch
from ..errors import TimingError
from ..tech import Technology
from .provenance import Explanation

__all__ = [
    "Scenario",
    "McmmResult",
    "analyze_mcmm",
    "corner_scenarios",
    "CORNER_NAMES",
]

#: The classic corner labels accepted as scenario shorthand.
CORNER_NAMES = ("slow", "typ", "fast")


@dataclass(frozen=True)
class Scenario:
    """One MCMM scenario: a technology corner crossed with a clock mode.

    ``tech=None`` keeps the hosting analyzer's technology; ``clock=None``
    keeps its clock schema.  Either (or both) may be overridden, so a
    scenario set can sweep corners, clock modes, or the full cross
    product.
    """

    name: str
    tech: Technology | None = None
    clock: TwoPhaseClock | None = None


def corner_scenarios(
    base: Technology | None = None,
    *,
    clock: TwoPhaseClock | None = None,
) -> list[Scenario]:
    """The classic three-scenario set: slow, typ, and fast corners of
    ``base`` (default NMOS4), optionally all under one clock override."""
    return [
        Scenario(name=name, tech=tech, clock=clock)
        for name, tech in Technology.corners(base).items()
    ]


def _coerce_scenario(spec, analyzer) -> Scenario:
    """Accept a :class:`Scenario` or a bare corner-name shorthand."""
    if isinstance(spec, Scenario):
        return spec
    if isinstance(spec, str):
        if spec not in CORNER_NAMES:
            raise TimingError(
                f"unknown corner shorthand {spec!r}: choose from "
                f"{'/'.join(CORNER_NAMES)} or pass a Scenario"
            )
        return Scenario(name=spec, tech=analyzer.tech.corner(spec))
    raise TimingError(
        f"scenario must be a Scenario or a corner name, got {spec!r}"
    )


@dataclass
class McmmResult:
    """Everything one MCMM run produced.

    ``results`` maps scenario name to that scenario's full
    :class:`~repro.core.analyzer.AnalysisResult`, in scenario order;
    each is byte-identical to a standalone single-scenario analysis.
    The merge views (:meth:`dominant_scenario`, :meth:`worst_arrivals`,
    :meth:`dominant_corner`) answer the cross-scenario questions, and
    :meth:`to_json` emits the dominant scenario's report extended with
    the ``mcmm`` section of the versioned schema.
    """

    netlist_name: str
    scenarios: list[Scenario]
    results: dict = field(default_factory=dict)
    analysis_seconds: float = 0.0
    #: Per-scenario sibling analyzers, kept for :meth:`explain`.
    _analyzers: dict = field(default_factory=dict, repr=False)

    def result(self, scenario: str):
        """The :class:`AnalysisResult` of one scenario, by name."""
        try:
            return self.results[scenario]
        except KeyError:
            raise TimingError(
                f"unknown scenario {scenario!r}; ran "
                f"{[s.name for s in self.scenarios]}"
            ) from None

    def dominant_scenario(self) -> str:
        """The scenario limiting the design: worst max-delay (two-phase:
        worst minimum cycle).  Ties keep scenario order."""
        best_name = None
        best_key = None
        for scen in self.scenarios:
            result = self.results[scen.name]
            key = (
                result.min_cycle
                if result.min_cycle is not None
                else result.max_delay
            )
            if key is None:
                continue
            if best_key is None or key > best_key:
                best_name, best_key = scen.name, key
        if best_name is None:
            return self.scenarios[0].name
        return best_name

    def worst_arrivals(self) -> dict:
        """``{node: (arrival, scenario name)}`` -- each node's worst
        arrival across every scenario (two-phase: worst over phases,
        matching ``explain``).  Ties keep scenario order."""
        merged: dict[str, tuple[float, str]] = {}
        for scen in self.scenarios:
            for node, time in _node_arrivals(self.results[scen.name]).items():
                held = merged.get(node)
                if held is None or time > held[0]:
                    merged[node] = (time, scen.name)
        return merged

    def dominant_corner(self, node: str) -> str:
        """The scenario in which ``node`` arrives latest."""
        held = self.worst_arrivals().get(node)
        if held is None:
            raise TimingError(
                f"no arrival recorded at {node!r} in any scenario"
            )
        return held[1]

    def explain(
        self,
        node: str,
        transition: str | None = None,
        *,
        sensitivity: bool = False,
    ) -> Explanation:
        """The causal chain behind ``node``'s worst arrival, taken from
        its dominant scenario; the explanation's ``scenario`` attribute
        names that scenario.  ``sensitivity=True`` attaches per-parameter
        arrival slopes around that scenario's corner (see
        :meth:`TimingAnalyzer.explain`)."""
        name = self.dominant_corner(node)
        explanation = self._analyzers[name].explain(
            node,
            transition,
            result=self.results[name],
            sensitivity=sensitivity,
        )
        return replace(explanation, scenario=name)

    def _merged_paths(self) -> list[dict]:
        """Critical-path endpoints across scenarios with their dominant
        scenario, worst first."""
        endpoints: dict[str, tuple[float, str]] = {}
        for scen in self.scenarios:
            for path in self.results[scen.name].paths:
                held = endpoints.get(path.endpoint)
                if held is None or path.arrival > held[0]:
                    endpoints[path.endpoint] = (path.arrival, scen.name)
        rows = [
            {"endpoint": endpoint, "arrival": arrival, "scenario": name}
            for endpoint, (arrival, name) in endpoints.items()
        ]
        rows.sort(key=lambda row: (-row["arrival"], row["endpoint"]))
        return rows

    def to_json(self, *, include_wall_time: bool = False) -> dict:
        """The merged MCMM report: the dominant scenario's report plus
        the ``mcmm`` section (schema >= 1.2.0).

        Deterministic by default, like
        :meth:`AnalysisResult.to_json`; ``include_wall_time=True`` adds
        the nondeterministic per-scenario and overall timings.
        """
        dominant = self.dominant_scenario()
        payload = self.results[dominant].to_json(
            include_wall_time=include_wall_time
        )
        scenario_rows = []
        for scen in self.scenarios:
            result = self.results[scen.name]
            row = {
                "name": scen.name,
                "technology": (
                    scen.tech.name if scen.tech is not None else None
                ),
                "clock": (
                    None
                    if scen.clock is None
                    else {
                        "phase1": scen.clock.phase1,
                        "phase2": scen.clock.phase2,
                        "nonoverlap": scen.clock.nonoverlap,
                    }
                ),
                "mode": result.mode,
                "max_delay": result.max_delay,
                "min_cycle": result.min_cycle,
                "race_count": (
                    len(result.clock_verification.races)
                    if result.clock_verification is not None
                    else 0
                ),
            }
            if include_wall_time:
                row["analysis_seconds"] = result.analysis_seconds
            scenario_rows.append(row)
        payload["mcmm"] = {
            "scenario_count": len(self.scenarios),
            "dominant": dominant,
            "scenarios": scenario_rows,
            "nodes": [
                {"node": node, "arrival": arrival, "scenario": name}
                for node, (arrival, name) in sorted(
                    self.worst_arrivals().items()
                )
            ],
            "paths": self._merged_paths(),
        }
        if include_wall_time:
            payload["mcmm"]["analysis_seconds"] = self.analysis_seconds
        return payload

    def report(self, time_unit: float = 1e-9, unit_name: str = "ns") -> str:
        """Cross-scenario text report: one line per scenario, dominant
        scenario flagged, then the dominant corner of each critical
        endpoint."""
        dominant = self.dominant_scenario()
        lines = [
            f"=== MCMM timing analysis: {self.netlist_name} ===",
            f"scenarios : {len(self.scenarios)}   dominant: {dominant}",
        ]
        for scen in self.scenarios:
            result = self.results[scen.name]
            cycle = result.min_cycle
            metric = (
                f"min cycle {cycle / time_unit:.3f} {unit_name}"
                if cycle is not None
                else f"max delay {(result.max_delay or 0.0) / time_unit:.3f} "
                f"{unit_name}"
            )
            races = (
                f"   races: {len(result.clock_verification.races)}"
                if result.clock_verification is not None
                else ""
            )
            marker = " <- dominant" if scen.name == dominant else ""
            tech_name = scen.tech.name if scen.tech is not None else "(base)"
            lines.append(
                f"  {scen.name:<8} {tech_name:<16} {metric}{races}{marker}"
            )
        merged = self._merged_paths()
        if merged:
            lines.append("critical endpoints across scenarios:")
            for row in merged:
                lines.append(
                    f"  {row['endpoint']:<16} "
                    f"{row['arrival'] / time_unit:.3f} {unit_name}  "
                    f"worst in {row['scenario']}"
                )
        return "\n".join(lines)


def _node_arrivals(result) -> dict[str, float]:
    """Worst arrival per node of one scenario's result (two-phase: worst
    over phases, the same view ``TimingAnalyzer.explain`` uses)."""
    out: dict[str, float] = {}
    if result.arrivals is not None:
        for node in result.arrivals.nodes():
            out[node] = result.arrivals.worst(node).time
        return out
    verification = result.clock_verification
    if verification is None:
        return out
    for phase_result in verification.phases.values():
        arrivals = phase_result.arrivals
        for node in arrivals.nodes():
            time = arrivals.worst(node).time
            if node not in out or time > out[node]:
                out[node] = time
    return out


def analyze_mcmm(
    analyzer,
    scenarios,
    input_arrivals: dict[str, float] | None = None,
    *,
    top_k: int = 5,
    input_slew: float | None = None,
) -> McmmResult:
    """Analyze ``analyzer``'s netlist under every scenario in one run.

    ``analyzer`` is a fully constructed
    :class:`~repro.core.analyzer.TimingAnalyzer`; its ERC results, flow
    report, and stage graph are shared by every scenario (they are
    corner-invariant), and each scenario gets a sibling analyzer whose
    delay calculator evaluates terms at the scenario's corner.  Scenario
    evaluation order is the given order, and each scenario's result is
    byte-identical to a standalone analysis at that corner and clock.

    ``scenarios`` is an iterable of :class:`Scenario` (or bare corner
    names ``"slow"``/``"typ"``/``"fast"`` as shorthand for corners of
    the analyzer's technology); names must be unique.

    The hosting analyzer's calculator extracts each arc once with an
    analytic term over the technology parameter vector (replacing any
    concrete list it cached for the stage), and every
    scenario *evaluates* the terms at its corner instead of re-walking
    the stage trees.  All scenario siblings are created first and share
    one :class:`~repro.delay.parametric.CornerBatch` for the run: the
    first scenario's walk of each sweep evaluates that sweep's terms in
    one compiled pass for every scenario still to run, and builds the
    sweep's timing graph, which later scenarios reuse by swapping their
    arcs into it (:func:`~repro.core.graph.sweep_graph`).  N corners
    cost one structural extraction plus one evaluation pass and one
    graph build per sweep.

    Trace counters: ``mcmm_scenarios`` counts evaluated scenarios while
    ``structural_runs`` stays at the hosting analyzer's single
    construction -- the observable proof that the structural phases ran
    once for the whole sweep; ``parametric_stage_evals`` counts stages
    served by term evaluation, ``term_eval_passes`` the evaluation
    passes and ``graph_builds`` the timing graphs built.
    """
    from .arrival import DEFAULT_INPUT_SLEW

    if input_slew is None:
        input_slew = DEFAULT_INPUT_SLEW
    started = _time.perf_counter()
    coerced = [_coerce_scenario(spec, analyzer) for spec in scenarios]
    if not coerced:
        raise TimingError("analyze_mcmm needs at least one scenario")
    names = [scen.name for scen in coerced]
    if len(set(names)) != len(names):
        raise TimingError(f"duplicate scenario names in {names}")
    mcmm = McmmResult(
        netlist_name=analyzer.netlist.name, scenarios=coerced
    )
    siblings = [analyzer._scenario_analyzer(scen) for scen in coerced]
    batch = CornerBatch([sibling.calculator for sibling in siblings])
    for sibling in siblings:
        sibling.calculator.batch = batch
    try:
        for scen, sibling in zip(coerced, siblings):
            analyzer.trace.incr("mcmm_scenarios")
            mcmm.results[scen.name] = sibling.analyze(
                input_arrivals, top_k=top_k, input_slew=input_slew
            )
            batch.finish(sibling.calculator)
            mcmm._analyzers[scen.name] = sibling
    finally:
        for sibling in siblings:
            sibling.calculator.batch = None
    mcmm.analysis_seconds = _time.perf_counter() - started
    return mcmm
