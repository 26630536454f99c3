"""The TV timing analyzer: the package's primary public interface.

:class:`TimingAnalyzer` glues the substrates together the way the original
tool did:

1. run the electrical rules checks (:mod:`repro.netlist.validate`);
2. infer signal-flow directions (:mod:`repro.flow`);
3. decompose the netlist into stages (:mod:`repro.stages`);
4. extract stage timing arcs (:mod:`repro.delay`);
5. propagate worst-case arrivals and report critical paths
   (:mod:`repro.core.arrival` / :mod:`repro.core.paths`);
6. if the design is clocked, verify the two-phase schema
   (:mod:`repro.core.constraints`).

Typical use::

    tv = TimingAnalyzer(netlist)
    result = tv.analyze()
    print(result.report())

The whole pipeline is value-independent and runs in near-linear time in the
device count -- the property benchmarked in experiment R-T3.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field, replace as _dc_replace

from .. import robust
from ..clocks import TwoPhaseClock
from ..delay import (
    FALL,
    RISE,
    SlopeModel,
    StageDelayCalculator,
)
from ..errors import (
    ElectricalRuleError,
    FlowError,
    ReproError,
    StageError,
    TimingError,
)
from ..flow import FlowReport, infer_flow
from ..netlist import Netlist
from ..netlist.validate import Violation, check, validate
from ..stages import StageGraph, decompose
from ..tech import Technology
from ..trace import NULL_TRACE, Trace
from .arrival import DEFAULT_INPUT_SLEW, ArrivalMap, propagate
from .constraints import ClockVerification, verify_two_phase
from .graph import TimingGraph
from .paths import PathMemo, TimingPath, critical_paths
from .provenance import Explanation, explain_arrival

__all__ = ["TimingAnalyzer", "AnalysisResult"]


@dataclass
class AnalysisResult:
    """Everything one analysis run produced.

    ``mode`` is ``"combinational"`` or ``"two-phase"``.  For combinational
    runs, ``arrivals``/``paths``/``max_delay`` describe the input-to-output
    longest paths.  For clocked runs, ``clock_verification`` carries the
    per-phase results and ``min_cycle``; ``paths`` holds the overall worst
    phase's critical paths for convenience.
    """

    mode: str
    netlist_name: str
    device_count: int
    stage_count: int
    flow: FlowReport
    erc_warnings: list[Violation] = field(default_factory=list)
    arrivals: ArrivalMap | None = None
    paths: list[TimingPath] = field(default_factory=list)
    max_delay: float | None = None
    clock_verification: ClockVerification | None = None
    cut_arc_count: int = 0
    analysis_seconds: float = 0.0
    #: Error policy the run executed under (repro.robust.ERROR_POLICIES).
    policy: str = robust.STRICT
    #: Typed records of tolerated failures (quarantines/downgrades/skips).
    diagnostics: list[robust.Diagnostic] = field(default_factory=list)
    #: Analyzed-vs-quarantined accounting; ``coverage.complete`` is True
    #: for an undegraded run.
    coverage: robust.Coverage | None = None

    @property
    def min_cycle(self) -> float | None:
        if self.clock_verification is None:
            return None
        return self.clock_verification.min_cycle

    @property
    def critical_path(self) -> TimingPath | None:
        return self.paths[0] if self.paths else None

    def arrival_of(self, node: str) -> float | None:
        """Worst arrival at a node (combinational mode), seconds."""
        if self.arrivals is None:
            return None
        worst = self.arrivals.worst(node)
        return worst.time if worst is not None else None

    def to_json(self, *, include_wall_time: bool = False) -> dict:
        """Serialize to the versioned JSON report schema.

        See :data:`repro.core.report.REPORT_SCHEMA` (rendered reference:
        ``docs/report-schema.md``).  Deterministic by default; pass
        ``include_wall_time=True`` to add the (nondeterministic)
        ``analysis_seconds`` field.
        """
        from .report import result_to_json

        return result_to_json(self, include_wall_time=include_wall_time)

    def report(self, time_unit: float = 1e-9, unit_name: str = "ns") -> str:
        """The classic TV-style text report."""
        lines = [
            f"=== timing analysis: {self.netlist_name} ===",
            f"mode      : {self.mode}",
            f"devices   : {self.device_count}   stages: {self.stage_count}",
            f"analysis  : {self.analysis_seconds * 1e3:.1f} ms",
        ]
        if self.cut_arc_count:
            lines.append(
                f"feedback  : {self.cut_arc_count} arc(s) cut "
                "(static storage loops)"
            )
        if self.policy != robust.STRICT:
            lines.append(f"policy    : {self.policy}")
        if self.coverage is not None and not self.coverage.complete:
            lines.append(f"coverage  : {self.coverage.summary()}")
        for diag in self.diagnostics:
            lines.append(f"diag      : {diag}")
        lines.append(self.flow.summary())
        if self.erc_warnings:
            lines.append(f"erc       : {len(self.erc_warnings)} warning(s)")
        if self.mode == "combinational":
            if self.max_delay is not None:
                lines.append(
                    f"max delay : {self.max_delay / time_unit:.3f} {unit_name}"
                )
            for path in self.paths:
                lines.append(path.format(time_unit, unit_name))
        else:
            assert self.clock_verification is not None
            lines.append(self.clock_verification.summary(time_unit, unit_name))
            for path in self.paths:
                lines.append(path.format(time_unit, unit_name))
        return "\n".join(lines)


@dataclass
class _LastSweep:
    """The combinational graph and arrival map of the last complete run.

    ``inputs`` is everything else the sweep depended on: sources, input
    slew, slope model, error policy and quarantined stages.  The next run
    reuses graph and map only if its own inputs are equal, and then the
    path steps in ``paths`` of every arrival its sweep kept.
    """

    graph: TimingGraph
    arrivals: ArrivalMap
    inputs: tuple
    paths: PathMemo


class TimingAnalyzer:
    """Static timing analyzer for transistor-level nMOS netlists.

    Parameters
    ----------
    netlist:
        The circuit.  Flow hints may be pre-applied; ERC must pass (set
        ``run_erc=False`` only for deliberately partial circuits).
    model:
        RC delay metric, one of :data:`repro.delay.DELAY_MODELS`.
    slope:
        Input-ramp correction model (default: the calibrated one).
    clock:
        Two-phase schema.  If None and the netlist declares clocks with
        phases ``phi1``/``phi2``, a default schema is assumed; clocks with
        other labels are treated as ordinary inputs.
    tech:
        Technology override for the *delay model* -- typically a process
        corner from :meth:`repro.tech.Technology.corner`.  The netlist
        keeps its own technology for structure-level checks (ERC ratio
        rules are corner-invariant: corners scale both sides equally),
        so two analyzers differing only in ``tech`` share identical
        structure and differ only in numeric delays.  Default: the
        netlist's technology.
    workers:
        Arc-extraction fan-out width: a positive int, or ``"auto"`` to
        size the pool from the CPUs actually available.  With more than
        one worker every ``all_arcs`` sweep (combinational and
        per-phase) extracts stages on the persistent fork pool
        (:mod:`repro.delay.pool`) when the measured crossover heuristic
        predicts a win
        (device count vs. pool warmth), staying serial otherwise;
        results are bit-identical to serial extraction either way.
    trace:
        Optional :class:`repro.trace.Trace` collecting per-phase timers
        (``erc`` / ``flow`` / ``stages`` / ``extract`` / ``propagate`` /
        ``paths`` / ``constraints``) and work counters.  Defaults to the
        shared no-op :data:`repro.trace.NULL_TRACE` -- zero overhead when
        unused.
    on_error:
        Error policy, one of :data:`repro.robust.ERROR_POLICIES`.
        ``"strict"`` (default) fails fast exactly as before.
        ``"quarantine"`` excises the stages implicated by ERC errors or
        extraction failures and analyzes the rest, reporting
        :class:`~repro.robust.Diagnostic` records and
        :class:`~repro.robust.Coverage` on the result.
        ``"best-effort"`` additionally downgrades recoverable flow/timing
        errors (e.g. a netlist with no primary inputs) to diagnostics on
        a degraded result.

    Incremental re-timing
    ---------------------
    A combinational run keeps its timing graph and arrival map.  After
    :meth:`notify_changed`, the next run swaps the re-extracted stages'
    arcs into that graph (:meth:`TimingGraph.update`) and re-sweeps only
    downstream of them (``propagate(previous=...)``), which gives the
    report a from-scratch analysis would.  It builds and sweeps in full
    whenever an arc's structure changed, or the sources, input slew,
    error policy or quarantined stages differ from the kept run; a run
    cut short by its deadline is never kept.  The trace counts
    incremental sweeps as ``propagate_incremental`` and the nodes they
    re-swept as ``propagate_recomputed``.

    Thread safety
    -------------
    One analyzer may be shared by several threads: :meth:`analyze`,
    :meth:`notify_changed`, and :meth:`explain` serialize on an internal
    reentrant engine lock, so an analysis always sees either all or none
    of a concurrent edit, never a half-invalidated cache.  The lock is
    what the serve daemon's per-design sessions rely on; it is reentrant
    so ``explain()`` may call ``analyze()`` under it.  Distinct analyzers
    never share mutable state (scenario siblings from
    :meth:`analyze_mcmm` share the parent's lock).
    """

    def __init__(
        self,
        netlist: Netlist,
        *,
        model: str = "elmore",
        slope: SlopeModel | None = None,
        clock: TwoPhaseClock | None = None,
        tech: Technology | None = None,
        max_paths: int = 4096,
        run_erc: bool = True,
        workers: int | str = 1,
        trace: Trace | None = None,
        on_error: str = robust.STRICT,
    ):
        self.trace = NULL_TRACE if trace is None else trace
        self.netlist = netlist
        #: Serializes analyze/notify_changed/explain across threads (see
        #: "Thread safety" in the class docstring).  Reentrant.
        self._engine_lock = threading.RLock()
        self.on_error = robust.validate_policy(on_error)
        #: Analyzer-level diagnostics (ERC skips, downgraded flow/timing
        #: errors); stage quarantines live on ``calculator.diagnostics``.
        self.diagnostics: list[robust.Diagnostic] = []
        self._erc_errors: list[Violation] = []
        with self.trace.timer("erc"):
            self.erc_warnings: list[Violation] = self._run_erc(run_erc)
        with self.trace.timer("flow"):
            self.flow_report = self._run_flow()
        with self.trace.timer("stages"):
            self.stage_graph: StageGraph = self._run_stages()
        # One execution of the structural phases (ERC, flow inference,
        # stage decomposition) just happened; MCMM runs share it across
        # scenarios, and this counter is how tests and the bench verify
        # they really did.
        self.trace.incr("structural_runs")
        self.calculator = StageDelayCalculator(
            netlist,
            self.stage_graph,
            model=model,
            slope=slope,
            max_paths=max_paths,
            tech=tech,
            workers=workers,
            trace=self.trace,
            on_error=self.on_error,
        )
        if self._erc_errors:
            self._quarantine_erc_errors(self._erc_errors)
        self.workers = self.calculator.workers
        self.tech = self.calculator.tech
        self.clock = clock or self._default_clock()
        self._last_sweep: _LastSweep | None = None
        self.trace.incr("devices", len(netlist.devices))
        self.trace.incr("stages", len(self.stage_graph))

    # ------------------------------------------------------------------
    # Policy-aware pipeline steps.
    # ------------------------------------------------------------------
    def _run_erc(self, run_erc: bool) -> list[Violation]:
        """Electrical rules under the active policy.

        ``strict`` raises on error-severity violations (via
        :func:`repro.netlist.validate.validate`); the degraded policies
        run :func:`repro.netlist.validate.check` instead, keep the errors
        aside for stage quarantine, and return only the warnings.  A
        *crash* inside ERC (not a rule violation) is wrapped in
        :class:`ElectricalRuleError` under strict and recorded as a
        ``skipped`` diagnostic otherwise.
        """
        if not run_erc:
            return []
        try:
            robust.fault_point("erc", self.netlist)
            if self.on_error == robust.STRICT:
                return validate(self.netlist)
            violations = check(self.netlist)
        except ReproError:
            raise
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            if self.on_error == robust.STRICT:
                raise ElectricalRuleError(
                    f"electrical rules check crashed: {detail}"
                ) from exc
            self.diagnostics.append(
                robust.Diagnostic(
                    code="erc-crash",
                    severity="warning",
                    subject="erc",
                    stage=None,
                    action="skipped",
                    message=f"electrical rules check crashed ({detail}); "
                    "continuing without ERC",
                )
            )
            return []
        self._erc_errors = [v for v in violations if v.severity == "error"]
        return [v for v in violations if v.severity == "warning"]

    def _run_flow(self) -> FlowReport:
        """Signal-flow inference, downgradeable under ``best-effort``."""
        try:
            return infer_flow(self.netlist)
        except Exception as exc:
            if isinstance(exc, ReproError) and not isinstance(exc, FlowError):
                raise
            detail = f"{type(exc).__name__}: {exc}"
            if self.on_error == robust.BEST_EFFORT:
                self.diagnostics.append(
                    robust.Diagnostic(
                        code="flow-error",
                        severity="error",
                        subject=self.netlist.name,
                        stage=None,
                        action="downgraded",
                        message=f"signal-flow inference failed ({detail}); "
                        "unresolved devices treated as bidirectional",
                    )
                )
                return FlowReport(total_devices=len(self.netlist.devices))
            if isinstance(exc, FlowError):
                raise
            raise FlowError(
                f"signal-flow inference crashed: {detail}"
            ) from exc

    def _run_stages(self) -> StageGraph:
        """Stage decomposition; crashes become typed :class:`StageError`."""
        try:
            return decompose(self.netlist)
        except ReproError:
            raise
        except Exception as exc:
            raise StageError(
                f"stage decomposition crashed: {type(exc).__name__}: {exc}"
            ) from exc

    def _stages_for_subject(self, subject: str) -> set[int]:
        """Stage indices implicated by an ERC violation subject.

        A device maps through its terminals; a node maps to its owning
        stage when it has one, else (gate-only nodes, e.g. a floating
        gate) to every stage it gates -- those stages' timing depends on
        the broken node.
        """
        nodes: list[str] = []
        if subject in self.netlist.devices:
            dev = self.netlist.device(subject)
            nodes = [dev.source, dev.drain, dev.gate]
        elif subject in self.netlist.nodes:
            nodes = [subject]
        indices: set[int] = set()
        for node in nodes:
            stage = self.stage_graph.stage_of(node)
            if stage is not None:
                indices.add(stage.index)
            else:
                for gated in self.stage_graph.stages_gated_by(node):
                    indices.add(gated.index)
        return indices

    def _quarantine_erc_errors(self, errors: list[Violation]) -> None:
        """Excise the stages implicated by ERC errors (degraded policies).

        An error that maps to no stage (e.g. a dangling output that does
        not exist in the netlist) cannot be excised; it is recorded as a
        ``downgraded`` diagnostic instead so it still reaches the report.
        """
        for violation in errors:
            indices = sorted(self._stages_for_subject(violation.subject))
            if indices:
                for index in indices:
                    self.calculator.quarantine_stage(
                        index,
                        code=violation.code,
                        subject=violation.subject,
                        message=violation.message,
                    )
            else:
                self.diagnostics.append(
                    robust.Diagnostic(
                        code=violation.code,
                        severity="error",
                        subject=violation.subject,
                        stage=None,
                        action="downgraded",
                        message=violation.message,
                    )
                )

    def _default_clock(self) -> TwoPhaseClock | None:
        phases = set(self.netlist.clocks.values())
        if phases == {"phi1", "phi2"}:
            return TwoPhaseClock()
        return None

    def notify_changed(self, device_names) -> None:
        """Invalidate cached timing for edited devices (e.g. after a
        resize), so the next :meth:`analyze` recomputes only the affected
        stages.  Topology changes (added/removed devices or nodes) need a
        fresh analyzer; this hook covers parameter edits only.  Atomic
        with respect to concurrent :meth:`analyze` calls."""
        with self._engine_lock:
            self.calculator.invalidate_devices(device_names)

    # ------------------------------------------------------------------
    def analyze(
        self,
        input_arrivals: dict[str, float] | None = None,
        *,
        top_k: int = 5,
        input_slew: float = DEFAULT_INPUT_SLEW,
        deadline: float | None = None,
    ) -> AnalysisResult:
        """Run the full analysis and return an :class:`AnalysisResult`.

        ``input_arrivals`` maps primary-input names to their availability
        times (seconds); unlisted inputs default to time 0.

        ``deadline`` is an optional wall-clock budget in seconds for this
        call's arc extraction.  When it runs out, behaviour follows the
        error policy: ``strict`` raises
        :class:`~repro.errors.DeadlineError`; ``quarantine`` /
        ``best-effort`` skip the not-yet-extracted stages and return a
        degraded result whose ``diagnostics`` carry a
        ``deadline-exceeded`` record and whose ``coverage`` counts the
        skips.  Deadline skips never persist: the next call starts with
        full coverage again (cached stages are always served, so a warm
        design loses nothing).
        """
        with self._engine_lock:
            started = _time.perf_counter()
            self.calculator.set_deadline(deadline)
            try:
                if self.clock is not None and self.netlist.clocks:
                    result = self._analyze_two_phase(input_arrivals, top_k)
                else:
                    result = self._analyze_combinational(
                        input_arrivals, top_k, input_slew
                    )
                result.analysis_seconds = _time.perf_counter() - started
                result.policy = self.on_error
                result.diagnostics = (
                    list(self.diagnostics)
                    + list(self.calculator.diagnostics)
                    + list(self.calculator.deadline_diagnostics)
                )
                result.coverage = self._coverage()
                return result
            finally:
                self.calculator.deadline = None

    def analyze_mcmm(
        self,
        scenarios,
        input_arrivals: dict[str, float] | None = None,
        *,
        top_k: int = 5,
        input_slew: float = DEFAULT_INPUT_SLEW,
    ):
        """Analyze the design under several (corner × clock) scenarios.

        The structural phases this analyzer already ran -- ERC, flow
        inference, stage decomposition -- are shared; each scenario only
        re-evaluates the numeric delay terms at its corner (and clock
        schema, if it overrides one).  Every scenario's result is
        byte-identical to a standalone
        ``TimingAnalyzer(netlist, tech=scenario.tech,
        clock=scenario.clock)`` analysis.

        Where analytic delay terms are exact -- Elmore model under the
        strict error policy -- they are extracted once
        (:mod:`repro.delay.parametric`) and each scenario merely
        *evaluates* them at its corner instead of re-walking the stage
        trees; see :func:`repro.core.mcmm.term_source`.

        Returns a :class:`repro.core.mcmm.McmmResult`; see
        :func:`repro.core.mcmm.analyze_mcmm` for details.
        """
        from .mcmm import analyze_mcmm

        return analyze_mcmm(
            self,
            scenarios,
            input_arrivals,
            top_k=top_k,
            input_slew=input_slew,
        )

    def _scenario_analyzer(self, scenario, term_source=None) -> "TimingAnalyzer":
        """A sibling analyzer for one MCMM scenario.

        Shares every structural product (netlist, ERC results, flow
        report, stage graph) with this analyzer and retargets only the
        delay calculator -- so building one costs no ERC/flow/stage
        work, and its ``analyze()`` runs the exact same code a
        standalone analyzer at that corner would.

        ``term_source`` (a parametric
        :class:`~repro.delay.stage_delay.StageDelayCalculator`) makes the
        sibling evaluate the source's analytic terms at its corner
        instead of re-extracting; see :mod:`repro.delay.parametric`.
        """
        clone = object.__new__(TimingAnalyzer)
        clone.trace = self.trace
        clone.netlist = self.netlist
        clone._engine_lock = self._engine_lock
        clone.on_error = self.on_error
        clone.diagnostics = list(self.diagnostics)
        clone._erc_errors = self._erc_errors
        clone.erc_warnings = self.erc_warnings
        clone.flow_report = self.flow_report
        clone.stage_graph = self.stage_graph
        clone.calculator = self.calculator.retarget(
            scenario.tech if scenario.tech is not None else self.tech
        )
        clone.calculator._term_source = term_source
        clone.workers = clone.calculator.workers
        clone.tech = clone.calculator.tech
        clone.clock = (
            scenario.clock if scenario.clock is not None else self.clock
        )
        clone._last_sweep = None
        return clone

    def _coverage(self) -> robust.Coverage:
        """Analyzed-vs-quarantined accounting over the stage graph.

        Deadline-skipped stages count as unanalyzed alongside the
        quarantined ones (they were not, after all, analyzed) -- but only
        for the run that skipped them.
        """
        quarantined = (
            self.calculator.quarantined | self.calculator.deadline_skipped
        )
        q_devices: set[str] = set()
        q_nodes: set[str] = set()
        for index in quarantined:
            stage = self.stage_graph[index]
            q_devices.update(stage.device_names)
            q_nodes.update(stage.nodes)
        return robust.Coverage(
            stages_total=len(self.stage_graph),
            stages_analyzed=len(self.stage_graph) - len(quarantined),
            devices_total=len(self.netlist.devices),
            devices_analyzed=len(self.netlist.devices) - len(q_devices),
            nodes_total=len(self.netlist.nodes),
            nodes_analyzed=len(self.netlist.nodes) - len(q_nodes),
        )

    # ------------------------------------------------------------------
    def explain(
        self,
        node: str,
        transition: str | None = None,
        *,
        result: AnalysisResult | None = None,
        sensitivity: bool = False,
    ) -> Explanation:
        """Build the causal chain behind a node's worst arrival time.

        Returns an :class:`~repro.core.provenance.Explanation` whose
        records' delay terms sum to the reported arrival *exactly* (the
        chain is verified hop-by-hop while it is built).  ``transition``
        selects ``"rise"`` or ``"fall"``; the default is the node's worst
        (latest) transition.

        Pass the ``result`` of a previous :meth:`analyze` to avoid
        re-running the analysis.  In two-phase mode the chain is taken
        from the phase in which the node arrives latest, and the
        explanation's ``phase`` attribute names it.

        ``sensitivity=True`` additionally attaches per-parameter arrival
        slopes (the explanation's ``sensitivities``): each technology
        parameter the delay model reads
        (:data:`repro.delay.parametric.PARAMETERS`) is perturbed a few
        percent either way and the endpoint's arrival re-evaluated via a
        parametric MCMM sweep -- one symbolic extraction, two cheap
        evaluations per parameter.  The slopes describe the nominal
        worst path's neighbourhood; at a distant parameter point a
        different path may dominate.

        Raises :class:`TimingError` if the node has no recorded arrival.
        """
        with self._engine_lock:
            explanation = self._explain_locked(node, transition, result)
            if sensitivity:
                explanation = _dc_replace(
                    explanation,
                    sensitivities=self._sensitivities(node, explanation),
                )
            return explanation

    def _sensitivities(self, node: str, explanation: Explanation):
        """Central-difference arrival slopes for every delay parameter.

        One parametric MCMM sweep evaluates the whole plus/minus scenario
        family; the arrival lookup pins the explanation's transition so
        the slopes describe the explained arrival, not whichever
        transition happens to be worst at the perturbed point.
        """
        from ..delay.parametric import (
            PARAMETERS,
            SENSITIVITY_REL_STEP,
            perturbed,
        )
        from .mcmm import Scenario
        from .provenance import SensitivityRecord

        transition = explanation.transition
        active = [
            p for p in PARAMETERS if getattr(self.tech, p) != 0.0
        ]
        scenarios = []
        for param in active:
            for sign, step in (("-", -SENSITIVITY_REL_STEP),
                               ("+", SENSITIVITY_REL_STEP)):
                scenarios.append(
                    Scenario(
                        name=f"{param}{sign}",
                        tech=perturbed(self.tech, param, step),
                    )
                )
        if not scenarios:
            return ()
        mcmm = self.analyze_mcmm(scenarios)
        records = []
        for param in active:
            minus = self._arrival_for(
                mcmm.results[f"{param}-"], node, transition
            )
            plus = self._arrival_for(
                mcmm.results[f"{param}+"], node, transition
            )
            if minus is None or plus is None:
                continue
            records.append(
                SensitivityRecord(
                    parameter=param,
                    nominal=getattr(self.tech, param),
                    sensitivity=(plus - minus) / (2.0 * SENSITIVITY_REL_STEP),
                )
            )
        records.sort(key=lambda rec: (-abs(rec.sensitivity), rec.parameter))
        return tuple(records)

    @staticmethod
    def _arrival_for(
        result: AnalysisResult, node: str, transition: str
    ) -> float | None:
        """The arrival of ``(node, transition)`` in one result -- the
        same worst-over-phases view :meth:`explain` uses."""
        if result.arrivals is not None:
            arrival = result.arrivals.get(node, transition)
            return None if arrival is None else arrival.time
        verification = result.clock_verification
        if verification is None:  # pragma: no cover - defensive
            return None
        best = None
        for phase_result in verification.phases.values():
            arrival = phase_result.arrivals.get(node, transition)
            if arrival is not None and (best is None or arrival.time > best):
                best = arrival.time
        return best

    def _explain_locked(
        self,
        node: str,
        transition: str | None,
        result: AnalysisResult | None,
    ) -> Explanation:
        if result is None:
            result = self.analyze()
        slope = self.calculator.slope
        if result.arrivals is not None:
            missing = (
                result.arrivals.worst(node) is None
                if transition is None
                else result.arrivals.get(node, transition) is None
            )
            if missing:
                self._raise_if_quarantined(node)
            return explain_arrival(result.arrivals, slope, node, transition)

        assert result.clock_verification is not None
        best_phase: str | None = None
        best_time = None
        for phase, phase_result in result.clock_verification.phases.items():
            arrival = (
                phase_result.arrivals.worst(node)
                if transition is None
                else phase_result.arrivals.get(node, transition)
            )
            if arrival is None:
                continue
            if best_time is None or arrival.time > best_time:
                best_phase = phase
                best_time = arrival.time
        if best_phase is None:
            self._raise_if_quarantined(node)
            raise TimingError(
                f"no arrival recorded at {node!r} in any clock phase"
            )
        return explain_arrival(
            result.clock_verification.phases[best_phase].arrivals,
            slope,
            node,
            transition,
            phase=best_phase,
        )

    def _raise_if_quarantined(self, node: str) -> None:
        """Raise a :class:`TimingError` naming the quarantine cause.

        Called when a node has no recorded arrival: if the node belongs
        to a quarantined stage, the error says *why* the stage was
        excised instead of the generic "no arrival" message.
        """
        stage = self.stage_graph.stage_of(node)
        if stage is None or stage.index not in self.calculator.quarantined:
            return
        causes = [
            d.message or d.code
            for d in self.calculator.diagnostics
            if d.stage == stage.index
        ]
        why = "; ".join(causes) if causes else "quarantined"
        raise TimingError(
            f"no arrival at {node!r}: stage {stage.index} was quarantined "
            f"under the {self.on_error!r} policy ({why})"
        )

    # ------------------------------------------------------------------
    def _base_result(self, mode: str) -> AnalysisResult:
        return AnalysisResult(
            mode=mode,
            netlist_name=self.netlist.name,
            device_count=len(self.netlist.devices),
            stage_count=len(self.stage_graph),
            flow=self.flow_report,
            erc_warnings=self.erc_warnings,
        )

    def _analyze_combinational(
        self,
        input_arrivals: dict[str, float] | None,
        top_k: int,
        input_slew: float,
    ) -> AnalysisResult:
        input_arrivals = input_arrivals or {}
        sources: dict[tuple[str, str], float] = {}
        drive_points = set(self.netlist.inputs) | set(self.netlist.clocks)
        if not drive_points:
            if self.on_error != robust.BEST_EFFORT:
                raise TimingError(
                    f"netlist {self.netlist.name!r} declares no primary "
                    "inputs; combinational analysis has no sources"
                )
            if not any(
                d.code == "no-primary-inputs" for d in self.diagnostics
            ):
                self.diagnostics.append(
                    robust.Diagnostic(
                        code="no-primary-inputs",
                        severity="error",
                        subject=self.netlist.name,
                        stage=None,
                        action="downgraded",
                        message="netlist declares no primary inputs; "
                        "arrivals and paths are empty",
                    )
                )
        for name in drive_points:
            t = input_arrivals.get(name, 0.0)
            sources[(name, RISE)] = t
            sources[(name, FALL)] = t

        # Taken, not read: if this run raises, no half-updated state stays.
        last, self._last_sweep = self._last_sweep, None
        with self.trace.timer("extract"):
            arcs = self.calculator.all_arcs(active_clocks=None)
            inputs = (
                tuple(sources.items()),
                input_slew,
                self.calculator.slope,
                self.on_error,
                frozenset(self.calculator.quarantined),
            )
            changed = None
            if last is not None and last.inputs == inputs:
                changed = last.graph.update(arcs)
            if changed is None:
                graph, previous = TimingGraph.build(arcs), None
            else:
                graph, previous = last.graph, last.arrivals
        with self.trace.timer("propagate"):
            if sources:
                arrivals = propagate(
                    graph,
                    sources,
                    self.calculator.slope,
                    source_slew=input_slew,
                    previous=previous,
                    changed=changed or (),
                )
            else:
                # Only reachable under best-effort (no drive points were
                # downgraded to a diagnostic above): nothing to propagate.
                arrivals = ArrivalMap()
        if arrivals.recomputed is not None:
            self.trace.incr("propagate_incremental")
            self.trace.incr("propagate_recomputed", arrivals.recomputed)

        endpoints = set(self.netlist.outputs) or None
        memo = last.paths if previous is not None else PathMemo()
        with self.trace.timer("paths"):
            paths = critical_paths(arrivals, endpoints, k=top_k, memo=memo)
        if sources and not self.calculator.deadline_skipped:
            self._last_sweep = _LastSweep(graph, arrivals, inputs, memo)
        worst = memo.worst
        self.trace.incr("arcs", len(arcs))
        self.trace.incr("arrivals", len(arrivals))
        self.trace.incr("cut_arcs", len(graph.cut_arcs))

        result = self._base_result("combinational")
        result.arrivals = arrivals
        result.paths = paths
        result.max_delay = worst.time if worst is not None else 0.0
        result.cut_arc_count = len(graph.cut_arcs)
        return result

    def _analyze_two_phase(
        self,
        input_arrivals: dict[str, float] | None,
        top_k: int,
    ) -> AnalysisResult:
        assert self.clock is not None
        with self.trace.timer("constraints"):
            verification = verify_two_phase(
                self.netlist,
                self.calculator,
                self.clock,
                input_arrivals=input_arrivals,
                top_k=top_k,
            )
        for phase_result in verification.phases.values():
            self.trace.incr("arrivals", len(phase_result.arrivals))
            self.trace.incr("cut_arcs", phase_result.cut_arc_count)
        self.trace.incr("races", len(verification.races))
        result = self._base_result("two-phase")
        result.clock_verification = verification
        worst_phase = max(
            verification.phases.values(), key=lambda p: p.width
        )
        result.paths = (
            [worst_phase.critical] if worst_phase.critical is not None else []
        )
        result.max_delay = worst_phase.width
        result.cut_arc_count = sum(
            p.cut_arc_count for p in verification.phases.values()
        )
        return result
