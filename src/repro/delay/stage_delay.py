"""Stage timing-arc extraction: TV's transistor-level delay calculator.

For each stage, this module enumerates *timing arcs*: (trigger, output)
pairs with intrinsic rise/fall delays.  An arc's trigger is either

* a **gate** input of the stage -- a node switching the gate of a member
  device (ordinary logic inputs, and clocks gating pass switches or
  precharge devices), or
* a **channel** boundary -- an externally driven node (primary input or
  clock) injecting signal directly into the stage's pass network.

Delay of an arc is computed on an RC tree built from the conducting
sub-network, with TV's value-independent worst-casing:

* **fall** (discharge): the maximum-resistance simple path from the output
  to gnd that passes through a device gated by the trigger, with every
  other conducting device attached as a capacitive branch;
* **rise** (charge): from vdd through the depletion load of a pulled-up
  node, then the maximum-resistance pass path to the output;
* **precharge rise**: from vdd through the clock-gated precharge device;
* **pass transfer**: from the injecting boundary node through the
  maximum-resistance directed pass path.

The RC tree metric is selected by ``model``: ``"elmore"`` (default),
``"lumped"``, ``"pr-min"``, or ``"pr-max"`` (ablation experiment R-T6).
Path enumeration is exact up to ``max_paths`` simple paths per arc; if the
cap is hit the arc is marked ``truncated`` (never silently).  The search
is a depth-first walk in adjacency order, so which paths a truncated arc
saw -- and hence its delay -- follows that order.

Throughput
----------
A sweep (``active_clocks``, ``open_gates``) reaches a stage's arcs only
through one thing: which member devices
:meth:`StageDelayCalculator._clock_open` cuts.  The calculator works
those cut sets out once per sweep, from the gate loads of the inactive
clocks and the open gates, and keys the arc cache on ``(stage index, cut
set)``.  A stage whose cut set repeats across sweeps -- most stages of a
two-phase design cut nothing in its phi1, phi2 and all-transparent
sweeps alike -- is extracted once.

Extraction is organized around a per-stage :class:`StageContext` that
computes the conduction/pass edge lists and their adjacency maps **once**
per ``(stage, cut set)`` and shares them across all six arc-family
extractors; adjacency entries pre-resolve the per-device
lookups (gate, one-hot group, flow legality, boundary-ness) so the
path-search inner loops run on plain tuples.  Because stages are
channel-connected components they are independent, and
:meth:`StageDelayCalculator.all_arcs` can fan extraction out over the
fork pool of :mod:`repro.delay.pool` (``parallel=True`` /
``workers=N`` / ``workers="auto"``) with a deterministic stage-index
merge order.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, replace

from .. import robust
from ..errors import DeadlineError, ReproError, StageError
from ..trace import NULL_TRACE
from ..netlist import DeviceKind, FlowDirection, Netlist, Transistor
from ..stages import Stage, StageGraph
from ..tech import Technology
from .effective_res import FALL, RISE, device_resistance
from .elmore import elmore_delay, lumped_delay
from .penfield import pr_bounds
from .rctree import RCTree
from .slope import SlopeModel
from . import pool

__all__ = [
    "ArcTiming",
    "StageArc",
    "StageContext",
    "StageDelayCalculator",
    "DELAY_MODELS",
]

DELAY_MODELS = ("elmore", "lumped", "pr-min", "pr-max")

#: Crossing fraction for the 50% delay definition used throughout.
_CROSSING = 0.5

#: The cut set of a stage the sweep cuts nothing in.
_NO_CUTS: frozenset[str] = frozenset()


#: Monotonic identity for calculators; with the invalidation epoch it
#: tells the persistent pool whether its forked snapshot is still valid.
_CALC_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class ArcTiming:
    """Timing of one output transition of an arc.

    ``delay`` is the intrinsic 50%-crossing delay (seconds), already scaled
    by the technology's calibration factor; ``tau`` is the underlying Elmore
    time constant (used for slew estimation); ``path`` names the devices on
    the worst resistive path; ``truncated`` is set if path enumeration hit
    its cap.

    ``term`` is the optional parametric recipe behind the floats (see
    :mod:`repro.delay.parametric`): a plain nested tuple that replays
    this timing's arithmetic at any technology point.  ``None`` (the
    default) in concrete mode; populated when the calculator extracts
    with ``parametric`` enabled.
    """

    delay: float
    tau: float
    path: tuple[str, ...] = ()
    truncated: bool = False
    term: tuple | None = None


@dataclass(frozen=True)
class StageArc:
    """One timing arc through a stage.

    ``inverting`` tells the arrival propagator which input transition
    produces which output transition: an inverting arc maps input-rise to
    output-fall (gate logic); a non-inverting arc maps rise to rise (pass
    transfer, precharge, clocked switches).
    """

    stage_index: int
    trigger: str
    via: str  # "gate" or "channel"
    output: str
    inverting: bool
    rise: ArcTiming | None
    fall: ArcTiming | None

    def timing(self, transition: str) -> ArcTiming | None:
        """The arc timing for ``"rise"`` or ``"fall"`` (None if absent)."""
        return self.rise if transition == RISE else self.fall


class StageContext:
    """Shared per-stage extraction state.

    Holds everything the six arc-family extractors need about one
    ``(stage, cut set)`` combination, computed lazily and exactly once:
    resolved member devices, conduction/pass edge lists per transition,
    their adjacency maps (with per-hop device facts pre-resolved), and
    the pulled-up node table.  Before this existed, every extractor
    rebuilt its own edge lists and every path search rebuilt its own
    adjacency dict -- roughly 8 edge builds and 10+ adjacency builds per
    stage per extraction.

    ``cut`` names the member devices the sweep cuts (see
    :meth:`StageDelayCalculator._cut_map`).  It is the context's only
    view of the sweep, so two sweeps that cut the same member devices
    build the same context and extract the same arcs.
    """

    __slots__ = (
        "calc",
        "stage",
        "devices",
        "cut",
        "_pass",
        "_cond",
        "_adj",
        "_pulled",
        "_pulled_set",
    )

    def __init__(
        self,
        calc: "StageDelayCalculator",
        stage: Stage,
        cut: frozenset[str],
    ):
        self.calc = calc
        self.stage = stage
        self.devices = calc.graph.devices_of(stage)
        self.cut = cut
        self._pass: dict[str, list] = {}
        self._cond: dict[str, list] = {}
        self._adj: dict[tuple[str, str], dict] = {}
        self._pulled: dict[str, float] | None = None
        self._pulled_set = False

    def clock_open(self, dev: Transistor) -> bool:
        """True if the device is cut in this context (see calculator)."""
        return dev.name in self.cut

    def pass_edges(self, transition: str) -> list:
        """Pass-network edges for a transition (computed once)."""
        edges = self._pass.get(transition)
        if edges is None:
            edges = self.calc._pass_edges(
                self.stage, self.devices, transition, self.cut
            )
            self._pass[transition] = edges
        return edges

    def conduction_edges(self, transition: str) -> list:
        """Discharge-path edges for a transition (computed once)."""
        edges = self._cond.get(transition)
        if edges is None:
            edges = self.calc._conduction_edges(
                self.stage, self.devices, transition, self.cut
            )
            self._cond[transition] = edges
        return edges

    def pass_adjacency(self, transition: str) -> dict:
        """Adjacency map of the pass edges (computed once)."""
        key = ("pass", transition)
        adj = self._adj.get(key)
        if adj is None:
            adj = self.calc._build_adjacency(self.pass_edges(transition))
            self._adj[key] = adj
        return adj

    def conduction_adjacency(self, transition: str) -> dict:
        """Adjacency map of the conduction edges (computed once)."""
        key = ("cond", transition)
        adj = self._adj.get(key)
        if adj is None:
            adj = self.calc._build_adjacency(self.conduction_edges(transition))
            self._adj[key] = adj
        return adj

    @property
    def pulled_up(self) -> dict[str, float]:
        """Stage nodes with depletion pull-ups (computed once)."""
        if not self._pulled_set:
            self._pulled = self.calc._pulled_up_nodes(self.stage, self.devices)
            self._pulled_set = True
        return self._pulled


class StageDelayCalculator:
    """Extracts timing arcs from stages of one netlist.

    Parameters
    ----------
    netlist, graph:
        The circuit and its stage decomposition (flow directions should
        already be assigned by :func:`repro.flow.infer_flow`).
    model:
        RC metric: one of :data:`DELAY_MODELS`.
    slope:
        Slope-correction model (used by the analyzer; stored here so all
        timing policy lives in one object).
    max_paths:
        Cap on simple-path enumeration per arc.
    workers:
        Default fan-out width of :meth:`all_arcs` over the persistent
        fork pool (:mod:`repro.delay.pool`): an int (1 = serial) or
        ``"auto"`` to resolve the width from the host CPU count and pick
        serial vs. parallel per sweep with the
        :func:`~repro.delay.pool.parallel_crossover` heuristic.
    trace:
        Optional :class:`repro.trace.Trace` receiving the supervision
        counters (``extract_retries``, ``extract_timeouts``,
        ``extract_corrupt_results``, ``extract_fallback_stages``,
        ``extract_pool_failures``).
    on_error:
        Error policy (:data:`repro.robust.ERROR_POLICIES`).  Under
        ``strict`` (default) a stage whose extraction fails raises; under
        ``quarantine``/``best-effort`` the stage is excised
        (:meth:`quarantine_stage`) and :meth:`all_arcs` returns the arcs
        of the surviving stages.

    Supervision knobs (attributes, overridable per instance):
    ``task_timeout`` (seconds one pool task may run before it is treated
    as hung), ``task_retries`` (pool re-submissions after a failed
    attempt), ``retry_backoff`` (initial inter-attempt sleep; doubles per
    retry).  Exhausted retries never lose work: the serial walk in
    :meth:`all_arcs` recomputes whatever the pool did not deliver.
    """

    def __init__(
        self,
        netlist: Netlist,
        graph: StageGraph,
        *,
        model: str = "elmore",
        slope: SlopeModel | None = None,
        max_paths: int = 4096,
        tech: Technology | None = None,
        workers: int | str = 1,
        trace=None,
        on_error: str = robust.STRICT,
    ):
        if model not in DELAY_MODELS:
            raise StageError(
                f"unknown delay model {model!r}; choose from {DELAY_MODELS}"
            )
        self.netlist = netlist
        self.graph = graph
        self.model = model
        self.slope = slope if slope is not None else SlopeModel()
        self.max_paths = max_paths
        self.tech = tech or netlist.tech
        self.workers = pool.validate_workers(workers)
        #: Persistent-pool binding: identity of this calculator plus an
        #: epoch bumped by :meth:`invalidate_devices`, so a forked worker
        #: snapshot is never reused after a device edit.
        self._pool_token = next(_CALC_TOKENS)
        self._pool_epoch = 0
        self.trace = trace if trace is not None else NULL_TRACE
        self.on_error = robust.validate_policy(on_error)
        #: Stage indices excised from analysis; :meth:`all_arcs` skips them.
        self.quarantined: set[int] = set()
        #: :class:`repro.robust.Diagnostic` records for quarantined stages.
        self.diagnostics: list[robust.Diagnostic] = []
        self.task_timeout = 60.0
        self.task_retries = 2
        self.retry_backoff = 0.05
        #: Optional absolute ``time.monotonic()`` extraction deadline,
        #: armed per run via :meth:`set_deadline`.  Once it passes,
        #: uncached stages raise :class:`~repro.errors.DeadlineError`
        #: under ``strict`` and are skipped (with a ``deadline-exceeded``
        #: diagnostic) under the degraded policies; cached stages are
        #: always served -- a cache hit is free.
        self.deadline: float | None = None
        #: Transient per-run accounting: stages skipped because the
        #: deadline passed, and the diagnostics describing the skips.
        #: Unlike ``quarantined``/``diagnostics`` these never persist --
        #: the next :meth:`set_deadline` clears them, so one run that
        #: timed out cannot poison the next.
        self.deadline_skipped: set[int] = set()
        self.deadline_diagnostics: list[robust.Diagnostic] = []
        self._cap_cache: dict[str, float] = {}
        #: (stage index, cut set) -> merged arcs; see :meth:`_cut_map`.
        self._arc_cache: dict[tuple, list[StageArc]] = {}
        #: (active_clocks, open_gates) -> {stage index: cut set} for the
        #: stages that sweep cuts anything in.  Structural, like the
        #: device facts: kept across edits, shared with retarget clones.
        self._cut_maps: dict[tuple, dict[int, frozenset[str]]] = {}
        #: Clock phase -> control nodes provably low while it is high
        #: (``repro.core.constraints.qualified_low_nodes``).  Structural
        #: too, so shared with retarget clones.
        self._qualified_low: dict[str, frozenset[str]] = {}
        # name -> (gate, group, source, out_of_source, out_of_drain,
        #          source_is_boundary, drain_is_boundary); see
        # _device_fact_map.
        self._device_facts: dict[str, tuple] | None = None
        #: When True, extracted ArcTimings carry parametric terms (see
        #: repro.delay.parametric).  Off by default: term building costs
        #: a little per spine, and concrete mode must stay byte-stable.
        self.parametric = False
        #: Symbolic sibling serving term-carrying arcs for this
        #: structure, built lazily by :meth:`parametric_source`.
        self._parametric_source: "StageDelayCalculator | None" = None
        #: When set, :meth:`arcs` evaluates this source's terms at our
        #: tech instead of extracting (see :meth:`_arcs_from_terms`).
        self._term_source: "StageDelayCalculator | None" = None

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def arcs(
        self,
        stage: Stage,
        active_clocks: frozenset[str] | None = None,
        open_gates: frozenset[str] = frozenset(),
    ) -> list[StageArc]:
        """All timing arcs of ``stage`` (deduplicated, worst-case merged).

        ``active_clocks`` selects the clock phase under analysis: devices
        gated by a clock *not* in the set are treated as open (cut), and
        clock-triggered arcs exist only for active clocks.  ``None`` means
        the value-independent worst case: every clocked switch is closed --
        the right view for purely combinational circuits and for a quick
        whole-circuit longest-path estimate.

        ``open_gates`` names additional control nodes that are provably low
        in the scenario under analysis -- qualified clocks derived from the
        phase (e.g. a word line ``dec AND phi2`` during phi1).  Devices they
        gate are cut exactly like inactive clocks.

        The arcs depend on the sweep only through the member devices it
        cuts (:meth:`_cut_map`), so they are cached per ``(stage.index,
        cut set)``: another sweep that cuts the same devices is served
        from the cache.
        """
        cut = self._cut_map(active_clocks, open_gates).get(
            stage.index, _NO_CUTS
        )
        cache_key = (stage.index, cut)
        cached = self._arc_cache.get(cache_key)
        if cached is not None:
            return cached
        if self._term_source is not None:
            evaluated = self._arcs_from_terms(
                stage, active_clocks, open_gates
            )
            if evaluated is not None:
                self._arc_cache[cache_key] = evaluated
                return evaluated
        ctx = StageContext(self, stage, cut)
        raw: list[StageArc] = []
        raw.extend(self._gate_arcs(ctx))
        raw.extend(self._clocked_switch_arcs(ctx))
        raw.extend(self._precharge_arcs(ctx))
        raw.extend(self._follower_arcs(ctx))
        raw.extend(self._channel_arcs(ctx))
        raw.extend(self._select_arcs(ctx))
        merged = _merge_arcs(raw)
        self._arc_cache[cache_key] = merged
        return merged

    def _arcs_from_terms(
        self,
        stage: Stage,
        active_clocks: frozenset[str] | None,
        open_gates: frozenset[str],
    ) -> list[StageArc] | None:
        """Evaluate the term source's arcs for ``stage`` at our tech.

        The source extracts (and caches) term-carrying arcs once; this
        calculator instantiates them at its own parameter point -- an
        evaluation pass, no path search.  Returns ``None`` when any
        timing lacks a term, in which case the caller falls back to full
        concrete extraction for the stage.
        """
        from .parametric import evaluate_arcs

        source = self._term_source
        src_arcs = source.arcs(stage, active_clocks, open_gates)
        evaluated = evaluate_arcs(self, stage, src_arcs)
        if evaluated is not None:
            self.trace.incr("parametric_stage_evals")
        return evaluated

    def parametric_source(self) -> "StageDelayCalculator":
        """The memoized symbolic sibling of this calculator.

        A :meth:`retarget` clone at this calculator's own technology
        with ``parametric`` enabled: its extractions emit term-carrying
        arcs that corner clones evaluate instead of re-extracting (see
        ``TimingAnalyzer.analyze_mcmm``).  It shares this calculator's
        pool binding, so pooled symbolic sweeps reuse the same
        persistent pool, and :meth:`invalidate_devices` keeps its caches
        in lockstep with ours.
        """
        source = self._parametric_source
        if source is None:
            source = self.retarget(self.tech)
            source.parametric = True
            self._parametric_source = source
        return source

    def invalidate_devices(self, device_names) -> None:
        """Drop cached results touched by edited devices (e.g. resizing).

        Invalidates the capacitance cache of every terminal node and the
        arc cache of every stage owning one of those nodes -- the exact
        footprint a width change has on the timing model.  Everything else
        stays cached, which is what makes the optimizer's re-analysis
        loop cheap.  The device-fact map stays too: none of its facts
        (terminals, flow, one-hot group, boundary) depends on a device's
        width or length.
        """
        nodes: set[str] = set()
        for name in device_names:
            dev = self.netlist.device(name)
            nodes.update((dev.gate, dev.source, dev.drain))
        for node in nodes:
            self._cap_cache.pop(node, None)
        # Any forked worker snapshot predates this edit; the persistent
        # pool rebinds (re-forks) on the next pooled sweep.
        self._pool_epoch += 1
        stale = set()
        for node in nodes:
            stage = self.graph.stage_of(node)
            if stage is not None:
                stale.add(stage.index)
        # A stage's arcs are cached under its index and each cut set some
        # sweep gave it (:meth:`arcs`): none, or one from a cut map.
        cache = self._arc_cache
        for index in stale:
            cache.pop((index, _NO_CUTS), None)
            for cut_map in self._cut_maps.values():
                cut = cut_map.get(index)
                if cut is not None:
                    cache.pop((index, cut), None)
        if self._parametric_source is not None:
            # The symbolic sibling shares our pool binding and serves
            # corner clones; its terms predate the edit too.
            self._parametric_source.invalidate_devices(device_names)

    def retarget(self, tech: Technology) -> "StageDelayCalculator":
        """A calculator evaluating the same structure at ``tech``.

        This is the MCMM re-evaluation hook: the clone shares the
        netlist, the stage graph, the (tech-independent) device-fact map,
        the per-sweep cut maps and each clock phase's qualified-low nodes,
        so only the numeric delay terms --
        resistances, capacitances, k-factors -- are recomputed at the new
        corner.
        Delay caches (``_cap_cache``/``_arc_cache``) start empty because
        their contents are corner-specific.

        The clone also inherits this calculator's persistent-pool
        binding: the structural snapshot the forked workers hold is
        corner-invariant, so a multi-corner sweep reuses **one** fixed
        pool instead of rebinding per corner -- workers receive the
        corner with each task and retarget their own snapshot
        (see :mod:`repro.delay.pool`).

        Because the clone runs the identical extraction code on the
        identical netlist, its results are byte-identical to a
        calculator built from scratch with ``tech=tech``.
        """
        clone = StageDelayCalculator(
            self.netlist,
            self.graph,
            model=self.model,
            slope=self.slope,
            max_paths=self.max_paths,
            tech=tech,
            workers=self.workers,
            trace=self.trace,
            on_error=self.on_error,
        )
        clone.task_timeout = self.task_timeout
        clone.task_retries = self.task_retries
        clone.retry_backoff = self.retry_backoff
        clone.deadline = self.deadline
        clone.quarantined = set(self.quarantined)
        clone.diagnostics = list(self.diagnostics)
        clone._device_facts = self._device_fact_map()
        clone._cut_maps = self._cut_maps
        clone._qualified_low = self._qualified_low
        clone._pool_token = self._pool_token
        clone._pool_epoch = self._pool_epoch
        clone.parametric = self.parametric
        return clone

    def set_deadline(self, budget: float | None) -> None:
        """Arm (``budget`` seconds from now) or clear the run deadline.

        Always resets the transient deadline accounting of the previous
        run (``deadline_skipped``/``deadline_diagnostics``): deadline
        skips are per-run by design, so a request that ran out of time
        never shrinks the coverage of the next one.
        """
        self.deadline = (
            None if budget is None else time.monotonic() + budget
        )
        self.deadline_skipped.clear()
        self.deadline_diagnostics.clear()

    def _deadline_expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def quarantine_stage(
        self,
        index: int,
        *,
        code: str = "extraction-failure",
        severity: str = "error",
        subject: str | None = None,
        message: str = "",
    ) -> robust.Diagnostic:
        """Excise stage ``index`` from analysis and record a diagnostic.

        Quarantined stages are skipped by :meth:`all_arcs`; the recorded
        :class:`~repro.robust.Diagnostic` ends up on the analysis result
        and in the JSON report's ``diagnostics`` section.  Idempotent per
        stage: quarantining an already-quarantined stage still appends the
        new diagnostic (distinct causes are all worth reporting).
        """
        self.quarantined.add(index)
        if subject is None:
            stage = self.graph[index]
            outputs = sorted(stage.outputs) or sorted(stage.nodes)
            subject = outputs[0] if outputs else f"stage-{index}"
        diag = robust.Diagnostic(
            code=code,
            severity=severity,
            subject=subject,
            stage=index,
            action="quarantined",
            message=message,
        )
        self.diagnostics.append(diag)
        return diag

    def all_arcs(
        self,
        active_clocks: frozenset[str] | None = None,
        open_gates: frozenset[str] = frozenset(),
        *,
        parallel: bool | None = None,
        workers: int | str | None = None,
    ) -> list[StageArc]:
        """Timing arcs of every non-quarantined stage in the graph.

        ``parallel``/``workers`` control the fan-out over the fork pool
        of :mod:`repro.delay.pool`: ``parallel=None`` (default) consults
        its :func:`~repro.delay.pool.parallel_crossover` heuristic --
        the pool runs only when the resolved width exceeds 1, the host
        has more than one CPU and can fork, and the member devices of
        the stages the arc cache cannot serve clear the warm or cold
        floor.  A cold sweep weighs every device; the sweep after a
        small edit weighs only the invalidated stages, so it stays
        serial instead of re-forking the pool for them.  ``workers`` may
        be an int or ``"auto"`` (width from
        :func:`~repro.delay.pool.auto_workers`); ``parallel=True`` forces
        the pool (bumping the width to at least 2); ``parallel=False``
        forces the serial path.  The decision is
        visible as the ``extract_parallel_sweeps`` /
        ``extract_serial_sweeps`` trace counters.  Stages are
        channel-connected components, hence independent, and results are
        merged in stage-index order -- the arc list is identical to the
        serial one.

        The pool only *pre-fills* the arc cache; this serial walk is
        authoritative, so quarantine decisions are made here (never in a
        worker) and the result is deterministic regardless of pool
        failures.  A stage whose extraction raises is re-raised as a typed
        :class:`~repro.errors.ReproError` under the ``strict`` policy and
        quarantined (with a diagnostic) under ``quarantine``/
        ``best-effort``.
        """
        spec = (
            self.workers if workers is None else pool.validate_workers(workers)
        )
        resolved = pool.auto_workers() if spec == pool.WORKERS_AUTO else spec
        if parallel is None:
            use_pool = resolved > 1 and pool.parallel_crossover(
                sum(
                    len(self.graph[index].device_names)
                    for index in self._uncached(active_clocks, open_gates)
                ),
                pool_warm=pool.warm_for(self),
            )
        else:
            use_pool = bool(parallel)
            if use_pool and resolved < 2:
                resolved = max(2, pool.available_cpus())
        if self._term_source is not None and use_pool:
            # Pooled symbolic sweep: the *source* extracts on the pool
            # (terms travel back over the wire); this calculator then
            # evaluates the terms serially in the walk below -- per-stage
            # evaluation is far too cheap to be worth pool traffic.
            self._term_source.all_arcs(
                active_clocks, open_gates, parallel=parallel, workers=workers
            )
            use_pool = False
        self.trace.incr(
            "extract_parallel_sweeps" if use_pool else "extract_serial_sweeps"
        )
        cut_map = self._cut_map(active_clocks, open_gates)
        if use_pool:
            delivered = pool.extract(
                self,
                self._uncached(active_clocks, open_gates),
                active_clocks,
                open_gates,
                resolved,
            )
            for index, arcs in delivered.items():
                self._arc_cache[(index, cut_map.get(index, _NO_CUTS))] = arcs
        result: list[StageArc] = []
        expired = False
        skipped = 0
        for stage in self.graph:
            if (
                stage.index in self.quarantined
                or stage.index in self.deadline_skipped
            ):
                continue
            cached = self._arc_cache.get(
                (stage.index, cut_map.get(stage.index, _NO_CUTS))
            )
            if cached is not None:
                # A cache hit costs nothing; serve it even past the
                # deadline so a warm design degrades as little as possible.
                result.extend(cached)
                continue
            if not expired and self._deadline_expired():
                expired = True
            if expired:
                if self.on_error == robust.STRICT:
                    raise DeadlineError(
                        "extraction deadline exceeded at stage "
                        f"{stage.index} of {len(self.graph)}"
                    )
                self.deadline_skipped.add(stage.index)
                skipped += 1
                continue
            try:
                robust.fault_point("stage-arcs", stage.index)
                stage_arcs = self.arcs(stage, active_clocks, open_gates)
            except Exception as exc:
                if self.on_error == robust.STRICT:
                    if isinstance(exc, ReproError):
                        raise
                    raise StageError(
                        f"arc extraction failed for stage {stage.index}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                self.quarantine_stage(
                    stage.index,
                    message=(
                        f"arc extraction failed: {type(exc).__name__}: {exc}"
                    ),
                )
                continue
            result.extend(stage_arcs)
        if skipped:
            self.trace.incr("extract_deadline_skips", skipped)
            self.deadline_diagnostics.append(
                robust.Diagnostic(
                    code="deadline-exceeded",
                    severity="error",
                    subject=self.netlist.name,
                    stage=None,
                    action="skipped",
                    message=(
                        f"extraction deadline passed; {skipped} stage(s) "
                        "left unanalyzed this run"
                    ),
                )
            )
        return result

    def _uncached(
        self, active_clocks: frozenset[str] | None, open_gates: frozenset[str]
    ) -> list[int]:
        """Indices of the non-quarantined stages the arc cache cannot serve."""
        cache = self._arc_cache
        cut_map = self._cut_map(active_clocks, open_gates)
        return [
            stage.index
            for stage in self.graph
            if stage.index not in self.quarantined
            and (stage.index, cut_map.get(stage.index, _NO_CUTS)) not in cache
        ]

    def _clock_open(
        self,
        dev: Transistor,
        active_clocks: frozenset[str] | None,
        open_gates: frozenset[str] = frozenset(),
    ) -> bool:
        """True if the device is cut: inactive clock or constant-low gate."""
        if dev.gate in open_gates and dev.kind is DeviceKind.ENH:
            return True
        return (
            active_clocks is not None
            and dev.gate not in active_clocks
            and self.netlist.is_clock(dev.gate)
        )

    def _cut_map(
        self, active_clocks: frozenset[str] | None, open_gates: frozenset[str]
    ) -> dict[int, frozenset[str]]:
        """Stage index -> member devices the sweep cuts (:meth:`_clock_open`).

        Stages that cut nothing are absent.  Every cut device is a gate
        load of an open gate or of an inactive clock, so the map is
        worked out once per sweep from those gate loads alone, and kept:
        it is structural.  The combinational sweep ``(None, ∅)`` cuts
        nothing and costs no work at all.
        """
        if active_clocks is None and not open_gates:
            return {}
        sweep = (active_clocks, open_gates)
        cut_map = self._cut_maps.get(sweep)
        if cut_map is None:
            netlist = self.netlist
            gates = set(open_gates)
            if active_clocks is not None:
                gates.update(
                    clock for clock in netlist.clocks
                    if clock not in active_clocks
                )
            stage_of = {
                name: stage.index
                for stage in self.graph
                for name in stage.device_names
            }
            cut: dict[int, set[str]] = {}
            for gate in gates:
                for dev in netlist.iter_gate_loads(gate):
                    if self._clock_open(dev, active_clocks, open_gates):
                        cut.setdefault(stage_of[dev.name], set()).add(dev.name)
            cut_map = {index: frozenset(names) for index, names in cut.items()}
            self._cut_maps[sweep] = cut_map
        return cut_map

    # ------------------------------------------------------------------
    # Arc families.
    # ------------------------------------------------------------------
    def _gate_arcs(self, ctx: StageContext):
        """Ordinary logic arcs: a gate input switches, an output moves."""
        stage = ctx.stage
        pulled_up = ctx.pulled_up
        fall_adjacency = ctx.conduction_adjacency(FALL)
        rise_adjacency = ctx.pass_adjacency(RISE)

        # Triggers: external gate inputs, plus *stage outputs* gating member
        # devices -- pass networks can merge a gate's input and output into
        # one channel-connected stage (a mux reading two gate outputs), and
        # such internal-but-visible nodes carry their own arrivals.  Purely
        # internal gates (tied load gates, anonymous feedback) stay out.
        triggers = {
            dev.gate: None
            for dev in ctx.devices
            if dev.kind is DeviceKind.ENH
            and (dev.gate not in stage.nodes or dev.gate in stage.outputs)
            and not self._is_precharge(dev)
            and not ctx.clock_open(dev)
        }
        arcs = []
        for output in stage.outputs:
            # One enumeration serves every trigger: the DFS records, for
            # each gate appearing on a discharge path, the worst path that
            # includes a device it gates.
            fall_by_gate = self._worst_fall_by_gate(output, fall_adjacency)
            rise = self._rise_via_pullup(output, pulled_up, rise_adjacency)
            for trigger in triggers:
                fall = fall_by_gate.get(trigger)
                if fall is None:
                    # In ratioed logic a gate input influences an output
                    # only through a discharge path: the same pull-down
                    # whose turn-off lets the load raise the node.  No
                    # discharge path (under flow + one-hot constraints)
                    # means no arc -- attaching the trigger-independent
                    # rise here would fabricate couplings, e.g. between
                    # unrelated register-file cells sharing a bitline.
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=trigger,
                        via="gate",
                        output=output,
                        inverting=True,
                        rise=rise,
                        fall=fall,
                    )
                )
        return arcs

    def _worst_fall_by_gate(
        self, output: str, adjacency: dict
    ) -> dict[str, ArcTiming]:
        """Worst discharge path per triggering gate, in one enumeration.

        Walks the one-hot-consistent simple paths from ``output`` to gnd
        once, depth first in adjacency order, and for every gate node
        appearing on a path keeps the maximum-resistance path through one
        of its devices (the first such path on ties).  Equivalent to
        running :meth:`_worst_path` with ``must_include`` per trigger, at
        a fraction of the cost on wide stages.  The walk counts the
        devices each gate has on the current path, so a path reaching gnd
        costs one comparison per distinct gate on it, and is copied only
        when it improves some gate's worst path.  After ``max_paths``
        paths the walk stops and every timing is marked ``truncated``.
        """
        if output not in adjacency:
            return {}
        gnd = self.netlist.gnd
        max_paths = self.max_paths
        best: dict[str, tuple[float, list]] = {}
        # gate -> number of devices it gates on the current path.
        on_path: dict[str, int] = {}
        path: list[tuple[str, str, float, str]] = []
        visited = {output}
        groups_used: dict[int, str] = {}
        found = 0
        truncated = False

        def dfs(node: str, r_sum: float) -> None:
            nonlocal found, truncated
            if found >= max_paths:
                truncated = True
                return
            if node == gnd:
                found += 1
                copied = None
                for gate in on_path:
                    incumbent = best.get(gate)
                    if incumbent is None or r_sum > incumbent[0]:
                        if copied is None:
                            copied = list(path)
                        best[gate] = (r_sum, copied)
                return
            for (
                neighbor,
                r,
                name,
                gate,
                group,
                _in_ok,
                _out_ok,
                neighbor_boundary,
            ) in adjacency.get(node, ()):
                if neighbor in visited:
                    continue
                if neighbor_boundary and neighbor != gnd:
                    continue
                if group is not None:
                    used = groups_used.get(group)
                    if used is not None and used != gate:
                        continue
                    fresh_group = used is None
                    if fresh_group:
                        groups_used[group] = gate
                else:
                    fresh_group = False
                visited.add(neighbor)
                path.append((node, neighbor, r, name))
                on_path[gate] = on_path.get(gate, 0) + 1
                dfs(neighbor, r_sum + r)
                left = on_path[gate] - 1
                if left:
                    on_path[gate] = left
                else:
                    del on_path[gate]
                path.pop()
                visited.discard(neighbor)
                if fresh_group:
                    del groups_used[group]

        dfs(output, 0.0)
        result: dict[str, ArcTiming] = {}
        timing_cache: dict[int, ArcTiming] = {}
        for gate, (_r, path_edges) in best.items():
            key = id(path_edges)
            timing = timing_cache.get(key)
            if timing is None:
                spine = [
                    (b, a, r, name)
                    for (a, b, r, name) in reversed(path_edges)
                ]
                timing = self._timing_from_spine(
                    spine, output, adjacency=adjacency, transition=FALL
                )
                if truncated and not timing.truncated:
                    timing = _mark_truncated(timing)
                timing_cache[key] = timing
            result[gate] = timing
        return result

    def _clocked_switch_arcs(self, ctx: StageContext):
        """Clock-gated pass switches: clock rise lets data through.

        The arc trigger is the clock; the output follows the data side, so
        both transitions exist and the arc is non-inverting.
        """
        stage = ctx.stage
        arcs = []
        rise_adjacency = ctx.pass_adjacency(RISE)
        fall_adjacency = ctx.pass_adjacency(FALL)
        for dev in ctx.devices:
            if dev.kind is not DeviceKind.ENH:
                continue
            if not self.netlist.is_clock(dev.gate):
                continue
            if self._is_precharge(dev):
                continue
            if ctx.clock_open(dev):
                continue
            source_side = self._driving_terminal(dev)
            if source_side is None:
                continue
            receiving = dev.other_channel(source_side)
            for output in stage.outputs | ({receiving} & stage.nodes):
                rise = self._worst_tree_delay(
                    start=output,
                    targets={source_side},
                    must_include={dev.name},
                    adjacency=rise_adjacency,
                    transition=RISE,
                )
                fall = self._worst_tree_delay(
                    start=output,
                    targets={source_side},
                    must_include={dev.name},
                    adjacency=fall_adjacency,
                    transition=FALL,
                )
                if rise is None and fall is None:
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=dev.gate,
                        via="gate",
                        output=output,
                        inverting=False,
                        rise=rise,
                        fall=fall,
                    )
                )
        return arcs

    def _precharge_arcs(self, ctx: StageContext):
        """Clock-gated precharge devices: clock rise charges the node.

        Precharge devices sharing one clock conduct *simultaneously*, so a
        node with its own precharger never waits on a neighbour's: cross
        arcs are generated only toward outputs without a same-clock
        precharger, along paths that do not run through other same-clock
        precharged nodes (their own devices shunt any longer path).
        """
        stage = ctx.stage
        arcs = []
        pass_rise = ctx.pass_edges(RISE)
        for dev in ctx.devices:
            if not self._is_precharge(dev):
                continue
            if ctx.clock_open(dev):
                continue
            node = (
                dev.source if dev.drain == self.netlist.vdd else dev.drain
            )
            siblings = {
                (d.source if d.drain == self.netlist.vdd else d.drain)
                for d in ctx.devices
                if self._is_precharge(d)
                and d.gate == dev.gate
                and d.name != dev.name
            }
            if siblings:
                filtered_adjacency = self._build_adjacency([
                    e
                    for e in pass_rise
                    if e[0] not in siblings and e[1] not in siblings
                ])
            else:
                filtered_adjacency = ctx.pass_adjacency(RISE)
            r_pre = device_resistance(self.tech, dev, "precharge", RISE)
            outputs = stage.outputs | ({node} & stage.nodes)
            for output in outputs:
                if output != node and output in siblings:
                    continue  # it has its own (parallel) precharger
                if output == node:
                    spine = [(self.netlist.vdd, node, r_pre, dev.name)]
                else:
                    tail = self._worst_path(
                        start=output,
                        targets={node},
                        must_include=set(),
                        adjacency=filtered_adjacency,
                    )
                    if tail is None:
                        continue
                    path_edges, _ = tail
                    spine = [(self.netlist.vdd, node, r_pre, dev.name)]
                    spine.extend(
                        (b, a, r, name)
                        for (a, b, r, name) in reversed(path_edges)
                    )
                timing = self._timing_from_spine(
                    spine,
                    output,
                    adjacency=ctx.conduction_adjacency(RISE),
                    transition=RISE,
                )
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=dev.gate,
                        via="gate",
                        output=output,
                        inverting=False,
                        rise=timing,
                        fall=None,
                    )
                )
        return arcs

    def _follower_arcs(self, ctx: StageContext):
        """Gated depletion followers (superbuffer output stages).

        A depletion device with its channel to vdd and its gate driven by a
        signal (not tied) charges its source when the gate rises: a
        non-inverting rise-only arc from the gate.
        """
        stage = ctx.stage
        arcs = []
        rise_adjacency = ctx.pass_adjacency(RISE)
        for dev in ctx.devices:
            if dev.kind is not DeviceKind.DEP or dev.is_load:
                continue
            if self.netlist.vdd not in dev.channel_nodes:
                continue
            node = dev.other_channel(self.netlist.vdd)
            r_up = device_resistance(self.tech, dev, "pullup", RISE)
            for output in stage.outputs | ({node} & stage.nodes):
                if output == node:
                    spine = [(self.netlist.vdd, node, r_up, dev.name)]
                else:
                    tail = self._worst_path(
                        start=output,
                        targets={node},
                        must_include=set(),
                        adjacency=rise_adjacency,
                    )
                    if tail is None:
                        continue
                    path_edges, _ = tail
                    spine = [(self.netlist.vdd, node, r_up, dev.name)]
                    spine.extend(
                        (b, a, r, name)
                        for (a, b, r, name) in reversed(path_edges)
                    )
                timing = self._timing_from_spine(
                    spine, output, adjacency=rise_adjacency, transition=RISE
                )
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=dev.gate,
                        via="gate",
                        output=output,
                        inverting=False,
                        rise=timing,
                        fall=None,
                    )
                )
        return arcs

    def _select_arcs(self, ctx: StageContext):
        """Pass-select arcs: a switch's *gate* re-routes the output.

        When a mux/shifter select rises, the output is newly connected to
        its source and transitions toward the source's value -- a timing
        path triggered by the select, not the source.  The arc's delay is
        the worst transfer from any driving point (boundary injector or
        pulled-up node) to the output through a path that includes a device
        the select gates.  Non-inverting, both transitions (select fall is
        a disconnect and launches nothing; charging it too is a small,
        stated pessimism of the arc model).
        """
        stage = ctx.stage
        vdd = self.netlist.vdd
        gnd = self.netlist.gnd
        pass_devices = [
            d
            for d in ctx.devices
            if d.kind is DeviceKind.ENH
            and d.source != vdd
            and d.source != gnd
            and d.drain != vdd
            and d.drain != gnd
            and not self.netlist.is_clock(d.gate)
            and not ctx.clock_open(d)
            and (d.gate not in stage.nodes or d.gate in stage.outputs)
        ]
        if not pass_devices:
            return []
        rise_adjacency = ctx.pass_adjacency(RISE)
        fall_adjacency = ctx.pass_adjacency(FALL)
        pulled_up = ctx.pulled_up
        targets = set(pulled_up)
        for boundary in stage.boundary:
            if not self.netlist.is_rail(boundary):
                targets.add(boundary)
        if not targets:
            return []

        arcs = []
        triggers: dict[str, set[str]] = {}
        for dev in pass_devices:
            triggers.setdefault(dev.gate, set()).add(dev.name)
        for trigger, gated in triggers.items():
            for output in stage.outputs:
                if output == trigger:
                    continue
                rise = self._worst_tree_delay(
                    start=output,
                    targets=targets,
                    must_include=gated,
                    adjacency=rise_adjacency,
                    transition=RISE,
                )
                fall = self._worst_tree_delay(
                    start=output,
                    targets=targets,
                    must_include=gated,
                    adjacency=fall_adjacency,
                    transition=FALL,
                )
                if rise is None and fall is None:
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=trigger,
                        via="gate",
                        output=output,
                        inverting=False,
                        rise=rise,
                        fall=fall,
                    )
                )
        return arcs

    def _channel_arcs(self, ctx: StageContext):
        """Signal injected at an externally driven boundary channel node."""
        stage = ctx.stage
        arcs = []
        rise_adjacency = ctx.pass_adjacency(RISE)
        fall_adjacency = ctx.pass_adjacency(FALL)
        for boundary in stage.boundary:
            if self.netlist.is_rail(boundary):
                continue
            flows_in = any(
                dev.flows_into(dev.other_channel(boundary))
                or dev.flows_out_of(boundary)
                for dev in self.netlist.channel_devices(boundary)
                if dev.name in set(stage.device_names)
            )
            if not flows_in:
                continue
            for output in stage.outputs:
                rise = self._worst_tree_delay(
                    start=output,
                    targets={boundary},
                    must_include=set(),
                    adjacency=rise_adjacency,
                    transition=RISE,
                )
                fall = self._worst_tree_delay(
                    start=output,
                    targets={boundary},
                    must_include=set(),
                    adjacency=fall_adjacency,
                    transition=FALL,
                )
                if rise is None and fall is None:
                    continue
                arcs.append(
                    StageArc(
                        stage_index=stage.index,
                        trigger=boundary,
                        via="channel",
                        output=output,
                        inverting=False,
                        rise=rise,
                        fall=fall,
                    )
                )
        return arcs

    # ------------------------------------------------------------------
    # Conduction-edge construction.
    # ------------------------------------------------------------------
    def _is_precharge(self, dev: Transistor) -> bool:
        vdd = self.netlist.vdd
        return (
            dev.kind is DeviceKind.ENH
            and (dev.source == vdd or dev.drain == vdd)
            and self.netlist.is_clock(dev.gate)
        )

    def _pulled_up_nodes(
        self, stage: Stage, devices: list[Transistor]
    ) -> dict[str, float]:
        """Stage nodes with depletion pull-ups -> combined resistance.

        Includes both tied-gate loads and gated depletion followers
        (superbuffer output stages): for worst-case rise both act as the
        charging resistance from vdd.
        """
        result: dict[str, float] = {}
        for dev in devices:
            if dev.kind is not DeviceKind.DEP:
                continue
            if self.netlist.vdd not in dev.channel_nodes:
                continue
            node = dev.other_channel(self.netlist.vdd)
            if node not in stage.nodes:
                continue
            r = device_resistance(self.tech, dev, "pullup", RISE)
            if node in result:
                # Parallel loads combine.
                result[node] = 1.0 / (1.0 / result[node] + 1.0 / r)
            else:
                result[node] = r
        return result

    def _conduction_edges(
        self,
        stage: Stage,
        devices: list[Transistor],
        transition: str,
        cut: frozenset[str],
    ) -> list[tuple[str, str, float, str]]:
        """Resistive edges usable on a discharge path (pulldowns + passes)."""
        edges = []
        vdd = self.netlist.vdd
        gnd = self.netlist.gnd
        for dev in devices:
            if dev.kind is not DeviceKind.ENH:
                continue
            source = dev.source
            drain = dev.drain
            if source == vdd or drain == vdd:
                continue  # precharge / vdd switches never discharge
            if dev.name in cut:
                continue
            if source == gnd or drain == gnd:
                r = device_resistance(self.tech, dev, "pulldown", transition)
            else:
                r = device_resistance(self.tech, dev, "pass", transition)
            edges.append((source, drain, r, dev.name))
        return edges

    def _pass_edges(
        self,
        stage: Stage,
        devices: list[Transistor],
        transition: str,
        cut: frozenset[str],
    ) -> list[tuple[str, str, float, str]]:
        """Resistive edges of the pass network only (no rail terminals)."""
        edges = []
        vdd = self.netlist.vdd
        gnd = self.netlist.gnd
        for dev in devices:
            if dev.kind is not DeviceKind.ENH:
                continue
            source = dev.source
            drain = dev.drain
            if source == vdd or source == gnd or drain == vdd or drain == gnd:
                continue
            if dev.name in cut:
                continue
            r = device_resistance(self.tech, dev, "pass", transition)
            edges.append((source, drain, r, dev.name))
        return edges

    # ------------------------------------------------------------------
    # Path search and RC evaluation.
    # ------------------------------------------------------------------
    def _device_fact_map(self) -> dict[str, tuple]:
        """Per-device facts needed by adjacency construction, cached.

        Maps each device name to ``(gate, group, source, out_of_source,
        out_of_drain, source_is_boundary, drain_is_boundary)``.  Built once
        per calculator and kept across :meth:`invalidate_devices` (no fact
        depends on a device's dimensions), so the flow/one-hot/boundary
        lookups run once per device instead of once per (stage,
        transition, edge).
        """
        facts = self._device_facts
        if facts is None:
            netlist = self.netlist
            boundary = {netlist.vdd, netlist.gnd}
            boundary.update(netlist.inputs)
            boundary.update(netlist.clocks)
            exclusive_group_of = netlist.exclusive_group_of
            facts = {}
            for name, dev in netlist.devices.items():
                unknown = dev.flow is FlowDirection.UNKNOWN
                facts[name] = (
                    dev.gate,
                    exclusive_group_of(dev.gate),
                    dev.source,
                    unknown or dev.flows_out_of(dev.source),
                    unknown or dev.flows_out_of(dev.drain),
                    dev.source in boundary,
                    dev.drain in boundary,
                )
            self._device_facts = facts
        return facts

    def _build_adjacency(
        self, edges: list[tuple[str, str, float, str]]
    ) -> dict[str, list[tuple]]:
        """Adjacency map with per-hop device facts pre-resolved.

        Each directed hop ``node -> neighbor`` is an 8-tuple
        ``(neighbor, r, name, gate, group, in_ok, out_ok, neighbor_is_boundary)``
        where ``in_ok`` means the device can carry signal ``neighbor ->
        node`` (the backward path searches) and ``out_ok`` means it can
        carry ``node -> neighbor`` (the branch BFS).  Resolving the device,
        its one-hot group, its flow legality, and the boundary test here --
        once per (stage, transition) -- removes four dict/method lookups
        per visited edge from every DFS/BFS inner loop.

        Every edge tuple is built as ``(source, drain, r, name)``, so the
        cached per-device facts apply directly (swapped when the device is
        walked drain-first).
        """
        facts = self._device_fact_map()
        adjacency: dict[str, list[tuple]] = {}
        for a, b, r, name in edges:
            gate, group, source, out_s, out_d, s_bnd, d_bnd = facts[name]
            if a == source:
                out_of_a, out_of_b = out_s, out_d
                a_boundary, b_boundary = s_bnd, d_bnd
            else:
                out_of_a, out_of_b = out_d, out_s
                a_boundary, b_boundary = d_bnd, s_bnd
            adjacency.setdefault(a, []).append(
                (b, r, name, gate, group, out_of_b, out_of_a, b_boundary)
            )
            adjacency.setdefault(b, []).append(
                (a, r, name, gate, group, out_of_a, out_of_b, a_boundary)
            )
        return adjacency

    def _worst_path(
        self,
        start: str,
        targets: set[str],
        must_include: set[str],
        adjacency: dict,
    ) -> tuple[list[tuple[str, str, float, str]], bool] | None:
        """Maximum-resistance flow-consistent path from ``start`` to a target.

        ``adjacency`` is a :meth:`_build_adjacency` map of the usable
        edges; the path must use at least one device from
        ``must_include`` (if non-empty).  The search walks
        *backward* from the measured output toward the driving point, so a
        hop from ``node`` to ``neighbor`` requires the device to conduct
        signal ``neighbor -> node``; this is what prevents physically
        meaningless paths that snake against the inferred signal flow.
        One-hot assertions (:meth:`Netlist.add_exclusive_group`) prune
        paths that would need two mutually exclusive switches closed.

        Returns the edge list ``(a, b, r, device_name)`` ordered from
        ``start`` toward the target and a truncation flag, or None if no
        qualifying path exists.
        """
        if start not in adjacency:
            return None

        best: list[tuple[str, str, float, str]] | None = None
        best_r = -1.0
        examined = 0
        truncated = False
        path: list[tuple[str, str, float, str]] = []
        visited = {start}
        groups_used: dict[int, str] = {}

        def dfs(node: str, r_sum: float, included: bool) -> None:
            nonlocal best, best_r, examined, truncated
            if examined >= self.max_paths:
                truncated = True
                return
            if node in targets:
                examined += 1
                if (included or not must_include) and r_sum > best_r:
                    best_r = r_sum
                    best = list(path)
                return
            for (
                neighbor,
                r,
                name,
                gate,
                group,
                in_ok,
                _out_ok,
                neighbor_boundary,
            ) in adjacency.get(node, ()):
                if neighbor in visited:
                    continue
                if neighbor_boundary and neighbor not in targets:
                    continue
                if not in_ok:
                    continue
                if group is not None:
                    used = groups_used.get(group)
                    if used is not None and used != gate:
                        continue
                    fresh_group = used is None
                    if fresh_group:
                        groups_used[group] = gate
                else:
                    fresh_group = False
                visited.add(neighbor)
                path.append((node, neighbor, r, name))
                dfs(neighbor, r_sum + r, included or name in must_include)
                path.pop()
                visited.discard(neighbor)
                if fresh_group:
                    del groups_used[group]

        dfs(start, 0.0, False)
        if best is None:
            return None
        return best, truncated

    def _worst_tree_delay(
        self,
        start: str,
        targets: set[str],
        must_include: set[str],
        *,
        adjacency: dict,
        transition: str,
    ) -> ArcTiming | None:
        """Worst path from ``start`` back to a target, evaluated as a tree.

        The tree root is the reached target (the driving point, i.e. the
        first node of the reversed spine); the path is the spine, and every
        other conducting edge hangs capacitive branches.  ``transition``
        names the edge set's transition for parametric term building.
        """
        found = self._worst_path(start, targets, must_include, adjacency)
        if found is None:
            return None
        path_edges, truncated = found
        # path_edges run start -> target; the spine must run root -> start.
        spine = [
            (b, a, r, name) for (a, b, r, name) in reversed(path_edges)
        ]
        timing = self._timing_from_spine(
            spine, start, adjacency=adjacency, transition=transition
        )
        if truncated and not timing.truncated:
            timing = _mark_truncated(timing)
        return timing

    def _spine_groups(
        self, spine: list[tuple[str, str, float, str]]
    ) -> dict[int, str]:
        """One-hot groups asserted by the gates of the spine devices."""
        spine_groups: dict[int, str] = {}
        devices = self.netlist.devices
        exclusive_group_of = self.netlist.exclusive_group_of
        for _p, _c, _r, name in spine:
            dev = devices.get(name)
            if dev is not None:
                group = exclusive_group_of(dev.gate)
                if group is not None:
                    spine_groups[group] = dev.gate
        return spine_groups

    def _edge_recipe(
        self, parent: str, child: str, name: str, transition: str
    ) -> tuple:
        """Symbolic atom reproducing one spine edge's resistance.

        Derived structurally, mirroring how the edge builders assign
        roles: a synthetic ``load@node`` head is the pull-up combine; a
        real device from vdd is a follower pull-up (DEP) or precharge
        (ENH); a rail-touching enhancement device is a pulldown; all
        other edges are pass transfers (conduction and pass edge lists
        both exclude the remaining cases).
        """
        dev = self.netlist.devices.get(name)
        if dev is None:
            # _rise_via_pullup's synthetic "load@node" head.
            return ("load", child)
        vdd = self.netlist.vdd
        if parent == vdd:
            if dev.kind is DeviceKind.DEP:
                return ("res", name, "pullup", RISE)
            return ("res", name, "precharge", RISE)
        if self.netlist.gnd in (dev.source, dev.drain):
            return ("res", name, "pulldown", transition)
        return ("res", name, "pass", transition)

    def _timing_from_spine(
        self,
        spine: list[tuple[str, str, float, str]],
        output: str,
        *,
        adjacency: dict,
        transition: str,
    ) -> ArcTiming:
        """Evaluate the configured delay metric for a spine's RC tree.

        The spine is the resistive path from the driving point (``root``,
        the first spine node) to ``output``; every other conducting edge
        of ``adjacency`` hangs a capacitive branch.  Branch traversal
        follows signal flow outward from the spine, never crosses rails
        or boundary nodes (incompressible sources), and honours one-hot
        assertions against the gates used on the spine.

        For the default Elmore model the metric is folded into the tree
        walk itself (no tree object): every spine node lies on the
        root-to-``output`` path so it contributes ``r_root * C``, and every
        branch node shares exactly what its attachment point shares.  The
        accumulation visits nodes in the same order as the explicit
        :class:`RCTree` path below, so the two produce bit-identical
        delays.

        With ``self.parametric`` set, the walk additionally records a
        replayable term (``transition`` is the transition of the edge
        set the spine came from): the spine
        resistances as symbolic atoms (:meth:`_edge_recipe`) and every
        visited node's prefix index, in visit order, so
        :mod:`repro.delay.parametric` can re-run the identical
        arithmetic at any technology point.
        """
        if self.model != "elmore":
            return self._timing_from_spine_tree(spine, output, adjacency)
        build_term = self.parametric
        root = spine[0][0]
        node_cap = self._node_cap
        used_devices = []
        r_root = 0.0
        # shared[k] = resistance common to the root->k and root->output
        # paths; doubles as the visited set.
        shared: dict[str, float] = {root: 0.0}
        tau = 0.0
        if build_term:
            recipes = []
            contribs = []
            # idx_of[k]: index into the replayed prefix-resistance list
            # whose entry equals shared[k] (root is prefix 0).
            idx_of = {root: 0}
        for _parent, child, r, name in spine:
            r_root += r
            shared[child] = r_root
            if build_term:
                recipes.append(
                    self._edge_recipe(_parent, child, name, transition)
                )
                idx_of[child] = len(recipes)
                contribs.append((len(recipes), child))
            cap = node_cap(child)
            if cap != 0.0:
                tau += r_root * cap
            used_devices.append(name)
        r_output = r_root

        spine_groups = self._spine_groups(spine)
        frontier = deque(child for _p, child, _r, _n in spine)
        while frontier:
            current = frontier.popleft()
            current_shared = shared[current]
            for (
                neighbor,
                _r,
                _name,
                gate,
                group,
                _in_ok,
                out_ok,
                neighbor_boundary,
            ) in adjacency.get(current, ()):
                if neighbor in shared or neighbor_boundary:
                    continue
                if not out_ok:
                    continue
                if group is not None and spine_groups.get(group, gate) != gate:
                    continue
                shared[neighbor] = current_shared
                if build_term:
                    idx = idx_of[current]
                    idx_of[neighbor] = idx
                    contribs.append((idx, neighbor))
                cap = node_cap(neighbor)
                if cap != 0.0:
                    tau += current_shared * cap
                frontier.append(neighbor)

        k = self._k_factor(root)
        if root == self.netlist.gnd:
            # Ratioed fight: see _timing_from_spine_tree.
            k *= self._ratio_derate(output, r_output)
        path = tuple(used_devices)
        term = None
        if build_term:
            term = (
                "spine",
                tuple(recipes),
                tuple(contribs),
                root,
                output,
                path,
                False,
            )
        return ArcTiming(delay=k * tau, tau=tau, path=path, term=term)

    def _timing_from_spine_tree(
        self,
        spine: list[tuple[str, str, float, str]],
        output: str,
        adjacency: dict,
    ) -> ArcTiming:
        """General-model path: build the RC tree explicitly, then evaluate."""
        root = spine[0][0]
        tree = RCTree(root)
        used_devices = []
        for parent, child, r, name in spine:
            tree.add_child(parent, child, r, self._node_cap(child))
            used_devices.append(name)

        spine_groups = self._spine_groups(spine)
        frontier = deque(child for _p, child, _r, _n in spine)
        while frontier:
            current = frontier.popleft()
            for (
                neighbor,
                r,
                name,
                gate,
                group,
                _in_ok,
                out_ok,
                neighbor_boundary,
            ) in adjacency.get(current, ()):
                if neighbor in tree or neighbor_boundary:
                    continue
                if not out_ok:
                    continue
                if group is not None and spine_groups.get(group, gate) != gate:
                    continue
                tree.add_child(current, neighbor, r, self._node_cap(neighbor))
                frontier.append(neighbor)

        tau = elmore_delay(tree, output)
        k = self._k_factor(root)
        if root == self.netlist.gnd:
            # Ratioed fight: the depletion pull-up keeps sourcing current
            # while the pull-down path discharges the node, stretching the
            # fall.  First-order factor R_up / (R_up - R_down), clamped --
            # a legal ratio guarantees R_up >> R_down, and ERC catches the
            # rest.
            k *= self._ratio_derate(output, tree.r_root(output))
        if self.model == "elmore":
            delay = k * tau
        elif self.model == "lumped":
            delay = k * lumped_delay(tree, output)
        elif self.model == "pr-min":
            delay = pr_bounds(tree, output, _CROSSING).lower * (
                k / math.log(2.0)
            )
        else:  # pr-max
            delay = pr_bounds(tree, output, _CROSSING).upper * (
                k / math.log(2.0)
            )
        return ArcTiming(delay=delay, tau=tau, path=tuple(used_devices))

    def _ratio_derate(self, output: str, r_down: float) -> float:
        """Fall-delay stretch from the pull-up fighting the discharge."""
        r_up = None
        for dev in self.netlist.channel_devices(output):
            if dev.kind is not DeviceKind.DEP:
                continue
            if dev.other_channel(output) != self.netlist.vdd:
                continue
            r = device_resistance(self.tech, dev, "pullup", RISE)
            r_up = r if r_up is None else 1.0 / (1.0 / r_up + 1.0 / r)
        if r_up is None or r_up <= r_down:
            return 1.5 if r_up is not None else 1.0
        return min(1.5, r_up / (r_up - r_down))

    def _k_factor(self, root: str) -> float:
        """Calibration factor: rising transitions (from vdd) are slower."""
        if root == self.netlist.vdd:
            return self.tech.k_rise
        if root == self.netlist.gnd:
            return self.tech.k_fall
        # Pass transfer from a driven node: between the two; use rise factor
        # (the conservative choice).
        return self.tech.k_rise

    def _node_cap(self, name: str) -> float:
        cached = self._cap_cache.get(name)
        if cached is None:
            if self.netlist.is_rail(name):
                cached = 0.0  # rails are incompressible sources
            else:
                cached = self.netlist.node_capacitance(name, self.tech)
            self._cap_cache[name] = cached
        return cached

    def _rise_via_pullup(
        self, output: str, pulled_up: dict[str, float], adjacency: dict
    ) -> ArcTiming | None:
        """Worst rise of ``output``: vdd -> load -> pass path -> output."""
        best: ArcTiming | None = None
        for node, r_load in pulled_up.items():
            if node == output:
                spine = [(self.netlist.vdd, node, r_load, f"load@{node}")]
            else:
                tail = self._worst_path(
                    start=output,
                    targets={node},
                    must_include=set(),
                    adjacency=adjacency,
                )
                if tail is None:
                    continue
                path_edges, _trunc = tail
                spine = [(self.netlist.vdd, node, r_load, f"load@{node}")]
                spine.extend(
                    (b, a, r, name) for (a, b, r, name) in reversed(path_edges)
                )
            timing = self._timing_from_spine(
                spine, output, adjacency=adjacency, transition=RISE
            )
            # _worse keeps the incumbent on ties, exactly like the
            # strict `>` comparison this replaces, and wraps the terms
            # in a "max" node so corners re-decide the winner.
            best = timing if best is None else _worse(best, timing)
        return best

    def _driving_terminal(self, dev: Transistor) -> str | None:
        """The channel terminal signal flows out of (None if unresolved)."""
        if dev.flows_out_of(dev.source) and not dev.flows_out_of(dev.drain):
            return dev.source
        if dev.flows_out_of(dev.drain) and not dev.flows_out_of(dev.source):
            return dev.drain
        # Bidirectional: pick the terminal that looks driven (pull-up or
        # boundary); fall back to the source.
        for terminal in dev.channel_nodes:
            if self.netlist.is_boundary(terminal) or self.netlist.has_pullup(
                terminal
            ):
                return terminal
        return dev.source


def _merge_arcs(arcs: list[StageArc]) -> list[StageArc]:
    """Deduplicate arcs by (trigger, output, inverting), keeping worst."""
    merged: dict[tuple[str, str, bool], StageArc] = {}
    for arc in arcs:
        key = (arc.trigger, arc.output, arc.inverting)
        existing = merged.get(key)
        if existing is None:
            merged[key] = arc
            continue
        merged[key] = StageArc(
            stage_index=arc.stage_index,
            trigger=arc.trigger,
            via="gate" if "gate" in (arc.via, existing.via) else arc.via,
            output=arc.output,
            inverting=arc.inverting,
            rise=_worse(existing.rise, arc.rise),
            fall=_worse(existing.fall, arc.fall),
        )
    return list(merged.values())


def _worse(a: ArcTiming | None, b: ArcTiming | None) -> ArcTiming | None:
    if a is None:
        return b
    if b is None:
        return a
    winner = a if a.delay >= b.delay else b
    if a.term is not None and b.term is not None and a.term is not b.term:
        # Parametric mode: record the contest, not just today's winner --
        # another corner may decide it the other way.  The incumbent
        # (a) goes first so evaluation replays the same tie rule.
        return replace(winner, term=("max", a.term, b.term))
    return winner


def _mark_truncated(timing: ArcTiming) -> ArcTiming:
    """Set ``truncated`` on a timing and inside its spine term, if any."""
    term = timing.term
    if term is not None and term[0] == "spine":
        term = term[:6] + (True,)
        return replace(timing, truncated=True, term=term)
    return replace(timing, truncated=True)
