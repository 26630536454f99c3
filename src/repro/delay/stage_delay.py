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

One path search and one branch walk serve every arc family and delay
model.  The search (:meth:`StageDelayCalculator._worst_paths`) walks once
from an output back to its driving points and keeps the first
maximum-resistance path overall, per gate, or per device, so one walk
times a discharge or a pass select for every trigger at once.  The
branch walk (:meth:`StageDelayCalculator._timing_from_spine`) hangs the
other conducting devices on that path and evaluates the RC tree under
every model.  Path enumeration is exact up to ``max_paths`` simple paths
per search; if the cap is hit the arc is marked ``truncated`` (never
silently).  The search is a depth-first walk in adjacency order, so
which paths a truncated arc saw -- and hence its delay -- follows that
order.

A corner is never extracted.  Extraction with ``terms=True`` also
records each timing as a replayable term (:mod:`repro.delay.parametric`)
under every model, naming each resistance by the atom its edge record
carries.  A corner clone evaluates the term-carrying arcs of its term
source, the host calculator, whose one list per ``(stage index, cut
set)`` serves concrete and corner callers alike (see :meth:`arcs`).

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

A capped path search is the costliest search, and renamed copies of one
structure repeat it: read from an annotation-free ``.sim``, each of the
16 outputs of the benchmark datapath's barrel shifter walks 4,096 paths.
So an adjacency map remembers each search on it that hits the cap,
under the search's rooted shape (:func:`_rooted_shape`), and serves a
later search of equal shape from that memo
(:meth:`StageDelayCalculator._worst_paths`).  The shape holds everything
the depth-first walk reads, up to a renaming of nodes and keys, so a
served result is exactly the one the walk would find.  A map no search
has capped builds no shape, and the memo dies with its context.

Extraction is organized around a per-stage :class:`StageContext` that
computes the conduction edge lists (the pass network is their part off
the rails) and their adjacency maps **once** per ``(stage, cut set)``
and shares them across all six arc-family extractors; adjacency entries
pre-resolve the per-device lookups (gate, one-hot group, flow legality,
boundary-ness) so the path-search inner loops run on plain tuples.
Because stages are channel-connected components they are independent, and
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

#: What :meth:`StageDelayCalculator._worst_paths` keeps a worst path per:
#: the hop field (see :meth:`StageDelayCalculator._build_adjacency`) of
#: each device, or of each gate, on the path.
_BY_DEVICE = 2
_BY_GATE = 3


#: Monotonic identity for calculators; with the invalidation epoch it
#: tells the persistent pool whether its forked snapshot is still valid.
_CALC_TOKENS = itertools.count(1)


@dataclass(frozen=True, slots=True)
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
    default) in concrete mode; populated when the stage is extracted
    with ``terms=True``.
    """

    delay: float
    tau: float
    path: tuple[str, ...] = ()
    truncated: bool = False
    term: tuple | None = None


@dataclass(frozen=True, slots=True)
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


class _Adjacency(dict):
    """A :meth:`StageDelayCalculator._build_adjacency` map, node -> hops.

    ``memo`` stays None until a path search on the map hits
    ``max_paths``, and then holds each capped search's result
    (:meth:`StageDelayCalculator._worst_paths`).  It dies with the map,
    so with its :class:`StageContext`.
    """

    memo: dict | None = None


class StageContext:
    """Shared per-stage extraction state.

    Holds everything the six arc-family extractors need about one
    ``(stage, cut set)`` combination, computed lazily and exactly once:
    resolved member devices, conduction edge lists per transition,
    the conduction and pass adjacency maps (with per-hop device facts
    pre-resolved), and the pulled-up node table.

    ``cut`` names the member devices the sweep cuts (see
    :meth:`StageDelayCalculator._cut_map`).  It is the context's only
    view of the sweep, so two sweeps that cut the same member devices
    build the same context and extract the same arcs.  ``terms`` says
    whether the extracted timings carry parametric terms.
    """

    __slots__ = (
        "calc",
        "stage",
        "devices",
        "cut",
        "terms",
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
        terms: bool = False,
    ):
        self.calc = calc
        self.stage = stage
        self.devices = calc.graph.devices_of(stage)
        self.cut = cut
        self.terms = terms
        self._cond: dict[str, list] = {}
        self._adj: dict[tuple[str, str], dict] = {}
        self._pulled: dict[str, float] | None = None
        self._pulled_set = False

    def clock_open(self, dev: Transistor) -> bool:
        """True if the device is cut in this context (see calculator)."""
        return dev.name in self.cut

    def pass_edges(self, transition: str) -> list:
        """Pass-network edges for a transition: the conduction edges
        that touch no rail, in their order."""
        gnd = self.calc.netlist.gnd
        return [
            edge
            for edge in self.conduction_edges(transition)
            if edge[0] != gnd and edge[1] != gnd
        ]

    def conduction_edges(self, transition: str) -> list:
        """Discharge-path edges for a transition (computed once)."""
        edges = self._cond.get(transition)
        if edges is None:
            edges = self.calc._conduction_edges(
                self.devices, transition, self.cut
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
        """Adjacency map of the conduction edges (computed once).

        A discharge path may run against the inferred flow, so every hop
        is searchable backward (``in_ok``); the branch walk still follows
        flow (``out_ok``).
        """
        key = ("cond", transition)
        adj = self._adj.get(key)
        if adj is None:
            adj = self.calc._build_adjacency(
                self.conduction_edges(transition), backward_flow=False
            )
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
        ``extract_pool_failures``) and the path-search counters
        ``capped_searches`` and ``search_memo_hits`` (see
        :meth:`_worst_paths`).
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
        #: The host calculator of a corner clone: :meth:`arcs` evaluates
        #: its term-carrying arcs at our tech instead of extracting, and
        #: :meth:`all_arcs` pre-fills its cache on the pool.
        self._term_source: "StageDelayCalculator | None" = None
        #: The run's :class:`~repro.delay.parametric.CornerBatch` while an
        #: MCMM run analyzes this corner: :meth:`all_arcs` evaluates terms
        #: for every waiting member at once.  None: a batch of one.
        self.batch = None

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def arcs(
        self,
        stage: Stage,
        active_clocks: frozenset[str] | None = None,
        open_gates: frozenset[str] = frozenset(),
        *,
        terms: bool = False,
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

        ``terms=True`` asks for timings that carry parametric terms
        (:mod:`repro.delay.parametric`), which cost time and memory a
        single-corner run has no use for.  One list is kept per key: a
        term-carrying list serves every caller, and a cached list
        without terms is re-extracted with them and replaced.
        """
        cut = self._cut_map(active_clocks, open_gates).get(
            stage.index, _NO_CUTS
        )
        cache_key = (stage.index, cut)
        cached = self._arc_cache.get(cache_key)
        if cached is not None and not (terms and _lacks_terms(cached)):
            return cached
        source = self._term_source
        if source is not None:
            # The source extracts (and caches) term-carrying arcs once;
            # this calculator instantiates them at its own parameter
            # point -- an evaluation pass, no path search.
            from .parametric import evaluate_arcs

            merged = evaluate_arcs(
                self,
                source.arcs(stage, active_clocks, open_gates, terms=True),
            )
            self.trace.incr("term_eval_passes")
            self.trace.incr("parametric_stage_evals")
        else:
            ctx = StageContext(self, stage, cut, terms)
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

        The clone gets a pool binding of its own, because a forked
        snapshot holds one technology.  A corner clone extracts nothing
        itself: its ``_term_source`` does, and the clone evaluates the
        terms at ``tech`` (see :mod:`repro.delay.parametric`).
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
        clone.quarantined = set(self.quarantined)
        clone.diagnostics = list(self.diagnostics)
        clone._device_facts = self._device_fact_map()
        clone._cut_maps = self._cut_maps
        clone._qualified_low = self._qualified_low
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
        the stages the extracting calculator's arc cache cannot serve
        clear the warm or cold floor.  A cold sweep weighs every device;
        the sweep after a small edit weighs only the invalidated stages,
        so it stays serial instead of re-forking the pool for them.
        ``workers`` may
        be an int or ``"auto"`` (width from
        :func:`~repro.delay.pool.auto_workers`); ``parallel=True`` forces
        the pool (bumping the width to at least 2); ``parallel=False``
        forces the serial path.  The decision is
        visible as the ``extract_parallel_sweeps`` /
        ``extract_serial_sweeps`` trace counters.  Stages are
        channel-connected components, hence independent, and results are
        merged in stage-index order -- the arc list is identical to the
        serial one.

        The pool only *pre-fills* the arc cache of the calculator that
        extracts -- the term source of a corner sibling, which extracts
        with terms, or this calculator itself -- and stops at this
        calculator's deadline.  A
        corner sibling's walk collects the source's arcs of the stages
        its cache cannot serve and, once over, evaluates them in one pass
        (``term_eval_passes``) for itself and every waiting member of its
        :attr:`batch`; a member's walk takes what a peer evaluated for it
        where it would have evaluated.  The deadline is checked per stage
        as the walk goes; the evaluation pass after it runs whole.  The
        serial walk is authoritative, so quarantine decisions are made
        here (never in a worker) and the result is deterministic
        regardless of pool failures.  A
        stage whose extraction raises is re-raised as a typed
        :class:`~repro.errors.ReproError` under the ``strict`` policy and
        quarantined (with a diagnostic) under ``quarantine``/
        ``best-effort``.
        """
        spec = (
            self.workers if workers is None else pool.validate_workers(workers)
        )
        resolved = pool.auto_workers() if spec == pool.WORKERS_AUTO else spec
        # A corner sibling's term source extracts (terms travel back
        # over the wire); the walk below evaluates them serially, which
        # is far too cheap to be worth pool traffic.
        source = self._term_source
        extractor = source or self
        terms = source is not None
        if parallel is None:
            use_pool = resolved > 1 and pool.parallel_crossover(
                sum(
                    len(self.graph[index].device_names)
                    for index in extractor._uncached(
                        active_clocks, open_gates, terms
                    )
                ),
                pool_warm=pool.warm_for(extractor),
            )
        else:
            use_pool = bool(parallel)
            if use_pool and resolved < 2:
                resolved = max(2, pool.available_cpus())
        self.trace.incr(
            "extract_parallel_sweeps" if use_pool else "extract_serial_sweeps"
        )
        cut_map = self._cut_map(active_clocks, open_gates)
        if use_pool:
            delivered = pool.extract(
                extractor,
                extractor._uncached(active_clocks, open_gates, terms),
                active_clocks,
                open_gates,
                terms,
                resolved,
                self.deadline,
            )
            for index, arcs in delivered.items():
                extractor._arc_cache[
                    (index, cut_map.get(index, _NO_CUTS))
                ] = arcs
        parts: list[list[StageArc]] = []
        # (index into parts, cache key, stage, source arcs) of each stage
        # whose terms this walk evaluates once it is over.
        todo: list[tuple] = []
        expired = False
        skipped = 0
        for stage in self.graph:
            if (
                stage.index in self.quarantined
                or stage.index in self.deadline_skipped
            ):
                continue
            key = (stage.index, cut_map.get(stage.index, _NO_CUTS))
            cached = self._arc_cache.get(key)
            if cached is not None:
                # A cache hit costs nothing; serve it even past the
                # deadline so a warm design degrades as little as possible.
                parts.append(cached)
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
                if source is None:
                    stage_arcs = self.arcs(stage, active_clocks, open_gates)
                else:
                    stage_arcs = self._take_evaluated(key)
                    if stage_arcs is None:
                        todo.append((
                            len(parts),
                            key,
                            stage,
                            source.arcs(
                                stage, active_clocks, open_gates, terms=True
                            ),
                        ))
                        stage_arcs = []
            except Exception as exc:
                self._stage_failed(stage, exc)
                continue
            parts.append(stage_arcs)
        if todo:
            self._evaluate_walked(todo, parts, active_clocks, open_gates)
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
        return list(itertools.chain.from_iterable(parts))

    def _stage_failed(self, stage: Stage, exc: Exception) -> None:
        """Raise a typed error (``strict``) or quarantine ``stage``."""
        if self.on_error == robust.STRICT:
            if isinstance(exc, ReproError):
                raise exc
            raise StageError(
                f"arc extraction failed for stage {stage.index}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self.quarantine_stage(
            stage.index,
            message=f"arc extraction failed: {type(exc).__name__}: {exc}",
        )

    def _take_evaluated(self, key: tuple) -> list[StageArc] | None:
        """The arcs of ``key`` a batch peer evaluated for us, now cached."""
        batch = self.batch
        arcs = None if batch is None else batch.take(self, key)
        if arcs is not None:
            self._arc_cache[key] = arcs
            self.trace.incr("parametric_stage_evals")
        return arcs

    def _evaluate_walked(
        self,
        todo: list[tuple],
        parts: list,
        active_clocks: frozenset[str] | None,
        open_gates: frozenset[str],
    ) -> None:
        """Evaluate the terms an :meth:`all_arcs` walk collected, in one
        pass for this calculator and every waiting batch peer.

        Our lists fill the walk's ``parts`` and our arc cache; each
        peer's wait in the batch for the peer's own walk.  Should the
        pass raise, each stage goes through :meth:`arcs` alone, so the
        failure is laid on its stage as in a per-stage walk.
        """
        from .parametric import evaluate_arcs

        peers = [] if self.batch is None else self.batch.peers(self)
        self.trace.incr("term_eval_passes")
        try:
            lists = evaluate_arcs(
                self,
                [arc for *_rest, arcs in todo for arc in arcs],
                peers=peers,
            )
        except Exception:
            for where, _key, stage, _arcs in todo:
                try:
                    parts[where] = self.arcs(stage, active_clocks, open_gates)
                except Exception as exc:
                    self._stage_failed(stage, exc)
            return
        for calc, evaluated in zip((self, *peers), lists):
            end = 0
            for where, key, _stage, arcs in todo:
                start, end = end, end + len(arcs)
                if calc is self:
                    parts[where] = self._arc_cache[key] = evaluated[start:end]
                else:
                    self.batch.give(calc, key, evaluated[start:end])
        self.trace.incr("parametric_stage_evals", len(todo))

    def _uncached(
        self,
        active_clocks: frozenset[str] | None,
        open_gates: frozenset[str],
        terms: bool = False,
    ) -> list[int]:
        """Indices of the non-quarantined stages the arc cache cannot
        serve (with ``terms``: cannot serve with terms, see :meth:`arcs`)."""
        cache = self._arc_cache
        cut_map = self._cut_map(active_clocks, open_gates)
        uncached = []
        for stage in self.graph:
            if stage.index in self.quarantined:
                continue
            arcs = cache.get((stage.index, cut_map.get(stage.index, _NO_CUTS)))
            if arcs is None or terms and _lacks_terms(arcs):
                uncached.append(stage.index)
        return uncached

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
            # One enumeration serves every trigger: the search keeps, for
            # each gate appearing on a discharge path, the worst path that
            # includes a device it gates.
            fall_by_gate = self._worst_timings(
                output, {self.netlist.gnd}, fall_adjacency, _BY_GATE,
                triggers, terms=ctx.terms,
            )
            rise = self._rise_via_pullup(
                output, pulled_up, rise_adjacency, terms=ctx.terms
            )
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

    def _clocked_switch_arcs(self, ctx: StageContext):
        """Clock-gated pass switches: clock rise lets data through.

        The arc trigger is the clock; the output follows the data side, so
        both transitions exist and the arc is non-inverting.  One
        device-keyed search per (output, driving side) serves every
        switch driving from that side: what the walk finds does not
        depend on which devices it keeps a path for.
        """
        stage = ctx.stage
        switches = []
        wanted: dict[tuple[str, str], set[str]] = {}
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
            outputs = list(stage.outputs | ({receiving} & stage.nodes))
            switches.append((dev, source_side, outputs))
            for output in outputs:
                wanted.setdefault((output, source_side), set()).add(dev.name)
        timings = {
            (output, side): self._transfer_timings(
                ctx, output, {side}, _BY_DEVICE, names
            )
            for (output, side), names in wanted.items()
        }
        arcs = []
        for dev, source_side, outputs in switches:
            for output in outputs:
                arc = self._transfer_arc(
                    ctx, dev.gate, "gate", output,
                    timings[(output, source_side)], dev.name,
                )
                if arc is not None:
                    arcs.append(arc)
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
            head = self._vdd_head(dev, "precharge")
            node = head[0]
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
            outputs = stage.outputs | ({node} & stage.nodes)
            for output in outputs:
                if output != node and output in siblings:
                    continue  # it has its own (parallel) precharger
                spine = self._spine_from_vdd(head, output, filtered_adjacency)
                if spine is None:
                    continue
                timing = self._timing_from_spine(
                    spine,
                    output,
                    ctx.conduction_adjacency(RISE),
                    terms=ctx.terms,
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
            head = self._vdd_head(dev, "pullup")
            for output in stage.outputs | ({head[0]} & stage.nodes):
                spine = self._spine_from_vdd(head, output, rise_adjacency)
                if spine is None:
                    continue
                timing = self._timing_from_spine(
                    spine, output, rise_adjacency, terms=ctx.terms
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
        # Every pass device a trigger gates is in the pass adjacency, and
        # every device there with that gate is one it gates, so the worst
        # path through one of them is the search's worst path per gate.
        triggers = {
            d.gate: None
            for d in ctx.devices
            if d.kind is DeviceKind.ENH
            and d.source != vdd
            and d.source != gnd
            and d.drain != vdd
            and d.drain != gnd
            and not self.netlist.is_clock(d.gate)
            and not ctx.clock_open(d)
            and (d.gate not in stage.nodes or d.gate in stage.outputs)
        }
        if not triggers:
            return []
        targets = set(ctx.pulled_up)
        for boundary in stage.boundary:
            if not self.netlist.is_rail(boundary):
                targets.add(boundary)
        if not targets:
            return []

        timings = {
            output: self._transfer_timings(
                ctx, output, targets, _BY_GATE, triggers
            )
            for output in stage.outputs
        }
        arcs = []
        for trigger in triggers:
            for output in stage.outputs:
                if output == trigger:
                    continue
                arc = self._transfer_arc(
                    ctx, trigger, "gate", output, timings[output], trigger
                )
                if arc is not None:
                    arcs.append(arc)
        return arcs

    def _channel_arcs(self, ctx: StageContext):
        """Signal injected at an externally driven boundary channel node."""
        stage = ctx.stage
        members = set(stage.device_names)
        arcs = []
        for boundary in stage.boundary:
            if self.netlist.is_rail(boundary):
                continue
            flows_in = any(
                dev.flows_into(dev.other_channel(boundary))
                or dev.flows_out_of(boundary)
                for dev in self.netlist.channel_devices(boundary)
                if dev.name in members
            )
            if not flows_in:
                continue
            for output in stage.outputs:
                timings = self._transfer_timings(ctx, output, {boundary})
                arc = self._transfer_arc(
                    ctx, boundary, "channel", output, timings
                )
                if arc is not None:
                    arcs.append(arc)
        return arcs

    def _transfer_timings(
        self,
        ctx: StageContext,
        output: str,
        targets: set[str],
        key: int | None = None,
        wanted=(None,),
    ) -> tuple[dict, dict]:
        """Rise and fall :meth:`_worst_timings` of the pass network."""
        return tuple(
            self._worst_timings(
                output, targets, ctx.pass_adjacency(transition), key, wanted,
                terms=ctx.terms,
            )
            for transition in (RISE, FALL)
        )

    def _transfer_arc(
        self,
        ctx: StageContext,
        trigger: str,
        via: str,
        output: str,
        timings: tuple[dict, dict],
        key=None,
    ) -> StageArc | None:
        """Non-inverting pass transfer from ``trigger`` into ``output``.

        ``timings`` are the :meth:`_transfer_timings` of ``output``; the
        arc takes each transition's timing kept under ``key``.  ``None``
        when neither transition has one.
        """
        rise = timings[0].get(key)
        fall = timings[1].get(key)
        if rise is None and fall is None:
            return None
        return StageArc(
            stage_index=ctx.stage.index,
            trigger=trigger,
            via=via,
            output=output,
            inverting=False,
            rise=rise,
            fall=fall,
        )

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
        devices: list[Transistor],
        transition: str,
        cut: frozenset[str],
    ) -> list[tuple[str, str, float, str, tuple]]:
        """Resistive edges usable on a discharge path (pulldowns + passes),
        as ``(source, drain, r, device, atom)``: ``atom`` names the
        :func:`device_resistance` call behind ``r`` for parametric terms."""
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
            role = "pulldown" if gnd in (source, drain) else "pass"
            edges.append((
                source,
                drain,
                device_resistance(self.tech, dev, role, transition),
                dev.name,
                ("res", dev.name, role, transition),
            ))
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
        self,
        edges: list[tuple[str, str, float, str, tuple]],
        *,
        backward_flow: bool = True,
    ) -> _Adjacency:
        """Adjacency map with per-hop device facts pre-resolved.

        Each directed hop ``node -> neighbor`` is a 9-tuple
        ``(neighbor, r, name, gate, group, in_ok, out_ok,
        neighbor_is_boundary, atom)`` where ``in_ok`` means the path
        search (:meth:`_worst_paths`) may take it: the device can carry
        signal ``neighbor -> node``, or always when ``backward_flow`` is
        off.  ``out_ok`` means it can carry ``node -> neighbor`` (the
        branch BFS), and ``atom`` is the edge's resistance atom
        (:meth:`_conduction_edges`).  Resolving the device, its one-hot
        group, its flow legality, and the boundary test here -- once per
        (stage, transition) -- removes four dict/method lookups per
        visited edge from every DFS/BFS inner loop.

        Every edge tuple is built as ``(source, drain, r, name, atom)``,
        so the cached per-device facts apply directly (swapped when the
        device is walked drain-first).
        """
        facts = self._device_fact_map()
        adjacency = _Adjacency()
        for a, b, r, name, atom in edges:
            gate, group, source, out_s, out_d, s_bnd, d_bnd = facts[name]
            if a == source:
                out_of_a, out_of_b = out_s, out_d
                a_boundary, b_boundary = s_bnd, d_bnd
            else:
                out_of_a, out_of_b = out_d, out_s
                a_boundary, b_boundary = d_bnd, s_bnd
            in_a = out_of_b or not backward_flow
            in_b = out_of_a or not backward_flow
            adjacency.setdefault(a, []).append(
                (b, r, name, gate, group, in_a, out_of_a, b_boundary, atom)
            )
            adjacency.setdefault(b, []).append(
                (a, r, name, gate, group, in_b, out_of_b, a_boundary, atom)
            )
        return adjacency

    def _worst_paths(
        self,
        start: str,
        targets: set[str],
        adjacency: _Adjacency,
        key: int | None = None,
        wanted=(None,),
    ) -> tuple[dict, bool]:
        """First maximum-resistance paths from ``start`` to the targets.

        One depth-first walk (:func:`_enumerate_paths`), in adjacency
        order, over the simple paths of ``adjacency`` (a
        :meth:`_build_adjacency` map).  It walks *backward* from the
        measured output toward the driving point, so a hop from ``node``
        to ``neighbor`` needs ``in_ok``: in the pass network the device
        conducts signal ``neighbor -> node``, which prevents paths that
        snake against the inferred signal flow (a discharge may run
        either way, see :meth:`StageContext.conduction_adjacency`).  It
        enters no boundary node but a target, and one-hot assertions
        (:meth:`Netlist.add_exclusive_group`) prune paths that would need
        two mutually exclusive switches closed.

        ``key`` picks what is kept: for each ``wanted`` device
        (:data:`_BY_DEVICE`) or gate (:data:`_BY_GATE`), the worst path
        through it, or with ``None`` the worst path overall; ties keep the
        path found first.  After ``max_paths`` paths the walk stops and is
        ``truncated``.  Returns ``(best, truncated)``, ``best`` mapping each
        key with a path to ``(resistance, path)``, the path a list of
        ``(node, hop)`` from ``start`` toward the target.

        A search that hits the cap is kept in the map's ``memo`` under
        its key kind, ``max_paths`` and rooted shape
        (:func:`_rooted_shape`); from then on each search on the map
        looks its own up first.  Equal keys walk the same tree up to a
        renaming, so a hit (:func:`_recall`) gives this search's own
        keys, in the same order, with the same resistances, hops, path
        sharing and ``truncated``.  The trace counts ``capped_searches``,
        memo hits included, and ``search_memo_hits``.
        """
        if start not in adjacency:
            return {}, False
        max_paths = self.max_paths
        memo = adjacency.memo
        if memo is not None:
            shape, nodes, keys = _rooted_shape(
                start, targets, adjacency, key, wanted
            )
            entry = memo.get((key, max_paths, shape))
            if entry is not None:
                self.trace.incr("capped_searches")
                self.trace.incr("search_memo_hits")
                return _recall(entry, nodes, keys, adjacency), True
        best, truncated = _enumerate_paths(
            start, targets, adjacency, key, wanted, max_paths
        )
        if truncated:
            self.trace.incr("capped_searches")
            if memo is None:
                memo = adjacency.memo = {}
                shape, nodes, keys = _rooted_shape(
                    start, targets, adjacency, key, wanted
                )
            memo[key, max_paths, shape] = _memo_entry(
                best, nodes, keys, adjacency
            )
        return best, truncated

    def _worst_timings(
        self,
        output: str,
        targets: set[str],
        adjacency: dict,
        key: int | None = None,
        wanted=(None,),
        *,
        terms: bool,
    ) -> dict:
        """Timing of each ``wanted`` key's :meth:`_worst_paths` path.

        A key without a path is absent.  Each path is timed once, however
        many keys it is the worst for, as an RC tree rooted at the target
        it reaches; every timing is marked ``truncated`` if the search was.
        """
        best, truncated = self._worst_paths(
            output, targets, adjacency, key, wanted
        )
        timings = {}
        by_path: dict[int, ArcTiming] = {}
        for k, (_r, path) in best.items():
            timing = by_path.get(id(path))
            if timing is None:
                timing = self._timing_from_spine(
                    _spine_of(path), output, adjacency, terms=terms
                )
                if truncated:
                    timing = _mark_truncated(timing)
                by_path[id(path)] = timing
            timings[k] = timing
        return timings

    def _timing_from_spine(
        self,
        spine: list[tuple[str, str, tuple]],
        output: str,
        adjacency: dict,
        *,
        terms: bool,
    ) -> ArcTiming:
        """Evaluate the configured delay metric for a spine's RC tree.

        The spine is the resistive path from the driving point (``root``,
        the first spine node) to ``output``, as ``(parent, child, hop)``
        edges (:func:`_spine_of`); every other conducting edge of
        ``adjacency`` hangs a capacitive branch.  One branch walk
        serves every delay model: it follows signal flow outward from the
        spine, breadth first, never crosses rails or boundary nodes
        (incompressible sources), and honours one-hot assertions against
        the gates used on the spine.

        For the default Elmore model the metric is folded into the walk
        itself (no tree object): every spine node lies on the
        root-to-``output`` path so it contributes ``r_root * C``, and every
        branch node shares exactly what its attachment point shares.  The
        tree models collect the walked edges instead, in visit order, and
        evaluate the rebuilt :class:`RCTree` with :meth:`_tree_delay`;
        Elmore's accumulation visits the nodes in that same order, so the
        two give bit-identical Elmore delays.

        With ``terms`` the timing also carries a replayable term, so
        :mod:`repro.delay.parametric` can re-run the identical arithmetic
        at any technology point.  Each resistance is named by its hop's
        atom.  Elmore records the spine's atoms and every visited node's
        prefix index, in visit order; the tree models record every tree
        edge in insertion order with its atom.
        """
        elmore = self.model == "elmore"
        build_term = terms and elmore
        root = spine[0][0]
        node_cap = self._node_cap
        r_root = 0.0
        # shared[k] = resistance common to the root->k and root->output
        # paths; doubles as the visited set.
        shared: dict[str, float] = {root: 0.0}
        tau = 0.0
        if build_term:
            contribs = []
            # idx_of[k]: index into the replayed prefix-resistance list
            # whose entry equals shared[k] (root is prefix 0).
            idx_of = {root: 0}
        for index, (_parent, child, hop) in enumerate(spine, 1):
            r_root += hop[1]
            shared[child] = r_root
            if build_term:
                idx_of[child] = index
                contribs.append((index, child))
            if elmore:
                cap = node_cap(child)
                if cap != 0.0:
                    tau += r_root * cap
        tree_edges = None if elmore else list(spine)

        spine_groups = {
            hop[4]: hop[3] for _p, _c, hop in spine if hop[4] is not None
        }
        frontier = deque(child for _p, child, _hop in spine)
        while frontier:
            current = frontier.popleft()
            current_shared = shared[current]
            for hop in adjacency.get(current, ()):
                neighbor, _r, _n, gate, group, _in, out_ok, boundary, _ = hop
                if neighbor in shared or boundary:
                    continue
                if not out_ok:
                    continue
                if group is not None and spine_groups.get(group, gate) != gate:
                    continue
                shared[neighbor] = current_shared
                frontier.append(neighbor)
                if tree_edges is not None:
                    tree_edges.append((current, neighbor, hop))
                    continue
                if build_term:
                    idx = idx_of[current]
                    idx_of[neighbor] = idx
                    contribs.append((idx, neighbor))
                cap = node_cap(neighbor)
                if cap != 0.0:
                    tau += current_shared * cap

        path = tuple(hop[2] for _p, _c, hop in spine)
        term = None
        if tree_edges is not None:
            tree = RCTree(root)
            for parent, child, hop in tree_edges:
                tree.add_child(parent, child, hop[1], node_cap(child))
            delay, tau = self._tree_delay(tree, output)
            if terms:
                atoms = tuple(
                    (parent, child, hop[8]) for parent, child, hop in tree_edges
                )
                term = ("tree", atoms, root, output, path, False)
            return ArcTiming(delay=delay, tau=tau, path=path, term=term)
        k = self._k_factor(root)
        if root == self.netlist.gnd:
            # Ratioed fight: see _tree_delay.
            k *= self._ratio_derate(output, r_root)
        if build_term:
            term = (
                "spine",
                tuple(hop[8] for _p, _c, hop in spine),
                tuple(contribs),
                root,
                output,
                path,
                False,
            )
        return ArcTiming(delay=k * tau, tau=tau, path=path, term=term)

    def _tree_delay(self, tree: RCTree, output: str) -> tuple[float, float]:
        """``(delay, tau)`` of ``output`` under a tree model.

        ``tau`` is the Elmore time constant, and ``delay`` the configured
        metric scaled by the calibration factor.  Concrete extraction and
        term evaluation (:mod:`repro.delay.parametric`) both call this on
        trees built in the same order, so their floats are identical.
        """
        tau = elmore_delay(tree, output)
        k = self._k_factor(tree.root)
        if tree.root == self.netlist.gnd:
            # Ratioed fight: the depletion pull-up keeps sourcing current
            # while the pull-down path discharges the node, stretching the
            # fall.  First-order factor R_up / (R_up - R_down), clamped --
            # a legal ratio guarantees R_up >> R_down, and ERC catches the
            # rest.
            k *= self._ratio_derate(output, tree.r_root(output))
        if self.model == "lumped":
            delay = k * lumped_delay(tree, output)
        elif self.model == "pr-min":
            delay = pr_bounds(tree, output, _CROSSING).lower * (
                k / math.log(2.0)
            )
        else:  # pr-max
            delay = pr_bounds(tree, output, _CROSSING).upper * (
                k / math.log(2.0)
            )
        return delay, tau

    def _ratio_derate(self, output: str, r_down: float) -> float:
        """Fall-delay stretch from the pull-up fighting the discharge."""
        return _derate(self._pullup_resistance(output), r_down)

    def _pullup_resistance(self, output: str) -> float | None:
        """Parallel resistance of ``output``'s depletion pull-ups, or None."""
        r_up = None
        for dev in self.netlist.channel_devices(output):
            if dev.kind is not DeviceKind.DEP:
                continue
            if dev.other_channel(output) != self.netlist.vdd:
                continue
            r = device_resistance(self.tech, dev, "pullup", RISE)
            r_up = r if r_up is None else 1.0 / (1.0 / r_up + 1.0 / r)
        return r_up

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
        self,
        output: str,
        pulled_up: dict[str, float],
        adjacency: dict,
        *,
        terms: bool,
    ) -> ArcTiming | None:
        """Worst rise of ``output``: vdd -> load -> pass path -> output."""
        best: ArcTiming | None = None
        for node, r_load in pulled_up.items():
            head = _head(
                node, r_load, f"load@{node}", None, None, ("load", node)
            )
            spine = self._spine_from_vdd(head, output, adjacency)
            if spine is None:
                continue
            timing = self._timing_from_spine(
                spine, output, adjacency, terms=terms
            )
            # _worse keeps the incumbent on ties and wraps the terms in
            # a "max" node so corners re-decide the winner.
            best = timing if best is None else _worse(best, timing)
        return best

    def _vdd_head(self, dev: Transistor, role: str) -> tuple:
        """The head hop charging ``dev``'s other terminal from vdd through
        ``dev`` in ``role`` (``"precharge"`` or a follower's ``"pullup"``)."""
        node = dev.other_channel(self.netlist.vdd)
        gate, group = self._device_fact_map()[dev.name][:2]
        return _head(
            node,
            device_resistance(self.tech, dev, role, RISE),
            dev.name,
            gate,
            group,
            ("res", dev.name, role, RISE),
        )

    def _spine_from_vdd(
        self, head: tuple, output: str, adjacency: dict
    ) -> list[tuple[str, str, tuple]] | None:
        """The spine vdd -> ``node`` -> ``output`` of a charging arc.

        The ``head`` hop (:func:`_head`) charges its ``node`` from vdd
        through a precharge device, a follower, or the ``load@node``
        pull-up combine; the worst pass path of ``adjacency`` carries the
        charge on to ``output``.  ``None`` when no such path exists.
        """
        node = head[0]
        spine = [(self.netlist.vdd, node, head)]
        if output != node:
            best, _truncated = self._worst_paths(output, {node}, adjacency)
            if None not in best:
                return None
            spine.extend(_spine_of(best[None][1]))
        return spine

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


def _spine_of(path: list[tuple[str, tuple]]) -> list[tuple[str, str, tuple]]:
    """A :meth:`~StageDelayCalculator._worst_paths` path, as a spine.

    The search walks back from the measured output to the driving point;
    a spine runs the other way, as ``(parent, child, hop)`` edges from its
    root, each with the adjacency hop that reached ``parent`` from
    ``child``.
    """
    return [(hop[0], node, hop) for node, hop in reversed(path)]


def _enumerate_paths(
    start: str,
    targets: set[str],
    adjacency: dict,
    key: int | None,
    wanted,
    max_paths: int,
) -> tuple[dict, bool]:
    """The depth-first walk of :meth:`StageDelayCalculator._worst_paths`,
    without its memo."""
    best: dict = {}
    path: list[tuple[str, tuple]] = []
    visited = {start}
    groups_used: dict[int, str] = {}
    # The keys on the current path, in path order; the worst path
    # overall is kept under None, which is on every path.
    on_path: dict = {None: None} if key is None else {}
    found = 0
    truncated = False

    def dfs(node: str, r_sum: float) -> None:
        nonlocal found, truncated
        if found >= max_paths:
            truncated = True
            return
        if node in targets:
            found += 1
            copied = None
            for k in on_path:
                incumbent = best.get(k)
                if incumbent is None or r_sum > incumbent[0]:
                    if copied is None:
                        copied = list(path)
                    best[k] = (r_sum, copied)
            return
        for hop in adjacency.get(node, ()):
            neighbor, r, _name, gate, group, in_ok, _out, boundary, _ = hop
            if neighbor in visited or not in_ok:
                continue
            if boundary and neighbor not in targets:
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
            k = None if key is None else hop[key]
            fresh_key = k not in on_path and k in wanted
            if fresh_key:
                on_path[k] = None
            visited.add(neighbor)
            path.append((node, hop))
            dfs(neighbor, r_sum + r)
            path.pop()
            visited.discard(neighbor)
            if fresh_group:
                del groups_used[group]
            if fresh_key:
                del on_path[k]

    dfs(start, 0.0)
    # ``dfs`` refers to itself through its closure; dropping the name
    # frees the walk's state now instead of leaving a cycle for the
    # collector.
    del dfs
    return best, truncated


def _rooted_shape(
    start: str,
    targets: set[str],
    adjacency: dict,
    key: int | None,
    wanted,
) -> tuple[tuple, dict, dict]:
    """Everything a :func:`_enumerate_paths` walk from ``start`` reads,
    up to a renaming of nodes, keys, groups and gates.

    A breadth-first walk in adjacency order numbers the nodes the search
    can reach; like the search, it expands no target and keeps only the
    hops the search may take (``in_ok``, and into no boundary but a
    target).  The shape is whether ``start`` is a target, then one tuple
    per expanded node of its kept hops, each ``(position in the node's
    list, neighbour id, neighbour is a target, r, key id, one-hot
    pattern)``.  The key id is -1 unless the hop's key is wanted, and
    the one-hot pattern is ``(group id, gate id)`` or None; ids number
    values in order of first appearance (a None-keyed search's hops all
    carry its one key, None, id 0).

    Returns ``(shape, nodes, keys)``: each reached node and each wanted
    key mapped to its id, in id order.
    """
    nodes = {start: 0}
    queue = [start]
    keys: dict = {None: 0} if key is None else {}
    groups: dict = {}
    gates: dict = {}
    shape: list = [start in targets]
    for node in queue:  # grows as the walk numbers new nodes
        if node in targets:
            continue
        kept = []
        for position, hop in enumerate(adjacency.get(node, ())):
            neighbor, r, _name, gate, group, in_ok, _out, boundary, _ = hop
            if not in_ok:
                continue
            target = neighbor in targets
            if boundary and not target:
                continue
            index = nodes.get(neighbor)
            if index is None:
                index = nodes[neighbor] = len(queue)
                queue.append(neighbor)
            k = None if key is None else hop[key]
            key_id = keys.setdefault(k, len(keys)) if k in wanted else -1
            pattern = None if group is None else (
                groups.setdefault(group, len(groups)),
                gates.setdefault(gate, len(gates)),
            )
            kept.append((position, index, target, r, key_id, pattern))
        shape.append(tuple(kept))
    return tuple(shape), nodes, keys


def _memo_entry(best: dict, nodes: dict, keys: dict, adjacency: dict) -> tuple:
    """A capped search's ``best`` in the local ids of its rooted shape.

    ``(entries, paths)``: one ``(key id, resistance, path index)`` per
    key in ``best``'s order, and each distinct path object once, as
    ``(node id, hop position)`` pairs.
    """
    index_of: dict[int, int] = {}
    paths = []
    entries = []
    for k, (r_sum, path) in best.items():
        index = index_of.get(id(path))
        if index is None:
            index = index_of[id(path)] = len(paths)
            paths.append(tuple(
                (nodes[node], adjacency[node].index(hop)) for node, hop in path
            ))
        entries.append((keys[k], r_sum, index))
    return tuple(entries), tuple(paths)


def _recall(entry: tuple, nodes: dict, keys: dict, adjacency: dict) -> dict:
    """A :func:`_memo_entry` read back as ``best`` onto a search's own
    nodes, keys and hops: keys sharing a stored path share one list."""
    entries, paths = entry
    node_of = list(nodes)
    key_of = list(keys)
    rebuilt = [
        [(node_of[i], adjacency[node_of[i]][position]) for i, position in path]
        for path in paths
    ]
    return {key_of[k]: (r_sum, rebuilt[index]) for k, r_sum, index in entries}


def _head(node, r, name, gate, group, atom) -> tuple:
    """A hop charging ``node`` from vdd: the head of a charging spine.

    No search walks it, so its flow and boundary fields are constants.
    """
    return (node, r, name, gate, group, True, True, False, atom)


def _lacks_terms(arcs: list[StageArc]) -> bool:
    """True if a stage's arcs were extracted without terms (every arc has
    a timing, and a stage's timings all carry terms or none does)."""
    return bool(arcs) and (arcs[0].rise or arcs[0].fall).term is None


def _derate(r_up: float | None, r_down: float) -> float:
    """:meth:`StageDelayCalculator._ratio_derate` from the pull-up
    resistance: first-order ``R_up / (R_up - R_down)``, clamped to 1.5."""
    if r_up is None or r_up <= r_down:
        return 1.5 if r_up is not None else 1.0
    return min(1.5, r_up / (r_up - r_down))


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
    """Set ``truncated`` on a timing and inside its term, if any.

    Only fresh spine or tree timings are marked, never a ``max`` merge;
    both term shapes end with the flag.
    """
    term = timing.term
    if term is not None:
        term = term[:-1] + (True,)
    return replace(timing, truncated=True, term=term)
