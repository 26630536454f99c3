"""Per-design sessions: the serving side of the session/engine split.

A :class:`DesignSession` owns everything the daemon keeps hot for one
loaded design: the parsed netlist, a :class:`~repro.core.TimingAnalyzer`
(the *engine* -- structural products and warm arc caches), an edit
epoch, and a writer-preferring :class:`~repro.serve.rwlock.RWLock`
coordinating concurrent clients.  Reads (cache-hit queries, charge
checks) share the lock; engine runs and netlist deltas take the write
side.  The analyzer's own internal lock (see ``TimingAnalyzer``
"Thread safety") is the second line of defence; the session lock exists
so *reads can be concurrent*, which an exclusive engine lock alone
cannot give.

Reports are memoized two ways:

* JSON report texts in the shared content-addressed
  :class:`~repro.serve.cache.ResultCache` -- keyed on the hash of (the
  SHA-256 of the ``.sim`` text the design was loaded from, the exact
  ``w``/``l`` floats that differ from their load values, technology,
  options), so a delta automatically misses, an edit toggled back
  automatically hits again, and no key ever re-serializes the design;
* live :class:`~repro.core.AnalysisResult` objects (a tiny per-session
  LRU) so ``explain`` can reuse the arrival maps of the analysis it is
  explaining instead of re-running it.

Per-request error policies: ``on_error`` may be overridden per call
(e.g. a best-effort query against a strictly-loaded design).  The
override applies to *extraction and analysis*; ERC ran once at load
time under the session policy, so load-time quarantines are part of the
session, not the request.

Per-request corners: ``corner`` retargets a query to another technology
point (a corner shorthand like ``"slow"`` or a full parameter dict)
without reloading the design.  Cache keys include the resolved
parameter point, and the corner run *evaluates* the session's
parametric delay terms (:mod:`repro.delay.parametric`) instead of
re-extracting, under every delay model, policy and deadline -- a warm
what-if costs one evaluation pass.

Durability: with a :class:`~repro.serve.journal.DesignJournal` attached,
every applied delta is appended (checksummed, ``fsync``'d) *before* the
response acknowledging it is produced, and the journal compacts into an
atomic snapshot once it outgrows its threshold.  Deltas may carry a
client-supplied **idempotency key** (``request_id``): a replayed
duplicate returns the original epoch and payload instead of re-editing,
so an at-least-once retrying client (:class:`~repro.serve.client.
TimingClient`) never double-applies an edit -- including across a crash,
because the key window rides the journal and snapshot.

Reports leave a session as their encoded JSON text, the form the cache
holds them in, so the daemon splices them into replies without
re-encoding.  The idempotency window holds each applied request's epoch
and cache key, not a second copy of its report: a retry is answered from
the cache, so every report text lives in one byte-bounded place.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from contextlib import contextmanager

from .. import robust
from ..core import TimingAnalyzer, charge_sharing_report
from ..core.report import result_to_text
from ..errors import NetlistError
from ..netlist import sim_dumps, sim_loads
from ..tech import NMOS4, Technology
from .cache import ResultCache, cache_key
from .rwlock import RWLock

__all__ = ["DesignSession"]

#: Live AnalysisResult objects kept per session for explain reuse.
_RESULT_MEMO_LIMIT = 4

#: Recent delta idempotency keys remembered for dedupe (per design).
_REQUEST_WINDOW = 64


class DesignSession:
    """One loaded design plus the machinery to query and edit it safely."""

    def __init__(
        self,
        name: str,
        sim_text: str,
        *,
        tech: Technology | None = None,
        model: str = "elmore",
        on_error: str = robust.STRICT,
        workers: int | str = 1,
        cache: ResultCache | None = None,
        journal=None,
    ) -> None:
        self.name = name
        self.netlist = sim_loads(sim_text, name=name, tech=tech or NMOS4)
        self.model = model
        self.analyzer = TimingAnalyzer(
            self.netlist,
            model=model,
            workers=workers,
            on_error=on_error,
        )
        self.cache = cache if cache is not None else ResultCache()
        #: Optional DesignJournal making edits durable (see repro.serve.journal).
        self.journal = journal
        self.journal_error: str | None = None
        self.lock = RWLock()
        #: Bumped by every applied delta; clients use it to detect edits.
        self.epoch = 0
        self.loaded_at = time.time()
        self.analyses = 0
        self.deltas = 0
        self.deduplicated = 0
        self.last_coverage: str | None = None
        #: The .sim text as loaded, kept verbatim: snapshots persist this
        #: plus exact edited dimensions, because re-serializing through
        #: sim_dumps rounds floats to 12 significant digits.  Cache keys
        #: use its digest plus the same exact dimensions, for the same
        #: reason.
        self._load_sim_text = sim_text
        self._load_digest = hashlib.sha256(sim_text.encode()).hexdigest()
        self._results: OrderedDict[str, object] = OrderedDict()
        #: Encoded step texts of the last report this session encoded
        #: (``result_to_text``'s memo); used only under the write lock.
        self._step_texts: dict[int, tuple] = {}
        #: Exact final w/l of every device edited since load.
        self._edited_dims: dict[str, dict] = {}
        #: Load-time w/l of every device edited since load.
        self._load_dims: dict[str, dict] = {}
        #: request_id -> (epoch, cache key of its report | None), oldest
        #: first.  None after a restart: the window is rebuilt from the
        #: journal, which records no reports.
        self._applied_requests: OrderedDict[str, tuple[int, str | None]] = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Option plumbing.
    # ------------------------------------------------------------------
    def _policy_for(self, on_error: str | None) -> str:
        if on_error is None:
            return self.analyzer.on_error
        return robust.validate_policy(on_error)

    @contextmanager
    def _policy(self, policy: str):
        """Temporarily run the engine under ``policy``.

        Swaps only when ``policy`` is not the session's own, and that
        happens only under the write lock, so no concurrent request can
        observe the swapped policy.
        """
        analyzer = self.analyzer
        if policy == analyzer.on_error:
            yield
            return
        old = (analyzer.on_error, analyzer.calculator.on_error)
        analyzer.on_error = policy
        analyzer.calculator.on_error = policy
        try:
            yield
        finally:
            analyzer.on_error, analyzer.calculator.on_error = old

    def current_sim_text(self) -> str:
        """The design's current ``.sim`` text: the load text verbatim
        until the first delta, then a fresh ``sim_dumps`` of the edited
        netlist (which rounds widths to 12 significant digits)."""
        if not self._edited_dims:
            return self._load_sim_text
        return sim_dumps(self.netlist)

    def _resolve_corner(self, corner) -> Technology | None:
        """Per-request technology override: a corner shorthand name or a
        full parameter dict (``Technology.to_dict`` shape)."""
        if corner is None:
            return None
        try:
            if isinstance(corner, str):
                return self.netlist.tech.corner(corner)
            if isinstance(corner, dict):
                return Technology.from_dict(corner)
        except (KeyError, TypeError, ValueError) as exc:
            raise NetlistError(f"bad corner: {exc}") from exc
        raise NetlistError(
            "corner must be a name ('slow'/'typ'/'fast') or a "
            "technology parameter object"
        )

    def _key(
        self,
        policy: str,
        top_k: int,
        input_arrivals: dict[str, float] | None,
        corner: Technology | None = None,
    ) -> str:
        options = {
            "model": self.model,
            "policy": policy,
            "top_k": top_k,
            "input_arrivals": input_arrivals or {},
            # The resolved parameter point, so two shorthand spellings of
            # the same corner share an entry and a custom point never
            # collides with the base tech.
            "corner": None if corner is None else corner.to_dict(),
            # Exact floats (JSON writes their repr): an edit of any size
            # misses, an edit toggled back to the load value hits.
            "dims": self._dims_changed(),
        }
        return cache_key(
            self._load_digest, self.netlist.tech.to_dict(), options
        )

    def _dims_changed(self) -> list:
        """``[device, {w?, l?}]`` for each dimension unlike its load value."""
        changed = []
        for name in sorted(self._edited_dims):
            load = self._load_dims[name]
            dims = {
                dim: value
                for dim, value in self._edited_dims[name].items()
                if value != load[dim]
            }
            if dims:
                changed.append([name, dims])
        return changed

    def _set_dims(self, name: str, dims: dict) -> None:
        """Apply exact ``w``/``l`` floats to a device, remembering the
        load-time values the first time the device is edited."""
        dev = self.netlist.device(name)
        self._load_dims.setdefault(name, {"w": dev.w, "l": dev.l})
        edited = self._edited_dims.setdefault(name, {})
        if "w" in dims:
            dev.w = edited["w"] = float(dims["w"])
        if "l" in dims:
            dev.l = edited["l"] = float(dims["l"])

    @staticmethod
    def _cacheable(result) -> bool:
        """Deadline-cut results must not be cached (more time may do better)."""
        return not any(
            d.code == "deadline-exceeded" for d in result.diagnostics
        )

    def _report_text(self, result) -> str:
        """The report's JSON text, ``json.dumps(result.to_json())``.

        Steps the last encoded report shared with this one (every step
        an edit did not re-time) reuse their text; see
        :func:`~repro.core.report.result_to_text`.
        """
        return result_to_text(result, memo=self._step_texts)

    def _remember(self, key: str, result) -> None:
        self._results[key] = result
        self._results.move_to_end(key)
        while len(self._results) > _RESULT_MEMO_LIMIT:
            self._results.popitem(last=False)

    def _run(
        self,
        key: str,
        policy: str,
        input_arrivals: dict[str, float] | None,
        top_k: int,
        deadline: float | None,
        corner: Technology | None = None,
    ):
        """Engine run under the write lock.

        Returns ``(engine, result)`` -- the engine is the session
        analyzer, or a corner sibling when ``corner`` is given, and is
        memoized alongside the result so a later ``explain`` against the
        same options uses the analyzer that actually produced it.
        """
        with self._policy(policy):
            engine = self.analyzer
            if corner is not None:
                from ..core.mcmm import Scenario

                engine = engine._scenario_analyzer(
                    Scenario(name="corner", tech=corner)
                )
            result = engine.analyze(
                input_arrivals=input_arrivals,
                top_k=top_k,
                deadline=deadline,
            )
        self.analyses += 1
        self.last_coverage = (
            result.coverage.summary() if result.coverage is not None else None
        )
        self._remember(key, (engine, result))
        return engine, result

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def analyze(
        self,
        *,
        input_arrivals: dict[str, float] | None = None,
        top_k: int = 5,
        on_error: str | None = None,
        deadline: float | None = None,
        corner=None,
        use_cache: bool = True,
    ) -> tuple[str, bool, int]:
        """Full analysis; returns ``(report JSON text, cached, epoch)``.

        The fast path holds only the read lock: hash the current design
        state, look the report up in the content-addressed cache.  On a
        miss the write lock is taken, the cache re-checked (another
        client may have just filled it), and the engine run.  ``deadline``
        is the per-request extraction budget in seconds (see
        ``TimingAnalyzer.analyze``); under the ``strict`` policy an
        overrun raises :class:`~repro.errors.DeadlineError`.  ``corner``
        retargets this one request to another technology point (see the
        module docstring); results are cached per parameter point.
        """
        policy = self._policy_for(on_error)
        tech = self._resolve_corner(corner)
        if use_cache:
            with self.lock.read_locked():
                key = self._key(policy, top_k, input_arrivals, tech)
                payload = self.cache.get(key)
                if payload is not None:
                    return payload, True, self.epoch
        with self.lock.write_locked():
            key = self._key(policy, top_k, input_arrivals, tech)
            if use_cache:
                payload = self.cache.get(key)
                if payload is not None:
                    return payload, True, self.epoch
            _engine, result = self._run(
                key, policy, input_arrivals, top_k, deadline, tech
            )
            payload = self._report_text(result)
            if use_cache and self._cacheable(result):
                self.cache.put(key, payload)
            return payload, False, self.epoch

    def explain(
        self,
        node: str | None = None,
        transition: str | None = None,
        *,
        input_arrivals: dict[str, float] | None = None,
        top_k: int = 5,
        on_error: str | None = None,
        deadline: float | None = None,
        corner=None,
        sensitivity: bool = False,
    ) -> tuple[dict, int]:
        """Causal chain behind a node's worst arrival, as JSON.

        Reuses the memoized analysis for the same options when one
        exists (the common "analyze, then explain the critical path"
        flow costs one engine run, not two).  Such a memo hit under the
        session's own policy, without ``sensitivity``, runs and changes
        nothing in the engine, so it explains under the read lock and
        viewers' cached reads need not wait for it.  ``node=None``
        explains the critical-path endpoint.  ``corner`` explains the
        design at another technology point; ``sensitivity=True`` attaches
        per-parameter arrival slopes (see ``TimingAnalyzer.explain``).
        """
        policy = self._policy_for(on_error)
        tech = self._resolve_corner(corner)
        if not sensitivity:
            with self.lock.read_locked():
                held = None
                if policy == self.analyzer.on_error:
                    key = self._key(policy, top_k, input_arrivals, tech)
                    held = self._results.get(key)
                if held is not None:
                    return self._explain(
                        held, node, transition, policy, sensitivity
                    ), self.epoch
        with self.lock.write_locked():
            key = self._key(policy, top_k, input_arrivals, tech)
            held = self._results.get(key)
            if held is None:
                held = self._run(
                    key, policy, input_arrivals, top_k, deadline, tech
                )
            else:
                self._results.move_to_end(key)
            return self._explain(
                held, node, transition, policy, sensitivity
            ), self.epoch

    def _explain(
        self, held, node, transition, policy: str, sensitivity: bool
    ) -> dict:
        """Explain ``node`` with a memoized ``(engine, result)`` pair."""
        engine, result = held
        if node is None:
            if not result.paths:
                raise NetlistError(
                    f"design {self.name!r} has no critical path to "
                    "explain; name a node"
                )
            node = result.paths[0].endpoint
        with self._policy(policy):
            explanation = engine.explain(
                node,
                transition,
                result=result,
                sensitivity=sensitivity,
            )
        return explanation.to_json()

    def charge(self, *, threshold: float = 0.5) -> tuple[dict, int]:
        """Charge-sharing hazard check (read-only; shares the lock)."""
        with self.lock.read_locked():
            hazards = charge_sharing_report(
                self.netlist, self.analyzer.stage_graph, threshold=threshold
            )
            payload = {
                "schema": "repro-charge-report",
                "netlist": self.netlist.name,
                "threshold": threshold,
                "hazards": [
                    {
                        "node": h.node,
                        "node_class": h.node_class,
                        "c_store": h.c_store,
                        "c_shared": h.c_shared,
                        "retention": h.ratio,
                        "via": list(h.via),
                    }
                    for h in hazards
                ],
            }
            return payload, self.epoch

    # ------------------------------------------------------------------
    # Edits.
    # ------------------------------------------------------------------
    def delta(
        self,
        edits: list[dict],
        *,
        input_arrivals: dict[str, float] | None = None,
        top_k: int = 5,
        on_error: str | None = None,
        deadline: float | None = None,
        corner=None,
        use_cache: bool = True,
        request_id: str | None = None,
    ) -> tuple[str, bool, int, bool]:
        """Apply device edits and re-analyze incrementally.

        Each edit is ``{"device": name, "w": metres?, "l": metres?}``.
        The edits route through ``notify_changed``, so only the stages
        touching an edited device are re-extracted -- every other
        stage's arcs stay cached in the engine, and the engine re-times
        only downstream of the re-extracted arcs (see
        ``TimingAnalyzer``, "Incremental re-timing").  Atomic: the write lock
        spans edit + re-analysis, so no client ever reads a half-edited
        design, and the returned epoch identifies the new state.

        ``request_id`` is a client-supplied idempotency key.  A key that
        already applied is *not* re-applied: the call returns the
        original epoch (and the original payload, while the result cache
        still holds it) with the final ``deduplicated`` flag set, so
        an at-least-once retry never edits twice.  The edit and its key
        are journaled (when a journal is attached) before this returns.

        Returns ``(report JSON text, cached, epoch, deduplicated)``.
        """
        policy = self._policy_for(on_error)
        tech = self._resolve_corner(corner)
        with self.lock.write_locked():
            if request_id is not None and request_id in self._applied_requests:
                return self._replay_duplicate(
                    request_id, policy, input_arrivals, top_k, deadline, tech
                )
            # Validate every edit before touching anything, so a bad
            # request can never leave the design half-edited or a bogus
            # record in the journal.
            applied: list[dict] = []
            for edit in edits:
                if not isinstance(edit, dict) or "device" not in edit:
                    raise NetlistError(
                        "each edit must be an object with a 'device' field"
                    )
                dev = self.netlist.device(str(edit["device"]))
                if "w" not in edit and "l" not in edit:
                    raise NetlistError(
                        f"edit for {dev.name!r} changes neither 'w' nor 'l'"
                    )
                record = {"device": dev.name}
                if "w" in edit:
                    record["w"] = float(edit["w"])
                if "l" in edit:
                    record["l"] = float(edit["l"])
                applied.append(record)
            changed: list[str] = []
            for record in applied:
                self._set_dims(record["device"], record)
                changed.append(record["device"])
            self.analyzer.notify_changed(changed)
            self.epoch += 1
            self.deltas += 1
            self._results.clear()
            key = self._key(policy, top_k, input_arrivals, tech)
            if request_id is not None:
                self._remember_request(request_id, self.epoch, key)
            self._journal_delta(applied, request_id)
            if use_cache:
                payload = self.cache.get(key)
                if payload is not None:
                    return payload, True, self.epoch, False
            _engine, result = self._run(
                key, policy, input_arrivals, top_k, deadline, tech
            )
            payload = self._report_text(result)
            if use_cache and self._cacheable(result):
                self.cache.put(key, payload)
            return payload, False, self.epoch, False

    def _replay_duplicate(
        self, request_id, policy, input_arrivals, top_k, deadline, tech
    ) -> tuple[str, bool, int, bool]:
        """Answer a retried delta without re-applying its edits.

        Returns the payload produced when the key first applied while
        the result cache still holds it (it is content-addressed, so the
        entry is that payload exactly).  Otherwise -- evicted, never
        cacheable, or a window rebuilt from the journal after a crash --
        the answer is recomputed against the current state (identical
        for the common retry-the-last-edit case) under the recorded
        epoch.
        """
        epoch, key = self._applied_requests[request_id]
        self.deduplicated += 1
        payload = None if key is None else self.cache.get(key)
        if payload is not None:
            return payload, True, epoch, True
        key = self._key(policy, top_k, input_arrivals, tech)
        payload = self.cache.get(key)
        cached = payload is not None
        if payload is None:
            _engine, result = self._run(
                key, policy, input_arrivals, top_k, deadline, tech
            )
            payload = self._report_text(result)
            if self._cacheable(result):
                self.cache.put(key, payload)
        self._remember_request(request_id, epoch, key)
        return payload, cached, epoch, True

    def _remember_request(
        self, request_id: str, epoch: int, key: str | None
    ) -> None:
        self._applied_requests[request_id] = (epoch, key)
        self._applied_requests.move_to_end(request_id)
        while len(self._applied_requests) > _REQUEST_WINDOW:
            self._applied_requests.popitem(last=False)

    # ------------------------------------------------------------------
    # Durability.
    # ------------------------------------------------------------------
    def _journal_delta(
        self, applied: list[dict], request_id: str | None
    ) -> None:
        """Append the applied delta to the journal (and maybe compact).

        A failing journal (disk full, permissions) degrades the session
        to memory-only with a recorded reason instead of refusing edits;
        the daemon surfaces ``journal_error`` in ``/stats``.
        """
        if self.journal is None:
            return
        record = {"type": "delta", "epoch": self.epoch, "edits": applied}
        if request_id is not None:
            record["request_id"] = request_id
        try:
            self.journal.append(record)
            self.journal.maybe_compact(self.snapshot_state())
        except OSError as exc:
            self.journal_error = str(exc)
            self.journal = None

    def snapshot_state(self) -> dict:
        """The design's durable state, exactly (see module docstring)."""
        return {
            "version": 1,
            "design": self.name,
            "epoch": self.epoch,
            "sim": self._load_sim_text,
            "dims": {
                dev: dict(dims) for dev, dims in self._edited_dims.items()
            },
            "model": self.model,
            "on_error": self.analyzer.on_error,
            "tech": self.netlist.tech.to_dict(),
            "requests": [
                [rid, epoch]
                for rid, (epoch, _key) in self._applied_requests.items()
            ],
        }

    def restore(
        self,
        dims: dict[str, dict],
        epoch: int,
        requests: list[tuple[str, int]],
    ) -> None:
        """Re-apply recovered edits so the session matches the pre-crash one.

        ``dims`` carries the exact final ``w``/``l`` floats from the
        journal/snapshot, so the in-memory netlist -- and therefore every
        ``analyze``/``explain`` payload and cache key -- is bit-identical
        to the state the crashed daemon held.
        """
        changed: list[str] = []
        for name, dd in dims.items():
            self._set_dims(name, dd)
            changed.append(name)
        if changed:
            self.analyzer.notify_changed(changed)
        self.epoch = epoch
        self._results.clear()
        for rid, req_epoch in requests:
            self._remember_request(rid, req_epoch, None)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-design introspection for ``/stats``."""
        stats = {
            "devices": len(self.netlist.devices),
            "stages": len(self.analyzer.stage_graph),
            "epoch": self.epoch,
            "policy": self.analyzer.on_error,
            "model": self.model,
            "analyses": self.analyses,
            "deltas": self.deltas,
            "deduplicated": self.deduplicated,
            "coverage": self.last_coverage,
            "lock": self.lock.stats(),
        }
        if self.journal is not None:
            stats["journal"] = self.journal.stats()
        if self.journal_error is not None:
            stats["journal_error"] = self.journal_error
        return stats
