"""Outside-in layer tracing for the benchmark.

:func:`install` wraps the public entry points of repro's layers --
``repro.netlist``, ``repro.flow``, ``repro.stages``, ``repro.delay``,
``repro.core`` and ``repro.serve`` -- from outside the package.  Every
call then records a span ``(id, name, start, end, parent, request, tag)``
in memory; nothing under ``src/`` knows about it, and the untraced runs
never call :func:`install`.

A span's name is the per-layer metric it feeds (``core.propagate`` feeds
``core.propagate_ms``).  A layer's time is the *self* time of its spans:
the duration minus the part covered by child spans, so nested entry
points (``all_arcs`` calling ``evaluate_arcs``, ``verify_two_phase``
calling ``propagate``) are never counted twice and the self times of one
request add up to the time its top-level spans cover.

Timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC``), which is
one clock for every process on the host, so daemon spans and client
timestamps can be compared directly.
"""

from __future__ import annotations

import functools
import http.server
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

#: (defining module, attribute, span name) for plain functions.  Each is
#: rebound in every ``repro`` module that imported it by name.
FUNCTIONS = [
    ("repro.netlist.simfmt", "loads", "netlist.parse"),
    ("repro.netlist.validate", "validate", "netlist.erc"),
    ("repro.flow.direction", "infer_flow", "flow.infer"),
    ("repro.stages.decompose", "decompose", "stages.decompose"),
    ("repro.delay.parametric", "evaluate_arcs", "delay.term_eval"),
    ("repro.core.arrival", "propagate", "core.propagate"),
    ("repro.core.paths", "critical_paths", "core.paths"),
    ("repro.core.constraints", "verify_two_phase", "core.constraints"),
    ("repro.core.mindelay", "cross_phase_margins", "core.constraints"),
    ("repro.core.report", "result_to_json", "core.report"),
    ("repro.core.report", "validate_report", "core.report"),
    ("repro.serve.cache", "cache_key", "serve.cache_key"),
]

#: (module, class, method, span name) for methods.
METHODS = [
    ("repro.core.graph", "TimingGraph", "build", "core.graph_build"),
    ("repro.core.mcmm", "McmmResult", "to_json", "core.report"),
    ("repro.core.analyzer", "TimingAnalyzer", "explain", "core.explain"),
    ("repro.core.analyzer", "TimingAnalyzer", "notify_changed",
     "delay.invalidate"),
    ("repro.serve.session", "DesignSession", "current_sim_text",
     "serve.cache_key"),
    ("repro.serve.session", "DesignSession", "analyze", "serve.session"),
    ("repro.serve.session", "DesignSession", "delta", "serve.session"),
    ("repro.serve.session", "DesignSession", "explain", "serve.session"),
    ("repro.serve.rwlock", "RWLock", "acquire_read", "serve.read_lock_wait"),
    ("repro.serve.rwlock", "RWLock", "acquire_write",
     "serve.write_lock_wait"),
]


#: Every span name :func:`install` records; each feeds ``<name>_ms``.
LAYERS = sorted(
    {row[-1] for row in FUNCTIONS + METHODS}
    | {"delay.extract", "serve.journal_append", "serve.http"}
)


class Recorder:
    """Thread-safe in-memory span and count recorder.

    ``request`` names the op that spans opened outside any other span
    belong to (a driver sets it to the op index); when it is ``None`` a
    top-level span starts a request of its own (one per daemon request).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self.request = None
        self._ids = itertools.count(1)
        self._ids_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._ids_lock:
            sid = next(self._ids)
        if stack:
            request = stack[-1][1]
        else:
            request = sid if self.request is None else self.request
        stack.append((sid, request, name, time.monotonic()))
        return sid

    def end(self, sid: int, tag: str | None = None) -> None:
        now = time.monotonic()
        stack = self._stack()
        top, request, name, start = stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} ended while {top} was open")
        parent = stack[-1][0] if stack else None
        self.spans.append((sid, name, start, now, parent, request, tag))

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame[2] == name for frame in self._stack())

    def count(self, name: str, value: float) -> None:
        stack = self._stack()
        request = stack[-1][1] if stack else self.request
        self.counts.append((name, value, request))

    def dump(self) -> dict:
        return {"spans": list(self.spans), "counts": list(self.counts)}


def _timed(recorder: Recorder, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        sid = recorder.begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.end(sid)

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module binding of ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point so it records into ``recorder``."""
    for mod_name, attr, name in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr)
        _rebind(original, _timed(recorder, name, original))
    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(
                _timed(recorder, name, original.__func__)))
        else:
            setattr(cls, attr, _timed(recorder, name, original))
    _install_extract(recorder)
    _install_journal(recorder)
    _install_http(recorder)


def _install_extract(recorder: Recorder) -> None:
    """``all_arcs`` as ``delay.extract``, counting stage arc sets computed.

    A stage arc set is computed, rather than served from the arc cache,
    exactly when the sweep adds it to the cache of the calculator that
    extracts -- the term source for a corner sibling, the calculator
    itself otherwise.  Only the outermost sweep counts, because a pooled
    symbolic sweep nests the source's own sweep.
    """
    from repro.delay.stage_delay import StageDelayCalculator

    original = StageDelayCalculator.all_arcs

    @functools.wraps(original)
    def all_arcs(calc, *args, **kwargs):
        outermost = not recorder.inside("delay.extract")
        source = calc._term_source or calc
        before = len(source._arc_cache)
        sid = recorder.begin("delay.extract")
        try:
            return original(calc, *args, **kwargs)
        finally:
            recorder.end(sid)
            if outermost:
                recorder.count(
                    "delay.stages_extracted",
                    len(source._arc_cache) - before,
                )

    StageDelayCalculator.all_arcs = all_arcs


def _install_journal(recorder: Recorder) -> None:
    """``DesignJournal.append`` (frame, write, fsync) plus bytes appended."""
    from repro.serve.journal import DesignJournal

    original = DesignJournal.append

    @functools.wraps(original)
    def append(journal, record):
        before = journal.size()
        sid = recorder.begin("serve.journal_append")
        try:
            return original(journal, record)
        finally:
            recorder.end(sid)
            recorder.count("serve.journal_bytes", journal.size() - before)

    DesignJournal.append = append


def _install_http(recorder: Recorder) -> None:
    """The daemon-side request span, tagged ``"<METHOD> <path>"``.

    It opens once the request line has arrived (``parse_request``), so the
    idle wait of a kept-alive connection is not counted, and closes when
    ``handle_one_request`` returns, after the reply is written.  Its self
    time is request parsing, body decoding, routing, reply encoding and
    writing: everything but the session methods it calls.
    """
    base = http.server.BaseHTTPRequestHandler
    parse_request = base.parse_request
    handle_one_request = base.handle_one_request

    @functools.wraps(parse_request)
    def traced_parse(self):
        self._perfbench_span = recorder.begin("serve.http")
        return parse_request(self)

    @functools.wraps(handle_one_request)
    def traced_handle(self):
        self._perfbench_span = None
        try:
            return handle_one_request(self)
        finally:
            if self._perfbench_span is not None:
                recorder.end(
                    self._perfbench_span,
                    tag=f"{getattr(self, 'command', None)} "
                    f"{getattr(self, 'path', None)}",
                )

    base.parse_request = traced_parse
    base.handle_one_request = traced_handle


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------
def self_times(spans) -> dict:
    """``{request: {span name: self seconds}}``."""
    covered: dict[int, float] = defaultdict(float)
    for sid, name, start, end, parent, request, tag in spans:
        if parent is not None:
            covered[parent] += end - start
    per_request: dict = defaultdict(lambda: defaultdict(float))
    for sid, name, start, end, parent, request, tag in spans:
        per_request[request][name] += (end - start) - covered[sid]
    return per_request


def counts_by_request(counts) -> dict:
    """``{request: {count name: total}}``."""
    per_request: dict = defaultdict(lambda: defaultdict(float))
    for name, value, request in counts:
        per_request[request][name] += value
    return per_request
