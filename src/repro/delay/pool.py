"""The persistent fork pool behind pooled arc extraction.

:meth:`~repro.delay.stage_delay.StageDelayCalculator.all_arcs` hands the
stages its arc cache cannot serve to :func:`extract`, which returns the
arcs the workers delivered per stage index; the calculator files them
under its own cache keys and extracts the rest serially.

The pool is **persistent**: one module-level
fork pool (:data:`_POOL`) is started lazily and reused across
``all_arcs`` calls, MCMM scenarios, and repeated runs of the same
calculator, so the fork cost is paid once per calculator instead of once
per sweep.  It is keyed on ``(calculator token, invalidation epoch)``:
a different calculator, or a device edit on the same one, rebinds it to
a fresh snapshot.  Workers attach the calculator -- netlist, stage graph, and
warm per-device caches included -- as a **shared immutable snapshot**
inherited by the fork at pool start; per-task traffic is only
``(run token, term flag, chunk of stage indices)`` down and compact arc
tuples back (never the netlist, never dataclass pickles).  The term
flag is the extraction's ``terms`` argument: a corner run has its host
calculator extract with terms on the host's own snapshot.  Stage batches
are **sized by estimated device work** (device count squared, a proxy
for the superlinear path-search cost) so one oversized stage -- e.g. a
barrel-shifter matrix -- cannot serialize a whole chunk of small ones.
``workers="auto"`` applies a measured **crossover heuristic** to the
work the arc cache cannot serve (member devices of the uncached stages):
serial below :data:`PARALLEL_MIN_DEVICES` (pool already warm) or
:data:`PARALLEL_COLD_MIN_DEVICES` (pool must cold-start), and always
serial on a single-CPU host or one without ``fork``.
:func:`shutdown_pool` (registered
``atexit``) tears the pool down idempotently; a timed-out or broken pool
is terminated -- never reused and never orphaned.  See
``repro/bench/perf.py`` for the regression harness that gates these
paths.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import itertools
import multiprocessing
import os
import signal
import threading
import time

from .. import robust
from ..errors import StageError
from . import stage_delay  # circular: its names are read at call time

__all__ = [
    "PARALLEL_MIN_DEVICES",
    "PARALLEL_COLD_MIN_DEVICES",
    "WORKERS_AUTO",
    "available_cpus",
    "auto_workers",
    "parallel_crossover",
    "validate_workers",
    "extract",
    "warm_for",
    "shutdown_pool",
    "install_sigterm_cleanup",
    "pool_diagnostics",
]

#: Crossover floor when the persistent pool is already **warm** for this
#: calculator: when the stages a sweep must extract hold fewer member
#: devices than this, ``all_arcs`` extracts serially -- dispatch and result
#: traffic would dominate the work.  An explicit ``parallel=True``
#: overrides it.
PARALLEL_MIN_DEVICES = 1024

#: Crossover floor when the pool would have to **cold-start** (fork the
#: workers first): the fork of a large parent heap costs tens of
#: milliseconds, so the uncached work must be big enough to amortize it.
PARALLEL_COLD_MIN_DEVICES = 4096

#: ``workers`` spec selecting the measured crossover heuristic: the pool
#: width follows :func:`auto_workers` and the serial/parallel decision
#: follows :func:`parallel_crossover`.
WORKERS_AUTO = "auto"

#: Load-balance oversubscription: aim for about this many chunks per
#: worker so an unlucky chunk cannot idle the rest of the pool.
_CHUNKS_PER_WORKER = 4

#: Cap on ``workers="auto"`` resolution; beyond this the result-decode
#: loop in the parent becomes the bottleneck.
_AUTO_WORKERS_CAP = 8

#: Workers are forked (the snapshot is inherited, never pickled); a host
#: without ``fork`` extracts serially.
_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def auto_workers() -> int:
    """Pool width ``workers="auto"`` resolves to on this host."""
    return max(1, min(available_cpus(), _AUTO_WORKERS_CAP))


def parallel_crossover(
    device_count: int, *, pool_warm: bool, cpus: int | None = None
) -> bool:
    """True if a pooled sweep is expected to beat a serial one.

    ``device_count`` is the work the sweep has left: the member devices
    of the stages the arc cache cannot serve.  A cold sweep weighs the
    whole design; a sweep after a one-device edit weighs the one or two
    stages the edit invalidated.  Parallel extraction pays only on a
    multi-CPU host, and only when that work is large enough to amortize
    the pool traffic -- a higher bar (:data:`PARALLEL_COLD_MIN_DEVICES`)
    when the workers would have to be forked first than when the pool is
    already warm (:data:`PARALLEL_MIN_DEVICES`).  A host without
    ``fork`` has no pool to use.  Thresholds were measured with
    ``repro.bench.perf``; an explicit ``parallel=`` argument to
    :meth:`StageDelayCalculator.all_arcs` bypasses this entirely.
    """
    cpus = available_cpus() if cpus is None else cpus
    if cpus < 2 or not _HAS_FORK:
        return False
    floor = PARALLEL_MIN_DEVICES if pool_warm else PARALLEL_COLD_MIN_DEVICES
    return device_count >= floor


def validate_workers(spec) -> int | str:
    """Validate a ``workers`` spec: positive int or ``"auto"``.

    Rejects -- rather than silently clamping -- zero, negative, and
    boolean specs.  ``workers=0`` used to mean 1, which hid caller bugs
    (a miscomputed width quietly became serial), and ``workers=True``
    is almost always a misplaced ``parallel=True``.
    """
    if isinstance(spec, bool):
        raise StageError(
            f"workers must be a positive integer or {WORKERS_AUTO!r}, got "
            f"{spec!r} (did you mean all_arcs(parallel={spec!r})?)"
        )
    if spec == WORKERS_AUTO:
        return WORKERS_AUTO
    try:
        value = int(spec)
    except (TypeError, ValueError):
        raise StageError(
            f"workers must be a positive integer or {WORKERS_AUTO!r}, "
            f"got {spec!r}"
        ) from None
    if value < 1:
        raise StageError(
            f"workers must be a positive integer or {WORKERS_AUTO!r}, "
            f"got {spec!r}"
        )
    return value


def extract(
    calc: stage_delay.StageDelayCalculator,
    indices: list[int],
    active_clocks: frozenset[str] | None,
    open_gates: frozenset[str],
    terms: bool,
    workers: int,
    deadline: float | None,
) -> dict[int, list[stage_delay.StageArc]]:
    """Extract stages ``indices`` of ``calc`` on the persistent pool.

    ``terms`` is passed to each stage's
    :meth:`~repro.delay.stage_delay.StageDelayCalculator.arcs`.
    Returns the arcs the pool delivered, per stage index; the caller
    caches them and its serial walk computes whatever is missing, so
    the merged arc list is deterministic and identical to serial
    extraction.  The pool is *supervised*: each task has a timeout
    (``task_timeout``), failed or corrupt chunks are retried with
    exponential backoff (``task_retries``/``retry_backoff``), and
    whatever still failed after the last attempt falls back to the
    serial path simply by being left out.  A pool that cannot start at
    all degrades the same way.  ``deadline`` is the requesting sweep's
    absolute ``time.monotonic()`` deadline (``None``: none): no attempt
    starts once it has passed, and a running one stops waiting at it.
    It may belong to a corner sibling on whose behalf ``calc``, the
    sibling's term source, extracts.  A ``KeyboardInterrupt`` mid-sweep
    tears the persistent pool down (terminating live workers) before
    propagating, so Ctrl-C never leaves orphans.
    """
    delivered: dict[int, list[stage_delay.StageArc]] = {}
    if len(indices) < 2:
        return delivered
    pending = _work_chunks(calc.graph, indices, workers)
    backoff = calc.retry_backoff
    try:
        for attempt in range(calc.task_retries + 1):
            if not pending:
                return delivered
            if deadline is not None and time.monotonic() >= deadline:
                # No time left for another pool attempt; the serial
                # walk will apply the deadline policy stage by stage.
                break
            if attempt:
                calc.trace.incr("extract_retries", len(pending))
                time.sleep(backoff)
                backoff *= 2
            try:
                pending = _run_pool(
                    calc, pending, active_clocks, open_gates, terms,
                    workers, deadline, delivered,
                )
            except KeyboardInterrupt:
                raise
            except Exception:
                # Pool could not start at all; nothing was extracted
                # this attempt, so every chunk is still pending.
                calc.trace.incr("extract_pool_failures")
    except KeyboardInterrupt:
        shutdown_pool()
        raise
    if pending:
        # Serial fallback: arcs() computes whatever the pool did not.
        calc.trace.incr(
            "extract_fallback_stages", sum(len(c) for c in pending)
        )
    return delivered


def _work_chunks(graph, indices: list[int], workers: int) -> list[list[int]]:
    """Batch stage indices into chunks of similar *estimated work*.

    The estimate is the squared member-device count -- path
    enumeration cost grows superlinearly with stage size, and the
    square is enough to give an oversized stage (a shifter matrix, a
    bus) its own chunk instead of letting it serialize a batch of
    small ones.  Chunks keep stage order, so the parent's
    cache-filling decode stays deterministic.
    """
    weights = [
        (index, max(1, len(graph[index].device_names)) ** 2)
        for index in indices
    ]
    total = sum(weight for _i, weight in weights)
    budget = max(1.0, total / (workers * _CHUNKS_PER_WORKER))
    chunks: list[list[int]] = []
    current: list[int] = []
    acc = 0.0
    for index, weight in weights:
        current.append(index)
        acc += weight
        if acc >= budget:
            chunks.append(current)
            current = []
            acc = 0.0
    if current:
        chunks.append(current)
    return chunks


def _run_pool(
    calc, chunks, active_clocks, open_gates, terms, workers, deadline,
    delivered,
) -> list[list[int]]:
    """One supervised pool attempt; returns the chunks that failed.

    Runs on the module's **persistent** fork pool: workers inherit
    the calculator by memory copy at pool start (no netlist
    pickling, and the child's str-hash seed -- hence every
    set-iteration order -- matches the parent's, which keeps the
    extracted arc lists bit-identical to serial extraction) and are
    reused across sweeps and runs of the same calculator.
    Per-task traffic is ``(run token, term flag, chunk)`` down and
    compact arc tuples back, decoded into ``delivered`` as each future
    completes.  A timeout, a worker crash (``BrokenProcessPool``),
    or a structurally corrupt return value marks the chunk failed
    and delivers nothing for it; a timed-out or broken pool is
    *poisoned* -- terminated and discarded so the next attempt (or
    the next sweep) cold-starts a clean one and no worker is ever
    orphaned.
    """
    pool, warm = _POOL.acquire(calc, workers)
    calc.trace.incr(
        "extract_pool_reuses" if warm else "extract_pool_cold_starts"
    )
    run_token = _POOL.next_run_token()
    failed: list[list[int]] = []
    poisoned = False
    try:
        futures = [
            (
                pool.submit(
                    _pool_extract,
                    run_token,
                    terms,
                    active_clocks,
                    open_gates,
                    chunk,
                ),
                chunk,
            )
            for chunk in chunks
        ]
        for future, chunk in futures:
            timeout = calc.task_timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # The request deadline passed mid-sweep: cancel
                    # the pooled extraction instead of waiting it
                    # out.  Unstarted tasks are dropped; a task
                    # already running poisons the pool so its worker
                    # is terminated, never orphaned.
                    if not future.cancel():
                        future.add_done_callback(_swallow_result)
                        poisoned = True
                    failed.append(chunk)
                    continue
                timeout = min(timeout, remaining)
            try:
                extracted = future.result(timeout=timeout)
            except concurrent.futures.TimeoutError:
                calc.trace.incr("extract_timeouts")
                future.add_done_callback(_swallow_result)
                failed.append(chunk)
                poisoned = True
                continue
            except concurrent.futures.process.BrokenProcessPool:
                failed.append(chunk)
                poisoned = True
                continue
            except Exception:
                # The task raised inside a healthy worker; the pool
                # stays warm for the retry.
                failed.append(chunk)
                continue
            if not _valid_pool_result(extracted, chunk):
                calc.trace.incr("extract_corrupt_results")
                failed.append(chunk)
                continue
            for index, wire_arcs in extracted:
                delivered[index] = _arcs_from_wire(index, wire_arcs)
    except BaseException:
        _POOL.discard()
        raise
    if poisoned:
        # Hung or crashed workers: terminate them and never reuse
        # this pool.  Retries (and later sweeps) start fresh.
        _POOL.discard()
    return failed


class _PersistentPool:
    """Owner of the module's single reusable extraction pool.

    This is a **bounded registry of capacity one**: ``acquire`` hands
    back a live executor bound to the requesting calculator's current
    snapshot, and when a *different* calculator (or a wider width)
    binds, the previous pool is evicted -- shut down and its workers
    terminated -- before the new one starts, so a sweep over many
    calculators can never accumulate one forked pool per calculator
    with only atexit cleanup.  ``discard`` poisons the pool the same
    way, so hung or crashed workers are never reused and never
    orphaned.  ``pools_started``/``pools_evicted`` in
    :meth:`diagnostics` audit this invariant: their difference is the
    number of live pools, which never exceeds one.

    All mutation happens in the owning parent process: a forked child
    inherits the bookkeeping by memory copy but the owner-pid guard
    turns its ``discard`` into a reference drop, so a worker can never
    tear down its parent's executor.
    """

    def __init__(self) -> None:
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None
        self._binding: tuple[int, int] | None = None
        self._max_workers = 0
        self._owner_pid: int | None = None
        self._runs = itertools.count(1)
        self._started = 0
        self._evicted = 0

    def warm_for(self, calc: stage_delay.StageDelayCalculator) -> bool:
        """True if a sweep for ``calc`` would reuse live workers."""
        return (
            self._executor is not None
            and self._owner_pid == os.getpid()
            and self._binding == (calc._pool_token, calc._pool_epoch)
        )

    def acquire(
        self, calc: stage_delay.StageDelayCalculator, workers: int
    ) -> tuple[concurrent.futures.ProcessPoolExecutor, bool]:
        """A live executor for ``calc``; second element is ``warm``."""
        if self.warm_for(calc) and self._max_workers >= workers:
            return self._executor, True
        self.discard()
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_pool_init,
            initargs=(calc,),
        )
        self._binding = (calc._pool_token, calc._pool_epoch)
        self._max_workers = workers
        self._owner_pid = os.getpid()
        self._started += 1
        return self._executor, False

    def next_run_token(self) -> int:
        """Fresh token marking one pooled sweep (workers drop stale
        per-corner arcs when it changes)."""
        return next(self._runs)

    def discard(self) -> None:
        """Terminate and forget the pool.  Idempotent, parent-only.

        Never blocks on a hung worker: outstanding work is abandoned and
        any process still alive is killed, so injected hangs cannot
        stall interpreter shutdown and no worker outlives the pool.
        """
        executor, self._executor = self._executor, None
        owner, self._owner_pid = self._owner_pid, None
        self._binding = None
        self._max_workers = 0
        if executor is None or owner != os.getpid():
            # A forked child inherits a *reference* to the parent's
            # executor; dropping it is all a child may ever do.
            return
        procs = list((getattr(executor, "_processes", None) or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        # SIGKILL, not SIGTERM: a worker forked moments before can lose a
        # SIGTERM (the interpreter clears pending signals right after
        # fork) and would then wait on the call queue for good.
        for proc in procs:
            if proc.is_alive():
                proc.kill()
        self._evicted += 1

    def diagnostics(self) -> dict:
        """JSON-friendly snapshot of the pool state (tests, bench).

        ``pools_started - pools_evicted`` counts the pools currently
        alive in this process; the capacity-one registry keeps it at 0
        or 1 -- a multi-calculator (e.g. multi-corner) sweep can never
        leave more than one pool behind.
        """
        return {
            "live": self._executor is not None,
            "max_workers": self._max_workers,
            "owner_pid": self._owner_pid,
            "binding": list(self._binding) if self._binding else None,
            "pools_started": self._started,
            "pools_evicted": self._evicted,
        }


_POOL = _PersistentPool()


def shutdown_pool() -> None:
    """Terminate the persistent extraction pool, if any.

    Idempotent and registered with :mod:`atexit`, so interpreter exit --
    including an exit forced by ``KeyboardInterrupt`` -- always reaps
    the workers.  Safe to call at any time; the next parallel sweep
    simply cold-starts a fresh pool.
    """
    _POOL.discard()


atexit.register(shutdown_pool)


def install_sigterm_cleanup() -> bool:
    """Make SIGTERM reap the persistent pool before the process dies.

    atexit covers normal interpreter exit and ``KeyboardInterrupt``, but a
    containerized run is stopped with SIGTERM, whose default disposition
    kills the process *without* running atexit hooks -- leaking fork-pool
    workers as orphans.  This installs a handler that shuts the pool down,
    restores the default disposition, and re-raises the signal against the
    process itself so the observed exit status stays ``128 + SIGTERM``.

    Installed at import time, but only when it cannot stomp on anyone
    else: the handler goes in solely if the current disposition is the
    default one and we are on the main thread (signal handlers cannot be
    set elsewhere).  Returns ``True`` if the handler was installed.
    Applications that set their own SIGTERM handler (e.g. ``repro
    serve``) are responsible for calling :func:`shutdown_pool` in it.
    """
    if threading.current_thread() is not threading.main_thread():
        return False
    try:
        current = signal.getsignal(signal.SIGTERM)
    except (ValueError, AttributeError):  # pragma: no cover - exotic host
        return False
    if current is not signal.SIG_DFL:
        return False

    def _on_sigterm(signum, frame):  # pragma: no cover - exercised in a
        # subprocess by tests/test_serve_faults.py (coverage can't see it)
        shutdown_pool()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - non-main interp
        return False
    return True


install_sigterm_cleanup()


def pool_diagnostics() -> dict:
    """Snapshot of the persistent pool (liveness, width, owner, binding)."""
    return _POOL.diagnostics()


def warm_for(calc: stage_delay.StageDelayCalculator) -> bool:
    """True if a pooled sweep for ``calc`` would reuse live workers."""
    return _POOL.warm_for(calc)


#: Worker-side state: the fork-inherited calculator snapshot, and the
#: run token of the sweep the worker last extracted for.
_POOL_CALC: stage_delay.StageDelayCalculator | None = None
_POOL_RUN_TOKEN: int | None = None


def _pool_init(calc: stage_delay.StageDelayCalculator) -> None:
    """Adopt the fork-inherited calculator snapshot (once per worker).

    The netlist, stage graph, and warm per-device caches arrive by fork
    memory copy -- nothing is pickled -- and because the child shares
    the parent's str-hash seed, every set-iteration order matches the
    parent's, keeping extracted arc lists bit-identical to serial
    extraction.  The inherited pool bookkeeping is dropped so a worker
    can never touch its parent's executor.
    """
    global _POOL_CALC, _POOL_RUN_TOKEN
    _POOL_CALC = calc
    _POOL_RUN_TOKEN = None
    _POOL.discard()  # child side: reference drop only (owner-pid guard)


def _pool_extract(
    run_token: int,
    terms: bool,
    active_clocks: frozenset[str] | None,
    open_gates: frozenset[str],
    indices: list[int],
) -> list[tuple[int, list[tuple]]]:
    # The fault points are no-ops in production; the testing harness uses
    # them to crash/hang this worker or corrupt its return value (fork
    # workers inherit the installed handler by memory copy).
    global _POOL_RUN_TOKEN
    calc = _POOL_CALC
    if run_token != _POOL_RUN_TOKEN:
        # New sweep: drop arcs cached by earlier sweeps so repeated
        # measurements do honest work.  Device facts and node-cap caches
        # persist -- amortizing those is the pool's entire point.
        calc._arc_cache.clear()
        _POOL_RUN_TOKEN = run_token
    out = []
    for index in indices:
        robust.fault_point("worker-task", index)
        arcs = calc.arcs(
            calc.graph[index], active_clocks, open_gates, terms=terms
        )
        out.append((index, _arcs_to_wire(arcs)))
    return robust.fault_point("worker-result", out)


def _timing_to_wire(timing: stage_delay.ArcTiming | None) -> tuple | None:
    return (
        None
        if timing is None
        else (
            timing.delay,
            timing.tau,
            timing.path,
            timing.truncated,
            timing.term,
        )
    )


def _timing_from_wire(wire: tuple | None) -> stage_delay.ArcTiming | None:
    if wire is None:
        return None
    delay, tau, path, truncated, term = wire
    return stage_delay.ArcTiming(
        delay=delay, tau=tau, path=path, truncated=truncated, term=term
    )


def _arcs_to_wire(arcs: list[stage_delay.StageArc]) -> list[tuple]:
    """Compact cross-process encoding: plain tuples, no dataclass pickles."""
    return [
        (
            arc.trigger,
            arc.via,
            arc.output,
            arc.inverting,
            _timing_to_wire(arc.rise),
            _timing_to_wire(arc.fall),
        )
        for arc in arcs
    ]


def _arcs_from_wire(
    index: int, wire_arcs: list[tuple]
) -> list[stage_delay.StageArc]:
    return [
        stage_delay.StageArc(
            stage_index=index,
            trigger=trigger,
            via=via,
            output=output,
            inverting=inverting,
            rise=_timing_from_wire(rise),
            fall=_timing_from_wire(fall),
        )
        for trigger, via, output, inverting, rise, fall in wire_arcs
    ]


def _valid_pool_result(extracted, chunk) -> bool:
    """Structural corrupt-return detection for one pool chunk.

    The parent only trusts a worker return that is exactly a list of
    ``(requested stage index, list of 6-tuple wire arcs)`` pairs covering
    the chunk; anything else is discarded (and retried) rather than
    poisoning the arc cache -- the cache must stay bit-identical to
    serial extraction.
    """
    if not isinstance(extracted, list) or len(extracted) != len(chunk):
        return False
    expected = set(chunk)
    for item in extracted:
        if not (isinstance(item, tuple) and len(item) == 2):
            return False
        index, wire_arcs = item
        if index not in expected:
            return False
        if not isinstance(wire_arcs, list):
            return False
        if not all(
            isinstance(wire, tuple) and len(wire) == 6
            for wire in wire_arcs
        ):
            return False
    return True


def _swallow_result(future) -> None:
    """Retrieve an abandoned future's outcome so it is never logged."""
    try:
        future.exception()
    except Exception:
        pass
