"""The resident timing daemon: JSON-over-HTTP on the stdlib HTTP stack.

:class:`TimingServer` wraps a ``ThreadingHTTPServer`` and a registry of
:class:`~repro.serve.session.DesignSession` objects.  Endpoints (all
request/response bodies are JSON):

========================== ====== =====================================
``/healthz``               GET    liveness + server identity/versions
``/stats``                 GET    uptime, counters, cache hit rate,
                                  pool diagnostics, per-design stats
``/designs``               GET    loaded design names
``/designs/NAME``          POST   load a design (``{"sim": ...}``)
``/designs/NAME``          DELETE unload a design
``/designs/NAME/analyze``  POST   full/cached analysis -> report
``/designs/NAME/explain``  POST   provenance chain for a node
``/designs/NAME/charge``   POST   charge-sharing hazard check
``/designs/NAME/delta``    POST   device edits + incremental re-analysis
========================== ====== =====================================

Robustness contract:

* **Admission control** -- at most ``max_inflight`` analysis requests
  run at once; excess requests are refused immediately with 429 and a
  ``Retry-After`` header instead of queueing without bound.
* **Deadlines** -- ``deadline_ms`` in any analysis request bounds its
  extraction; under degraded policies an overrun yields a schema-valid
  *partial* report (``diagnostics``/``coverage`` tell the truth), under
  ``strict`` it maps to HTTP 504.
* **Typed failures** -- bad JSON/fields are 400, an unknown design or
  node is 404, netlist/analysis errors are 422 carrying the exception
  text; the daemon never dies on a request, and a client that hangs up
  mid-response is counted and survived.
* **Graceful shutdown** -- SIGTERM/SIGINT (or :meth:`TimingServer.stop`)
  stop admissions with 503, drain in-flight requests, then tear down the
  persistent extraction pool (``shutdown_pool``) so no worker process
  outlives the daemon.
* **Durability** -- with ``journal_dir`` set, loads and deltas are
  journaled (:mod:`repro.serve.journal`) before they are acknowledged,
  and a restarted daemon replays snapshot + journal to rebuild every
  session bit-identically; torn or corrupt journal tails are quarantined
  as typed diagnostics in ``/healthz``/``/stats``, never a refusal to
  start.  Deltas accept a client ``request_id`` idempotency key so
  at-least-once retries apply exactly once, crash or no crash.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import __version__
from ..core import REPORT_SCHEMA_VERSION
from ..delay import pool_diagnostics, shutdown_pool
from ..errors import DeadlineError, ReproError, TimingError
from ..robust import ERROR_POLICIES, Diagnostic
from ..tech import Technology
from .cache import ResultCache
from .journal import JournalStore
from .session import DesignSession

__all__ = ["TimingServer", "HttpError"]

#: Hard cap on request body size (a .sim netlist of ~1M devices).
_MAX_BODY = 64 * 1024 * 1024


class HttpError(Exception):
    """A request failure with a definite HTTP status."""

    def __init__(self, status: int, message: str, **extra) -> None:
        super().__init__(message)
        self.status = status
        self.extra = extra


class TimingServer:
    """The daemon: session registry, shared cache, admission control.

    ``start()`` binds and serves on a background thread (tests, bench,
    embedding); ``serve_forever()`` serves on the calling thread (the
    CLI).  Either way ``stop()`` drains and shuts down cleanly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int | str = 1,
        max_inflight: int = 8,
        cache_dir: str | None = None,
        journal_dir: str | None = None,
        default_deadline: float | None = None,
        default_on_error: str = "strict",
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if default_on_error not in ERROR_POLICIES:
            raise ValueError(f"unknown error policy {default_on_error!r}")
        self.workers = workers
        self.max_inflight = max_inflight
        self.default_deadline = default_deadline
        self.default_on_error = default_on_error
        self.cache = ResultCache(cache_dir)
        self.sessions: dict[str, DesignSession] = {}
        self._sessions_lock = threading.Lock()
        self.journal_store = (
            JournalStore(journal_dir) if journal_dir is not None else None
        )
        self.recovered_designs: list[str] = []
        self.recovery_diagnostics: list = []
        if self.journal_store is not None:
            self._recover_sessions()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._draining = threading.Event()
        self._drained = threading.Condition(self._inflight_lock)
        self.started_monotonic = time.monotonic()
        self.requests = 0
        self.rejected_busy = 0
        self.rejected_draining = 0
        self.client_disconnects = 0
        self.errors = 0
        handler = _bind_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._serving = False
        #: Orders serve_forever() against stop(): a stop that lands before
        #: serving begins must keep serving from ever beginning.
        self._lifecycle_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def start(self) -> "TimingServer":
        """Serve on a background thread; returns once accepting."""
        self._serving = True
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` is called.

        Returns at once if :meth:`stop` already ran (a SIGTERM can land
        before serving starts).
        """
        with self._lifecycle_lock:
            if self._draining.is_set():
                return
            self._serving = True
        self.httpd.serve_forever()

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Drain in-flight requests, stop serving, reap the worker pool.

        New analysis requests are refused with 503 the moment this is
        called; requests already admitted get up to ``drain_timeout``
        seconds to finish.  Idempotent.
        """
        with self._lifecycle_lock:
            if self._draining.is_set():
                return
            self._draining.set()
        deadline = time.monotonic() + drain_timeout
        with self._inflight_lock:
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._drained.wait(remaining)
        # shutdown() is called from a different thread than
        # serve_forever; that is exactly its contract.
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(timeout=drain_timeout)
        elif self._serving:
            shutdown_thread = threading.Thread(
                target=self.httpd.shutdown, daemon=True
            )
            shutdown_thread.start()
            shutdown_thread.join(timeout=drain_timeout)
        # If serve_forever() never ran there is nothing to shut down --
        # shutdown() would block forever on socketserver's is-shut-down
        # event, which only serve_forever() ever sets.
        self.httpd.server_close()
        if self.journal_store is not None:
            self.journal_store.close()
        shutdown_pool()

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------
    def _recover_sessions(self) -> None:
        """Rebuild every journaled design at startup.

        Replay failures (a snapshot whose netlist no longer parses, say)
        are quarantined as diagnostics; the daemon always starts.
        """
        states, diagnostics = self.journal_store.recover()
        self.recovery_diagnostics.extend(diagnostics)
        for name, state in sorted(states.items()):
            try:
                tech = (
                    Technology.from_dict(state.tech)
                    if state.tech is not None
                    else None
                )
                session = DesignSession(
                    name,
                    state.sim_text,
                    tech=tech,
                    model=state.model,
                    on_error=state.on_error,
                    workers=self.workers,
                    cache=self.cache,
                    journal=self.journal_store.journal(name),
                )
                session.restore(state.dims, state.epoch, state.requests)
            except Exception as exc:  # noqa: BLE001 - never refuse to start
                self.recovery_diagnostics.append(
                    Diagnostic(
                        code="journal-recovery-failed",
                        severity="error",
                        subject=name,
                        stage=None,
                        action="quarantined",
                        message=f"recovered state does not rebuild: {exc}",
                    )
                )
                continue
            self.sessions[name] = session
            self.recovered_designs.append(name)

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        """Admit one analysis request or raise 429/503."""
        if self._draining.is_set():
            self.rejected_draining += 1
            raise HttpError(503, "server is shutting down")
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                self.rejected_busy += 1
                raise HttpError(
                    429,
                    f"server is at capacity ({self.max_inflight} requests "
                    "in flight); retry shortly",
                    retry_after=1,
                )
            self._inflight += 1

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            self._drained.notify_all()

    # ------------------------------------------------------------------
    # Session registry.
    # ------------------------------------------------------------------
    def session(self, name: str) -> DesignSession:
        """The loaded session for ``name``, or a 404 :class:`HttpError`."""
        with self._sessions_lock:
            session = self.sessions.get(name)
        if session is None:
            raise HttpError(404, f"no design {name!r} is loaded")
        return session

    def load(self, name: str, body: dict) -> dict:
        """Parse and register a design from a load request body."""
        sim_text = body.get("sim")
        if not isinstance(sim_text, str) or not sim_text.strip():
            raise HttpError(400, "body must carry the netlist in 'sim'")
        tech = None
        if "tech" in body:
            if not isinstance(body["tech"], dict):
                raise HttpError(400, "'tech' must be a parameter object")
            try:
                tech = Technology.from_dict(body["tech"])
            except (TypeError, ValueError) as exc:
                raise HttpError(400, f"bad technology: {exc}") from exc
        on_error = body.get("on_error", self.default_on_error)
        if on_error not in ERROR_POLICIES:
            raise HttpError(400, f"unknown error policy {on_error!r}")
        model = body.get("model", "elmore")
        session = DesignSession(
            name,
            sim_text,
            tech=tech,
            model=model,
            on_error=on_error,
            workers=self.workers,
            cache=self.cache,
        )
        if self.journal_store is not None:
            # Journal only once the design actually loads, so a parse
            # failure never leaves a load record that cannot replay.
            try:
                session.journal = self.journal_store.begin(
                    name,
                    {
                        "sim": sim_text,
                        "tech": None if tech is None else tech.to_dict(),
                        "model": model,
                        "on_error": on_error,
                    },
                )
            except OSError as exc:
                session.journal_error = str(exc)
        with self._sessions_lock:
            self.sessions[name] = session
        return {
            "design": name,
            "epoch": session.epoch,
            "devices": len(session.netlist.devices),
            "stages": len(session.analyzer.stage_graph),
            "policy": session.analyzer.on_error,
        }

    def unload(self, name: str) -> dict:
        """Drop a loaded design (its cache entries stay addressable)."""
        with self._sessions_lock:
            if name not in self.sessions:
                raise HttpError(404, f"no design {name!r} is loaded")
            del self.sessions[name]
        if self.journal_store is not None:
            self.journal_store.unload(name)
        return {"design": name, "unloaded": True}

    # ------------------------------------------------------------------
    # Introspection payloads.
    # ------------------------------------------------------------------
    def server_identity(self) -> dict:
        """Tool name, package version, report schema version."""
        return {
            "tool": "repro",
            "version": __version__,
            "schema_version": REPORT_SCHEMA_VERSION,
        }

    def healthz(self) -> dict:
        """Liveness payload: status, identity, uptime, design count."""
        payload = {
            "status": "draining" if self._draining.is_set() else "ok",
            "server": self.server_identity(),
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "designs": len(self.sessions),
        }
        if self.journal_store is not None:
            payload["journal"] = {
                "enabled": True,
                "recovered_designs": len(self.recovered_designs),
                "recovery_diagnostics": len(self.recovery_diagnostics),
            }
        return payload

    def stats(self) -> dict:
        """Operational counters: admission, cache, pool, per-design."""
        with self._sessions_lock:
            designs = {
                name: session.stats()
                for name, session in sorted(self.sessions.items())
            }
        with self._inflight_lock:
            inflight = self._inflight
        payload = {
            "server": self.server_identity(),
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "requests": self.requests,
            "inflight": inflight,
            "max_inflight": self.max_inflight,
            "rejected_busy": self.rejected_busy,
            "rejected_draining": self.rejected_draining,
            "client_disconnects": self.client_disconnects,
            "errors": self.errors,
            "cache": self.cache.stats(),
            "pool": pool_diagnostics(),
            "designs": designs,
        }
        if self.journal_store is not None:
            payload["journal"] = {
                **self.journal_store.stats(),
                "recovered_designs": list(self.recovered_designs),
                "recovery_diagnostics": [
                    diag.to_json() for diag in self.recovery_diagnostics
                ],
            }
        return payload


# ----------------------------------------------------------------------
# Request option parsing (shared by analyze/explain/delta).
# ----------------------------------------------------------------------
def _analysis_options(server: TimingServer, body: dict) -> dict:
    options: dict = {}
    arrivals = body.get("input_arrivals")
    if arrivals is not None:
        if not isinstance(arrivals, dict):
            raise HttpError(400, "'input_arrivals' must map node to seconds")
        try:
            options["input_arrivals"] = {
                str(k): float(v) for k, v in arrivals.items()
            }
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad input arrival: {exc}") from exc
    if "top_k" in body:
        try:
            options["top_k"] = int(body["top_k"])
        except (TypeError, ValueError) as exc:
            raise HttpError(400, "'top_k' must be an integer") from exc
    if "on_error" in body:
        if body["on_error"] not in ERROR_POLICIES:
            raise HttpError(
                400, f"unknown error policy {body['on_error']!r}"
            )
        options["on_error"] = body["on_error"]
    if "corner" in body and body["corner"] is not None:
        corner = body["corner"]
        if not isinstance(corner, (str, dict)):
            raise HttpError(
                400,
                "'corner' must be a corner name or a technology "
                "parameter object",
            )
        options["corner"] = corner
    deadline_ms = body.get("deadline_ms")
    if deadline_ms is None and server.default_deadline is not None:
        options["deadline"] = server.default_deadline
    elif deadline_ms is not None:
        try:
            deadline = float(deadline_ms) / 1000.0
        except (TypeError, ValueError) as exc:
            raise HttpError(400, "'deadline_ms' must be a number") from exc
        if deadline <= 0:
            raise HttpError(400, "'deadline_ms' must be positive")
        options["deadline"] = deadline
    return options


def _cache_mode(body: dict) -> bool:
    mode = body.get("cache", "use")
    if mode not in ("use", "bypass"):
        raise HttpError(400, "'cache' must be 'use' or 'bypass'")
    return mode == "use"


def _bind_handler(server: TimingServer):
    """The request-handler class closed over one :class:`TimingServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # The daemon's log is its /stats endpoint; per-request stderr
        # chatter would swamp a busy server.
        def log_message(self, format, *args):  # noqa: A002
            pass

        # ------------------------------------------------------------
        # Plumbing.
        # ------------------------------------------------------------
        def _reply(self, status: int, payload: dict | str,
                   headers=()) -> None:
            """Send ``payload``: a dict to encode, or encoded JSON text."""
            if not isinstance(payload, str):
                payload = json.dumps(payload)
            body = (payload + "\n").encode()
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for key, value in headers:
                    self.send_header(key, str(value))
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                # The client hung up mid-response.  Its problem, not the
                # daemon's: count it and keep serving everyone else.
                server.client_disconnects += 1
                self.close_connection = True

        def _reply_error(self, exc: HttpError) -> None:
            headers = []
            if "retry_after" in exc.extra:
                headers.append(("Retry-After", exc.extra["retry_after"]))
            server.errors += 1
            self._reply(
                exc.status,
                {"ok": False, "error": {"status": exc.status,
                                        "message": str(exc)}},
                headers,
            )

        def _body(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            if length > _MAX_BODY:
                raise HttpError(400, "request body too large")
            if length == 0:
                return {}
            try:
                raw = self.rfile.read(length)
            except (ConnectionResetError, TimeoutError) as exc:
                server.client_disconnects += 1
                raise HttpError(400, "client hung up mid-request") from exc
            try:
                body = json.loads(raw)
            except ValueError as exc:
                raise HttpError(400, f"request body is not JSON: {exc}")
            if not isinstance(body, dict):
                raise HttpError(400, "request body must be a JSON object")
            return body

        def _dispatch(self, method: str) -> None:
            server.requests += 1
            try:
                payload, status, headers = self._route(method)
            except HttpError as exc:
                self._reply_error(exc)
                return
            except DeadlineError as exc:
                self._reply_error(HttpError(504, str(exc)))
                return
            except TimingError as exc:
                # "no arrival at ..." is an addressing problem: 404.
                self._reply_error(HttpError(404, str(exc)))
                return
            except ReproError as exc:
                self._reply_error(HttpError(422, str(exc)))
                return
            except Exception as exc:  # noqa: BLE001 - the daemon survives
                server.errors += 1
                self._reply(
                    500,
                    {"ok": False,
                     "error": {"status": 500,
                               "message": f"internal error "
                                          f"({type(exc).__name__}: {exc})"}},
                )
                return
            self._reply(status, payload, headers)

        # ------------------------------------------------------------
        # Routing.
        # ------------------------------------------------------------
        def _route(self, method: str):
            path = self.path.split("?", 1)[0].rstrip("/")
            if method == "GET" and path == "/healthz":
                return {"ok": True, **server.healthz()}, 200, ()
            if method == "GET" and path == "/stats":
                return {"ok": True, **server.stats()}, 200, ()
            if method == "GET" and path == "/designs":
                return (
                    {"ok": True, "designs": sorted(server.sessions)},
                    200,
                    (),
                )
            if path.startswith("/designs/"):
                rest = path[len("/designs/"):]
                name, _, action = rest.partition("/")
                if not name:
                    raise HttpError(404, "design name missing from path")
                return self._route_design(method, name, action)
            raise HttpError(404, f"no route for {method} {path}")

        def _route_design(self, method: str, name: str, action: str):
            if method == "POST" and action == "":
                body = self._body()
                server._admit()
                try:
                    return {"ok": True, **server.load(name, body)}, 200, ()
                finally:
                    server._release()
            if method == "DELETE" and action == "":
                return {"ok": True, **server.unload(name)}, 200, ()
            if method != "POST" or action not in (
                "analyze", "explain", "charge", "delta",
            ):
                raise HttpError(
                    404, f"no route for {method} /designs/{name}/{action}"
                )
            body = self._body()
            session = server.session(name)
            server._admit()
            try:
                return self._run_action(session, action, body)
            finally:
                server._release()

        def _run_action(self, session: DesignSession, action: str,
                        body: dict):
            started = time.perf_counter()
            if action == "analyze":
                options = _analysis_options(server, body)
                report, cached, epoch = session.analyze(
                    use_cache=_cache_mode(body), **options
                )
                return self._analysis_reply(
                    session, report, cached, epoch, started
                )
            if action == "delta":
                edits = body.get("edits")
                if not isinstance(edits, list) or not edits:
                    raise HttpError(
                        400, "'edits' must be a non-empty list of objects"
                    )
                request_id = body.get("request_id")
                if request_id is not None:
                    if (
                        not isinstance(request_id, str)
                        or not request_id
                        or len(request_id) > 200
                    ):
                        raise HttpError(
                            400,
                            "'request_id' must be a non-empty string of "
                            "at most 200 characters",
                        )
                options = _analysis_options(server, body)
                report, cached, epoch, deduplicated = session.delta(
                    edits,
                    use_cache=_cache_mode(body),
                    request_id=request_id,
                    **options,
                )
                return self._analysis_reply(
                    session, report, cached, epoch, started,
                    deduplicated=deduplicated,
                )
            if action == "explain":
                options = _analysis_options(server, body)
                node = body.get("node")
                transition = body.get("transition")
                if transition not in (None, "rise", "fall"):
                    raise HttpError(400, "'transition' must be rise or fall")
                sensitivity = body.get("sensitivity", False)
                if not isinstance(sensitivity, bool):
                    raise HttpError(400, "'sensitivity' must be a boolean")
                explanation, epoch = session.explain(
                    node if node is None else str(node), transition,
                    sensitivity=sensitivity, **options
                )
                payload = {
                    "ok": True,
                    "design": session.name,
                    "epoch": epoch,
                    "elapsed_ms": (time.perf_counter() - started) * 1e3,
                    "explanation": explanation,
                }
                return payload, 200, ()
            assert action == "charge"
            threshold = body.get("threshold", 0.5)
            try:
                threshold = float(threshold)
            except (TypeError, ValueError) as exc:
                raise HttpError(400, "'threshold' must be a number") from exc
            charge, epoch = session.charge(threshold=threshold)
            payload = {
                "ok": True,
                "design": session.name,
                "epoch": epoch,
                "elapsed_ms": (time.perf_counter() - started) * 1e3,
                "charge": charge,
            }
            return payload, 200, ()

        def _analysis_reply(self, session, report, cached, epoch, started,
                            deduplicated=None):
            """The reply envelope with the report's JSON text spliced in
            as its last member, so the report is never re-encoded."""
            envelope = {
                "ok": True,
                "design": session.name,
                "epoch": epoch,
                "cached": cached,
                "elapsed_ms": (time.perf_counter() - started) * 1e3,
            }
            if deduplicated is not None:
                envelope["deduplicated"] = deduplicated
            text = json.dumps(envelope)[:-1] + ', "report": ' + report + "}"
            return text, 200, ()

        # ------------------------------------------------------------
        def do_GET(self):  # noqa: N802 - stdlib naming
            self._dispatch("GET")

        def do_POST(self):  # noqa: N802
            self._dispatch("POST")

        def do_DELETE(self):  # noqa: N802
            self._dispatch("DELETE")

    return Handler
