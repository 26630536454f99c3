"""The ``eco-session`` workload: one designer's edit loop beside a viewer.

One ``repro serve --port 0 --workers auto --journal-dir <tmp>`` daemon
(started through ``daemon.py``) holds one design.  This process is the
load generator, with two threads and two connections:

* the **editor**, a closed loop of seeded single-device width edits
  (width x U[0.8, 1.25]); each ``delta`` is followed by ``explain`` of
  the critical endpoint;
* the **viewer**, an open loop sending one cached ``analyze`` every
  ``VIEW_PERIOD`` seconds, each timed from the moment it was due.

Every reply must be ``ok`` and free of retries (a retry means a 429, a
503 or a transport error).  At the end the daemon's current report must
equal a fresh analysis of the same ``.sim`` text with the same exact
width floats applied, run here under the same hash seed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

from driver import canonical_digest

#: The design's name inside the daemon.
DESIGN = "eco"
#: Seconds between the viewer's scheduled reads.
VIEW_PERIOD = 0.5
#: Seconds a daemon may take to drain and exit after SIGTERM.
STOP_TIMEOUT = 60.0

HERE = os.path.dirname(os.path.abspath(__file__))


class Daemon:
    """A ``daemon.py`` subprocess; :meth:`start` returns once it listens."""

    def __init__(self, work: str, env: dict, trace: bool) -> None:
        self.journal = tempfile.mkdtemp(prefix="journal-", dir=work)
        self.out = os.path.join(self.journal, "daemon.json")
        self.stderr_path = os.path.join(self.journal, "stderr.txt")
        self.env = env
        self.trace = trace
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> "Daemon":
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "daemon.py"),
                 "1" if self.trace else "0", self.out,
                 "--port", "0", "--workers", "auto",
                 "--journal-dir", self.journal],
                stdout=subprocess.PIPE, stderr=stderr, env=self.env,
                text=True,
            )
        for line in self.proc.stdout:
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1].split()[0]
                                .rsplit(":", 1)[1])
                return self
        raise RuntimeError(f"daemon exited before listening: {self._stderr()}")

    def _stderr(self) -> str:
        with open(self.stderr_path) as fp:
            return fp.read()[-2000:]

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, return what the launcher wrote."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("daemon did not drain after SIGTERM")
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"daemon exited {self.proc.returncode}: {self._stderr()}"
            )
        with open(self.out) as fp:
            return json.load(fp)

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _client(port: int):
    from repro.serve.client import TimingClient

    return TimingClient(port=port, timeout=60.0)


def _call(client, method: str, *args, **kwargs):
    """One checked request: ``(reply or None, ok)``.

    An error reply, a refused (429/503) or retried request and a timeout
    all count as a failed op.
    """
    from repro.serve.client import ClientError

    retried = client.retried
    try:
        reply = getattr(client, method)(*args, **kwargs)
    except ClientError:
        return None, False
    return reply, reply.get("ok") is True and client.retried == retried


def set_up(sim_text: str, work: str, env: dict, trace: bool) -> tuple:
    """Launch, load and run the first cold analysis: ``(daemon, reply, s)``."""
    from repro.serve.client import ClientError

    launched = time.monotonic()
    daemon = Daemon(work, env, trace)
    try:
        daemon.start()
        client = _client(daemon.port)
        client.load(DESIGN, sim_text)
        reply = client.analyze(DESIGN)
    except (ClientError, RuntimeError, OSError):
        daemon.kill()
        raise
    return daemon, reply, time.monotonic() - launched


def edit_session(
    sim_text: str,
    widths: dict[str, float],
    work: str,
    env: dict,
    *,
    seed: int,
    budget: float,
    trace: bool,
) -> dict:
    """Set up one daemon and drive the editor and viewer until ``budget``.

    ``widths`` is the design's device widths as loaded; the edits start
    from it.  Returns the raw samples, the daemon's stats and launcher
    record, and whether its final report matched a fresh analysis.
    """
    started = time.monotonic()
    deadline = started + budget
    daemon, first, setup_s = set_up(sim_text, work, env, trace)
    try:
        editor_client = _client(daemon.port)
        viewer_client = _client(daemon.port)
        stats_before = editor_client.stats()
        rng = random.Random(seed)
        names = sorted(widths)
        current = dict(widths)
        edited: dict[str, float] = {}
        edits: list[dict] = []
        queries: list[dict] = []
        last_report = [first["report"]]
        window = time.monotonic()

        def viewer() -> None:
            due = window
            while due < deadline:
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                sent = time.monotonic()
                _reply, ok = _call(viewer_client, "analyze", DESIGN)
                done = time.monotonic()
                queries.append({"ms": (done - due) * 1e3,
                                "lag_ms": (sent - due) * 1e3, "ok": ok})
                due += VIEW_PERIOD

        viewer_thread = threading.Thread(target=viewer, daemon=True)
        viewer_thread.start()
        op_seconds = 0.0
        while time.monotonic() + op_seconds < deadline:
            device = rng.choice(names)
            width = current[device] * rng.uniform(0.8, 1.25)
            t0 = time.monotonic()
            reply, ok = _call(editor_client, "delta", DESIGN,
                              [{"device": device, "w": width}])
            t1 = time.monotonic()
            _explained, explain_ok = _call(editor_client, "explain", DESIGN)
            t2 = time.monotonic()
            if reply is not None and reply.get("ok") is True:
                current[device] = edited[device] = width
                last_report[0] = reply["report"]
            edits.append({"ms": (t1 - t0) * 1e3, "op_ms": (t2 - t0) * 1e3,
                          "ok": ok and explain_ok})
            op_seconds = t2 - t0
        viewer_thread.join(timeout=STOP_TIMEOUT)
        if viewer_thread.is_alive():
            raise RuntimeError("viewer did not finish")
        window_end = time.monotonic()
        stats_after = editor_client.stats()
        retries = editor_client.retried + viewer_client.retried
    finally:
        record = None
        try:
            record = daemon.stop()
        finally:
            daemon.kill()
    return {
        "setup_s": setup_s,
        "window": (window, window_end),
        "edits": edits,
        "queries": queries,
        "stats": (stats_before, stats_after),
        "client_retries": retries,
        "daemon": record,
        "first_report": first["report"],
        "cut_arcs": last_report[0]["cut_arc_count"],
        "matches_fresh": matches_fresh(sim_text, edited, last_report[0]),
    }


def matches_fresh(sim_text: str, edited: dict[str, float], report: dict) -> bool:
    """Whether ``report`` equals a from-scratch analysis of the edited design.

    The fresh analyzer is built on the design as loaded, exactly as the
    daemon's session was (so both see the same ERC warnings), then every
    edited width is set to the exact float the daemon received before
    the one and only analysis runs.
    """
    from repro import TimingAnalyzer
    from repro.netlist import sim_loads
    from repro.tech import NMOS4

    net = sim_loads(sim_text, name=DESIGN, tech=NMOS4)
    analyzer = TimingAnalyzer(net)
    for device, width in edited.items():
        net.device(device).w = width
    analyzer.notify_changed(list(edited))
    fresh = analyzer.analyze().to_json()
    return canonical_digest(fresh) == canonical_digest(report)
