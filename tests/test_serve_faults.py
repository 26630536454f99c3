"""Fault injection against the running daemon (repro.serve).

The robustness contract, end to end over real HTTP:

* injected stage crashes degrade by policy -- a quarantine-loaded
  design answers 200 with a schema-valid partial report (diagnostics
  and coverage tell the truth), a strict-loaded design answers 422 --
  and the daemon survives either way;
* injected *pool* faults (worker crash, hard kill, hang, corrupt
  return) are invisible to clients: the supervised pool only pre-fills
  a cache and the serial walk is authoritative, so the report is
  byte-identical to a serial run and no worker process is orphaned;
* a client that hangs up mid-exchange is counted and survived;
* SIGTERM to a daemon subprocess drains, reaps its forked workers, and
  exits 0 -- zero orphan processes.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import time

import pytest

from repro import TimingAnalyzer, robust
from repro.circuits import inverter_chain, random_logic
from repro.core import validate_report
from repro.delay import shutdown_pool, stage_delay
from repro.netlist import sim_dumps, sim_loads
from repro.serve import TimingServer
from repro.testing import FaultPlan


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        data = None if body is None else json.dumps(body)
        conn.request(method, path, body=data)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture(autouse=True)
def _no_leftover_handler():
    robust.clear_fault_handler()
    yield
    robust.clear_fault_handler()


@pytest.fixture
def server():
    server = TimingServer(port=0).start()
    yield server
    server.stop()


@pytest.fixture
def chain_sim():
    return sim_dumps(inverter_chain(8))


def _workers_reaped(timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


# ----------------------------------------------------------------------
# Serial-path faults, by policy.
# ----------------------------------------------------------------------
class TestStageFaultsOverHttp:
    def test_quarantine_design_degrades_to_partial_report(
        self, server, chain_sim
    ):
        port = server.port
        request(port, "POST", "/designs/q",
                {"sim": chain_sim, "on_error": "quarantine"})
        plan = FaultPlan().crash("stage-arcs", times=1)
        with plan.installed():
            status, payload = request(
                port, "POST", "/designs/q/analyze", {"cache": "bypass"}
            )
        assert status == 200
        report = payload["report"]
        validate_report(report)
        records = report["diagnostics"]["records"]
        assert any(r["action"] == "quarantined" for r in records)
        assert report["diagnostics"]["coverage"]["complete"] is False
        # The daemon is unharmed: liveness and further queries both work.
        status, health = request(port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, _ = request(
            port, "POST", "/designs/q/analyze", {"cache": "bypass"}
        )
        assert status == 200

    def test_strict_design_maps_fault_to_422(self, server, chain_sim):
        port = server.port
        request(port, "POST", "/designs/s", {"sim": chain_sim})
        plan = FaultPlan().crash("stage-arcs", times=1)
        with plan.installed():
            status, payload = request(
                port, "POST", "/designs/s/analyze", {"cache": "bypass"}
            )
            assert status == 422
            assert payload["ok"] is False
        # Fault budget spent: the design recovers, the daemon never died.
        status, payload = request(
            port, "POST", "/designs/s/analyze", {"cache": "bypass"}
        )
        assert status == 200
        validate_report(payload["report"])


# ----------------------------------------------------------------------
# Pool faults: the client must not be able to tell.
# ----------------------------------------------------------------------
class TestPoolFaultsOverHttp:
    """Worker crash / kill / hang / corrupt-return behind the daemon."""

    @pytest.fixture(autouse=True)
    def _force_pool(self, monkeypatch):
        # Let a tiny circuit on any host cross the parallel-extraction
        # gate so the fork pool actually engages, then reap it after.
        monkeypatch.setattr(stage_delay, "available_cpus", lambda: 4)
        monkeypatch.setattr(stage_delay, "PARALLEL_MIN_DEVICES", 1)
        monkeypatch.setattr(stage_delay, "PARALLEL_COLD_MIN_DEVICES", 1)
        yield
        shutdown_pool()
        assert _workers_reaped()

    @pytest.mark.parametrize(
        "mode",
        ["crash", "hard_crash", "delay", "corrupt"],
    )
    def test_worker_fault_is_invisible_over_http(self, mode, chain_sim):
        # Serial ground truth, same engine options the session uses.
        baseline = TimingAnalyzer(
            sim_loads(chain_sim, name="pooled"), workers=1
        ).analyze(top_k=5).to_json()

        if mode == "crash":
            plan = FaultPlan().crash("worker-task", times=None,
                                     exc_type=ValueError)
        elif mode == "hard_crash":
            plan = FaultPlan().hard_crash("worker-task", times=None)
        elif mode == "delay":
            plan = FaultPlan().delay("worker-task", 5.0, times=None)
        else:
            plan = FaultPlan().corrupt("worker-result", times=None)

        server = TimingServer(port=0, workers=2).start()
        try:
            with plan.installed():
                # Load *inside* the plan so the pool forks with the
                # faults scripted in worker memory.
                request(server.port, "POST", "/designs/pooled",
                        {"sim": chain_sim})
                session = server.sessions["pooled"]
                calc = session.analyzer.calculator
                calc.retry_backoff = 0.01
                if mode == "delay":
                    calc.task_timeout = 0.2
                    calc.task_retries = 0
                status, payload = request(
                    server.port, "POST", "/designs/pooled/analyze",
                    {"cache": "bypass"},
                )
            assert status == 200
            assert payload["report"] == baseline
            status, health = request(server.port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Client misbehaviour.
# ----------------------------------------------------------------------
class TestClientDisconnect:
    def test_hangup_mid_exchange_is_counted_and_survived(self, server):
        port = server.port
        sim = sim_dumps(random_logic(120, seed=3))
        request(port, "POST", "/designs/d", {"sim": sim})

        body = json.dumps({"cache": "bypass"}).encode()
        head = (
            f"POST /designs/d/analyze HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(head + body)
        # SO_LINGER(on, 0): close sends RST, so the daemon's read or
        # write on this connection fails like a real mid-flight hangup.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if server.client_disconnects >= 1:
                break
            time.sleep(0.05)
        assert server.client_disconnects >= 1
        # Everyone else is unaffected.
        status, payload = request(port, "POST", "/designs/d/analyze", {})
        assert status == 200
        validate_report(payload["report"])


# ----------------------------------------------------------------------
# SIGTERM to a real daemon process.
# ----------------------------------------------------------------------
class TestSigtermSubprocess:
    def _children_of(self, pid: int) -> list[int]:
        out = subprocess.run(
            ["ps", "-o", "pid=", "--ppid", str(pid)],
            capture_output=True, text=True,
        ).stdout
        return [int(tok) for tok in out.split()]

    def test_sigterm_drains_reaps_and_exits_zero(self, tmp_path):
        # Big enough to cross the cold parallel gate: the daemon forks
        # real pool workers, which SIGTERM must reap.
        sim_path = tmp_path / "big.sim"
        sim_path.write_text(sim_dumps(random_logic(4500, seed=1)))
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(sim_path),
             "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
        )
        try:
            # Skip the per-design "loaded ..." lines to the listen line.
            match = None
            for _ in range(10):
                line = proc.stdout.readline()
                match = re.search(r"http://[\w.]+:(\d+)", line)
                if match:
                    break
            assert match, f"no listen line: {line!r}"
            port = int(match.group(1))

            status, health = request(port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            status, payload = request(port, "POST", "/designs/big/analyze", {})
            assert status == 200
            validate_report(payload["report"])

            workers = self._children_of(proc.pid)
            # On a multi-CPU host the analysis crossed the cold parallel
            # gate, so forked pool workers must exist (and must die with
            # the daemon).  A 1-CPU host stays serial; the shutdown path
            # is still exercised, there is just nothing to orphan.
            if stage_delay.available_cpus() >= 2:
                assert workers, "parallel extraction spawned no pool workers"

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0

            deadline = time.monotonic() + 10
            leftover = workers
            while time.monotonic() < deadline:
                leftover = [
                    pid for pid in workers
                    if os.path.exists(f"/proc/{pid}")
                ]
                if not leftover:
                    break
                time.sleep(0.1)
            assert not leftover, f"orphaned pool workers: {leftover}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_idle_daemon_exits_promptly(self, tmp_path):
        # The SIGTERM handler only starts the drain; an idle daemon has
        # nothing to wait for, so it must not sit out the drain timeout.
        sim_path = tmp_path / "chain.sim"
        sim_path.write_text(sim_dumps(inverter_chain(4)))
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(sim_path),
             "--port", "0", "--no-journal"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=_REPO_ROOT,
        )
        try:
            for _ in range(10):
                if "listening on http://" in proc.stdout.readline():
                    break
            else:
                pytest.fail("daemon printed no listen line")
            sent = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert time.monotonic() - sent < 5.0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


# ----------------------------------------------------------------------
# SIGKILL chaos: crash a real daemon at each durability fault site,
# restart it on the same journal directory, and prove recovery.
# ----------------------------------------------------------------------
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestCrashRecoverySubprocess:
    """Power-cut chaos against the write-ahead journal.

    Each scenario arms a ``REPRO_FAULT_PLAN`` inside a real ``repro
    serve`` daemon so a SIGKILL fires at one exact durability fault
    site, then restarts a clean daemon on the same ``--journal-dir``
    and asserts the recovery contract: the design comes back, torn
    tails are quarantined as diagnostics (never a refused start), and
    the client's retried delta -- same idempotency key -- lands exactly
    once.
    """

    def _spawn(self, sim_path, journal_dir, *, plan=None, compact=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_FAULT_PLAN", None)
        env.pop("REPRO_JOURNAL_COMPACT_BYTES", None)
        if plan is not None:
            env["REPRO_FAULT_PLAN"] = json.dumps(plan)
        if compact is not None:
            env["REPRO_JOURNAL_COMPACT_BYTES"] = str(compact)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(sim_path),
             "--port", "0", "--journal-dir", str(journal_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=_REPO_ROOT,
        )
        match = None
        for _ in range(10):
            line = proc.stdout.readline()
            match = re.search(r"http://[\w.]+:(\d+)", line)
            if match:
                break
        assert match, f"no listen line: {line!r}"
        return proc, int(match.group(1))

    def _kill_via(self, port, path, body):
        """Send the request that trips the armed SIGKILL; swallow the
        connection death (the daemon never answers it)."""
        try:
            request(port, "POST", path, body)
        except (OSError, http.client.HTTPException, ValueError):
            pass

    def _assert_killed(self, proc):
        assert proc.wait(timeout=30) == -signal.SIGKILL

    def _cleanup(self, proc):
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    @pytest.fixture
    def sim_path(self, tmp_path):
        path = tmp_path / "chip.sim"
        path.write_text(sim_dumps(inverter_chain(8)))
        return path

    @pytest.fixture
    def device(self, sim_path):
        return sorted(sim_loads(sim_path.read_text()).devices)[0]

    def _crash_then_recover(
        self, sim_path, journal_dir, device, *,
        plan, compact=None, edits_before_crash=0,
    ):
        """Common chaos shape: crash a daemon mid-delta, restart, and
        return (proc, port, delta_reply) of the retried request."""
        proc, port = self._spawn(
            sim_path, journal_dir, plan=plan, compact=compact
        )
        try:
            for i in range(edits_before_crash):
                status, _ = request(
                    port, "POST", "/designs/chip/delta",
                    {"edits": [{"device": device, "w": (2 + i) * 1e-6}],
                     "request_id": f"warm-{i}"},
                )
                assert status == 200
            self._kill_via(
                port, "/designs/chip/delta",
                {"edits": [{"device": device, "w": 9.25e-6}],
                 "request_id": "crashed-delta"},
            )
            self._assert_killed(proc)
        finally:
            self._cleanup(proc)

        revived, port = self._spawn(sim_path, journal_dir)
        # The at-least-once retry of the request the crash swallowed.
        status, reply = request(
            port, "POST", "/designs/chip/delta",
            {"edits": [{"device": device, "w": 9.25e-6}],
             "request_id": "crashed-delta"},
        )
        assert status == 200
        return revived, port, reply

    def test_kill_before_journal_append(self, tmp_path, sim_path, device):
        # Crash window 1: the edit was never journaled, so recovery
        # lacks it and the retry applies it exactly once.
        journal_dir = tmp_path / "journal"
        revived, port, reply = self._crash_then_recover(
            sim_path, journal_dir, device,
            # skip=1: the load record passes the site; the delta arms it.
            plan=[{"site": "journal-append", "mode": "kill9", "skip": 1}],
        )
        try:
            assert reply["epoch"] == 1 and reply["deduplicated"] is False
            # A second retry of the same key now deduplicates.
            status, again = request(
                port, "POST", "/designs/chip/delta",
                {"edits": [{"device": device, "w": 9.25e-6}],
                 "request_id": "crashed-delta"},
            )
            assert status == 200
            assert again["epoch"] == 1 and again["deduplicated"] is True
            assert again["report"] == reply["report"]
            _, stats = request(port, "GET", "/stats")
            assert stats["journal"]["recovered_designs"] == ["chip"]
        finally:
            self._cleanup(revived)

    def test_torn_write_then_kill_at_fsync(self, tmp_path, sim_path, device):
        # Crash window 2: half a record lands on disk.  Recovery must
        # quarantine the torn tail as a diagnostic and keep the valid
        # prefix; the retry then applies the edit exactly once.
        journal_dir = tmp_path / "journal"
        revived, port, reply = self._crash_then_recover(
            sim_path, journal_dir, device,
            plan=[
                {"site": "journal-append", "mode": "torn", "skip": 1,
                 "fraction": 0.5},
                {"site": "journal-fsync", "mode": "kill9", "skip": 1},
            ],
        )
        try:
            assert reply["epoch"] == 1 and reply["deduplicated"] is False
            _, stats = request(port, "GET", "/stats")
            codes = [d["code"]
                     for d in stats["journal"]["recovery_diagnostics"]]
            assert codes == ["journal-torn-tail"]
            assert stats["journal"]["recovered_designs"] == ["chip"]
            _, health = request(port, "GET", "/healthz")
            assert health["status"] == "ok"
            assert health["journal"]["recovery_diagnostics"] == 1
        finally:
            self._cleanup(revived)

    def test_kill_during_snapshot_write(self, tmp_path, sim_path, device):
        # Crash window 3: the delta was journaled (and acknowledged
        # durability-wise) but the compaction snapshot died mid-write.
        # atomic_write_json guarantees no torn snapshot; recovery
        # replays the journal and the retry deduplicates.
        journal_dir = tmp_path / "journal"
        revived, port, reply = self._crash_then_recover(
            sim_path, journal_dir, device,
            plan=[{"site": "snapshot-write", "mode": "kill9"}],
            compact=1,  # every delta triggers compaction
        )
        try:
            assert reply["epoch"] == 1 and reply["deduplicated"] is True
            _, stats = request(port, "GET", "/stats")
            assert stats["journal"]["recovered_designs"] == ["chip"]
            assert stats["journal"]["recovery_diagnostics"] == []
            assert stats["designs"]["chip"]["epoch"] == 1
        finally:
            self._cleanup(revived)

    def test_kill_before_journal_truncate(self, tmp_path, sim_path, device):
        # Crash window 4: snapshot written, journal not yet truncated.
        # Replay must skip the journal records the snapshot already
        # covers (epoch <= snapshot epoch), not double-apply them.
        journal_dir = tmp_path / "journal"
        revived, port, reply = self._crash_then_recover(
            sim_path, journal_dir, device,
            plan=[{"site": "journal-truncate", "mode": "kill9"}],
            compact=1,
        )
        try:
            assert reply["epoch"] == 1 and reply["deduplicated"] is True
            assert (journal_dir / "chip.snapshot.json").exists()
            _, stats = request(port, "GET", "/stats")
            assert stats["journal"]["recovery_diagnostics"] == []
            assert stats["designs"]["chip"]["epoch"] == 1
        finally:
            self._cleanup(revived)

    def test_recovered_state_matches_a_clean_daemon(
        self, tmp_path, sim_path, device
    ):
        # The parity oracle: a daemon that survived a mid-compaction
        # SIGKILL + journal replay answers byte-identically to a fresh
        # daemon that applied the same edits with no crash at all.
        journal_dir = tmp_path / "journal"
        revived, port, _ = self._crash_then_recover(
            sim_path, journal_dir, device,
            # skip=2: the two warm-up deltas' compactions pass the site;
            # the third delta's compaction trips the kill.
            plan=[{"site": "snapshot-write", "mode": "kill9", "skip": 2}],
            compact=1, edits_before_crash=2,
        )
        try:
            status, recovered = request(
                port, "POST", "/designs/chip/analyze", {}
            )
            assert status == 200
        finally:
            self._cleanup(revived)

        clean, port = self._spawn(sim_path, tmp_path / "clean-journal")
        try:
            for i in range(2):
                request(
                    port, "POST", "/designs/chip/delta",
                    {"edits": [{"device": device, "w": (2 + i) * 1e-6}]},
                )
            status, expected = request(
                port, "POST", "/designs/chip/delta",
                {"edits": [{"device": device, "w": 9.25e-6}]},
            )
            assert status == 200
        finally:
            self._cleanup(clean)
        assert json.dumps(recovered["report"], sort_keys=True) == \
            json.dumps(expected["report"], sort_keys=True)
