"""Serving-layer tests: RWLock, ResultCache, DesignSession, TimingServer.

The contract under test, from the serving-layer invariants:

* every HTTP response is JSON; every ``report`` payload validates
  against the versioned report schema;
* the content-addressed cache makes repeat queries hits and edits
  misses -- and an edit toggled *back* is a hit again;
* deltas are atomic (epoch identifies the state the report describes)
  and incremental (only invalidated stages re-extract);
* overload is refused (429 + Retry-After), drain is refused (503), a
  deadline overrun under ``strict`` is 504 and under a degraded policy
  is a schema-valid partial report that is *not* cached;
* concurrent clients -- readers and writers mixed -- never corrupt a
  session or crash the daemon.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro import TimingAnalyzer, __version__
from repro.circuits import inverter_chain, random_logic
from repro.core import REPORT_SCHEMA_VERSION, validate_report
from repro.netlist import sim_dumps, sim_loads
from repro.serve import (
    DesignSession,
    HttpError,
    ResultCache,
    RWLock,
    TimingServer,
    cache_key,
)
from repro.tech import NMOS4
from repro.trace import Trace


def request(port, method, path, body=None, raw=None):
    """One HTTP exchange; returns (status, payload, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = raw if raw is not None else (
            None if body is None else json.dumps(body)
        )
        conn.request(method, path, body=data)
        response = conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, dict(response.getheaders())
    finally:
        conn.close()


@pytest.fixture
def server():
    server = TimingServer(port=0, max_inflight=4)
    server.start()
    yield server
    server._draining.clear()  # tests may have toggled it
    server.stop()


@pytest.fixture
def chain_sim():
    return sim_dumps(inverter_chain(8))


@pytest.fixture
def logic_sim():
    return sim_dumps(random_logic(120, seed=3))


# ----------------------------------------------------------------------
# RWLock.
# ----------------------------------------------------------------------
class TestRWLock:
    def test_readers_are_concurrent(self):
        lock = RWLock()
        entered = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                entered.wait()  # both readers inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_and_is_preferred(self):
        lock = RWLock()
        order = []
        reader_holds = threading.Event()
        release_reader = threading.Event()

        def first_reader():
            with lock.read_locked():
                reader_holds.set()
                release_reader.wait(5)
            order.append("reader1-out")

        def writer():
            with lock.write_locked():
                order.append("writer")

        def late_reader():
            with lock.read_locked():
                order.append("reader2")

        t1 = threading.Thread(target=first_reader)
        t1.start()
        assert reader_holds.wait(5)
        tw = threading.Thread(target=writer)
        tw.start()
        # Wait until the writer is registered as waiting, then start a
        # reader: writer preference must sequence it *after* the writer.
        for _ in range(500):
            if lock.stats()["writers_waiting"] == 1:
                break
            time.sleep(0.01)
        assert lock.stats()["writers_waiting"] == 1
        t2 = threading.Thread(target=late_reader)
        t2.start()
        time.sleep(0.05)
        assert "writer" not in order and "reader2" not in order
        release_reader.set()
        for t in (t1, tw, t2):
            t.join(timeout=5)
        assert order.index("writer") < order.index("reader2")

    def test_stats_shape(self):
        lock = RWLock()
        with lock.read_locked():
            stats = lock.stats()
        assert stats == {"readers": 1, "writer": False, "writers_waiting": 0}


# ----------------------------------------------------------------------
# ResultCache.
# ----------------------------------------------------------------------
class TestResultCache:
    def test_memory_hit_and_counters(self):
        cache = ResultCache()
        key = cache_key("sim", {"vdd": 5.0}, {"top_k": 5})
        assert cache.get(key) is None
        cache.put(key, json.dumps({"x": 1}))
        assert json.loads(cache.get(key)) == {"x": 1}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_disk_layer_survives_restart(self, tmp_path):
        key = cache_key("sim", {}, {})
        ResultCache(tmp_path).put(key, json.dumps({"x": 2}))
        fresh = ResultCache(tmp_path)
        assert json.loads(fresh.get(key)) == {"x": 2}
        assert fresh.stats()["disk_hits"] == 1

    def test_corrupt_disk_entry_is_evicted(self, tmp_path):
        key = cache_key("sim", {}, {})
        ResultCache(tmp_path).put(key, json.dumps({"x": 3}))
        [entry] = list(tmp_path.iterdir())
        entry.write_text("{ not json")
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert not entry.exists()
        assert fresh.stats()["corrupt_evictions"] == 1

    def test_memory_lru_bound(self):
        texts = [json.dumps({"i": i}) for i in range(3)]
        # A byte budget that holds exactly two of the three reports.
        cache = ResultCache(memory_budget=2 * len(texts[0]))
        keys = [cache_key("sim", {}, {"i": i}) for i in range(3)]
        for key, text in zip(keys, texts):
            cache.put(key, text)
        assert cache.get(keys[0]) is None  # evicted, no disk layer
        assert json.loads(cache.get(keys[2])) == {"i": 2}

    def test_key_is_content_addressed(self):
        a = cache_key("sim a", {"vdd": 5.0}, {"top_k": 5})
        assert a == cache_key("sim a", {"vdd": 5.0}, {"top_k": 5})
        assert a != cache_key("sim b", {"vdd": 5.0}, {"top_k": 5})
        assert a != cache_key("sim a", {"vdd": 4.5}, {"top_k": 5})
        assert a != cache_key("sim a", {"vdd": 5.0}, {"top_k": 6})

    def test_key_mixes_in_schema_version(self, monkeypatch):
        # Bumping the report schema must retire every old cache key.
        from repro.serve import cache as cache_module

        a = cache_key("sim", {"vdd": 5.0}, {"top_k": 5})
        monkeypatch.setattr(
            cache_module, "REPORT_SCHEMA_VERSION", "999.0.0"
        )
        assert cache_key("sim", {"vdd": 5.0}, {"top_k": 5}) != a

    def test_stale_schema_disk_entry_is_evicted(self, tmp_path):
        # A disk entry stamped with a different schema version (a
        # hand-copied or legacy file landing under a current key) is
        # evicted on read, never served.
        key = cache_key("sim", {}, {})
        ResultCache(tmp_path).put(
            key, json.dumps({"schema_version": "0.0.1", "x": 4})
        )
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert not list(tmp_path.iterdir())
        assert fresh.stats()["stale_evictions"] == 1

    def test_current_schema_disk_entry_is_served(self, tmp_path):
        key = cache_key("sim", {}, {})
        payload = {"schema_version": REPORT_SCHEMA_VERSION, "x": 5}
        ResultCache(tmp_path).put(key, json.dumps(payload))
        fresh = ResultCache(tmp_path)
        assert json.loads(fresh.get(key)) == payload
        assert fresh.stats()["stale_evictions"] == 0


# ----------------------------------------------------------------------
# DesignSession.
# ----------------------------------------------------------------------
class TestDesignSession:
    def test_analyze_caches_and_validates(self, chain_sim):
        session = DesignSession("chain", chain_sim)
        payload, cached, epoch = session.analyze()
        assert cached is False and epoch == 0
        validate_report(json.loads(payload))
        payload2, cached2, _ = session.analyze()
        assert cached2 is True and payload2 == payload

    def test_delta_misses_and_toggle_back_hits(self, chain_sim):
        session = DesignSession("chain", chain_sim)
        session.analyze()
        device = sorted(session.netlist.devices)[0]
        base_w = session.netlist.device(device).w
        payload, cached, epoch, _dedup = session.delta(
            [{"device": device, "w": base_w * 1.2}]
        )
        assert cached is False and epoch == 1
        validate_report(json.loads(payload))
        # Toggling the edit back restores the original content hash:
        # the very first report comes straight out of the cache.
        _, cached_back, epoch_back, _dedup = session.delta(
            [{"device": device, "w": base_w}]
        )
        assert cached_back is True and epoch_back == 2

    def test_delta_below_print_precision_misses(self):
        # A .sim file writes widths at 12 significant digits; two widths
        # that agree to 12 digits are still different designs, and the
        # cache must not answer one with the other's report.
        sim_text = sim_dumps(inverter_chain(4))
        session = DesignSession("chain", sim_text)
        session.analyze()
        device = sorted(session.netlist.devices)[0]
        w1 = session.netlist.device(device).w * 1.2
        session.delta([{"device": device, "w": w1}])
        w2 = w1 * (1 + 1e-13)
        assert w2 != w1
        payload, cached, epoch, _dedup = session.delta(
            [{"device": device, "w": w2}]
        )
        assert cached is False and epoch == 2
        net = sim_loads(sim_text, name="chain")
        fresh = TimingAnalyzer(net)
        net.device(device).w = w2
        assert payload == json.dumps(fresh.analyze().to_json())

    def test_explain_reuses_memoized_analysis(self, chain_sim):
        session = DesignSession("chain", chain_sim)
        session.analyze()
        explanation, _ = session.explain()
        assert session.analyses == 1  # explain reused the live result
        assert explanation["events"] if "events" in explanation else explanation

    def test_policy_override_is_scoped_to_the_request(self, chain_sim):
        session = DesignSession("chain", chain_sim, on_error="strict")
        session.analyze(on_error="quarantine", use_cache=False)
        assert session.analyzer.on_error == "strict"
        assert session.analyzer.calculator.on_error == "strict"

    @pytest.mark.parametrize(
        "deadline", [None, 600.0], ids=["no-deadline", "ample-deadline"]
    )
    @pytest.mark.parametrize("policy", ["strict", "quarantine"])
    def test_corner_request_matches_standalone(
        self, logic_sim, policy, deadline
    ):
        # Every cell reports what a standalone analysis at the corner
        # does; terms serve the corner only where MCMM evaluates them.
        session = DesignSession("logic", logic_sim)
        trace = Trace()
        session.analyzer.calculator.trace = trace
        payload, cached, _epoch = session.analyze(
            corner="slow", on_error=policy, deadline=deadline
        )
        assert not cached
        net = sim_loads(logic_sim, name="logic", tech=NMOS4)
        standalone = TimingAnalyzer(
            net, tech=net.tech.corner("slow"), on_error=policy
        ).analyze()
        assert payload == json.dumps(standalone.to_json())
        evaluated = trace.counters.get("parametric_stage_evals", 0) > 0
        assert evaluated == (policy == "strict" and deadline is None)


# ----------------------------------------------------------------------
# TimingServer over real HTTP.
# ----------------------------------------------------------------------
class TestServerEndpoints:
    def test_healthz_reports_identity(self, server):
        status, payload, _ = request(server.port, "GET", "/healthz")
        assert status == 200 and payload["ok"] is True
        assert payload["status"] == "ok"
        assert payload["server"] == {
            "tool": "repro",
            "version": __version__,
            "schema_version": REPORT_SCHEMA_VERSION,
        }

    def test_full_design_lifecycle(self, server, chain_sim):
        port = server.port
        status, loaded, _ = request(
            port, "POST", "/designs/chain", {"sim": chain_sim}
        )
        assert status == 200 and loaded["devices"] > 0

        status, cold, _ = request(port, "POST", "/designs/chain/analyze", {})
        assert status == 200 and cold["cached"] is False
        validate_report(cold["report"])

        status, warm, _ = request(port, "POST", "/designs/chain/analyze", {})
        assert status == 200 and warm["cached"] is True
        assert warm["report"] == cold["report"]

        device = sorted(sim_loads(chain_sim).devices)[0]
        status, delta, _ = request(
            port,
            "POST",
            "/designs/chain/delta",
            {"edits": [{"device": device, "w": 2e-5}]},
        )
        assert status == 200 and delta["epoch"] == 1
        validate_report(delta["report"])

        status, explained, _ = request(
            port, "POST", "/designs/chain/explain", {}
        )
        assert status == 200 and "explanation" in explained

        status, charge, _ = request(port, "POST", "/designs/chain/charge", {})
        assert status == 200
        assert charge["charge"]["schema"] == "repro-charge-report"

        status, designs, _ = request(port, "GET", "/designs")
        assert designs["designs"] == ["chain"]

        status, stats, _ = request(port, "GET", "/stats")
        assert stats["requests"] >= 7
        assert stats["cache"]["hits"] >= 1
        assert stats["designs"]["chain"]["epoch"] == 1

        status, _, _ = request(port, "DELETE", "/designs/chain")
        assert status == 200
        status, _, _ = request(port, "POST", "/designs/chain/analyze", {})
        assert status == 404

    def test_error_mapping(self, server, chain_sim):
        port = server.port
        cases = [
            ("POST", "/designs/ghost/analyze", {}, 404),
            ("POST", "/designs/bad", {}, 400),  # no 'sim'
            ("POST", "/designs/bad", {"sim": "", "x": 1}, 400),
            ("GET", "/nowhere", None, 404),
        ]
        for method, path, body, expected in cases:
            status, payload, _ = request(port, method, path, body)
            assert status == expected, path
            assert payload["ok"] is False
        # Malformed JSON body.
        status, payload, _ = request(
            port, "POST", "/designs/x", raw="{not json"
        )
        assert status == 400
        # Unknown device in a delta is a netlist error: 422.
        request(port, "POST", "/designs/chain", {"sim": chain_sim})
        status, payload, _ = request(
            port,
            "POST",
            "/designs/chain/delta",
            {"edits": [{"device": "nope", "w": 1e-5}]},
        )
        assert status == 422
        # Bad policy name at load time.
        status, _, _ = request(
            port, "POST", "/designs/y", {"sim": chain_sim, "on_error": "yolo"}
        )
        assert status == 400

    def test_backpressure_is_429_with_retry_after(self, server, chain_sim):
        port = server.port
        request(port, "POST", "/designs/chain", {"sim": chain_sim})
        for _ in range(server.max_inflight):
            server._admit()
        try:
            status, payload, headers = request(
                port, "POST", "/designs/chain/analyze", {}
            )
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert "capacity" in payload["error"]["message"]
        finally:
            for _ in range(server.max_inflight):
                server._release()
        status, _, _ = request(port, "POST", "/designs/chain/analyze", {})
        assert status == 200
        assert server.rejected_busy == 1

    def test_draining_refuses_with_503(self, server, chain_sim):
        port = server.port
        request(port, "POST", "/designs/chain", {"sim": chain_sim})
        server._draining.set()
        try:
            status, _, _ = request(port, "POST", "/designs/chain/analyze", {})
            assert status == 503
        finally:
            server._draining.clear()
        status, _, _ = request(port, "POST", "/designs/chain/analyze", {})
        assert status == 200

    def test_stop_is_idempotent_and_clean(self, chain_sim):
        server = TimingServer(port=0).start()
        request(server.port, "POST", "/designs/chain", {"sim": chain_sim})
        server.stop()
        server.stop()  # idempotent
        with pytest.raises(OSError):
            request(server.port, "GET", "/healthz")


class TestDeadlines:
    def test_strict_overrun_is_504(self, server, logic_sim):
        port = server.port
        request(port, "POST", "/designs/logic", {"sim": logic_sim})
        status, payload, _ = request(
            port,
            "POST",
            "/designs/logic/analyze",
            {"deadline_ms": 0.001, "cache": "bypass"},
        )
        assert status == 504
        assert "deadline" in payload["error"]["message"]

    def test_degraded_overrun_is_partial_but_valid(self, server, logic_sim):
        port = server.port
        request(port, "POST", "/designs/logic", {"sim": logic_sim})
        status, payload, _ = request(
            port,
            "POST",
            "/designs/logic/analyze",
            {"deadline_ms": 0.001, "on_error": "quarantine"},
        )
        assert status == 200 and payload["cached"] is False
        report = payload["report"]
        validate_report(report)
        codes = [d["code"] for d in report["diagnostics"]["records"]]
        assert "deadline-exceeded" in codes
        assert report["diagnostics"]["coverage"]["complete"] is False
        # The cut report must not have been cached: a full-budget rerun
        # recovers complete coverage instead of replaying the partial.
        status, payload, _ = request(
            port,
            "POST",
            "/designs/logic/analyze",
            {"on_error": "quarantine"},
        )
        assert status == 200 and payload["cached"] is False
        coverage = payload["report"]["diagnostics"]["coverage"]
        assert coverage["complete"] is True


class TestConcurrentClients:
    def test_mixed_readers_and_writers(self, chain_sim):
        server = TimingServer(port=0, max_inflight=32).start()
        try:
            port = server.port
            request(port, "POST", "/designs/chain", {"sim": chain_sim})
            request(port, "POST", "/designs/chain/analyze", {})
            device = sorted(sim_loads(chain_sim).devices)[0]
            base_w = sim_loads(chain_sim).device(device).w
            failures = []

            def reader():
                for _ in range(10):
                    status, payload, _ = request(
                        port, "POST", "/designs/chain/analyze", {}
                    )
                    if status != 200:
                        failures.append(("analyze", status, payload))

            def writer(step):
                for i in range(5):
                    w = base_w * (1.0 + 0.01 * ((i + step) % 3))
                    status, payload, _ = request(
                        port,
                        "POST",
                        "/designs/chain/delta",
                        {"edits": [{"device": device, "w": w}]},
                    )
                    if status != 200:
                        failures.append(("delta", status, payload))

            threads = [threading.Thread(target=reader) for _ in range(6)]
            threads += [
                threading.Thread(target=writer, args=(s,)) for s in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not failures
            assert not any(t.is_alive() for t in threads)
            status, stats, _ = request(port, "GET", "/stats")
            assert stats["designs"]["chain"]["epoch"] == 10
            assert stats["errors"] == 0
        finally:
            server.stop()
