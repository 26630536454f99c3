"""Serve-daemon regression gate: hot sessions must actually be hot.

The daemon's pitch is that a resident engine answers iteration-loop
queries orders of magnitude faster than one-shot CLI runs.  This
harness measures that end to end -- through real HTTP against a real
:class:`~repro.serve.server.TimingServer` -- on the R-T3 scaling
circuits, and gates on it (written to ``BENCH_serve.json``):

* **warm_speedup** -- cold first analysis over warm content-cache hit,
  same request both times.  Gated ``>= 10`` at sizes where engine work
  dominates (``WARM_GATE_MIN_DEVICES``); the warm side is a fixed
  ~1 ms hash + dict lookup + HTTP round trip, so on tiny designs the
  ratio measures the loopback stack, not the cache.  Small sizes are
  still measured and reported, just not gated.
* **delta_speedup** -- full re-analysis of an edited design (fresh load
  + fresh analysis, what a CLI re-run pays) over an incremental
  ``/delta`` request (surgical ``notify_changed`` invalidation, every
  untouched stage's arcs stay cached).  Gated ``> 1.0``.
* **recovery_overhead** -- daemon startup with a journal to replay
  (snapshot + delta records rebuilt into a live session) over a cold
  reload of the same design from ``.sim`` text.  Both pay the same
  dominant parse + session build; the gate (``<= 1.5x``) holds the
  durability layer to "replay costs no more than reloading", so crash
  recovery never becomes the slow path.

Latencies are wall-clock through the loopback HTTP stack, so the gates
hold the *service*, not just the engine, to the claim.  Environment
metadata rides along, matching ``repro.bench.perf`` conventions.

Usage::

    PYTHONPATH=src python -m repro.bench.serve            # full gate
    PYTHONPATH=src python -m repro.bench.serve --smoke --json /tmp/s.json
                                        # CI quick mode; keeps the
                                        # committed ledger
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time
import urllib.request

from ..circuits import random_logic
from ..core import atomic_write_json
from ..delay import shutdown_pool
from ..netlist import sim_dumps, sim_loads
from ..serve import TimingServer
from .harness import REPO_ROOT, best_of, environment

__all__ = ["run", "main"]

OUTPUT_PATH = REPO_ROOT / "BENCH_serve.json"

#: R-T3 scaling points (devices ~= size + 1).
FULL_SIZES = (200, 1000, 5000)
SMOKE_SIZES = (1000,)

WARM_SPEEDUP_GATE = 10.0
#: The warm side is a fixed HTTP+hash floor; only gate the ratio where
#: cold engine work towers over it.
WARM_GATE_MIN_DEVICES = 500
DELTA_SPEEDUP_GATE = 1.0
#: Journal replay at startup may cost at most this multiple of a cold
#: reload of the same design.
RECOVERY_OVERHEAD_GATE = 1.5


class _Client:
    """Minimal JSON-over-HTTP client for one daemon."""

    def __init__(self, port: int) -> None:
        self.base = f"http://127.0.0.1:{port}"

    def post(self, path: str, body: dict) -> dict:
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(body).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())


def _bench_size(client: _Client, size: int, repeat: int) -> dict:
    """Measure one R-T3 circuit end to end; returns the result row."""
    net = random_logic(size, seed=7)
    sim_text = sim_dumps(net)
    name = f"rt3_{size}"
    # The .sim writer assigns canonical device names, so pick the edit
    # target from a local round trip -- the daemon sees the same names.
    loaded = sim_loads(sim_text, name=name)
    device = sorted(loaded.devices)[0]
    base_w = loaded.device(device).w

    started = time.perf_counter()
    client.post(f"/designs/{name}", {"sim": sim_text})
    load_s = time.perf_counter() - started

    started = time.perf_counter()
    cold = client.post(f"/designs/{name}/analyze", {})
    cold_s = time.perf_counter() - started
    assert cold["cached"] is False

    def warm_query() -> None:
        reply = client.post(f"/designs/{name}/analyze", {})
        assert reply["cached"] is True

    warm_s = best_of(repeat, warm_query)

    # Incremental edit loop: toggle one device width so every /delta is
    # a real engine run (cache bypassed to time the engine, not the
    # result cache).
    state = {"wide": False}

    def delta_query() -> None:
        state["wide"] = not state["wide"]
        w = base_w * 1.05 if state["wide"] else base_w
        reply = client.post(
            f"/designs/{name}/delta",
            {"edits": [{"device": device, "w": w}], "cache": "bypass"},
        )
        assert reply["cached"] is False

    delta_s = best_of(repeat, delta_query)

    # Full-reanalysis comparator: what re-running the CLI on the edited
    # netlist costs -- a fresh parse/ERC/decomposition (the load) plus a
    # from-scratch analysis (fresh session, so its engine is cold).
    loaded.device(device).w = base_w * 1.05
    edited = sim_dumps(loaded)

    def full_query() -> None:
        client.post(f"/designs/{name}_full", {"sim": edited})
        reply = client.post(
            f"/designs/{name}_full/analyze", {"cache": "bypass"}
        )
        assert reply["cached"] is False

    full_s = best_of(repeat, full_query)

    return {
        "size": size,
        "devices": len(net.devices),
        "load_s": load_s,
        "cold_analyze_s": cold_s,
        "warm_query_s": warm_s,
        "delta_reanalysis_s": delta_s,
        "full_reanalysis_s": full_s,
        "warm_speedup": cold_s / warm_s,
        "delta_speedup": full_s / delta_s,
    }


def _bench_recovery(size: int, repeat: int) -> dict:
    """Time journal-replay startup against a cold reload, same design."""
    net = random_logic(size, seed=7)
    sim_text = sim_dumps(net)
    name = f"rt3_{size}"
    loaded = sim_loads(sim_text, name=name)
    device = sorted(loaded.devices)[0]
    base_w = loaded.device(device).w

    with tempfile.TemporaryDirectory() as tmp:
        journal_dir = os.path.join(tmp, "journal")
        seeded = TimingServer(port=0, journal_dir=journal_dir)
        seeded.load(name, {"sim": sim_text})
        seeded.sessions[name].delta([{"device": device, "w": base_w * 1.05}])
        seeded.stop()

        def replay() -> None:
            revived = TimingServer(port=0, journal_dir=journal_dir)
            assert revived.recovered_designs == [name]
            revived.stop()

        recovery_s = best_of(repeat, replay)

        def cold_reload() -> None:
            fresh = TimingServer(port=0)
            fresh.load(name, {"sim": sim_text})
            fresh.stop()

        cold_s = best_of(repeat, cold_reload)

    return {
        "size": size,
        "devices": len(net.devices),
        "recovery_s": recovery_s,
        "cold_reload_s": cold_s,
        "recovery_overhead": recovery_s / cold_s,
    }


def run(*, smoke: bool = False, repeat: int | None = None) -> tuple[dict, list]:
    """Run the serve bench; returns ``(payload, failures)``."""
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    repeat = repeat if repeat is not None else (3 if smoke else 5)
    server = TimingServer(port=0, max_inflight=32).start()
    try:
        client = _Client(server.port)
        rows = [_bench_size(client, size, repeat) for size in sizes]
        stats = server.stats()
    finally:
        server.stop()
        shutdown_pool()
    recovery_rows = [_bench_recovery(size, repeat) for size in sizes]

    failures: list[str] = []
    for row in rows:
        if (
            row["devices"] >= WARM_GATE_MIN_DEVICES
            and row["warm_speedup"] < WARM_SPEEDUP_GATE
        ):
            failures.append(
                f"size {row['size']}: warm cached query only "
                f"{row['warm_speedup']:.1f}x faster than cold analyze "
                f"(gate: >= {WARM_SPEEDUP_GATE:g}x)"
            )
        if row["delta_speedup"] <= DELTA_SPEEDUP_GATE:
            failures.append(
                f"size {row['size']}: delta re-analysis "
                f"{row['delta_speedup']:.2f}x vs full re-analysis "
                f"(gate: > {DELTA_SPEEDUP_GATE:g}x)"
            )
    for row in recovery_rows:
        if row["recovery_overhead"] > RECOVERY_OVERHEAD_GATE:
            failures.append(
                f"size {row['size']}: journal-replay startup "
                f"{row['recovery_overhead']:.2f}x slower than a cold "
                f"reload (gate: <= {RECOVERY_OVERHEAD_GATE:g}x)"
            )

    payload = {
        "bench": "serve",
        "smoke": smoke,
        "repeat": repeat,
        "environment": environment(1),
        "server": stats["server"],
        "cache": stats["cache"],
        "results": rows,
        "recovery": recovery_rows,
        "gates": {
            "warm_speedup_min": WARM_SPEEDUP_GATE,
            "warm_gate_min_devices": WARM_GATE_MIN_DEVICES,
            "delta_speedup_min": DELTA_SPEEDUP_GATE,
            "recovery_overhead_max": RECOVERY_OVERHEAD_GATE,
        },
        "regressions": failures,
        "pass": not failures,
    }
    return payload, failures


def main(argv: list[str] | None = None) -> int:
    """CLI entry: run the bench, write its JSON (``--json``), gate."""
    parser = argparse.ArgumentParser(
        description="serve-daemon latency bench + regression gate"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="one mid-size circuit, fewer repeats (CI)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="best-of repeats per timed query")
    parser.add_argument("--json", type=pathlib.Path, default=OUTPUT_PATH,
                        help="output path for the machine-readable results")
    args = parser.parse_args(argv)
    payload, failures = run(smoke=args.smoke, repeat=args.repeat)
    atomic_write_json(args.json, payload)
    for row in payload["results"]:
        print(
            f"size {row['size']:>5}: cold {row['cold_analyze_s']*1e3:8.2f} ms  "
            f"warm {row['warm_query_s']*1e3:7.3f} ms "
            f"({row['warm_speedup']:7.1f}x)  "
            f"delta {row['delta_reanalysis_s']*1e3:8.2f} ms vs "
            f"full {row['full_reanalysis_s']*1e3:8.2f} ms "
            f"({row['delta_speedup']:.2f}x)"
        )
    for row in payload["recovery"]:
        print(
            f"size {row['size']:>5}: recovery "
            f"{row['recovery_s']*1e3:8.2f} ms vs cold reload "
            f"{row['cold_reload_s']*1e3:8.2f} ms "
            f"({row['recovery_overhead']:.2f}x)"
        )
    print(f"wrote {args.json}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("serve gates pass")
    return 0


if __name__ == "__main__":  # pragma: no cover - bench entry point
    sys.exit(main())
