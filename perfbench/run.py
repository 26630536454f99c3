"""The repository's benchmark: three workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload signoff-cold --seed 1 --seconds 40
    python3 perfbench/run.py --workload eco-session --trace 1

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it
every workload runs untraced, and the exit status is 1 if any op failed.
See ``perfbench/README.md`` for the workloads, the metrics and the layer
map.

Every process the benchmark starts runs under one pinned
``PYTHONHASHSEED`` (recorded in ``expected.json``): combinational reports
depend on set iteration order, and the recorded report digests hold only
under that seed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

with open(os.path.join(HERE, "expected.json")) as _fp:
    EXPECTED = json.load(_fp)

WORKLOADS = ("signoff-cold", "eco-session", "corner-sweep")
#: Fresh processes (daemons, for eco-session) per untraced run; set-up
#: time is their median.  Each driver process's first op is its set-up.
SETUPS = {"signoff-cold": 2, "corner-sweep": 2, "eco-session": 2}
#: Seconds a driver process may run past its deadline before it is killed
#: and counted as failed (its first op always runs).
GRACE = 90.0

END_TO_END = [("setup_s", "s"), ("op_ms_p50", "ms"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("netlist.parse_ms", "ms"),
    ("netlist.erc_ms", "ms"),
    ("flow.infer_ms", "ms"),
    ("stages.decompose_ms", "ms"),
    ("delay.extract_ms", "ms"),
    ("delay.stages_extracted", "count"),
    ("delay.term_eval_ms", "ms"),
    ("delay.invalidate_ms", "ms"),
    ("delay.pool_starts", "count"),
    ("core.graph_build_ms", "ms"),
    ("core.propagate_ms", "ms"),
    ("core.paths_ms", "ms"),
    ("core.constraints_ms", "ms"),
    ("core.report_ms", "ms"),
    ("core.explain_ms", "ms"),
    ("core.cut_arcs", "count"),
    ("serve.cache_key_ms", "ms"),
    ("serve.session_ms", "ms"),
    ("serve.read_lock_wait_ms", "ms"),
    ("serve.write_lock_wait_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.journal_append_ms", "ms"),
    ("serve.journal_bytes", "bytes"),
    ("serve.http_ms", "ms"),
    ("serve.query_http_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.client_retries", "count"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_ms", "ms"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q: int):
    """The ``q``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100)[q - 1]


# ----------------------------------------------------------------------
# Inputs and environment.
# ----------------------------------------------------------------------
def make_input(workload: str, work: str) -> tuple[str, str]:
    """Generate the workload's ``.sim`` text; check it against its digest."""
    from repro.circuits import mips_like_datapath, random_logic
    from repro.netlist import sim_dumps

    if workload == "eco-session":
        name, text = "rand20000", sim_dumps(random_logic(20000, seed=7))
    else:
        name = "datapath16x8"
        text = sim_dumps(mips_like_datapath(16, 8, n_shifts=4)[0])
    if sha256(text) != EXPECTED["inputs"][name]:
        raise SystemExit(
            f"input {name} changed: sha256 {sha256(text)} is not the "
            "recorded digest (a generator or sim_dumps changed)"
        )
    path = os.path.join(work, f"{name}.sim")
    with open(path, "w") as fp:
        fp.write(text)
    return name, path


def git_revision() -> str | None:
    """``HEAD`` of the checkout, or ``None`` outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, input_name: str) -> dict:
    from repro.delay import auto_workers

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "hash_seed": os.environ["PYTHONHASHSEED"],
        "workload_seed": seed,
        "input": input_name,
        "input_sha256": EXPECTED["inputs"][input_name],
        "workers_auto": auto_workers(),
    }


# ----------------------------------------------------------------------
# signoff-cold and corner-sweep: fresh driver processes.
# ----------------------------------------------------------------------
def run_driver(workload, sim_path, deadline, trace, work, env, out) -> dict:
    """One fresh driver process; returns its record plus ``setup_s``."""
    launched = time.monotonic()
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "driver.py"), workload,
             sim_path, repr(deadline), "1" if trace else "0", out],
            env=env, check=True, timeout=deadline - launched + GRACE,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"{workload}: driver process failed: {exc}", file=sys.stderr)
        return {"ops": [], "crashed": True}
    with open(out) as fp:
        record = json.load(fp)
    record["setup_s"] = record["ops"][0]["finished"] - launched
    return record


def driver_workload(workload, sim_path, seconds, trace, work, env) -> dict:
    """Fresh driver processes in turn, the k-th of n ending its last op by
    ``k/n`` of the run, so time one process leaves unused goes to the next.
    """
    slots = ([False] * SETUPS[workload]) if not trace else [False, True]
    started = time.monotonic()
    records = [
        run_driver(workload, sim_path,
                   started + seconds * (index + 1) / len(slots), slot_trace,
                   work, env, os.path.join(work, f"driver-{index}.json"))
        for index, slot_trace in enumerate(slots)
    ]
    ops = [op for record in records for op in record["ops"]]
    failed = sum(1 for op in ops if not op["correct"])
    failed += sum(1 for record in records if record.get("crashed"))
    result = {"attempted": max(1, len(ops)), "failed": failed}
    good = [r for r in records if not r.get("crashed")]
    if not good:
        return result
    timed = [op["seconds"] * 1e3 for r in good for op in r["ops"][1:]]
    setups = [r["setup_s"] for r in good]
    result["samples"] = {"setup_s": setups, "op_ms": timed}
    result["end_to_end"] = {
        "setup_s": median(setups),
        "op_ms_p50": median(timed),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in good),
    }
    result["design"] = {"devices": good[0]["devices"],
                        "stages": good[0]["stages"],
                        "workers_auto": good[0]["workers_auto"]}
    if trace and len(good) == 2:
        result["per_layer"] = driver_layers(good[0], good[1])
    return result


def driver_layers(untraced: dict, traced: dict) -> dict:
    """Per-op layer metrics from the traced process (first op excluded)."""
    ops = traced["ops"][1:] or traced["ops"]
    requests = range(len(traced["ops"]))[-len(ops):]
    selfs = spans.self_times(traced["trace"]["spans"])
    counts = spans.counts_by_request(traced["trace"]["counts"])
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    for layer in spans.LAYERS:
        metrics[f"{layer}_ms"] = statistics.fmean(
            selfs[r].get(layer, 0.0) * 1e3 for r in requests
        )
    metrics["delay.stages_extracted"] = statistics.fmean(
        counts[r].get("delay.stages_extracted", 0.0) for r in requests
    )
    metrics["delay.pool_starts"] = statistics.fmean(
        op["pool_starts"] for op in ops
    )
    metrics["core.cut_arcs"] = statistics.fmean(op["cut_arcs"] for op in ops)
    metrics["unattributed_ms"] = statistics.fmean(
        op["seconds"] * 1e3 - sum(selfs[r].values()) * 1e3
        for op, r in zip(ops, requests)
    )
    plain = [op["seconds"] for op in (untraced["ops"][1:] or untraced["ops"])]
    metrics["trace_overhead_ms"] = (
        median([op["seconds"] for op in ops]) - median(plain)
    ) * 1e3
    return metrics


# ----------------------------------------------------------------------
# eco-session: one daemon, an editor and a viewer.
# ----------------------------------------------------------------------
def eco_workload(sim_path, seconds, seed, trace, work, env) -> dict:
    import session
    from repro.netlist import sim_loads

    with open(sim_path) as fp:
        sim_text = fp.read()
    widths = {name: dev.w for name, dev in sim_loads(sim_text).devices.items()}
    expected_first = EXPECTED["reports"]["eco-session"]
    setups: list[float] = []
    runs: list[dict] = []
    peak = []
    attempted = failed = 0
    if trace:
        plan = [(False, seconds / 2), (True, seconds / 2)]
    else:
        started = time.monotonic()
        for _ in range(SETUPS["eco-session"] - 1):
            daemon, reply, setup_s = session.set_up(sim_text, work, env, False)
            peak.append(daemon.stop()["peak_rss_mb"])
            setups.append(setup_s)
            attempted += 1
            failed += session.canonical_digest(reply["report"]) != expected_first
        plan = [(False, seconds - (time.monotonic() - started))]
    for slot_trace, budget in plan:
        run = session.edit_session(sim_text, widths, work, env, seed=seed,
                                   budget=budget, trace=slot_trace)
        runs.append(run)
        setups.append(run["setup_s"])
        peak.append(run["daemon"]["peak_rss_mb"])
        ops = run["edits"] + run["queries"]
        attempted += len(ops) + 2
        failed += sum(1 for op in ops if not op["ok"])
        failed += (session.canonical_digest(run["first_report"])
                   != expected_first)
        failed += not run["matches_fresh"]
    main = runs[-1]
    edit_ms = [e["ms"] for e in main["edits"]]
    query_ms = [q["ms"] for q in main["queries"]]
    lag_ms = [q["lag_ms"] for q in main["queries"]]
    result = {"attempted": attempted, "failed": failed}
    result["samples"] = {"setup_s": setups, "op_ms": edit_ms,
                         "query_ms": query_ms}
    result["end_to_end"] = {
        "setup_s": median(setups),
        "op_ms_p50": median(edit_ms),
        "peak_rss_mb": max(peak),
    }
    result["session"] = {
        "edit_ms_p90": percentile(edit_ms, 90),
        "query_ms_p50": median(query_ms),
        "query_ms_p90": percentile(query_ms, 90),
        "viewer_lag_ms_p50": median(lag_ms),
        "viewer_lag_ms_max": max(lag_ms) if lag_ms else None,
    }
    report = main["first_report"]
    result["design"] = {"devices": report["netlist"]["devices"],
                        "stages": report["netlist"]["stages"]}
    if trace:
        result["per_layer"] = eco_layers(runs[0], runs[1])
    return result


def eco_layers(untraced: dict, traced: dict) -> dict:
    """Per-edit and per-query layer metrics from the traced daemon.

    Requests are told apart by route: ``delta`` and ``explain`` are the
    editor's, ``analyze`` inside the edit window is the viewer's.
    """
    trace = traced["daemon"]["trace"]
    selfs = spans.self_times(trace["spans"])
    counts = spans.counts_by_request(trace["counts"])
    start, end = traced["window"]
    editor, viewer = [], []
    editor_span_s = 0.0
    for sid, name, t0, t1, parent, request, tag in trace["spans"]:
        if name != "serve.http" or parent is not None or not start <= t0 <= end:
            continue
        if tag.endswith("/delta") or tag.endswith("/explain"):
            editor.append(sid)
            editor_span_s += t1 - t0
        elif tag.endswith("/analyze"):
            viewer.append(sid)
    edits = traced["edits"]
    n_edits, n_queries = max(1, len(edits)), max(1, len(viewer))

    def per_edit(layer):
        return sum(selfs[r].get(layer, 0.0) for r in editor) * 1e3 / n_edits

    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    for layer in spans.LAYERS:
        metrics[f"{layer}_ms"] = per_edit(layer)
    metrics["serve.read_lock_wait_ms"] = sum(
        selfs[r].get("serve.read_lock_wait", 0.0) for r in viewer
    ) * 1e3 / n_queries
    metrics["serve.query_http_ms"] = sum(
        selfs[r].get("serve.http", 0.0) for r in viewer
    ) * 1e3 / n_queries
    for name in ("delay.stages_extracted", "serve.journal_bytes"):
        metrics[name] = sum(counts[r].get(name, 0.0) for r in editor) / n_edits
    before, after = traced["stats"]
    metrics["delay.pool_starts"] = (
        after["pool"]["pools_started"] - before["pool"]["pools_started"]
    ) / n_edits
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    metrics["serve.cache_hit_ratio"] = hits / max(1, hits + misses)
    metrics["serve.rejected"] = sum(
        after[k] - before[k] for k in ("rejected_busy", "rejected_draining")
    )
    metrics["serve.client_retries"] = traced["client_retries"]
    metrics["core.cut_arcs"] = traced["cut_arcs"]
    metrics["unattributed_ms"] = (
        sum(e["op_ms"] for e in edits) - editor_span_s * 1e3
    ) / n_edits
    metrics["trace_overhead_ms"] = (
        median([e["ms"] for e in edits])
        - median([e["ms"] for e in untraced["edits"]])
    )
    return metrics


# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        input_name, sim_path = make_input(workload, work)
        if workload == "eco-session":
            result = eco_workload(sim_path, seconds, seed, trace, work, env)
        else:
            result = driver_workload(workload, sim_path, seconds, trace,
                                     work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["environment"] = environment(seed, input_name)
    return result


def summarize(workload: str, result: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    samples = result.get("samples", {})
    counts = {"setup_s": len(samples.get("setup_s", ())),
              "op_ms_p50": len(samples.get("op_ms", ())),
              "peak_rss_mb": len(samples.get("setup_s", ()))}
    if "per_layer" in result:
        for name, unit in PER_LAYER:
            print(f"{workload:13s} {name:28s} "
                  f"{result['per_layer'][name]:>14.4f} {unit}")
    else:
        for name, unit in END_TO_END:
            value = result.get("end_to_end", {}).get(name)
            print(f"{workload:13s} {name:22s} {value!s:>20} {unit:6s} "
                  f"n={counts[name]}")
        for name, value in result.get("session", {}).items():
            n = len(samples.get("query_ms" if "query" in name or "lag" in name
                                else "op_ms", ()))
            print(f"{workload:13s} {name:22s} {value!s:>20} ms     n={n}")
    print(f"{workload:13s} ops = {result['attempted']}, "
          f"ops_failed = {result['failed']}")
    print(json.dumps({
        "workload": workload,
        "design": result.get("design"),
        "environment": result["environment"],
        "session": result.get("session"),
        "sample_counts": {name: len(values)
                          for name, values in samples.items()},
        "samples": samples,
    }))


def final_line(result: dict, trace: bool) -> str:
    names = PER_LAYER if trace else END_TO_END
    source = result.get("per_layer" if trace else "end_to_end", {})
    metrics = {
        name: {"value": source[name], "unit": unit}
        for name, unit in names
        if source.get(name) is not None
    }
    correct = result["failed"] == 0 and len(metrics) == len(names)
    return json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != EXPECTED["hash_seed"]:
        env = dict(os.environ, PYTHONHASHSEED=EXPECTED["hash_seed"])
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  env)
    # On SIGTERM unwind like on an error: subprocess.run kills its child
    # and the eco-session's finally blocks stop the daemon.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.path.insert(0, SRC)
    # Byte-compile up front, so set-up time never includes compiling.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        summarize(args.workload, result)
        print(final_line(result, bool(args.trace)))
        return 0
    failed = 0
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, False)
        summarize(workload, result)
        failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
