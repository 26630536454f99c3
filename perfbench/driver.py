"""One fresh driver process of the ``signoff-cold`` or ``corner-sweep`` workload.

Repeats the workload's op -- parse the ``.sim`` input, build a
``TimingAnalyzer(net, workers="auto")``, analyze (one corner, or the
slow/typ/fast sweep), serialize and validate the report -- in a closed
loop on one thread until its deadline.  Every report must pass
``validate_report`` and hash to the digest recorded for the pinned hash
seed.

Usage (``run.py`` starts it; ``PYTHONPATH`` must reach ``src``)::

    python perfbench/driver.py WORKLOAD SIM_PATH DEADLINE TRACE OUT

An op starts only if, taking as long as the one before, it ends by
``DEADLINE`` (a ``time.monotonic()`` reading); the first op always runs.
Results go to ``OUT`` as JSON, each op with the ``time.monotonic()`` at
which it finished, so the parent can time set-up from just before it
started this process: interpreter start and ``import repro`` included.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import spans


def canonical_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv: list[str]) -> int:
    workload, sim_path, deadline, trace, out = argv
    deadline = float(deadline)
    recorder = None
    if trace == "1":
        import repro  # noqa: F401 - load every module before wrapping

        recorder = spans.Recorder()
        spans.install(recorder)
    import repro.core.report as report_mod
    from repro import TimingAnalyzer, corner_scenarios
    from repro.delay import auto_workers, pool_diagnostics
    from repro.netlist import sim_loads

    with open(os.path.join(os.path.dirname(__file__), "expected.json")) as fp:
        expected = json.load(fp)["reports"][workload]
    with open(sim_path) as fp:
        sim_text = fp.read()

    ops = []
    while True:
        index = len(ops)
        if recorder is not None:
            recorder.request = index
        pools_before = pool_diagnostics()["pools_started"]
        started = time.monotonic()
        net = sim_loads(sim_text)
        analyzer = TimingAnalyzer(net, workers="auto")
        if workload == "corner-sweep":
            report = analyzer.analyze_mcmm(corner_scenarios(net.tech)).to_json()
        else:
            report = report_mod.result_to_json(analyzer.analyze())
        report_mod.validate_report(report)
        finished = time.monotonic()
        ops.append({
            "seconds": finished - started,
            "finished": finished,
            "correct": canonical_digest(report) == expected,
            "cut_arcs": report["cut_arc_count"],
            "pool_starts": pool_diagnostics()["pools_started"] - pools_before,
        })
        if time.monotonic() + ops[-1]["seconds"] > deadline:
            break

    result = {
        "workload": workload,
        "ops": ops,
        "devices": report["netlist"]["devices"],
        "stages": report["netlist"]["stages"],
        "workers_auto": auto_workers(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": recorder.dump() if recorder is not None else None,
    }
    with open(out, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
