"""Performance-regression harness for the analysis pipeline.

Times the three phases a user pays for -- analyzer setup (ERC + flow +
decomposition), timing-arc extraction, and arrival propagation -- plus the
end-to-end :meth:`~repro.core.TimingAnalyzer.analyze` call, on the synthetic
scaling circuits of experiment R-T3 (``random_logic``, seed 7).  It emits a
machine-readable ``BENCH_perf.json`` with devices/second per phase, the
parallel-extraction speedup over serial, the end-to-end speedup over the
checked-in pre-optimization baseline, and -- via one extra *traced*
analysis per size (:class:`repro.trace.Trace`) -- a ``phase_attribution``
breakdown saying what fraction of the end-to-end time each pipeline phase
(erc/flow/stages/extract/propagate/paths) consumed.  The gated timings
themselves run with tracing disabled, proving the ``NULL_TRACE`` default
costs nothing.  It then gates on three regressions:

* no phase may be slower than ``benchmarks/results/perf_baseline.json``
  by more than the tolerance factor (``REPRO_PERF_TOLERANCE``, default
  1.75 -- generous because CI machines are noisy);
* end-to-end analysis of the largest circuit must stay at least
  ``REPRO_PERF_MIN_SPEEDUP`` (default 1.5) times faster than the recorded
  pre-optimization serial baseline;
* at the MIPS-scale point (:func:`repro.circuits.mips_benchmark_datapath`,
  ~26.7k devices -- the paper's headline circuit size), warm-pool parallel
  extraction must beat serial (``extract_speedup_parallel_vs_serial >
  1.0``).  This gate only *applies* on hosts with at least two usable
  CPUs; a single-CPU host records the measurement and an explicit
  ``speedup_gate.applied: false`` instead of a vacuous pass or an
  unattainable failure.

The full run also times the persistent pool's **cold start** (first
pooled sweep after :func:`repro.delay.shutdown_pool`) against its
**warm reuse** (subsequent sweeps on live workers), and records the host
environment (CPU count, scheduler affinity, ``multiprocessing`` start
method, resolved worker count, git revision) so ``BENCH_perf.json``
files from different machines and commits are comparable.

Smoke mode (``--smoke``) measures the smallest circuit only with a
single repetition, skips the MIPS point and the speedup gates, but
**does** apply the phase-tolerance gate with a looser factor
(``REPRO_PERF_SMOKE_TOLERANCE``, default 3.0) and the full serial/
parallel parity sweep -- so a pool regression fails a PR in seconds
instead of only in the full gate.

Both modes also run one traced analysis of the benchmark datapath,
``mips_like_datapath(16, 8, n_shifts=4)`` read back from ``.sim`` (so
without its one-hot groups), and gate two work counters exactly
(:data:`SEARCH_MEMO`): its shifter's 16 discharge searches each hit
the path cap, and the search memo serves 15 of them from the first.
Counts, unlike times, do not move with host load.

It also proves the parallel path is *safe* to keep enabled: every circuit
generator in :mod:`repro.circuits` is analyzed serially and with the worker
pool, and the two text reports must be byte-identical.  The pooled runs
are traced, and the supervised extractor's retry/timeout/fallback counters
(:data:`SUPERVISION_COUNTERS`) land in the payload's ``supervision``
section -- all zeros on a healthy machine.  No fault handler is ever
installed here, so the gated timings exercise the production fast path of
:func:`repro.robust.fault_point` (one ``None`` check per call) and the
baseline tolerance gate doubles as the zero-overhead check for the
fault-injection hooks.

Run as::

    PYTHONPATH=src python -m repro.bench.perf            # full gate
    PYTHONPATH=src python -m repro.bench.perf --smoke --json /tmp/p.json
                                        # CI smoke: quick, looser gate;
                                        # keeps the committed ledger

Exit status 0 means no regression; 1 means a gate failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from ..circuits import (
    ProductTerm,
    Transition,
    barrel_shifter,
    carry_select_adder,
    decoder,
    fsm,
    full_adder,
    half_latch,
    inverter,
    inverter_chain,
    manchester_adder,
    mips_benchmark_datapath,
    mips_like_datapath,
    mux2,
    nand,
    nor,
    pass_chain,
    pla,
    random_logic,
    register_bit,
    register_file,
    ripple_adder,
    sequencer,
    shift_register,
    superbuffer,
    toy_cpu,
    xor2,
)
from ..core import TimingAnalyzer, atomic_write_json
from ..core.arrival import propagate
from ..core.graph import TimingGraph
from ..delay import FALL, RISE, shutdown_pool
from ..netlist import sim_dumps, sim_loads
from ..trace import Trace
from .harness import REPO_ROOT, best_of, environment, speed_gate

__all__ = ["run", "main", "parity_circuits"]

BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "perf_baseline.json"
OUTPUT_PATH = REPO_ROOT / "BENCH_perf.json"

FULL_SIZES = (200, 1000, 5000)
SMOKE_SIZES = (200,)
SEED = 7


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return float(raw)
    except ValueError:
        sys.exit(f"error: {name}={raw!r} is not a number")


def _bench_mips(repeat: int, workers: int) -> dict:
    """Time serial vs pooled extraction at the ~26.7k-device MIPS point.

    The pooled sweep is measured twice: once **cold** (first sweep after
    ``shutdown_pool``, paying fork + snapshot attach) and then **warm**
    (reusing the live workers, the steady state the persistent pool
    exists for).  The headline ``extract_speedup_parallel_vs_serial`` is
    serial over *warm* -- amortized fork cost is exactly the claim under
    test.  Kept to extraction only: the end-to-end figures stay on the
    R-T3 ``random_logic`` family the checked-in baseline covers.
    """
    net, _ports = mips_benchmark_datapath()
    devices = len(net.devices)
    tv = TimingAnalyzer(net)
    stages = len(tv.stage_graph)

    def extract_serial() -> None:
        tv.calculator._arc_cache.clear()
        tv.calculator.all_arcs(parallel=False)

    extract_s = best_of(min(repeat, 2), extract_serial)

    def extract_pooled() -> None:
        tv.calculator._arc_cache.clear()
        tv.calculator.all_arcs(parallel=True, workers=workers)

    shutdown_pool()
    cold_s = best_of(1, extract_pooled)
    warm_s = best_of(min(repeat, 2), extract_pooled)

    return {
        "circuit": "mips_benchmark_datapath",
        "devices": devices,
        "stages": stages,
        "extract_s": extract_s,
        "parallel_extract_cold_s": cold_s,
        "parallel_extract_s": warm_s,
        "pool_cold_start_overhead_s": cold_s - warm_s,
        "extract_speedup_parallel_vs_serial": extract_s / warm_s,
        "extract_devices_per_s": devices / extract_s,
    }


#: Trace counters of one analysis of the benchmark datapath through
#: ``.sim``, gated exactly: capped path searches (memo hits included),
#: and those the search memo served.
SEARCH_MEMO = {"capped_searches": 16, "search_memo_hits": 15}


def _search_memo() -> dict:
    """The :data:`SEARCH_MEMO` counters of one traced, serial analysis."""
    net = sim_loads(sim_dumps(mips_like_datapath(16, 8, n_shifts=4)[0]))
    trace = Trace(logger=None)
    TimingAnalyzer(net, trace=trace).analyze()
    return {name: trace.counters.get(name, 0) for name in SEARCH_MEMO}


def _bench_size(size: int, repeat: int, workers: int) -> dict:
    """Time each phase on one ``random_logic`` instance, best of ``repeat``."""
    net = random_logic(size, seed=SEED)
    devices = len(net.devices)

    # End-to-end first: it is the gating number, and measuring it before
    # any pool has forked keeps it clear of allocator/page-cache noise
    # from the other phases.  A couple of extra repetitions tighten the
    # best-of estimate on busy machines.
    end_to_end_s = best_of(
        repeat + 2, lambda: TimingAnalyzer(net).analyze()
    )

    setup_s = best_of(repeat, lambda: TimingAnalyzer(net))

    tv = TimingAnalyzer(net)

    def extract_serial() -> None:
        tv.calculator._arc_cache.clear()
        tv.calculator.all_arcs(parallel=False)

    extract_s = best_of(repeat, extract_serial)

    tv.calculator._arc_cache.clear()
    arcs = tv.calculator.all_arcs(parallel=False)
    sources = {}
    for name in set(net.inputs) | set(net.clocks):
        sources[(name, RISE)] = 0.0
        sources[(name, FALL)] = 0.0

    def run_propagate() -> None:
        graph = TimingGraph.build(arcs)
        propagate(graph, sources, tv.calculator.slope)

    propagate_s = best_of(repeat, run_propagate)

    def extract_parallel() -> None:
        tv.calculator._arc_cache.clear()
        tv.calculator.all_arcs(parallel=True, workers=workers)

    # Cold first (fresh fork + snapshot attach), then warm reuse of the
    # persistent pool -- the steady-state number the speedup uses.
    shutdown_pool()
    parallel_extract_cold_s = best_of(1, extract_parallel)
    parallel_extract_s = best_of(repeat, extract_parallel)

    # One traced analysis attributes the end-to-end time to the pipeline
    # phases (erc/flow/stages/extract/propagate/paths).  Deliberately
    # measured OUTSIDE the gated numbers above, which run with tracing
    # disabled -- the gate proves the NULL_TRACE default costs nothing.
    trace = Trace(logger=None)
    TimingAnalyzer(net, trace=trace).analyze()

    return {
        "phase_attribution": trace.attribution(),
        "phase_timers_s": dict(trace.timers_s),
        "devices": devices,
        "setup_s": setup_s,
        "extract_s": extract_s,
        "parallel_extract_cold_s": parallel_extract_cold_s,
        "parallel_extract_s": parallel_extract_s,
        "extract_speedup_parallel_vs_serial": extract_s / parallel_extract_s,
        "propagate_s": propagate_s,
        "end_to_end_s": end_to_end_s,
        "setup_devices_per_s": devices / setup_s,
        "extract_devices_per_s": devices / extract_s,
        "propagate_devices_per_s": devices / propagate_s,
        "end_to_end_devices_per_s": devices / end_to_end_s,
    }


def parity_circuits() -> list[tuple[str, object]]:
    """Factories for small instances of every :mod:`repro.circuits` generator.

    Each entry is ``(name, factory)``; the factory builds a *fresh* netlist
    each call.  Flow inference annotates the netlist in place, so reusing
    one instance across analyzers would make the second flow report
    trivially empty -- fresh builds keep the serial and parallel runs
    honestly independent.  Composite generators returning
    ``(netlist, ports)`` are unwrapped.
    """
    transitions = [
        Transition(state=0, inputs={0: 1}, next_state=1, outputs=(0,)),
        Transition(state=1, inputs={0: 1}, next_state=0, outputs=(1,)),
        Transition(state=1, inputs={0: 0}, next_state=1, outputs=(1,)),
    ]
    terms = [ProductTerm({0: 1, 1: 1}, (0,)), ProductTerm({2: 0}, (1,))]
    factories = [
        ("inverter", inverter),
        ("inverter_chain", lambda: inverter_chain(5)),
        ("nand", lambda: nand(3)),
        ("nor", lambda: nor(3)),
        ("pass_chain", lambda: pass_chain(4)),
        ("mux2", mux2),
        ("superbuffer", superbuffer),
        ("xor2", xor2),
        ("full_adder", full_adder),
        ("decoder", lambda: decoder(3)),
        ("half_latch", half_latch),
        ("register_bit", register_bit),
        ("shift_register", lambda: shift_register(4)),
        ("ripple_adder", lambda: ripple_adder(4)),
        ("manchester_adder", lambda: manchester_adder(4)),
        ("carry_select_adder", lambda: carry_select_adder(8)),
        ("barrel_shifter", lambda: barrel_shifter(4)),
        ("pla", lambda: pla(3, 2, terms)),
        ("register_file", lambda: register_file(2, 2)),
        ("fsm", lambda: fsm(2, 1, 2, transitions)),
        ("sequencer", lambda: sequencer(4)),
        ("toy_cpu", lambda: toy_cpu(4, 2)),
        ("mips_like_datapath", lambda: mips_like_datapath(4, 2, n_shifts=2)),
        ("random_logic", lambda: random_logic(300, seed=SEED)),
    ]

    def unwrap(factory):
        def build():
            obj = factory()
            return obj[0] if isinstance(obj, tuple) else obj

        return build

    return [(name, unwrap(factory)) for name, factory in factories]


def _normalized_report(result) -> str:
    # Wall-clock is the one legitimately nondeterministic report field.
    result.analysis_seconds = 0.0
    return result.report()


#: Supervision counters the pooled runs report (see repro.trace).  On a
#: healthy machine every one of them stays zero; nonzero values mean the
#: supervised extractor had to retry, time out, or fall back serially.
SUPERVISION_COUNTERS = (
    "extract_retries",
    "extract_timeouts",
    "extract_corrupt_results",
    "extract_fallback_stages",
    "extract_pool_failures",
)


def check_parity(workers: int = 2) -> tuple[list[dict], dict]:
    """Serial vs pooled extraction must yield byte-identical reports.

    Returns ``(rows, supervision)`` where ``supervision`` aggregates the
    retry/timeout/fallback counters across every pooled run.
    """
    rows = []
    trace = Trace(logger=None)
    for name, build in parity_circuits():
        serial_tv = TimingAnalyzer(build(), workers=1)
        serial_tv.calculator.all_arcs(parallel=False)
        serial = _normalized_report(serial_tv.analyze())

        pooled_tv = TimingAnalyzer(build(), workers=workers, trace=trace)
        pooled_tv.calculator.all_arcs(parallel=True, workers=workers)
        pooled = _normalized_report(pooled_tv.analyze())

        rows.append({"circuit": name, "identical": serial == pooled})
    supervision = {
        name: trace.counters.get(name, 0) for name in SUPERVISION_COUNTERS
    }
    return rows, supervision


def run(
    *,
    smoke: bool = False,
    repeat: int = 3,
    workers: int = 2,
) -> tuple[dict, list[str]]:
    """Execute the harness; returns ``(payload, failures)``.

    ``failures`` is empty when every gate passes.  Smoke mode still
    gates -- phase tolerances (loosened to ``REPRO_PERF_SMOKE_TOLERANCE``)
    and serial/parallel parity -- but skips the MIPS point and the
    speedup floors, which need full-size circuits and repetitions to be
    meaningful.
    """
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    repeat = 1 if smoke else repeat
    if smoke:
        tolerance = _env_float("REPRO_PERF_SMOKE_TOLERANCE", 3.0)
    else:
        tolerance = _env_float("REPRO_PERF_TOLERANCE", 1.75)
    min_speedup = _env_float("REPRO_PERF_MIN_SPEEDUP", 1.5)
    env = environment(workers)

    results: dict[str, dict] = {}
    for size in sizes:
        print(f"benchmarking random_logic({size}, seed={SEED}) ...")
        results[str(size + 1)] = _bench_size(size, repeat, workers)

    mips_row = None
    if not smoke:
        print("benchmarking mips_benchmark_datapath (~26.7k devices) ...")
        mips_row = _bench_mips(repeat, workers)
        results[str(mips_row["devices"])] = mips_row

    baseline = {}
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    failures: list[str] = []
    phases = ("setup_s", "extract_s", "propagate_s", "end_to_end_s")
    for key, row in results.items():
        base_row = baseline.get(key)
        if base_row is None:
            continue
        row["baseline"] = {p: base_row[p] for p in phases}
        row["end_to_end_speedup_vs_baseline"] = (
            base_row["end_to_end_s"] / row["end_to_end_s"]
        )
        for phase in phases:
            limit = base_row[phase] * tolerance
            if row[phase] > limit:
                failures.append(
                    f"{key} devices: {phase} {row[phase]:.4f}s exceeds "
                    f"baseline {base_row[phase]:.4f}s x{tolerance:g} "
                    f"tolerance"
                )

    largest = str(max(sizes) + 1)
    speedup = results[largest].get("end_to_end_speedup_vs_baseline")
    if not smoke and speedup is not None and speedup < min_speedup:
        failures.append(
            f"end-to-end speedup on {largest}-device circuit is "
            f"{speedup:.2f}x, below the required {min_speedup:g}x"
        )

    if mips_row is not None:
        # The parallel-wins gate: parallel extraction cannot beat serial
        # on a single usable CPU.
        mips_speedup = mips_row["extract_speedup_parallel_vs_serial"]
        gate = mips_row["speedup_gate"] = speed_gate(mips_speedup, 1.0, env)
        if gate["applied"] and mips_speedup <= 1.0:
            failures.append(
                f"warm-pool parallel extraction at the MIPS point is "
                f"{mips_speedup:.2f}x serial; the persistent pool must "
                f"win (> 1.0x) with {workers} workers on "
                f"{env['affinity_cpus']} CPUs"
            )

    search_memo = _search_memo()
    if search_memo != SEARCH_MEMO:
        failures.append(
            f"benchmark datapath through .sim: path-search counters "
            f"{search_memo}, expected exactly {SEARCH_MEMO}"
        )

    parity, supervision = check_parity(workers)
    mismatched = [row["circuit"] for row in parity if not row["identical"]]
    if mismatched:
        failures.append(
            "parallel extraction diverged from serial on: "
            + ", ".join(mismatched)
        )

    payload = {
        "bench": "perf",
        "mode": "smoke" if smoke else "full",
        "seed": SEED,
        "repeat": repeat,
        "workers": workers,
        "tolerance": tolerance,
        "min_end_to_end_speedup": min_speedup,
        "environment": env,
        "results": results,
        "parity": {
            "circuits": len(parity),
            "all_identical": not mismatched,
            "rows": parity,
        },
        # Retry/timeout/fallback counters from the supervised pooled runs,
        # plus the zero-overhead claim for the fault-injection hooks: no
        # handler is ever installed here, so every gated timing above runs
        # the production fast path (one None check per fault_point call)
        # and the baseline tolerance gate doubles as the overhead check.
        "supervision": {
            "counters": supervision,
            "fault_hooks_installed": False,
        },
        "search_memo": {"counters": search_memo, "expected": SEARCH_MEMO},
        "regressions": failures,
        "pass": not failures,
    }
    return payload, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest circuit only, single repetition, loose tolerance "
             "gate plus the full parity sweep (CI quick mode)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="pool width for parallel runs"
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=OUTPUT_PATH,
        help="output path for the machine-readable results",
    )
    args = parser.parse_args(argv)
    payload, failures = run(
        smoke=args.smoke,
        repeat=args.repeat,
        workers=args.workers,
    )
    atomic_write_json(args.json, payload)
    print(f"wrote {args.json}")
    for key, row in payload["results"].items():
        speedup = row.get("end_to_end_speedup_vs_baseline")
        note = f"  ({speedup:.2f}x vs baseline)" if speedup else ""
        e2e = row.get("end_to_end_devices_per_s")
        e2e_note = f"  e2e {e2e:.0f}/s" if e2e is not None else ""
        pool = row.get("extract_speedup_parallel_vs_serial")
        pool_note = f"  pool {pool:.2f}x" if pool is not None else ""
        print(
            f"{key:>6} devices: extract {row['extract_devices_per_s']:.0f}/s"
            f"{e2e_note}{pool_note}{note}"
        )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
