"""MCMM regression gate: shared extraction must beat independent runs.

Successor to ``benchmarks/bench_x3_corners.py`` (the R-X3 three-corner
signoff experiment), which ran one fully independent analysis per corner
-- redoing ERC, flow inference, and stage decomposition every time.
:func:`repro.core.mcmm.analyze_mcmm` runs those structural phases once
and re-evaluates only the numeric delay terms per corner; this harness
measures that win and gates on it.

What is measured and gated (written to ``BENCH_mcmm.json``):

* **mcmm_speedup** -- wall-clock of N independent single-corner analyses
  divided by one N-corner ``analyze_mcmm``.  Gated ``> 1.0`` on hosts
  with at least 2 usable CPUs; a 1-CPU host records the measurement and
  an explicit skip (:func:`repro.bench.harness.speed_gate`).  The ratio
  is of best-of-``repeat`` wall times with the two sides timed in turns
  (A, B, B, A, ...), so a host speed swing lands on both sides instead
  of deciding a sub-second ratio.
* **structural sharing** -- hard gate via :mod:`repro.trace` counters: a
  traced MCMM run must show ``structural_runs == 1`` and one
  ``mcmm_scenarios`` tick per corner, while the traced independent runs
  show ``structural_runs == N``.  Its ``parametric_stage_evals`` must be
  nonzero: the sweep extracts terms once and evaluates them per corner
  (:mod:`repro.delay.parametric`), and the ticks prove term evaluation
  actually served the arcs.
* **parity** -- every scenario's ``to_json`` must be byte-identical to a
  standalone single-corner analysis (the MCMM correctness anchor).
* **R-X3 signoff shape** -- the assertions ported from
  ``bench_x3_corners``: cycle times order fast < typ < slow with a
  1.3-2.5x spread, and the race (overlap) margin shrinks on the fast
  corner -- why min-delay checks run fast-corner.

Usage::

    PYTHONPATH=src python -m repro.bench.mcmm            # full gate
    PYTHONPATH=src python -m repro.bench.mcmm --smoke    # CI quick mode
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..circuits import mips_like_datapath
from ..core import TimingAnalyzer, atomic_write_json
from ..core.mcmm import corner_scenarios
from ..delay import available_cpus, shutdown_pool
from ..tech import Technology
from ..trace import Trace
from .harness import REPO_ROOT, best_of_pair, environment, speed_gate

__all__ = ["run", "main"]

OUTPUT_PATH = REPO_ROOT / "BENCH_mcmm.json"

#: (registers, shifts) of the benchmarked datapath.
FULL_SHAPE = (8, 4)
SMOKE_SHAPE = (4, 2)


def _fresh_net(shape: tuple[int, int]):
    net, _ports = mips_like_datapath(*shape)
    return net


def _corner_table(base: Technology) -> dict[str, Technology]:
    return Technology.corners(base)


def _independent_run(shape, corners, workers, trace=None) -> dict:
    """N standalone single-corner analyses (the pre-MCMM baseline)."""
    results = {}
    for name, tech in corners.items():
        net = _fresh_net(shape)
        tv = TimingAnalyzer(net, tech=tech, workers=workers, trace=trace)
        results[name] = tv.analyze()
    return results


def _mcmm_run(shape, workers, trace=None):
    net = _fresh_net(shape)
    tv = TimingAnalyzer(net, workers=workers, trace=trace)
    return tv.analyze_mcmm(corner_scenarios(net.tech))


def _signoff_gates(results: dict, failures: list[str]) -> dict:
    """The R-X3 shape assertions, ported from bench_x3_corners."""
    metrics = {}
    for name, result in results.items():
        verification = result.clock_verification
        margin = min(
            (
                m.margin
                for m in verification.overlap_margins
                if m.margin is not None
            ),
            default=None,
        )
        metrics[name] = {
            "min_cycle": verification.min_cycle,
            "overlap_margin": margin,
            "races": len(verification.races),
        }
    slow = metrics["slow"]["min_cycle"]
    typ = metrics["typ"]["min_cycle"]
    fast = metrics["fast"]["min_cycle"]
    if not fast < typ < slow:
        failures.append(
            f"corner cycle times out of order: fast={fast} typ={typ} "
            f"slow={slow} (expected fast < typ < slow)"
        )
    spread = slow / fast
    if not 1.3 < spread < 2.5:
        failures.append(
            f"slow/fast cycle spread {spread:.2f}x outside the "
            "realistic 1.3-2.5x band"
        )
    fast_margin = metrics["fast"]["overlap_margin"]
    typ_margin = metrics["typ"]["overlap_margin"]
    if fast_margin is None or typ_margin is None:
        failures.append("overlap margins missing on typ/fast corners")
    elif not fast_margin < typ_margin:
        failures.append(
            f"race margin must shrink on the fast corner: "
            f"fast={fast_margin} typ={typ_margin}"
        )
    return metrics


def run(*, smoke: bool = False, repeat: int = 3, workers: int | str = 1):
    """Measure and gate; returns ``(payload, failures)``."""
    shape = SMOKE_SHAPE if smoke else FULL_SHAPE
    corners = _corner_table(_fresh_net(shape).tech)
    env = environment(
        workers if isinstance(workers, int) else available_cpus()
    )
    failures: list[str] = []

    # -- timing: N independent runs vs one MCMM sweep -------------------
    # The two sides are timed in turns (best_of_pair), so a swing in
    # host speed cannot fall on one side only.
    independent_s, mcmm_s = best_of_pair(
        repeat,
        lambda: _independent_run(shape, corners, workers),
        lambda: _mcmm_run(shape, workers),
    )
    speedup = independent_s / mcmm_s if mcmm_s > 0 else float("inf")

    # -- structural sharing, observable via trace counters --------------
    mcmm_trace = Trace()
    mcmm = _mcmm_run(shape, workers, trace=mcmm_trace)
    independent_trace = Trace()
    independent = _independent_run(
        shape, corners, workers, trace=independent_trace
    )
    structural = {
        "mcmm_structural_runs": mcmm_trace.counters.get("structural_runs", 0),
        "mcmm_scenarios": mcmm_trace.counters.get("mcmm_scenarios", 0),
        "mcmm_parametric_stage_evals": mcmm_trace.counters.get(
            "parametric_stage_evals", 0
        ),
        "independent_structural_runs": independent_trace.counters.get(
            "structural_runs", 0
        ),
    }
    if structural["mcmm_parametric_stage_evals"] == 0:
        failures.append(
            "the default MCMM sweep served no stage from parametric term "
            "evaluation; the symbolic path is not being exercised"
        )
    if structural["mcmm_structural_runs"] != 1:
        failures.append(
            "MCMM must run the structural phases exactly once, got "
            f"{structural['mcmm_structural_runs']} structural_runs"
        )
    if structural["mcmm_scenarios"] != len(corners):
        failures.append(
            f"MCMM evaluated {structural['mcmm_scenarios']} scenarios, "
            f"expected {len(corners)}"
        )
    if structural["independent_structural_runs"] != len(corners):
        failures.append(
            "independent baseline should run the structural phases once "
            f"per corner, got {structural['independent_structural_runs']}"
        )

    # -- parity: every scenario byte-identical to standalone ------------
    parity_rows = []
    for name in corners:
        a = json.dumps(mcmm.result(name).to_json(), sort_keys=True)
        b = json.dumps(independent[name].to_json(), sort_keys=True)
        identical = a == b
        parity_rows.append({"corner": name, "identical": identical})
        if not identical:
            failures.append(
                f"MCMM scenario {name!r} diverged from its standalone "
                "single-corner analysis"
            )

    # -- the R-X3 signoff-shape gates ------------------------------------
    signoff = _signoff_gates(independent, failures)

    # -- the speedup gate -------------------------------------------------
    speedup_gate = speed_gate(speedup, 1.0, env)
    if speedup_gate["applied"] and speedup <= 1.0:
        failures.append(
            f"{len(corners)}-corner MCMM is {speedup:.2f}x the "
            "independent baseline; shared extraction must win (> 1.0x)"
        )

    shutdown_pool()
    payload = {
        "schema": "repro-bench-mcmm",
        "smoke": smoke,
        "circuit": f"mips_like_datapath{shape}",
        "corners": list(corners),
        "environment": env,
        "independent_seconds": independent_s,
        "mcmm_seconds": mcmm_s,
        "mcmm_speedup": speedup,
        "speedup_gate": speedup_gate,
        "structural": structural,
        "parity": parity_rows,
        "signoff": signoff,
        "dominant": mcmm.dominant_scenario(),
        "failures": failures,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    return payload, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small datapath, quick gate (CI perf-smoke mode)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="timing repetitions; best-of wins (default 3)",
    )
    parser.add_argument(
        "--workers", default=1,
        help="extraction pool width (int or 'auto'; default 1)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the payload to stdout as JSON",
    )
    args = parser.parse_args(argv)
    workers = args.workers if args.workers == "auto" else int(args.workers)
    payload, failures = run(
        smoke=args.smoke, repeat=args.repeat, workers=workers
    )
    atomic_write_json(OUTPUT_PATH, payload)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"MCMM bench ({payload['circuit']}): "
            f"{payload['mcmm_speedup']:.2f}x vs independent runs "
            f"(gate {'applied' if payload['speedup_gate']['applied'] else 'skipped'}), "
            f"dominant corner: {payload['dominant']}"
        )
        print(f"wrote {OUTPUT_PATH}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
