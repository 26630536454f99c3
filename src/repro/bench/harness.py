"""Shared benchmark harness.

Each file in ``benchmarks/`` regenerates one table or figure of the
reconstructed evaluation (see DESIGN.md section 3).  This module holds the
pieces they share: accuracy comparisons between the static analyzer and
SPICE-lite, timed analysis runs, and series containers that print in the
paper's row/series format.  It also holds what the regression gates
(``repro.bench.perf``, ``repro.bench.mcmm``, ``repro.bench.serve``)
share: best-of timing, the host environment record, and the record of a
speed gate that a single-CPU host skips.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import platform
import subprocess
import time
from dataclasses import dataclass, field

from ..core import TimingAnalyzer, format_table
from ..delay import SlopeModel, auto_workers, available_cpus
from ..errors import SimulationError
from ..netlist import Netlist
from ..sim import TransientOptions, measure_step_delay

__all__ = [
    "AccuracyRow",
    "compare_delay",
    "timed_analysis",
    "Series",
    "percent_error",
    "save_result",
    "REPO_ROOT",
    "best_of",
    "best_of_pair",
    "environment",
    "git_revision",
    "speed_gate",
]

#: The checkout this package runs from; ``BENCH_*.json`` files land here.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def best_of(repeat: int, fn) -> float:
    """Best (lowest) wall time of ``repeat`` calls of ``fn``."""
    best = None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def best_of_pair(repeat: int, first, second) -> tuple[float, float]:
    """Best-of-``repeat`` wall times of two variants, timed in turns.

    Runs alternate (first, second, then second, first, ...), so a swing
    in host speed lands on both sides of a ratio instead of deciding it.
    """
    best = [float("inf"), float("inf")]
    for turn in range(max(1, repeat)):
        for side in (0, 1) if turn % 2 == 0 else (1, 0):
            started = time.perf_counter()
            (first, second)[side]()
            best[side] = min(best[side], time.perf_counter() - started)
    return best[0], best[1]


def git_revision() -> str | None:
    """``HEAD`` of the checkout, or ``None`` outside a git work tree."""
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(workers: int) -> dict:
    """Host metadata making cross-machine trajectories comparable.

    ``affinity_cpus`` is what the crossover heuristic actually sees
    (container CPU quotas show up here, not in ``os.cpu_count``), and
    ``git_revision`` names the code that was measured.
    """
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": available_cpus(),
        "mp_start_method": multiprocessing.get_start_method(),
        "mp_start_methods": list(multiprocessing.get_all_start_methods()),
        "bench_workers": workers,
        "auto_workers": auto_workers(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def speed_gate(measured: float, required: float, env: dict) -> dict:
    """``{applied, required, measured, skip_reason}`` of a speed gate.

    It applies only where ``env`` (an :func:`environment` record) shows
    at least two usable CPUs; a 1-CPU host records the measurement and
    the skip instead of a vacuous pass or an unattainable failure.
    """
    cpus = env["affinity_cpus"]
    applied = cpus >= 2
    return {
        "applied": applied,
        "required": required,
        "measured": measured,
        "skip_reason": None if applied else (
            f"host exposes {cpus} usable CPU(s); the gate needs at least "
            "2 (measured value recorded regardless)"
        ),
    }


def save_result(name: str, text: str) -> None:
    """Print a bench's table/series and save it as ``<name>.txt``.

    pytest captures stdout, so every bench also persists its output where
    EXPERIMENTS.md can reference it.  The destination defaults to
    ``benchmarks/results/`` in the repository checkout and is created if
    missing; set the ``REPRO_RESULTS_DIR`` environment variable to an
    absolute path to redirect it (an installed package has no checkout to
    write into -- see README "Benchmarks").  A read-only destination
    downgrades to a warning -- a bench run should never die on the save::

        REPRO_RESULTS_DIR=/tmp/results PYTHONPATH=src pytest benchmarks/
    """
    import sys

    print(text)
    override = os.environ.get("REPRO_RESULTS_DIR")
    if override:
        results_dir = pathlib.Path(override)
    else:
        results_dir = REPO_ROOT / "benchmarks" / "results"
    from ..core import atomic_write_text

    try:
        results_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(results_dir / f"{name}.txt", text + "\n")
    except OSError as exc:
        print(
            f"warning: could not save {name!r} under {results_dir}: {exc}",
            file=sys.stderr,
        )


def percent_error(estimate: float, reference: float) -> float:
    """Signed percentage error of ``estimate`` against ``reference``."""
    if reference == 0:
        raise ValueError("reference delay is zero")
    return 100.0 * (estimate - reference) / reference


@dataclass
class AccuracyRow:
    """One accuracy comparison: static estimate vs simulated truth."""

    label: str
    transition: str
    tv_delay: float
    sim_delay: float

    @property
    def error_pct(self) -> float:
        return percent_error(self.tv_delay, self.sim_delay)

    def cells(self) -> list[str]:
        """The row formatted for :func:`repro.core.format_table`."""
        return [
            self.label,
            self.transition,
            f"{self.tv_delay * 1e9:8.3f}",
            f"{self.sim_delay * 1e9:8.3f}",
            f"{self.error_pct:+7.1f}%",
        ]


def compare_delay(
    netlist: Netlist,
    trigger: str,
    output: str,
    *,
    direction: str = "rise",
    input_state: dict[str, int] | None = None,
    model: str = "elmore",
    slope: SlopeModel | None = None,
    label: str | None = None,
    sim_options: TransientOptions | None = None,
    ramp: float = 1e-9,
) -> AccuracyRow:
    """Measure one (trigger -> output) delay with both engines.

    The static figure is the analyzer's worst arrival at ``output`` for the
    transition the simulation observed, with only ``trigger`` switching at
    time 0 (all other inputs held).  The analyzer is told the same input
    transition time the simulator applies (``ramp``), so the comparison
    isolates the delay model.  This is the inner loop of R-T1/R-F2.
    """
    measurement = measure_step_delay(
        netlist,
        trigger,
        output,
        direction=direction,
        input_state=input_state,
        options=sim_options,
        ramp=ramp,
    )

    analyzer = TimingAnalyzer(netlist, model=model, slope=slope)
    # Non-trigger inputs are *held* in the simulation; telling the static
    # side they arrive at t=0 would count their paths (e.g. a mux select
    # re-routing the output) against this measurement.  They arrived long
    # ago.
    arrivals = {
        name: -1e-6 for name in netlist.inputs if name != trigger
    }
    arrivals[trigger] = 0.0
    result = analyzer.analyze(input_arrivals=arrivals, input_slew=ramp)
    if result.arrivals is None:
        raise SimulationError("accuracy comparison needs combinational mode")
    arrival = result.arrivals.get(output, measurement.output_direction)
    if arrival is None:
        raise SimulationError(
            f"static analysis produced no {measurement.output_direction} "
            f"arrival at {output!r}"
        )
    return AccuracyRow(
        label=label or f"{netlist.name}:{trigger}->{output}",
        transition=measurement.output_direction,
        tv_delay=arrival.time,
        sim_delay=measurement.delay,
    )


def timed_analysis(netlist: Netlist, **kwargs) -> tuple[float, object]:
    """Run the full analyzer pipeline, returning (wall seconds, result).

    Includes ERC + flow inference + decomposition + analysis -- the whole
    cost a user pays, which is what R-T3 compares against simulation.
    """
    started = time.perf_counter()
    analyzer = TimingAnalyzer(netlist, **kwargs)
    result = analyzer.analyze()
    return time.perf_counter() - started, result


@dataclass
class Series:
    """A named (x, y) series -- one line of a reconstructed figure."""

    name: str
    x_label: str
    y_label: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point to the series."""
        self.points.append((x, y))

    def format(self) -> str:
        """The series as an aligned two-column table."""
        rows = [[f"{x:g}", f"{y:g}"] for x, y in self.points]
        return format_table(
            [self.x_label, self.y_label], rows, title=f"series: {self.name}"
        )
