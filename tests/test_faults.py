"""Fault-injection and fuzzing tests (repro.testing.faults).

The contract under test, from the fault-tolerance invariant:

* injected worker crashes, hard process kills, hangs, and corrupt
  return values never change the analysis result -- ``to_json()`` is
  byte-identical to a serial run, because the supervised pool only
  pre-fills a cache and the serial walk is authoritative;
* retry / timeout / fallback events are visible as ``repro.trace``
  counters;
* seeded netlist mutation (>= 200 mutants) never escapes the typed
  :class:`ReproError` hierarchy and never hangs.

The fuzz seed base is taken from the ``REPRO_FUZZ_SEED`` environment
variable (default 0) and echoed with ``-s`` so a CI failure is
reproducible locally.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import Netlist, ReproError, TimingAnalyzer
from repro import robust
from repro.circuits import inverter_chain, mux2, shift_register
from repro.delay import stage_delay
from repro.testing import FaultPlan, NetlistFuzzer
from repro.testing.faults import CORRUPT_SENTINEL
from repro.trace import Trace

#: Base seed for the mutation sweep; override with REPRO_FUZZ_SEED.
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
#: Mutants per base circuit; 3 bases -> >= 200 total.
MUTANTS_PER_BASE = 70


@pytest.fixture(autouse=True)
def _no_leftover_handler():
    """Every test starts and ends with no global fault handler."""
    robust.clear_fault_handler()
    yield
    robust.clear_fault_handler()


@pytest.fixture
def net():
    return inverter_chain(8)


def serial_json(net) -> str:
    return json.dumps(TimingAnalyzer(net, workers=1).analyze().to_json())


def supervised_json(net, trace=None, **calc_overrides) -> str:
    """Analyze with a forced process pool and return the JSON report."""
    tv = TimingAnalyzer(net, workers=2, executor="process", trace=trace)
    for attr, value in calc_overrides.items():
        setattr(tv.calculator, attr, value)
    # Force the pool below the PARALLEL_MIN_DEVICES auto threshold.
    tv.calculator.all_arcs(active_clocks=None, parallel=True)
    return json.dumps(tv.analyze().to_json())


class TestFaultPlan:
    def test_crash_fires_and_budget_exhausts(self):
        plan = FaultPlan().crash("erc", times=1, message="boom")
        with plan.installed():
            with pytest.raises(RuntimeError, match="boom"):
                robust.fault_point("erc")
            # Budget spent: second pass is clean.
            robust.fault_point("erc")
        assert plan.fired == [("erc", "crash")]

    def test_corrupt_substitutes_payload(self):
        plan = FaultPlan().corrupt("worker-result", times=1)
        with plan.installed():
            assert robust.fault_point("worker-result", [1]) == CORRUPT_SENTINEL
            assert robust.fault_point("worker-result", [1]) == [1]

    def test_uninstall_restores_production_state(self):
        plan = FaultPlan().crash("erc", times=None)
        with plan.installed():
            pass
        robust.fault_point("erc")  # must not raise


class TestSupervisedExtractionInvariant:
    """Injected pool faults never change the analysis result."""

    def test_worker_crash_is_bit_identical(self, net):
        baseline = serial_json(net)
        trace = Trace(logger=None)
        plan = FaultPlan().crash(
            "worker-task", times=None, exc_type=ValueError
        )
        with plan.installed():
            assert supervised_json(net, trace=trace) == baseline
        assert trace.counters.get("extract_fallback_stages", 0) > 0
        assert trace.counters.get("extract_retries", 0) > 0

    def test_worker_hard_crash_is_bit_identical(self, net):
        baseline = serial_json(net)
        trace = Trace(logger=None)
        plan = FaultPlan().hard_crash("worker-task", times=None)
        with plan.installed():
            assert (
                supervised_json(net, trace=trace, retry_backoff=0.01)
                == baseline
            )
        # Every attempt dies with the pool; the serial walk recomputes.
        assert trace.counters.get("extract_fallback_stages", 0) > 0

    def test_worker_timeout_is_bit_identical(self, net):
        baseline = serial_json(net)
        trace = Trace(logger=None)
        plan = FaultPlan().delay("worker-task", 5.0, times=None)
        with plan.installed():
            assert (
                supervised_json(
                    net,
                    trace=trace,
                    task_timeout=0.2,
                    task_retries=0,
                )
                == baseline
            )
        assert trace.counters.get("extract_timeouts", 0) > 0
        assert trace.counters.get("extract_fallback_stages", 0) > 0

    def test_corrupt_return_is_bit_identical(self, net):
        baseline = serial_json(net)
        trace = Trace(logger=None)
        plan = FaultPlan().corrupt("worker-result", times=None)
        with plan.installed():
            assert (
                supervised_json(net, trace=trace, retry_backoff=0.01)
                == baseline
            )
        assert trace.counters.get("extract_corrupt_results", 0) > 0
        assert trace.counters.get("extract_fallback_stages", 0) > 0

    def test_transient_crash_recovers_by_retry(self, net):
        """A once-per-worker fault: some chunks fail, later work succeeds.

        ``times=1`` is a per-process budget, so each fork-pool worker
        crashes exactly once; chunks scheduled after a worker's first
        task extract fine.  Retries shrink the pending set and whatever
        survives all attempts is recomputed serially -- the result must
        be identical either way.
        """
        baseline = serial_json(net)
        trace = Trace(logger=None)
        plan = FaultPlan().crash("worker-task", times=1)
        with plan.installed():
            assert (
                supervised_json(net, trace=trace, retry_backoff=0.01)
                == baseline
            )

    def test_no_faults_no_counters(self, net):
        trace = Trace(logger=None)
        assert supervised_json(net, trace=trace) == serial_json(net)
        for name in (
            "extract_retries",
            "extract_timeouts",
            "extract_corrupt_results",
            "extract_fallback_stages",
            "extract_pool_failures",
        ):
            assert trace.counters.get(name, 0) == 0


def _workers_reaped(timeout_s: float = 5.0) -> bool:
    """True once no forked child processes remain (they were terminated
    and reaped, not abandoned)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


def _ignore_sigterm() -> int:
    """Pool task: the worker stops acting on SIGTERM, as if the signal
    had reached it in its first moments after fork, when the interpreter
    drops it."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    return os.getpid()


class TestPoolLifecycle:
    """The persistent pool: idempotent shutdown, no orphans, clean ^C."""

    def test_no_orphans_when_a_worker_misses_sigterm(self, net):
        # A busy worker that does not act on SIGTERM is still gone after
        # shutdown, and quickly.
        stage_delay.shutdown_pool()
        assert _workers_reaped()
        calc = TimingAnalyzer(net).calculator
        try:
            executor, _warm = stage_delay._POOL.acquire(calc, 1)
            executor.submit(_ignore_sigterm).result(timeout=30)
            executor.submit(time.sleep, 60)
            time.sleep(0.2)
            stage_delay.shutdown_pool()
            assert _workers_reaped(timeout_s=3.0)
        finally:
            for proc in multiprocessing.active_children():
                proc.kill()

    def test_shutdown_is_idempotent(self, net):
        stage_delay.shutdown_pool()
        stage_delay.shutdown_pool()  # no pool: must be a clean no-op
        assert supervised_json(net) == serial_json(net)
        assert stage_delay.pool_diagnostics()["live"]
        stage_delay.shutdown_pool()
        assert not stage_delay.pool_diagnostics()["live"]
        stage_delay.shutdown_pool()
        assert not stage_delay.pool_diagnostics()["live"]
        assert _workers_reaped()

    def test_no_orphans_after_hard_crash(self, net):
        stage_delay.shutdown_pool()
        assert _workers_reaped()
        plan = FaultPlan().hard_crash("worker-task", times=None)
        with plan.installed():
            supervised_json(net, retry_backoff=0.01)
        # The broken pool was poisoned and discarded, and every worker
        # process it spawned is gone.
        assert not stage_delay.pool_diagnostics()["live"]
        assert _workers_reaped()

    def test_no_orphans_after_hang(self, net):
        stage_delay.shutdown_pool()
        assert _workers_reaped()
        plan = FaultPlan().delay("worker-task", 5.0, times=None)
        with plan.installed():
            supervised_json(net, task_timeout=0.2, task_retries=0)
        # Hung workers were terminated (not waited on): they disappear
        # long before their injected 5 s sleep could finish.
        assert not stage_delay.pool_diagnostics()["live"]
        assert _workers_reaped(timeout_s=3.0)

    def test_keyboard_interrupt_tears_down_pool(self, net):
        stage_delay.shutdown_pool()
        plan = FaultPlan().crash(
            "worker-task", times=1, exc_type=KeyboardInterrupt
        )
        with plan.installed():
            with pytest.raises(KeyboardInterrupt):
                supervised_json(net)
        assert not stage_delay.pool_diagnostics()["live"]
        assert _workers_reaped()


class TestErcFaultSite:
    def test_erc_crash_strict_is_typed(self, net):
        from repro import ElectricalRuleError

        plan = FaultPlan().crash("erc", exc_type=KeyError, message="inj")
        with plan.installed():
            with pytest.raises(ElectricalRuleError, match="crashed"):
                TimingAnalyzer(net)

    def test_erc_crash_degraded_is_skipped_diagnostic(self, net):
        plan = FaultPlan().crash("erc", exc_type=KeyError, message="inj")
        with plan.installed():
            result = TimingAnalyzer(net, on_error=robust.QUARANTINE).analyze()
        assert any(
            d.code == "erc-crash" and d.action == "skipped"
            for d in result.diagnostics
        )

    def test_serial_stage_crash_quarantines(self, net):
        plan = FaultPlan().crash("stage-arcs", times=1)
        with plan.installed():
            result = TimingAnalyzer(net, on_error=robust.QUARANTINE).analyze()
        assert any(
            d.code == "extraction-failure" and d.action == "quarantined"
            for d in result.diagnostics
        )
        assert not result.coverage.complete


class TestNetlistFuzzer:
    def test_deterministic(self):
        base = mux2()
        a = NetlistFuzzer(42).mutate(base, mutations=3)
        b = NetlistFuzzer(42).mutate(base, mutations=3)
        from repro.netlist import sim_dumps

        assert sim_dumps(a) == sim_dumps(b)

    def test_input_never_modified(self):
        base = mux2()
        before = len(base.devices), sorted(base.nodes)
        NetlistFuzzer(7).mutate(base, mutations=4)
        assert (len(base.devices), sorted(base.nodes)) == before

    @pytest.mark.parametrize(
        "base_factory",
        [
            lambda: inverter_chain(4),
            mux2,
            lambda: shift_register(2),
        ],
        ids=["chain", "mux", "shiftreg"],
    )
    def test_mutation_sweep_never_escapes_reproerror(self, base_factory):
        """>= 200 mutants total: typed error or clean result, never a raw
        KeyError/AttributeError, never a hang (pytest-timeout in CI)."""
        base = base_factory()
        print(f"\nfuzz seed base: {FUZZ_SEED} (set REPRO_FUZZ_SEED to vary)")
        for offset in range(MUTANTS_PER_BASE):
            seed = FUZZ_SEED + offset
            mutant = NetlistFuzzer(seed).mutate(base, mutations=2)
            for policy in (robust.STRICT, robust.QUARANTINE):
                try:
                    result = TimingAnalyzer(mutant, on_error=policy).analyze()
                except ReproError:
                    continue
                except Exception as exc:  # pragma: no cover - the bug
                    pytest.fail(
                        f"seed {seed} policy {policy}: untyped "
                        f"{type(exc).__name__}: {exc}"
                    )
                # A clean degraded result must still serialize validly.
                from repro.core import validate_report

                validate_report(result.to_json())
