"""Tests for the parallel arc-extraction engine and its caching contract.

The pool must be a pure performance feature: identical arcs, identical
reports, identical ``AnalysisResult`` figures, for both executor flavours.
Cache invalidation must stay surgical -- only the stages a device edit
touches recompute.
"""

import multiprocessing

import pytest

from repro import TimingAnalyzer
from repro.circuits import (
    barrel_shifter,
    inverter_chain,
    manchester_adder,
    random_logic,
    register_file,
    ripple_adder,
)
from repro.delay import (
    PARALLEL_COLD_MIN_DEVICES,
    PARALLEL_MIN_DEVICES,
    auto_workers,
    parallel_crossover,
    pool_diagnostics,
    shutdown_pool,
    stage_delay,
)
from repro.errors import StageError
from repro.trace import Trace


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _arc_key(arc):
    return (arc.stage_index, arc.trigger, arc.output, arc.via)


class TestParallelMatchesSerial:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ripple_adder(6),
            lambda: barrel_shifter(4),
            lambda: random_logic(400, seed=7),
        ],
    )
    def test_arc_lists_identical_thread_executor(self, make):
        serial = TimingAnalyzer(make(), workers=1)
        arcs_serial = serial.calculator.all_arcs(parallel=False)

        pooled = TimingAnalyzer(make(), workers=2, executor="thread")
        arcs_pooled = pooled.calculator.all_arcs(parallel=True, workers=2)

        assert arcs_serial == arcs_pooled

    @pytest.mark.skipif(not _fork_available(), reason="fork not available")
    def test_arc_lists_identical_process_executor(self):
        serial = TimingAnalyzer(random_logic(400, seed=7), workers=1)
        arcs_serial = serial.calculator.all_arcs(parallel=False)

        pooled = TimingAnalyzer(
            random_logic(400, seed=7), workers=2, executor="process"
        )
        arcs_pooled = pooled.calculator.all_arcs(parallel=True, workers=2)

        assert arcs_serial == arcs_pooled

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_analysis_results_identical(self, executor):
        if executor == "process" and not _fork_available():
            pytest.skip("fork not available")
        serial_result = TimingAnalyzer(random_logic(300, seed=7)).analyze()

        tv = TimingAnalyzer(
            random_logic(300, seed=7), workers=2, executor=executor
        )
        tv.calculator.all_arcs(parallel=True, workers=2)
        pooled_result = tv.analyze()

        assert pooled_result.max_delay == serial_result.max_delay
        assert pooled_result.stage_count == serial_result.stage_count
        assert len(pooled_result.paths) == len(serial_result.paths)
        for mine, theirs in zip(pooled_result.paths, serial_result.paths):
            assert mine.steps == theirs.steps
        serial_result.analysis_seconds = 0.0
        pooled_result.analysis_seconds = 0.0
        assert pooled_result.report() == serial_result.report()

    def test_two_phase_circuit_identical_reports(self):
        serial = TimingAnalyzer(register_file(2, 2)[0]).analyze()
        pooled_tv = TimingAnalyzer(
            register_file(2, 2)[0], workers=2, executor="thread"
        )
        pooled_tv.calculator.all_arcs(parallel=True, workers=2)
        pooled = pooled_tv.analyze()
        serial.analysis_seconds = 0.0
        pooled.analysis_seconds = 0.0
        assert pooled.report() == serial.report()

    def test_parallel_fills_the_same_cache_keys(self):
        tv = TimingAnalyzer(
            random_logic(300, seed=7), workers=2, executor="thread"
        )
        tv.calculator.all_arcs(parallel=True, workers=2)
        pooled_keys = set(tv.calculator._arc_cache)
        arcs = tv.calculator.all_arcs(parallel=False)  # pure cache walk

        fresh = TimingAnalyzer(random_logic(300, seed=7))
        fresh.calculator.all_arcs(parallel=False)
        assert pooled_keys == set(fresh.calculator._arc_cache)
        assert arcs == fresh.calculator.all_arcs(parallel=False)


class TestWorkerConfiguration:
    def test_small_netlists_stay_serial_on_auto(self):
        net = ripple_adder(4)
        assert len(net.devices) < PARALLEL_MIN_DEVICES
        tv = TimingAnalyzer(net, workers=4)
        # parallel=None (auto) must not spin a pool for a tiny circuit;
        # observable contract: results exist and caching works as serial.
        arcs = tv.calculator.all_arcs()
        assert arcs
        assert tv.calculator._arc_cache

    @pytest.mark.parametrize("bad", [0, -1, -8, "0", "-3", True, False])
    def test_non_positive_and_bool_workers_rejected(self, bad):
        # workers=0 used to be silently clamped to 1, hiding caller
        # bugs; it is a loud StageError now (bools included: True is a
        # misplaced parallel=True, not a width of 1).
        with pytest.raises(StageError):
            TimingAnalyzer(ripple_adder(4), workers=bad)

    def test_workers_one_and_auto_still_accepted(self):
        assert TimingAnalyzer(ripple_adder(4), workers=1).workers == 1
        assert TimingAnalyzer(ripple_adder(4), workers="auto").workers == "auto"

    def test_unknown_executor_rejected(self):
        with pytest.raises(StageError):
            TimingAnalyzer(ripple_adder(4), executor="mpi")


class TestCrossoverHeuristic:
    """The auto decision: device count vs. pool warmth vs. CPUs."""

    def test_single_cpu_never_goes_parallel(self):
        assert not parallel_crossover(10**9, pool_warm=True, cpus=1)

    def test_warm_floor_boundary(self):
        assert parallel_crossover(
            PARALLEL_MIN_DEVICES, pool_warm=True, cpus=4
        )
        assert not parallel_crossover(
            PARALLEL_MIN_DEVICES - 1, pool_warm=True, cpus=4
        )

    def test_cold_floor_boundary(self):
        assert parallel_crossover(
            PARALLEL_COLD_MIN_DEVICES, pool_warm=False, cpus=4
        )
        assert not parallel_crossover(
            PARALLEL_COLD_MIN_DEVICES - 1, pool_warm=False, cpus=4
        )
        # A cold pool needs more devices to be worth forking than a warm
        # one needs to be worth reusing.
        assert PARALLEL_COLD_MIN_DEVICES > PARALLEL_MIN_DEVICES

    def test_below_threshold_takes_serial_path(self, monkeypatch):
        monkeypatch.setattr(stage_delay, "available_cpus", lambda: 4)
        trace = Trace(logger=None)
        tv = TimingAnalyzer(
            random_logic(300, seed=7),
            workers=4,
            executor="thread",
            trace=trace,
        )
        tv.calculator.all_arcs()
        assert trace.counters.get("extract_serial_sweeps", 0) == 1
        assert trace.counters.get("extract_parallel_sweeps", 0) == 0

    def test_above_threshold_takes_parallel_path(self, monkeypatch):
        monkeypatch.setattr(stage_delay, "available_cpus", lambda: 4)
        monkeypatch.setattr(stage_delay, "PARALLEL_MIN_DEVICES", 100)
        trace = Trace(logger=None)
        tv = TimingAnalyzer(
            random_logic(300, seed=7),
            workers=4,
            executor="thread",
            trace=trace,
        )
        tv.calculator.all_arcs()
        assert trace.counters.get("extract_parallel_sweeps", 0) == 1
        assert trace.counters.get("extract_serial_sweeps", 0) == 0

    @pytest.mark.skipif(not _fork_available(), reason="fork not available")
    def test_forced_parallel_tiny_circuit_matches_serial(self):
        import json

        serial = json.dumps(
            TimingAnalyzer(inverter_chain(4), workers=1).analyze().to_json()
        )
        tv = TimingAnalyzer(inverter_chain(4), workers=2, executor="process")
        tv.calculator.all_arcs(parallel=True)
        try:
            assert json.dumps(tv.analyze().to_json()) == serial
        finally:
            shutdown_pool()


class TestWorkersAuto:
    def test_auto_spec_accepted_and_propagated(self):
        tv = TimingAnalyzer(ripple_adder(4), workers="auto")
        assert tv.workers == "auto"
        baseline = TimingAnalyzer(ripple_adder(4)).analyze()
        assert tv.analyze().max_delay == baseline.max_delay

    def test_auto_workers_tracks_affinity_with_a_cap(self, monkeypatch):
        monkeypatch.setattr(stage_delay, "available_cpus", lambda: 32)
        assert auto_workers() == 8
        monkeypatch.setattr(stage_delay, "available_cpus", lambda: 3)
        assert auto_workers() == 3
        monkeypatch.setattr(stage_delay, "available_cpus", lambda: 1)
        assert auto_workers() == 1

    def test_bogus_workers_spec_rejected(self):
        with pytest.raises(StageError):
            TimingAnalyzer(ripple_adder(4), workers="many")


@pytest.mark.skipif(not _fork_available(), reason="fork not available")
class TestPersistentPool:
    def test_pool_reused_across_sweeps(self):
        shutdown_pool()
        trace = Trace(logger=None)
        tv = TimingAnalyzer(
            random_logic(400, seed=7),
            workers=2,
            executor="process",
            trace=trace,
        )
        try:
            tv.calculator.all_arcs(parallel=True)
            assert trace.counters.get("extract_pool_cold_starts", 0) == 1
            assert pool_diagnostics()["live"]

            tv.calculator._arc_cache.clear()
            tv.calculator.all_arcs(parallel=True)
            assert trace.counters.get("extract_pool_cold_starts", 0) == 1
            assert trace.counters.get("extract_pool_reuses", 0) == 1
        finally:
            shutdown_pool()
        assert not pool_diagnostics()["live"]

    def test_device_edit_rebinds_pool(self):
        shutdown_pool()
        net = random_logic(400, seed=7)
        trace = Trace(logger=None)
        tv = TimingAnalyzer(net, workers=2, executor="process", trace=trace)
        try:
            tv.calculator.all_arcs(parallel=True)
            assert trace.counters.get("extract_pool_cold_starts", 0) == 1

            target = sorted(net.devices)[0]
            net.device(target).w *= 1.25
            tv.notify_changed([target])
            tv.calculator._arc_cache.clear()
            tv.calculator.all_arcs(parallel=True)
            # The edit bumped the snapshot epoch: the live pool no longer
            # matches and a fresh one is forked from the edited netlist.
            assert trace.counters.get("extract_pool_cold_starts", 0) == 2
            assert trace.counters.get("extract_pool_reuses", 0) == 0
        finally:
            shutdown_pool()


class TestInvalidation:
    def test_notify_changed_recomputes_only_affected_stage(self):
        net = manchester_adder(6)
        tv = TimingAnalyzer(net)
        base = tv.analyze()
        populated = dict(tv.calculator._arc_cache)

        target = next(iter(net.devices))
        dev = net.device(target)
        touched_stages = {
            tv.stage_graph.stage_of(n).index
            for n in (dev.gate, dev.source, dev.drain)
            if tv.stage_graph.stage_of(n) is not None
        }
        tv.notify_changed([target])

        for key, arcs in tv.calculator._arc_cache.items():
            # Untouched stages keep the *same* cached lists (identity:
            # nothing was recomputed for them).
            assert key[0] not in touched_stages
            assert arcs is populated[key]
        dropped = set(populated) - set(tv.calculator._arc_cache)
        assert dropped
        assert {key[0] for key in dropped} <= touched_stages

        # Re-analysis refills exactly the dropped keys with equal results
        # (the device itself was not edited, only marked).
        again = tv.analyze()
        assert again.max_delay == base.max_delay
        assert set(tv.calculator._arc_cache) == set(populated)

    def test_invalidate_devices_clears_cap_cache_and_keeps_facts(self):
        net = ripple_adder(4)
        tv = TimingAnalyzer(net)
        tv.analyze()
        calc = tv.calculator
        assert calc._cap_cache and calc._device_facts is not None

        target = next(iter(net.devices))
        dev = net.device(target)
        calc.invalidate_devices([target])
        # The fact map survives (no fact depends on a device's size) and
        # still equals one built from scratch.
        assert calc._device_facts == TimingAnalyzer(
            net
        ).calculator._device_fact_map()
        for node in (dev.gate, dev.source, dev.drain):
            assert node not in calc._cap_cache

    def test_edit_then_parallel_reanalysis_matches_fresh(self):
        net = random_logic(300, seed=7)
        tv = TimingAnalyzer(net, workers=2, executor="thread")
        tv.calculator.all_arcs(parallel=True, workers=2)
        tv.analyze()

        target = sorted(net.devices)[3]
        net.device(target).w *= 1.5
        tv.notify_changed([target])
        tv.calculator.all_arcs(parallel=True, workers=2)
        incremental = tv.analyze().max_delay

        fresh_net = random_logic(300, seed=7)
        fresh_net.device(target).w *= 1.5
        fresh = TimingAnalyzer(fresh_net).analyze().max_delay
        assert incremental == pytest.approx(fresh, rel=1e-12)
