"""Tests for the TimingAnalyzer facade and path extraction (repro.core)."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import (
    ElectricalRuleError,
    Netlist,
    TimingAnalyzer,
    TimingError,
    TwoPhaseClock,
)
from repro.circuits import (
    add_inverter,
    barrel_shifter,
    inverter_chain,
    manchester_adder,
    mips_like_datapath,
    register_bit,
    ripple_adder,
    shift_register,
)
from repro.core import critical_paths, trace_path
from repro.delay import NO_SLOPE


class TestCombinational:
    def test_chain_delay_accumulates(self):
        short = TimingAnalyzer(inverter_chain(2), slope=NO_SLOPE).analyze()
        long = TimingAnalyzer(inverter_chain(6), slope=NO_SLOPE).analyze()
        assert long.max_delay > 2.5 * short.max_delay

    def test_mode_detection(self):
        assert TimingAnalyzer(inverter_chain(2)).analyze().mode == "combinational"
        assert TimingAnalyzer(shift_register(2)).analyze().mode == "two-phase"

    def test_input_arrival_shifts_output(self):
        net = inverter_chain(3)
        base = TimingAnalyzer(net).analyze()
        late = TimingAnalyzer(net).analyze(input_arrivals={"a": 5e-9})
        assert late.max_delay == pytest.approx(base.max_delay + 5e-9)

    def test_critical_path_structure(self):
        result = TimingAnalyzer(inverter_chain(4)).analyze()
        path = result.critical_path
        assert path is not None
        assert path.startpoint == "a"
        assert path.endpoint == "n3"
        assert path.length == 4
        times = [s.time for s in path.steps]
        assert times == sorted(times)

    def test_transitions_alternate_through_inverters(self):
        result = TimingAnalyzer(inverter_chain(4)).analyze()
        transitions = [s.transition for s in result.critical_path.steps]
        for a, b in zip(transitions, transitions[1:]):
            assert a != b

    def test_arrival_of(self):
        result = TimingAnalyzer(inverter_chain(2)).analyze()
        assert result.arrival_of("n0") is not None
        assert result.arrival_of("n1") > result.arrival_of("n0")

    def test_no_inputs_rejected(self):
        net = Netlist("t")
        add_inverter(net, "a", "y")
        net.node("a")
        with pytest.raises((TimingError, ElectricalRuleError)):
            TimingAnalyzer(net).analyze()

    def test_erc_failure_blocks_analysis(self):
        net = Netlist("t")
        net.set_input("a")
        net.add_enh("ghost", "a", "gnd")
        with pytest.raises(ElectricalRuleError):
            TimingAnalyzer(net)

    def test_erc_can_be_skipped(self):
        net = Netlist("t")
        net.set_input("a")
        add_inverter(net, "a", "y")
        net.add_node("orphan")  # warning only anyway
        analyzer = TimingAnalyzer(net, run_erc=False)
        assert analyzer.erc_warnings == []

    def test_report_text(self):
        result = TimingAnalyzer(inverter_chain(2)).analyze()
        text = result.report()
        assert "timing analysis" in text
        assert "max delay" in text
        assert "ns" in text

    def test_top_k_limits_paths(self):
        net = ripple_adder(4)
        result = TimingAnalyzer(net).analyze(top_k=3)
        assert len(result.paths) == 3

    def test_feedback_cut_reported(self):
        net = Netlist("latchpair")
        net.set_input("a")
        add_inverter(net, "a", "x")
        add_inverter(net, "x", "s")
        add_inverter(net, "s", "ns", tag="f1")
        add_inverter(net, "ns", "s", tag="f2")
        net.set_output("ns")
        result = TimingAnalyzer(net).analyze()
        assert result.cut_arc_count >= 1


class TestTwoPhase:
    def test_register_bit_min_cycle(self):
        result = TimingAnalyzer(register_bit()).analyze()
        assert result.mode == "two-phase"
        assert result.min_cycle is not None
        clock = TwoPhaseClock()
        v = result.clock_verification
        assert v.min_cycle == pytest.approx(
            v.phases["phi1"].width + v.phases["phi2"].width + 2 * clock.nonoverlap
        )

    def test_longer_pipeline_same_cycle(self):
        # Min cycle is set by the worst single stage, not pipeline length.
        short = TimingAnalyzer(shift_register(2)).analyze()
        long = TimingAnalyzer(shift_register(6)).analyze()
        assert long.min_cycle == pytest.approx(short.min_cycle, rel=0.2)

    def test_no_races_in_proper_designs(self):
        for net in (shift_register(3), manchester_adder(4)):
            result = TimingAnalyzer(net).analyze()
            assert result.clock_verification.races == []

    def test_race_detected_in_same_phase_latch_chain(self):
        net = Netlist("racy")
        net.set_input("d")
        net.set_clock("phi1", "phi1")
        net.set_clock("phi2", "phi2")
        from repro.circuits import add_half_latch

        add_half_latch(net, "d", "q1", "phi1", tag="l1")
        add_half_latch(net, "q1", "q2", "phi1", tag="l2")  # same phase!
        add_half_latch(net, "q2", "q3", "phi2", tag="l3")
        net.set_output("q3")
        result = TimingAnalyzer(net).analyze()
        races = result.clock_verification.races
        assert races, "same-phase latch chain must be flagged"
        assert races[0].phase == "phi1"

    def test_manchester_precharge_in_phi1(self):
        result = TimingAnalyzer(manchester_adder(4)).analyze()
        v = result.clock_verification
        assert v.phases["phi1"].width > 0
        assert v.phases["phi2"].width > 0

    def test_custom_clock_schema(self):
        net = Netlist("alt")
        net.set_input("d")
        net.set_clock("ca", "A")
        net.set_clock("cb", "B")
        from repro.circuits import add_half_latch

        add_half_latch(net, "d", "q", "ca", tag="l1")
        add_half_latch(net, "q", "r", "cb", tag="l2")
        net.set_output("r")
        clock = TwoPhaseClock(phase1="A", phase2="B")
        result = TimingAnalyzer(net, clock=clock).analyze()
        assert result.mode == "two-phase"

    def test_unknown_phase_labels_fall_back_to_combinational(self):
        net = Netlist("odd")
        net.set_input("d")
        net.set_clock("c", "weird")
        from repro.circuits import add_half_latch

        add_half_latch(net, "d", "q", "c", tag="l")
        net.set_output("q")
        result = TimingAnalyzer(net).analyze()
        assert result.mode == "combinational"

    def test_datapath_cycle_in_era_plausible_range(self):
        dp, _ = mips_like_datapath(8, 4)
        result = TimingAnalyzer(dp).analyze()
        # A 4um nMOS datapath runs at a handful of MHz.
        assert 30e-9 < result.min_cycle < 2000e-9

    def test_analysis_imports_no_numpy(self):
        # The qualified-clock derivation runs the switch-level simulator
        # from repro.sim; only that package's transient simulator needs
        # numpy, which a fresh process must then never load.
        code = textwrap.dedent("""
            import sys
            from repro import TimingAnalyzer, corner_scenarios
            from repro.circuits import mips_like_datapath
            from repro.netlist import sim_dumps, sim_loads

            net = sim_loads(sim_dumps(mips_like_datapath(4, 2)[0]))
            tv = TimingAnalyzer(net)
            assert tv.analyze().mode == "two-phase"
            tv.analyze_mcmm(corner_scenarios(net.tech))
            assert "numpy" not in sys.modules, "numpy was imported"
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestPathExtraction:
    def test_trace_unknown_endpoint_raises(self):
        result = TimingAnalyzer(inverter_chain(2)).analyze()
        with pytest.raises(KeyError):
            trace_path(result.arrivals, "nope", "rise")

    def test_critical_paths_ranked_descending(self):
        result = TimingAnalyzer(ripple_adder(3)).analyze(top_k=5)
        arrivals = [p.arrival for p in result.paths]
        assert arrivals == sorted(arrivals, reverse=True)

    def test_one_path_per_endpoint(self):
        result = TimingAnalyzer(ripple_adder(3)).analyze(top_k=100)
        endpoints = [p.endpoint for p in result.paths]
        assert len(endpoints) == len(set(endpoints))

    def test_endpoints_restricted_to_outputs(self):
        net = ripple_adder(3)
        result = TimingAnalyzer(net).analyze(top_k=100)
        assert {p.endpoint for p in result.paths} <= set(net.outputs)

    def test_path_format_is_readable(self):
        result = TimingAnalyzer(inverter_chain(3)).analyze()
        text = result.critical_path.format()
        assert "ns" in text
        assert "(source)" in text
        assert "n2" in text

    def test_critical_paths_helper_on_all_nodes(self):
        result = TimingAnalyzer(inverter_chain(3)).analyze()
        paths = critical_paths(result.arrivals, None, k=2)
        assert len(paths) == 2

    def test_shifter_critical_path_passes_through_matrix(self):
        net = barrel_shifter(4)
        result = TimingAnalyzer(net).analyze()
        devices = [d for step in result.critical_path.steps for d in step.devices]
        assert any("bsh.m" in d for d in devices)
