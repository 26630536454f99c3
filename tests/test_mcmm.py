"""Tests for multi-corner multi-mode (MCMM) analysis.

The contract under test is parity-by-construction: every scenario of an
``analyze_mcmm`` sweep must be byte-identical (``to_json``) to a
standalone single-corner analysis, while the structural phases (ERC,
flow inference, stage decomposition) run exactly once for the whole
sweep and at most one persistent worker pool survives it.
"""

import json
import multiprocessing

import pytest

from repro import TimingAnalyzer
from repro.bench.perf import parity_circuits
from repro.circuits import inverter_chain, register_bit, ripple_adder
from repro.cli import main
from repro.core.mcmm import (
    CORNER_NAMES,
    McmmResult,
    Scenario,
    analyze_mcmm,
    corner_scenarios,
)
from repro.core.report import validate_report
from repro.delay import pool_diagnostics, shutdown_pool
from repro.errors import TimingError
from repro.netlist import sim_dumps
from repro.tech import NMOS4, Technology
from repro.trace import Trace


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _standalone_json(make, corner: str) -> str:
    """A fresh single-corner analysis, serialized deterministically."""
    net = make()
    tv = TimingAnalyzer(net, tech=net.tech.corner(corner))
    return json.dumps(tv.analyze().to_json(), sort_keys=True)


class TestScenarioCoercion:
    def test_corner_scenarios_default(self):
        scens = corner_scenarios()
        assert [s.name for s in scens] == list(CORNER_NAMES)
        assert scens[1].tech == NMOS4
        assert scens[0].tech.name.endswith("-slow")

    def test_string_shorthand(self):
        tv = TimingAnalyzer(inverter_chain(3))
        mcmm = tv.analyze_mcmm(["slow", "fast"])
        assert [s.name for s in mcmm.scenarios] == ["slow", "fast"]
        assert mcmm.scenarios[0].tech == tv.tech.corner("slow")

    def test_unknown_shorthand_rejected(self):
        tv = TimingAnalyzer(inverter_chain(3))
        with pytest.raises(TimingError, match="unknown corner shorthand"):
            tv.analyze_mcmm(["nominal"])

    def test_non_scenario_rejected(self):
        tv = TimingAnalyzer(inverter_chain(3))
        with pytest.raises(TimingError, match="must be a Scenario"):
            tv.analyze_mcmm([42])

    def test_empty_scenarios_rejected(self):
        tv = TimingAnalyzer(inverter_chain(3))
        with pytest.raises(TimingError, match="at least one scenario"):
            tv.analyze_mcmm([])

    def test_duplicate_names_rejected(self):
        tv = TimingAnalyzer(inverter_chain(3))
        with pytest.raises(TimingError, match="duplicate scenario names"):
            tv.analyze_mcmm(["slow", "slow"])


class TestParitySerial:
    """Every zoo circuit, every corner: MCMM == standalone, bytewise."""

    @pytest.mark.parametrize(
        "name,make", parity_circuits(), ids=[n for n, _ in parity_circuits()]
    )
    def test_scenarios_match_standalone(self, name, make):
        net = make()
        mcmm = TimingAnalyzer(net).analyze_mcmm(corner_scenarios(net.tech))
        for corner in CORNER_NAMES:
            ours = json.dumps(
                mcmm.result(corner).to_json(), sort_keys=True
            )
            assert ours == _standalone_json(make, corner), (
                f"{name}: scenario {corner!r} diverged from its "
                "standalone single-corner analysis"
            )


class TestParityParallel:
    """Same sweep with pooled extraction forced on: the retargeted
    workers must reproduce the serial single-corner bytes exactly."""

    @pytest.mark.skipif(not _fork_available(), reason="fork not available")
    @pytest.mark.parametrize(
        "name,make", parity_circuits(), ids=[n for n, _ in parity_circuits()]
    )
    def test_pooled_scenarios_match_serial_standalone(
        self, name, make, forced_pool
    ):
        net = make()
        tv = TimingAnalyzer(net, workers=2, trace=forced_pool)
        mcmm = tv.analyze_mcmm(corner_scenarios(net.tech))
        for corner in CORNER_NAMES:
            ours = json.dumps(mcmm.result(corner).to_json(), sort_keys=True)
            assert ours == _standalone_json(make, corner), (
                f"{name}: pooled scenario {corner!r} diverged from "
                "the serial standalone analysis"
            )


class TestStructuralSharing:
    def test_structural_phases_run_once(self):
        trace = Trace()
        net = ripple_adder(4)
        tv = TimingAnalyzer(net, trace=trace)
        tv.analyze_mcmm(corner_scenarios(net.tech))
        assert trace.counters["structural_runs"] == 1
        assert trace.counters["mcmm_scenarios"] == 3

    def test_independent_runs_pay_per_corner(self):
        trace = Trace()
        for corner in CORNER_NAMES:
            net = ripple_adder(4)
            TimingAnalyzer(
                net, tech=net.tech.corner(corner), trace=trace
            ).analyze()
        assert trace.counters["structural_runs"] == 3
        assert "mcmm_scenarios" not in trace.counters


class TestPoolLifecycle:
    @pytest.mark.skipif(not _fork_available(), reason="fork not available")
    def test_at_most_one_pool_survives_a_sweep(self, forced_pool):
        net = ripple_adder(6)
        tv = TimingAnalyzer(net, workers=2, trace=forced_pool)
        tv.analyze_mcmm(corner_scenarios(net.tech))
        diag = pool_diagnostics()
        live = diag["pools_started"] - diag["pools_evicted"]
        assert live <= 1, (
            f"{live} pools alive after a 3-corner sweep; retargeted "
            "scenarios must share one pool"
        )
        shutdown_pool()
        diag = pool_diagnostics()
        assert not diag["live"]
        assert diag["pools_started"] - diag["pools_evicted"] == 0

    @pytest.mark.skipif(not _fork_available(), reason="fork not available")
    def test_rebinding_evicts_the_previous_pool(self, forced_pool):
        for seed in (1, 2):
            tv = TimingAnalyzer(
                ripple_adder(5 + seed), workers=2, trace=forced_pool
            )
            tv.calculator.all_arcs(parallel=True, workers=2)
        diag = pool_diagnostics()
        assert diag["pools_started"] >= 2
        assert diag["pools_started"] - diag["pools_evicted"] <= 1


class TestMcmmResult:
    @pytest.fixture(scope="class")
    def mcmm(self) -> McmmResult:
        net = ripple_adder(4)
        return TimingAnalyzer(net).analyze_mcmm(corner_scenarios(net.tech))

    def test_dominant_scenario_is_slow(self, mcmm):
        assert mcmm.dominant_scenario() == "slow"

    def test_unknown_scenario_rejected(self, mcmm):
        with pytest.raises(TimingError, match="unknown scenario"):
            mcmm.result("nominal")

    def test_worst_arrivals_name_a_scenario(self, mcmm):
        worst = mcmm.worst_arrivals()
        assert worst
        for node, (time, scenario) in worst.items():
            assert scenario in CORNER_NAMES
            assert time == max(
                mcmm.result(c).arrivals.worst(node).time
                for c in CORNER_NAMES
                if node in mcmm.result(c).arrivals.nodes()
            )

    def test_dominant_corner(self, mcmm):
        endpoint = mcmm.result("slow").paths[0].endpoint
        assert mcmm.dominant_corner(endpoint) == "slow"
        with pytest.raises(TimingError, match="no arrival"):
            mcmm.dominant_corner("no_such_node")

    def test_explain_names_the_scenario(self, mcmm):
        endpoint = mcmm.result("slow").paths[0].endpoint
        explanation = mcmm.explain(endpoint)
        assert explanation.scenario == "slow"
        assert "in scenario slow" in explanation.format()
        assert explanation.to_json()["scenario"] == "slow"

    def test_report_flags_dominant(self, mcmm):
        text = mcmm.report()
        assert "<- dominant" in text
        assert "worst in" in text


class TestMcmmSchema:
    def test_combinational_payload_validates(self):
        net = ripple_adder(4)
        mcmm = TimingAnalyzer(net).analyze_mcmm(corner_scenarios(net.tech))
        payload = mcmm.to_json()
        validate_report(payload)
        section = payload["mcmm"]
        assert section["scenario_count"] == 3
        assert section["dominant"] == "slow"
        assert [row["name"] for row in section["scenarios"]] == list(
            CORNER_NAMES
        )
        assert all(row["scenario"] in CORNER_NAMES for row in section["nodes"])
        arrivals = [row["arrival"] for row in section["paths"]]
        assert arrivals == sorted(arrivals, reverse=True)

    def test_two_phase_payload_validates(self):
        net = register_bit()
        mcmm = TimingAnalyzer(net).analyze_mcmm(corner_scenarios(net.tech))
        payload = mcmm.to_json(include_wall_time=True)
        validate_report(payload)
        assert payload["mcmm"]["analysis_seconds"] >= 0.0
        for row in payload["mcmm"]["scenarios"]:
            assert row["min_cycle"] is not None

    def test_wall_time_off_by_default(self):
        net = inverter_chain(3)
        payload = TimingAnalyzer(net).analyze_mcmm(
            corner_scenarios(net.tech)
        ).to_json()
        assert "analysis_seconds" not in payload["mcmm"]
        for row in payload["mcmm"]["scenarios"]:
            assert "analysis_seconds" not in row


class TestCliCorners:
    @pytest.fixture
    def chain_file(self, tmp_path):
        path = tmp_path / "chain.sim"
        path.write_text(sim_dumps(inverter_chain(3)))
        return str(path)

    def test_analyze_corner_report(self, chain_file, capsys):
        assert main(
            ["analyze", chain_file, "--corner", "slow", "--corner", "fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "MCMM timing analysis" in out
        assert "dominant: slow" in out

    def test_analyze_corner_json_validates(self, chain_file, capsys):
        assert main(
            ["analyze", chain_file, "--json",
             "--corner", "slow", "--corner", "typ", "--corner", "fast"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["mcmm"]["scenario_count"] == 3

    def test_analyze_corner_named_spec(self, chain_file, capsys):
        assert main(
            ["analyze", chain_file, "--corner", "worst=slow"]
        ) == 0
        out = capsys.readouterr().out
        assert "worst" in out

    def test_analyze_corner_from_json_file(self, chain_file, tmp_path,
                                           capsys):
        tech_path = tmp_path / "proc.json"
        tech_path.write_text(json.dumps(NMOS4.to_dict()))
        assert main(
            ["analyze", chain_file, "--corner", f"baked={tech_path}"]
        ) == 0
        assert "baked" in capsys.readouterr().out

    def test_analyze_bad_corner_spec(self, chain_file, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", chain_file, "--corner", "bogus"])

    def test_explain_names_dominant_corner(self, chain_file, capsys):
        assert main(
            ["explain", chain_file, "--corner", "slow", "--corner", "fast"]
        ) == 0
        assert "in scenario slow" in capsys.readouterr().out

    def test_explain_corner_json(self, chain_file, capsys):
        assert main(
            ["explain", chain_file, "--json",
             "--corner", "slow", "--corner", "fast"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "slow"


class TestModeScenarios:
    def test_clock_override_scenarios(self):
        from repro.clocks import TwoPhaseClock

        net = register_bit()
        wide_gap = TwoPhaseClock(nonoverlap=10e-9)
        tv = TimingAnalyzer(net)
        mcmm = tv.analyze_mcmm(
            [
                Scenario(name="typ", tech=net.tech),
                Scenario(name="typ-widegap", tech=net.tech,
                         clock=wide_gap),
            ]
        )
        typ = mcmm.result("typ")
        slowed = mcmm.result("typ-widegap")
        # Same silicon, wider non-overlap gap: phase widths are
        # unchanged, the cycle stretches by exactly the two extra gaps.
        extra = 2.0 * (wide_gap.nonoverlap - tv.clock.nonoverlap)
        assert slowed.min_cycle == pytest.approx(typ.min_cycle + extra)
        assert slowed.clock_verification.clock == wide_gap
        assert mcmm.dominant_scenario() == "typ-widegap"
