"""Tests for the parametric (symbolic) delay layer.

The contract under test is the ISSUE 9 hard gate: analytic delay terms
(:mod:`repro.delay.parametric`) evaluated at the point they were
extracted from must be **bit-for-bit identical** to the concrete models
-- swept over every circuit generator in the zoo, serial and pooled,
and (via hypothesis) over random in-range technology points.  On top of
parity, the sensitivity query surface (``explain(sensitivity=True)``)
and the model's monotonic-sanity invariants are exercised.
"""

import dataclasses
import json
import multiprocessing

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import TimingAnalyzer
from repro.bench.perf import parity_circuits
from repro.circuits import inverter_chain, ripple_adder
from repro.core.mcmm import Scenario, corner_scenarios
from repro.delay.parametric import (
    PARAMETERS,
    SENSITIVITY_REL_STEP,
    evaluate_arcs,
    evaluate_timing,
    perturbed,
)
from repro.errors import ReproError
from repro.tech import NMOS4
from repro.trace import Trace

RESISTANCE_PARAMS = (
    "r_sq_enh_pulldown",
    "r_sq_enh_pass",
    "r_sq_dep_pullup",
)
CAPACITANCE_PARAMS = ("c_gate_area", "c_diff_area", "c_node_floor")


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _result_bytes(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def _worst_metric(result) -> float:
    """One scalar per result: max delay (combinational) or min cycle."""
    return (
        result.max_delay
        if result.max_delay is not None
        else result.min_cycle
    )


class TestNominalParitySerial:
    """Symbolic-at-nominal == concrete, bytewise, for every zoo circuit."""

    @pytest.mark.parametrize(
        "name,make", parity_circuits(), ids=[n for n, _ in parity_circuits()]
    )
    def test_symbolic_matches_concrete(self, name, make):
        trace = Trace()
        net = make()
        tv = TimingAnalyzer(net, trace=trace)
        mcmm = tv.analyze_mcmm([Scenario(name="nominal")])
        standalone = TimingAnalyzer(make()).analyze()
        assert _result_bytes(mcmm.result("nominal")) == _result_bytes(
            standalone
        ), f"{name}: symbolic evaluation diverged from concrete extraction"
        assert trace.counters.get("parametric_stage_evals", 0) > 0, (
            f"{name}: no stage was served by term evaluation -- the "
            "symbolic path was not exercised"
        )


class TestNominalParityPooled:
    """Same parity with pooled extraction forced on: the parametric
    source extracts through the worker pool, the scenario evaluates."""

    @pytest.mark.skipif(not _fork_available(), reason="fork not available")
    @pytest.mark.parametrize(
        "name,make", parity_circuits(), ids=[n for n, _ in parity_circuits()]
    )
    def test_pooled_symbolic_matches_serial_concrete(
        self, name, make, forced_pool
    ):
        net = make()
        tv = TimingAnalyzer(net, workers=2, trace=forced_pool)
        mcmm = tv.analyze_mcmm([Scenario(name="nominal")])
        standalone = TimingAnalyzer(make()).analyze()
        assert _result_bytes(mcmm.result("nominal")) == _result_bytes(
            standalone
        ), f"{name}: pooled symbolic sweep diverged from serial concrete"


class TestCornerSweepUsesTerms:
    def test_default_mcmm_is_parametric_under_strict_elmore(self):
        trace = Trace()
        net = ripple_adder(2)
        tv = TimingAnalyzer(net, trace=trace)
        tv.analyze_mcmm(corner_scenarios(net.tech))
        assert trace.counters.get("parametric_stage_evals", 0) > 0
        assert trace.counters.get("structural_runs", 0) == 1

    def test_non_elmore_model_falls_back_to_concrete(self):
        trace = Trace()
        net = ripple_adder(2)
        tv = TimingAnalyzer(net, model="pr-max", trace=trace)
        mcmm = tv.analyze_mcmm(corner_scenarios(net.tech))
        assert trace.counters.get("parametric_stage_evals", 0) == 0
        standalone = TimingAnalyzer(
            ripple_adder(2), tech=net.tech.corner("fast"), model="pr-max"
        ).analyze()
        assert _result_bytes(mcmm.result("fast")) == _result_bytes(standalone)


class TestEvaluatorSurface:
    def test_evaluate_timing_requires_a_term(self):
        tv = TimingAnalyzer(inverter_chain(3))
        calc = tv.calculator
        stage = tv.stage_graph[0]
        arcs = calc.arcs(stage, None, frozenset())
        concrete = next(
            t for arc in arcs for t in (arc.rise, arc.fall) if t is not None
        )
        assert concrete.term is None
        with pytest.raises(ValueError, match="no parametric term"):
            evaluate_timing(calc, stage, concrete)

    def test_evaluate_arcs_none_on_concrete_input(self):
        tv = TimingAnalyzer(inverter_chain(3))
        calc = tv.calculator
        stage = tv.stage_graph[0]
        arcs = calc.arcs(stage, None, frozenset())
        assert evaluate_arcs(calc, stage, arcs) is None

    def test_symbolic_source_carries_terms(self):
        tv = TimingAnalyzer(inverter_chain(3))
        source = tv.calculator.parametric_source()
        stage = tv.stage_graph[0]
        arcs = source.arcs(stage, None, frozenset())
        timings = [
            t for arc in arcs for t in (arc.rise, arc.fall) if t is not None
        ]
        assert timings and all(t.term is not None for t in timings)
        evaluated = evaluate_arcs(tv.calculator, stage, arcs)
        assert [
            (t.delay, t.tau)
            for arc in evaluated
            for t in (arc.rise, arc.fall)
            if t is not None
        ] == [(t.delay, t.tau) for t in timings]

    def test_perturbed_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown delay-model parameter"):
            perturbed(NMOS4, "vdd", 0.05)

    def test_perturbed_scales_one_field(self):
        t2 = perturbed(NMOS4, "k_fall", 0.05)
        assert t2.k_fall == NMOS4.k_fall * 1.05
        assert t2.k_rise == NMOS4.k_rise


# A multiplier per delay parameter, tight enough that ratioed-logic ERC
# margins survive; replay parity must hold at *any* point, so the band
# only bounds how exotic the fuzzed technologies get.
_scales = st.fixed_dictionaries(
    {
        param: st.floats(
            min_value=0.85,
            max_value=1.15,
            allow_nan=False,
            allow_infinity=False,
        )
        for param in PARAMETERS
    }
)


def _scaled_tech(scales: dict) -> "NMOS4.__class__":
    return dataclasses.replace(
        NMOS4,
        **{p: getattr(NMOS4, p) * m for p, m in scales.items()},
    )


class TestRandomPointParity:
    """Hypothesis fuzz: extraction and evaluation agree bit-for-bit at
    random in-range technology points, not just the shipped corners."""

    @given(_scales)
    @settings(max_examples=20, deadline=None)
    def test_symbolic_matches_concrete_at_random_tech(self, scales):
        tech = _scaled_tech(scales)
        make = lambda: ripple_adder(2)  # noqa: E731
        try:
            tv = TimingAnalyzer(make(), tech=tech)
        except ReproError:
            assume(False)
        mcmm = tv.analyze_mcmm([Scenario(name="pt")])
        standalone = TimingAnalyzer(make(), tech=tech).analyze()
        assert _result_bytes(mcmm.result("pt")) == _result_bytes(standalone)


class TestMonotonicSanity:
    """Scaling every resistance (or every capacitance) parameter up can
    never make the worst path faster -- checked through term evaluation
    at the perturbed point, where a different path may win but the
    worst metric must still be monotone."""

    @given(
        st.floats(
            min_value=1.0, max_value=2.0,
            allow_nan=False, allow_infinity=False,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_delay_nondecreasing_in_resistance(self, factor):
        tech = dataclasses.replace(
            NMOS4,
            **{p: getattr(NMOS4, p) * factor for p in RESISTANCE_PARAMS},
        )
        tv = TimingAnalyzer(ripple_adder(2))
        mcmm = tv.analyze_mcmm(
            [Scenario(name="base"), Scenario(name="scaled", tech=tech)]
        )
        assert _worst_metric(mcmm.result("scaled")) >= _worst_metric(
            mcmm.result("base")
        )

    @given(
        st.floats(
            min_value=1.0, max_value=2.0,
            allow_nan=False, allow_infinity=False,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_delay_nondecreasing_in_capacitance(self, factor):
        tech = dataclasses.replace(
            NMOS4,
            **{p: getattr(NMOS4, p) * factor for p in CAPACITANCE_PARAMS},
        )
        tv = TimingAnalyzer(inverter_chain(6))
        mcmm = tv.analyze_mcmm(
            [Scenario(name="base"), Scenario(name="scaled", tech=tech)]
        )
        assert _worst_metric(mcmm.result("scaled")) >= _worst_metric(
            mcmm.result("base")
        )


class TestSensitivities:
    def test_explain_sensitivity_attaches_sorted_records(self):
        tv = TimingAnalyzer(ripple_adder(2))
        result = tv.analyze()
        explanation = tv.explain(
            result.paths[0].endpoint, result=result, sensitivity=True
        )
        records = explanation.sensitivities
        assert records is not None and records
        assert all(r.parameter in PARAMETERS for r in records)
        magnitudes = [abs(r.sensitivity) for r in records]
        assert magnitudes == sorted(magnitudes, reverse=True)
        # Making the dominant path's devices more resistive must slow it.
        assert records[0].sensitivity > 0
        for record in records:
            assert record.nominal == getattr(tv.tech, record.parameter)

    def test_explanation_without_sensitivity_has_none(self):
        tv = TimingAnalyzer(inverter_chain(4))
        result = tv.analyze()
        explanation = tv.explain(
            result.paths[0].endpoint, result=result
        )
        assert explanation.sensitivities is None
        assert explanation.to_json()["sensitivities"] is None

    def test_sensitivity_json_and_format(self):
        tv = TimingAnalyzer(inverter_chain(4))
        result = tv.analyze()
        explanation = tv.explain(
            result.paths[0].endpoint, result=result, sensitivity=True
        )
        payload = explanation.to_json()
        assert isinstance(payload["sensitivities"], list)
        row = payload["sensitivities"][0]
        assert set(row) == {"parameter", "nominal", "sensitivity"}
        assert "sensitivities" in explanation.format()

    def test_sensitivity_matches_manual_central_difference(self):
        tv = TimingAnalyzer(inverter_chain(4))
        result = tv.analyze()
        node = result.paths[0].endpoint
        explanation = tv.explain(node, result=result, sensitivity=True)
        record = next(
            r
            for r in explanation.sensitivities
            if r.parameter == "r_sq_enh_pulldown"
        )
        arrivals = {}
        for sign in (-1.0, 1.0):
            tech = perturbed(
                NMOS4, "r_sq_enh_pulldown", sign * SENSITIVITY_REL_STEP
            )
            side = TimingAnalyzer(inverter_chain(4), tech=tech).analyze()
            arrival = side.arrivals.get(node, explanation.transition)
            arrivals[sign] = arrival.time
        expected = (arrivals[1.0] - arrivals[-1.0]) / (
            2.0 * SENSITIVITY_REL_STEP
        )
        assert record.sensitivity == pytest.approx(expected, rel=1e-12)

    def test_mcmm_explain_sensitivity_passthrough(self):
        net = ripple_adder(2)
        tv = TimingAnalyzer(net)
        mcmm = tv.analyze_mcmm(corner_scenarios(net.tech))
        node = mcmm.result("slow").paths[0].endpoint
        explanation = mcmm.explain(node, sensitivity=True)
        assert explanation.sensitivities
        assert explanation.scenario == mcmm.dominant_corner(node)
