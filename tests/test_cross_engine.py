"""Cross-engine invariants: the three tools must agree with each other.

The 1983 flow's credibility rested on its tools telling one consistent
story: the switch simulator and the event simulator compute the same
values; no event-simulated vector settles after the static analyzer's
worst-case bound; the functional simulators agree with SPICE-lite's DC
levels.  These tests pin those contracts on randomized circuits.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import TimingAnalyzer
from repro.circuits import bus, full_adder, random_logic, ripple_adder
from repro.errors import SimulationError
from repro.sim import RSim, SpiceLite, SwitchSim, TransientOptions, constant, X


#: Why a pinned seed breaks the settle-time bound (ROADMAP, defects).
_MISSING_EXCLUSIVE_PAIR = (
    "a mux select pair has no exclusive group, so a false discharge arc "
    "closes a loop whose cut drops real arcs (ROADMAP item 8)"
)
_MUX_DATA_CHARGE_SHARING = (
    "a gate output that also feeds a mux data input is disturbed by "
    "charge sharing when a later select closes that pass switch; static "
    "analysis has no arc from the switch's gate to its source side "
    "(ROADMAP item 5)"
)


class TestSwitchVsEvent:
    @given(st.integers(0, 2**31 - 1), st.integers(0, 255))
    @settings(max_examples=15, deadline=None)
    def test_same_final_values_on_random_logic(self, seed, vector):
        net = random_logic(150, seed=seed)
        inputs = {name: (vector >> i) & 1 for i, name in enumerate(sorted(net.inputs))}

        switch = SwitchSim(net)
        switch.step(inputs)

        rsim = RSim(net)
        rsim.run_vector(inputs)

        for node in net.nodes:
            assert switch.value(node) == rsim.value(node), node

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_adder_agreement(self, a, b, cin):
        net = ripple_adder(4)
        vector = {}
        for i in range(4):
            vector[f"a{i}"] = (a >> i) & 1
            vector[f"b{i}"] = (b >> i) & 1
        vector["cin"] = cin

        switch = SwitchSim(net)
        switch.step(vector)
        rsim = RSim(net)
        rsim.run_vector(vector)
        assert switch.word(bus("sum", 4)) == rsim.word(bus("sum", 4))
        assert switch.value("cout") == rsim.value("cout")


class TestEventVsStatic:
    def test_event_settle_never_exceeds_static_bound_strict(self):
        # On flow-clean structures (no pass switch can backdrive its
        # source), the invariant is exact: every event hop is charged no
        # more than its static arc.  The ripple adder is the canonical
        # such design; checked exhaustively per input.
        net = ripple_adder(4)
        result = TimingAnalyzer(net).analyze()
        rsim = RSim(net)
        inputs = sorted(net.inputs)
        rsim.run_vector({name: 0 for name in inputs})
        for flip in inputs:
            since = rsim.now
            rsim.run_vector({flip: 1})
            for node in net.nodes:
                settle = rsim.settle_time_of(node, since)
                static = result.arrival_of(node)
                if settle is None or static is None:
                    continue
                assert settle - since <= static + 1e-12, (flip, node)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_event_settle_tracks_static_bound_on_random_logic(self, seed):
        # Random logic contains muxes whose closed switches let sources
        # backdrive each other -- electrical behaviour the switch
        # simulator reproduces but design-intent (flow-directed) static
        # analysis rightly excludes.  The bound therefore holds with a
        # documented tolerance rather than exactly.
        net = random_logic(120, seed=seed)
        result = TimingAnalyzer(net).analyze()
        rsim = RSim(net, max_events_per_node=256)

        inputs = sorted(net.inputs)
        try:
            rsim.run_vector({name: 0 for name in inputs})
            since = rsim.now
            rsim.run_vector({name: 1 for name in inputs})
        except SimulationError:
            # The same backdriving can close an electrical feedback loop
            # the flow-directed timing graph does not contain, and the
            # event simulation oscillates instead of settling.  With no
            # settle time there is no bound to check -- discard the
            # example rather than fail on an invariant that does not
            # apply (seed 227 is one such circuit).
            assume(False)

        for node in net.nodes:
            settle = rsim.settle_time_of(node, since)
            if settle is None:
                continue
            static = result.arrival_of(node)
            if static is None:
                continue
            bound = max(static * 1.5, static + 2e-9)
            assert settle - since <= bound, node

    @pytest.mark.parametrize(
        "seed",
        [
            pytest.param(seed, marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=reason
            ))
            for seed, reason in [
                (760420865, _MISSING_EXCLUSIVE_PAIR),
                *((seed, _MUX_DATA_CHARGE_SHARING) for seed in (
                    105620218, 55483359, 1834504243, 708578651,
                    1627608484, 1657438555,
                )),
            ]
        ],
    )
    def test_known_random_logic_counterexamples(self, seed):
        # The bound of the test above, pinned on the seeds known to break
        # it, so a fix shows up as an unexpected pass.
        net = random_logic(120, seed=seed)
        result = TimingAnalyzer(net).analyze()
        rsim = RSim(net, max_events_per_node=256)
        inputs = sorted(net.inputs)
        rsim.run_vector({name: 0 for name in inputs})
        since = rsim.now
        rsim.run_vector({name: 1 for name in inputs})
        for node in net.nodes:
            settle = rsim.settle_time_of(node, since)
            static = result.arrival_of(node)
            if settle is None or static is None:
                continue
            bound = max(static * 1.5, static + 2e-9)
            assert settle - since <= bound, node


class TestSwitchVsSpice:
    def test_dc_levels_agree_on_full_adder(self):
        net = full_adder()
        options = TransientOptions(dt=0.3e-9, settle=25e-9)
        for a in (0, 1):
            for b in (0, 1):
                switch = SwitchSim(net)
                switch.step({"a": a, "b": b, "cin": 1})
                sim = SpiceLite(net, options=options)
                wave = sim.transient(
                    {
                        "a": constant(5.0 * a),
                        "b": constant(5.0 * b),
                        "cin": constant(5.0),
                    },
                    5e-9,
                    record=["sum", "cout"],
                )
                for node in ("sum", "cout"):
                    logic = switch.value(node)
                    volts = wave.final_value(node)
                    assert logic is not X
                    if logic == 1:
                        assert volts > 3.0, (node, a, b)
                    else:
                        assert volts < 1.5, (node, a, b)
