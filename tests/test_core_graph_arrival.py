"""Tests for the timing graph and arrival propagation (repro.core)."""

from dataclasses import replace

import pytest

from repro.core import TimingGraph, propagate
from repro.core.arrival import ArrivalMap
from repro.delay import FALL, NO_SLOPE, RISE, ArcTiming, SlopeModel, StageArc
from repro.errors import TimingError

NS = 1e-9


def arc(trigger, output, *, inverting=True, rise=1 * NS, fall=1 * NS, stage=0):
    return StageArc(
        stage_index=stage,
        trigger=trigger,
        via="gate",
        output=output,
        inverting=inverting,
        rise=ArcTiming(rise, rise) if rise is not None else None,
        fall=ArcTiming(fall, fall) if fall is not None else None,
    )


class TestTimingGraph:
    def test_linear_chain_orders_topologically(self):
        graph = TimingGraph.build([arc("a", "b"), arc("b", "c")])
        assert graph.order.index("a") < graph.order.index("b") < graph.order.index("c")
        assert graph.arc_count() == 2

    def test_feedback_cut_and_recorded(self):
        graph = TimingGraph.build([arc("a", "b"), arc("b", "a")])
        assert len(graph.cut_arcs) == 1
        assert graph.arc_count() == 1

    def test_self_arc_dropped(self):
        graph = TimingGraph.build([arc("a", "a"), arc("a", "b")])
        assert graph.arc_count() == 1

    def test_parallel_arcs_kept(self):
        graph = TimingGraph.build([
            arc("a", "b", rise=1 * NS),
            arc("a", "b", rise=2 * NS, inverting=False),
        ])
        assert graph.arc_count() == 2

    def test_larger_cycle_needs_single_cut(self):
        arcs = [arc("a", "b"), arc("b", "c"), arc("c", "a"), arc("x", "a")]
        graph = TimingGraph.build(arcs)
        assert len(graph.cut_arcs) == 1
        assert graph.arc_count() == 3


class TestPropagate:
    def test_inverting_arc_crosses_transitions(self):
        graph = TimingGraph.build([arc("a", "b", rise=2 * NS, fall=1 * NS)])
        arrivals = propagate(graph, {("a", RISE): 0.0}, NO_SLOPE)
        # a rise -> b fall via fall timing.
        assert arrivals.get("b", FALL).time == pytest.approx(1 * NS)
        assert arrivals.get("b", RISE) is None

    def test_noninverting_arc_keeps_transition(self):
        graph = TimingGraph.build(
            [arc("a", "b", inverting=False, rise=2 * NS, fall=1 * NS)]
        )
        arrivals = propagate(graph, {("a", RISE): 0.0}, NO_SLOPE)
        assert arrivals.get("b", RISE).time == pytest.approx(2 * NS)

    def test_worst_arrival_wins(self):
        arcs = [
            arc("a", "c", rise=1 * NS, fall=1 * NS),
            arc("b", "c", rise=5 * NS, fall=5 * NS),
        ]
        graph = TimingGraph.build(arcs)
        arrivals = propagate(
            graph, {("a", RISE): 0.0, ("b", RISE): 0.0}, NO_SLOPE
        )
        assert arrivals.get("c", FALL).time == pytest.approx(5 * NS)
        assert arrivals.get("c", FALL).pred == ("b", RISE)

    def test_chain_accumulates(self):
        graph = TimingGraph.build([arc("a", "b"), arc("b", "c"), arc("c", "d")])
        arrivals = propagate(graph, {("a", RISE): 0.0, ("a", FALL): 0.0}, NO_SLOPE)
        assert arrivals.worst("d").time == pytest.approx(3 * NS)

    def test_source_offset_respected(self):
        graph = TimingGraph.build([arc("a", "b")])
        arrivals = propagate(graph, {("a", RISE): 7 * NS}, NO_SLOPE)
        assert arrivals.get("b", FALL).time == pytest.approx(8 * NS)

    def test_slope_adds_to_delay(self):
        graph = TimingGraph.build([arc("a", "b", fall=1 * NS)])
        slow = propagate(
            graph,
            {("a", RISE): 0.0},
            SlopeModel(alpha=0.5),
            source_slew=2 * NS,
        )
        assert slow.get("b", FALL).time == pytest.approx(2 * NS)

    def test_slew_degrades_downstream(self):
        graph = TimingGraph.build([arc("a", "b"), arc("b", "c")])
        arrivals = propagate(
            graph, {("a", RISE): 0.0}, SlopeModel(), source_slew=1 * NS
        )
        assert arrivals.get("c", RISE).slew > 0

    def test_missing_timing_blocks_transition(self):
        graph = TimingGraph.build([arc("a", "b", rise=None, fall=1 * NS)])
        arrivals = propagate(graph, {("a", FALL): 0.0}, NO_SLOPE)
        # a fall -> b rise needs rise timing, which is absent.
        assert arrivals.get("b", RISE) is None

    def test_empty_sources_rejected(self):
        graph = TimingGraph.build([arc("a", "b")])
        with pytest.raises(TimingError):
            propagate(graph, {}, NO_SLOPE)

    def test_bad_transition_rejected(self):
        graph = TimingGraph.build([arc("a", "b")])
        with pytest.raises(TimingError):
            propagate(graph, {("a", "sideways"): 0.0}, NO_SLOPE)


class TestArrivalMap:
    def test_max_arrival_restriction(self):
        graph = TimingGraph.build([arc("a", "b"), arc("a", "c", fall=9 * NS, rise=9 * NS)])
        arrivals = propagate(graph, {("a", RISE): 0.0}, NO_SLOPE)
        assert arrivals.max_arrival({"b"}).node == "b"
        assert arrivals.max_arrival(None).node == "c"

    def test_worst_picks_later_transition(self):
        m = ArrivalMap()
        from repro.core.arrival import Arrival

        m.set(Arrival("n", RISE, 1 * NS, 0.0))
        m.set(Arrival("n", FALL, 2 * NS, 0.0))
        assert m.worst("n").transition == FALL

    def test_len_and_nodes(self):
        graph = TimingGraph.build([arc("a", "b")])
        arrivals = propagate(graph, {("a", RISE): 0.0, ("a", FALL): 0.0}, NO_SLOPE)
        assert arrivals.nodes() == {"a", "b"}
        assert len(arrivals) == 4


def _snapshot(arrivals):
    """Everything a report reads from a map, in map order."""
    return [
        (a.node, a.transition, a.time, a.slew, a.pred, a.arc)
        for a in arrivals.items()
    ]


def _retimed(old, delay):
    """``old`` with new rise/fall timing, as a re-extraction yields it."""
    return StageArc(
        stage_index=old.stage_index,
        trigger=old.trigger,
        via=old.via,
        output=old.output,
        inverting=old.inverting,
        rise=ArcTiming(delay, delay),
        fall=ArcTiming(delay, delay),
    )


class TestIncrementalSweep:
    """TimingGraph.update plus propagate(previous=...) == build + sweep."""

    def _arcs(self):
        # x feeds y both inverting and not, with equal delays: y's fall
        # ties between x-rise and x-fall.  a and b tie at c.  c <-> d is
        # a feedback loop (one arc gets cut); e -> e is a self-arc.
        return [
            arc("s", "x", inverting=False, stage=0),
            arc("x", "y", inverting=True, stage=1),
            arc("x", "y", inverting=False, stage=1),
            arc("s", "a", stage=2),
            arc("s", "b", stage=3),
            arc("a", "c", stage=4),
            arc("b", "c", stage=4),
            arc("c", "d", stage=5),
            arc("d", "c", stage=5),
            arc("e", "e", stage=6),
            arc("y", "z", stage=7),
        ]

    SOURCES = {("s", RISE): 0.0, ("s", FALL): 0.0, ("e", RISE): 0.0}

    def test_update_matches_fresh_build(self):
        arcs = self._arcs()
        graph = TimingGraph.build(arcs)
        edited = list(arcs)
        for k in (1, 2, 8, 9):  # a live pair, a cut arc, a self-arc
            edited[k] = _retimed(arcs[k], 3 * NS)
        live = graph.update(edited)
        assert live == [edited[1], edited[2]]
        fresh = TimingGraph.build(edited)
        assert graph.order == fresh.order
        assert graph.arcs_from == fresh.arcs_from
        assert graph.cut_arcs == fresh.cut_arcs

    def test_update_declines_structural_change(self):
        arcs = self._arcs()
        graph = TimingGraph.build(arcs)
        before = (dict(graph.arcs_from), list(graph.cut_arcs))
        # Each differs from arcs[1] in one field of the six update reads.
        for changed in (
            arc("w", "y", inverting=True, stage=1),
            arc("x", "z", inverting=True, stage=1),
            arc("x", "y", inverting=False, stage=1),
            replace(arcs[1], via="channel"),
            arc("x", "y", inverting=True, rise=None, stage=1),
            arc("x", "y", inverting=True, fall=None, stage=1),
        ):
            edited = list(arcs)
            edited[1] = changed
            assert graph.update(edited) is None
        assert graph.update(arcs[:-1]) is None
        assert (dict(graph.arcs_from), list(graph.cut_arcs)) == before

    @pytest.mark.parametrize("delay", [0.5 * NS, 1 * NS, 2 * NS])
    def test_resweep_matches_full_sweep_with_ties(self, delay):
        arcs = self._arcs()
        graph = TimingGraph.build(arcs)
        slope = SlopeModel()
        first = propagate(graph, self.SOURCES, slope)
        kept = _snapshot(first)
        edited = list(arcs)
        edited[0] = _retimed(arcs[0], delay)  # s -> x: y, z go dirty
        edited[3] = _retimed(arcs[3], delay)  # s -> a: c, d go dirty
        changed = graph.update(edited)
        again = propagate(
            graph, self.SOURCES, slope, previous=first, changed=changed
        )
        fresh = propagate(TimingGraph.build(edited), self.SOURCES, slope)
        assert again.recomputed is not None
        assert _snapshot(again) == _snapshot(fresh)
        assert _snapshot(first) == kept  # the previous map is untouched

    def test_resweep_stops_where_arrivals_repeat(self):
        arcs = [
            arc("s", "a", stage=0),
            arc("s", "b", rise=5 * NS, fall=5 * NS, stage=1),
            arc("a", "c", stage=2),
            arc("b", "c", stage=2),
            arc("c", "d", stage=3),
        ]
        sources = {("s", RISE): 0.0, ("s", FALL): 0.0}
        graph = TimingGraph.build(arcs)
        first = propagate(graph, sources, NO_SLOPE)
        edited = list(arcs)
        edited[0] = _retimed(arcs[0], 2 * NS)  # a moves, c stays b-bound
        again = propagate(
            graph,
            sources,
            NO_SLOPE,
            previous=first,
            changed=graph.update(edited),
        )
        assert again.recomputed == 2  # a and c; d is never revisited
        fresh = propagate(TimingGraph.build(edited), sources, NO_SLOPE)
        assert _snapshot(again) == _snapshot(fresh)

    def test_resweep_falls_back_when_an_arrival_would_appear(self):
        arcs = self._arcs()
        graph = TimingGraph.build(arcs)
        first = propagate(graph, self.SOURCES, NO_SLOPE)
        stale = ArrivalMap()
        stale._map = {
            key: a for key, a in first._map.items() if key != ("y", RISE)
        }
        edited = list(arcs)
        edited[1] = _retimed(arcs[1], 2 * NS)
        again = propagate(
            graph,
            self.SOURCES,
            NO_SLOPE,
            previous=stale,
            changed=graph.update(edited),
        )
        assert again.recomputed is None  # the full sweep ran
        fresh = propagate(TimingGraph.build(edited), self.SOURCES, NO_SLOPE)
        assert _snapshot(again) == _snapshot(fresh)
