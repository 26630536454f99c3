"""The arc cache is keyed on each stage's cut set, and one path search
serves every trigger.

A sweep (``active_clocks``, ``open_gates``) reaches a stage's arcs only
through the member devices it cuts, so the calculator caches arcs per
``(stage index, cut set)`` and serves a stage once for every sweep that
cuts the same devices.  The oracles elsewhere (MCMM vs standalone, pooled
vs serial) use that key on both sides and cannot see a wrong one; here a
calculator that served every sweep of a two-phase analysis is checked
against fresh calculators that each served one sweep.

The path search (``_worst_paths``) walks once from an output and keeps
the worst path per gate without materialising every path.  Its discharge
timings and the select arcs built from it are checked against a
list-then-scan enumeration of every path, kept below as the reference.
"""

import json
import multiprocessing

import pytest

from repro import Netlist, TimingAnalyzer
from repro.bench.perf import parity_circuits
from repro.circuits import (
    barrel_shifter,
    mips_like_datapath,
    random_logic,
    ripple_adder,
)
from repro.core.constraints import qualified_low_nodes
from repro.core.mcmm import CORNER_NAMES, corner_scenarios
from repro.delay import StageArc, StageContext, StageDelayCalculator
from repro.delay.effective_res import FALL, RISE
from repro.delay.stage_delay import _BY_GATE, _mark_truncated
from repro.netlist import DeviceKind, FlowDirection, sim_dumps, sim_loads
from repro.serve import DesignSession
from repro.trace import Trace

CLOCKED = [
    (name, make)
    for name, make in parity_circuits()
    if name
    in {
        "half_latch",
        "register_bit",
        "shift_register",
        "manchester_adder",
        "register_file",
        "fsm",
        "sequencer",
        "toy_cpu",
        "mips_like_datapath",
    }
]


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _sweeps(tv) -> list[tuple[frozenset[str] | None, frozenset[str]]]:
    """The three extraction sweeps of a two-phase analysis, in its order:
    each phase's (clocks, qualified-low gates), then all-transparent."""
    net, clock = tv.netlist, tv.clock
    sweeps = [
        (clock.clock_nodes(net, phase), qualified_low_nodes(net, clock, phase))
        for phase in clock.phases
    ]
    sweeps.append((None, frozenset()))
    return sweeps


def _cut_sets(calc, active, open_gates) -> dict[int, frozenset[str]]:
    """Per stage, the member devices ``_clock_open`` cuts, device by device."""
    return {
        stage.index: frozenset(
            dev.name
            for dev in calc.graph.devices_of(stage)
            if calc._clock_open(dev, active, open_gates)
        )
        for stage in calc.graph
    }


class TestCrossSweepParity:
    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
    @pytest.mark.parametrize(
        "name,make", CLOCKED, ids=[name for name, _ in CLOCKED]
    )
    def test_shared_calculator_matches_fresh_per_sweep(
        self, name, make, pooled, request
    ):
        trace = Trace()
        if pooled:
            if not _fork_available():
                pytest.skip("fork not available")
            trace = request.getfixturevalue("forced_pool")
        sweeps = _sweeps(TimingAnalyzer(make()))
        fresh = {}
        for sweep in sweeps:
            calc = TimingAnalyzer(make()).calculator
            fresh[sweep] = calc.all_arcs(*sweep, parallel=False)
        for turn, order in enumerate((sweeps, sweeps[::-1]), 1):
            shared = TimingAnalyzer(
                make(), workers=2 if pooled else 1, trace=trace
            ).calculator
            for sweep in order:
                shared.all_arcs(*sweep)
            if pooled:
                # One fork per calculator, shared by its three sweeps.
                assert trace.counters["extract_pool_cold_starts"] == turn
            for sweep in sweeps:
                assert shared.all_arcs(*sweep) == fresh[sweep], (
                    f"{name}: sweep {sweep} served from a calculator "
                    "that also served the other sweeps diverged from "
                    "a fresh extraction"
                )

    @pytest.mark.parametrize(
        "name,make", CLOCKED, ids=[name for name, _ in CLOCKED]
    )
    def test_one_cache_entry_per_distinct_cut_set(self, name, make):
        tv = TimingAnalyzer(make())
        tv.analyze()
        calc = tv.calculator
        per_sweep = [_cut_sets(calc, *sweep) for sweep in _sweeps(tv)]
        expected = {
            (index, cut) for cuts in per_sweep for index, cut in cuts.items()
        }
        assert len(calc._arc_cache) == len(expected)
        assert set(calc._arc_cache) == expected
        # Every circuit exercises both sides of the key: some stage is
        # served across sweeps, some stage is extracted per sweep.
        assert len(calc.graph) < len(expected) < 3 * len(calc.graph)

    @pytest.mark.parametrize(
        "name,make", CLOCKED, ids=[name for name, _ in CLOCKED]
    )
    def test_term_source_and_corners_key_on_cut_sets(self, name, make):
        tv = TimingAnalyzer(make())
        mcmm = tv.analyze_mcmm(corner_scenarios(tv.netlist.tech))
        calc = tv.calculator
        expected = {
            (index, cut)
            for sweep in _sweeps(tv)
            for index, cut in _cut_sets(calc, *sweep).items()
        }
        # The host is the corners' term source: its one cache holds the
        # term-carrying lists.
        assert set(calc._arc_cache) == expected
        assert all(
            timing.term is not None
            for arcs in calc._arc_cache.values()
            for arc in arcs
            for timing in (arc.rise, arc.fall)
            if timing is not None
        )
        for corner in CORNER_NAMES:
            sibling = mcmm._analyzers[corner].calculator
            assert set(sibling._arc_cache) == expected

    @pytest.mark.parametrize(
        "name,make", CLOCKED, ids=[name for name, _ in CLOCKED]
    )
    def test_later_sweeps_extract_only_new_cut_sets(self, name, make):
        tv = TimingAnalyzer(make())
        calc = tv.calculator
        seen: set[tuple[int, frozenset[str]]] = set()
        for sweep in _sweeps(tv):
            cuts = _cut_sets(calc, *sweep)
            assert calc._uncached(*sweep) == [
                index
                for index in sorted(cuts)
                if (index, cuts[index]) not in seen
            ]
            calc.all_arcs(*sweep)
            seen.update(cuts.items())

    def test_combinational_sweep_works_out_no_cut_map(self):
        tv = TimingAnalyzer(ripple_adder(4))
        tv.analyze()
        calc = tv.calculator
        assert calc._cut_maps == {}
        assert {cut for _index, cut in calc._arc_cache} == {frozenset()}


def _keys(tv) -> set[tuple[int, frozenset[str]]]:
    """Every (stage index, cut set) key the analysis's sweeps give."""
    calc = tv.calculator
    sweeps = _sweeps(tv) if tv.clock is not None else [(None, frozenset())]
    return {
        (index, cut)
        for sweep in sweeps
        for index, cut in _cut_sets(calc, *sweep).items()
    }


class TestOneCache:
    """Concrete callers and corners share the host calculator's one arc
    list per (stage, cut set) key."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_logic(120, seed=3),
            lambda: mips_like_datapath(4, 2, n_shifts=2)[0],
        ],
        ids=["combinational", "two-phase"],
    )
    def test_corner_request_then_delta_matches_fresh(self, make):
        sim_text = sim_dumps(make())
        session = DesignSession("design", sim_text)
        tv = session.analyzer
        session.analyze()
        session.analyze(corner="slow")
        # The corner's terms replaced the concrete lists in place.
        cache = tv.calculator._arc_cache
        assert set(cache) == _keys(tv)
        assert all(
            timing.term is not None
            for arcs in cache.values()
            for arc in arcs
            for timing in (arc.rise, arc.fall)
            if timing is not None
        )
        device = sorted(session.netlist.devices)[0]
        width = session.netlist.device(device).w * 1.2
        payload, cached, _epoch, _dedup = session.delta(
            [{"device": device, "w": width}]
        )
        assert not cached
        net = sim_loads(sim_text, name="design")
        net.device(device).w = width
        assert payload == json.dumps(TimingAnalyzer(net).analyze().to_json())
        assert set(cache) == _keys(tv)

    def test_corners_extract_each_key_once_at_the_host_tech(
        self, monkeypatch
    ):
        extracted = []
        gate_arcs = StageDelayCalculator._gate_arcs

        def recording(calc, ctx):
            extracted.append((calc.tech, ctx.stage.index, ctx.cut))
            return gate_arcs(calc, ctx)

        monkeypatch.setattr(StageDelayCalculator, "_gate_arcs", recording)
        net = mips_like_datapath(4, 2, n_shifts=2)[0]
        tv = TimingAnalyzer(net)
        tv.analyze_mcmm(corner_scenarios(net.tech))
        assert {tech for tech, *_key in extracted} == {net.tech}
        keys = [tuple(key) for _tech, *key in extracted]
        assert len(keys) == len(set(keys))
        assert set(keys) == _keys(tv)


# ----------------------------------------------------------------------
# The reference: every simple path to a target materialised, then each
# path rescanned for its gates.  A discharge may run against the inferred
# flow; a pass transfer may not.
# ----------------------------------------------------------------------


def _reference_enumerate_paths(calc, start, targets, adjacency, flow=False):
    if start not in adjacency:
        return None

    paths = []
    truncated = False
    path = []
    visited = {start}
    groups_used = {}

    def dfs(node, r_sum):
        nonlocal truncated
        if len(paths) >= calc.max_paths:
            truncated = True
            return
        if node in targets:
            paths.append((list(path), r_sum))
            return
        for hop in adjacency.get(node, ()):
            neighbor, r, _name, gate, group, in_ok, _out_ok, boundary, _ = hop
            if neighbor in visited:
                continue
            if boundary and neighbor not in targets:
                continue
            if flow and not in_ok:
                continue
            if group is not None:
                used = groups_used.get(group)
                if used is not None and used != gate:
                    continue
                fresh_group = used is None
                if fresh_group:
                    groups_used[group] = gate
            else:
                fresh_group = False
            visited.add(neighbor)
            path.append((node, neighbor, hop))
            dfs(neighbor, r_sum + r)
            path.pop()
            visited.discard(neighbor)
            if fresh_group:
                del groups_used[group]

    dfs(start, 0.0)
    if not paths:
        return None
    return paths, truncated


def _reference_timing(calc, path_edges, output, adjacency, truncated, terms):
    """Time a reference path: its ``(node, neighbor, hop)`` edges run from
    the output back to the driving point; the spine runs the other way,
    as ``(parent, child, hop)``."""
    spine = [(b, a, hop) for (a, b, hop) in reversed(path_edges)]
    timing = calc._timing_from_spine(spine, output, adjacency, terms=terms)
    if truncated and not timing.truncated:
        timing = _mark_truncated(timing)
    return timing


def _reference_worst_fall_by_gate(calc, ctx, output, adjacency, terms):
    found = _reference_enumerate_paths(
        calc, output, {calc.netlist.gnd}, adjacency
    )
    if found is None:
        return {}
    paths, truncated = found
    gate_of = {dev.name: dev.gate for dev in ctx.devices}
    best = {}
    for path_edges, r_sum in paths:
        gates = {gate_of[hop[2]] for _a, _b, hop in path_edges}
        for gate in gates:
            if gate not in best or r_sum > best[gate][0]:
                best[gate] = (r_sum, path_edges)
    return {
        gate: _reference_timing(
            calc, path_edges, output, adjacency, truncated, terms
        )
        for gate, (_r, path_edges) in best.items()
    }


def _select_triggers(calc, ctx):
    """Each select trigger with the pass devices it gates, and the
    driving points a select path may end at."""
    net = calc.netlist
    stage = ctx.stage
    gated = {}
    for dev in ctx.devices:
        if (
            dev.kind is DeviceKind.ENH
            and not {dev.source, dev.drain} & {net.vdd, net.gnd}
            and not net.is_clock(dev.gate)
            and dev.name not in ctx.cut
            and (dev.gate not in stage.nodes or dev.gate in stage.outputs)
        ):
            gated.setdefault(dev.gate, set()).add(dev.name)
    targets = set(ctx.pulled_up) | {
        node for node in stage.boundary if not net.is_rail(node)
    }
    return gated, targets


def _reference_select_arcs(calc, ctx):
    """Select arcs from every flow-consistent path of each output and
    transition: per trigger, the first maximum path through a device it
    gates."""
    stage = ctx.stage
    gated, targets = _select_triggers(calc, ctx)
    if not gated or not targets:
        return []
    timings = {}
    for output in stage.outputs:
        for transition in (RISE, FALL):
            adjacency = ctx.pass_adjacency(transition)
            found = _reference_enumerate_paths(
                calc, output, targets, adjacency, flow=True
            )
            paths, truncated = found or ([], False)
            for trigger, names in gated.items():
                through = [
                    (r_sum, edges)
                    for edges, r_sum in paths
                    if any(hop[2] in names for _a, _b, hop in edges)
                ]
                if not through:
                    continue
                r_max = max(r_sum for r_sum, _edges in through)
                edges = next(e for r_sum, e in through if r_sum == r_max)
                timings[trigger, output, transition] = _reference_timing(
                    calc, edges, output, adjacency, truncated, ctx.terms
                )
    arcs = []
    for trigger in gated:
        for output in stage.outputs:
            rise = timings.get((trigger, output, RISE))
            fall = timings.get((trigger, output, FALL))
            if output == trigger or (rise is None and fall is None):
                continue
            arcs.append(
                StageArc(
                    stage.index, trigger, "gate", output, False, rise, fall
                )
            )
    return arcs


def _mesh() -> Netlist:
    """The dense parallel mesh of ``tests/test_edge_cases.py``."""
    net = Netlist("mesh")
    net.set_input("g")
    cols = 4
    for layer in range(3):
        for i in range(cols):
            for j in range(cols):
                net.add_enh("g", f"l{layer}_{i}", f"l{layer+1}_{j}")
    net.add_enh("g", "l0_0", "gnd")
    for i in range(cols):
        net.add_pullup(f"l3_{i}")
        net.set_output(f"l3_{i}")
    return net


def _dead_end() -> Netlist:
    """One discharge path, then a dead-end branch the walk tries after it.

    With a cap of one path the walk stops at that branch, so the arc is
    marked ``truncated`` although no path was missed: the stop point, not
    the path count, decides the flag.
    """
    net = Netlist("dead_end")
    net.set_input("a", "b")
    net.add_enh("a", "out", "gnd", name="pd")
    net.add_enh("b", "out", "x", name="px")
    net.add_pullup("out")
    net.set_output("out")
    return net


#: (name, factory, hits the path cap).  The standalone shifter's matrix
#: reaches gnd only through its output buffers, so no cap truncates it.
FUSED_CIRCUITS = [
    ("barrel_shifter", barrel_shifter, False),
    ("mips_like_datapath", lambda: mips_like_datapath(4, 2)[0], True),
    ("mesh", _mesh, True),
    ("dead_end", _dead_end, True),
]


def _select_ties() -> Netlist:
    """Two equal select paths from ``a`` to ``out``, and a long switch
    into a pulled-up node that flow forbids walking backward.

    ``s`` and ``t`` each gate a device on both equal paths, so the path
    found first must win the tie.  The long ``trap`` switch, also gated
    by ``s``, is pinned to carry signal out of ``out``; a search that
    walked it backward would give ``s`` a worse path than either.
    """
    net = Netlist("select_ties")
    net.set_input("a", "s", "t")
    net.add_enh("s", "a", "x", name="p1")
    net.add_enh("t", "x", "out", name="p2")
    net.add_enh("s", "a", "y", name="p3")
    net.add_enh("t", "y", "out", name="p4")
    net.add_enh("s", "out", "z", l=8.0, name="trap", flow=FlowDirection.S_TO_D)
    net.add_pullup("z")
    net.set_output("out")
    return net


#: (name, factory, has select arcs): the discharge-walk circuits plus one
#: with tied and flow-forbidden select paths.
SELECT_CIRCUITS = [
    ("barrel_shifter", barrel_shifter, True),
    ("mips_like_datapath", lambda: mips_like_datapath(4, 2)[0], True),
    ("mesh", _mesh, False),
    ("dead_end", _dead_end, False),
    ("select_ties", _select_ties, True),
]


def _contexts(tv, terms=False) -> list[StageContext]:
    """A context for every (stage, cut set) the analysis's sweeps give."""
    calc = tv.calculator
    sweeps = _sweeps(tv) if tv.clock is not None else [(None, frozenset())]
    contexts = {
        (stage.index, cut)
        for sweep in sweeps
        for stage in calc.graph
        for cut in [_cut_sets(calc, *sweep)[stage.index]]
    }
    return [
        StageContext(calc, calc.graph[index], cut, terms)
        for index, cut in sorted(contexts, key=lambda c: (c[0], sorted(c[1])))
    ]


class TestFusedDischargeWalk:
    @pytest.mark.parametrize(
        "parametric", [False, True], ids=["concrete", "terms"]
    )
    @pytest.mark.parametrize(
        "name,make,caps",
        FUSED_CIRCUITS,
        ids=[name for name, _, _ in FUSED_CIRCUITS],
    )
    def test_matches_list_then_scan_reference(
        self, name, make, caps, parametric
    ):
        tv = TimingAnalyzer(make(), run_erc=False)
        calc = tv.calculator
        compared = truncated = 0
        for ctx in _contexts(tv):
            index = ctx.stage.index
            adjacency = ctx.conduction_adjacency(FALL)
            gnd = {calc.netlist.gnd}
            gates = {dev.gate: None for dev in ctx.devices}
            for output in sorted(ctx.stage.outputs):
                # Also a cap of exactly the path count and one below it,
                # where the stop point alone decides ``truncated``.
                calc.max_paths = 4096
                found = _reference_enumerate_paths(
                    calc, output, {calc.netlist.gnd}, adjacency
                )
                exact = () if found is None or found[1] else (
                    len(found[0]), len(found[0]) - 1
                )
                for max_paths in {1, 3, 64, 4096, *exact} - {0}:
                    calc.max_paths = max_paths
                    ours = calc._worst_timings(
                        output, gnd, adjacency, _BY_GATE, gates,
                        terms=parametric,
                    )
                    reference = _reference_worst_fall_by_gate(
                        calc, ctx, output, adjacency, parametric
                    )
                    assert ours == reference, (
                        f"{name}: stage {index} output {output!r} "
                        f"max_paths={max_paths}"
                    )
                    assert all(
                        (timing.term is not None) == parametric
                        for timing in ours.values()
                    )
                    compared += len(ours)
                    truncated += sum(t.truncated for t in ours.values())
        assert compared
        assert bool(truncated) == caps


class TestSelectArcSearch:
    @pytest.mark.parametrize(
        "parametric", [False, True], ids=["concrete", "terms"]
    )
    @pytest.mark.parametrize(
        "name,make,has_selects",
        SELECT_CIRCUITS,
        ids=[name for name, _, _ in SELECT_CIRCUITS],
    )
    def test_matches_list_then_scan_reference(
        self, name, make, has_selects, parametric
    ):
        tv = TimingAnalyzer(make(), run_erc=False)
        calc = tv.calculator
        searched = []
        search = calc._worst_paths

        def counting(start, *args):
            searched.append(start)
            return search(start, *args)

        calc._worst_paths = counting
        compared = truncated = 0
        for ctx in _contexts(tv, parametric):
            outputs = ctx.stage.outputs
            gated, targets = _select_triggers(calc, ctx)
            # One search per output and transition serves every trigger.
            searches = sorted([*outputs] * 2) if gated and targets else []
            # Also a cap of exactly each search's path count and one
            # below it, where the stop point alone decides ``truncated``.
            calc.max_paths = 4096
            exact = set()
            for output in outputs:
                for transition in (RISE, FALL):
                    found = _reference_enumerate_paths(
                        calc, output, targets, ctx.pass_adjacency(transition),
                        flow=True,
                    )
                    if found is not None and not found[1]:
                        exact |= {len(found[0]), len(found[0]) - 1}
            for max_paths in sorted({1, 3, 64, 4096, *exact} - {0}):
                calc.max_paths = max_paths
                searched.clear()
                ours = calc._select_arcs(ctx)
                assert ours == _reference_select_arcs(calc, ctx), (
                    f"{name}: stage {ctx.stage.index} max_paths={max_paths}"
                )
                assert sorted(searched) == searches
                assert all(
                    (timing.term is not None) == parametric
                    for arc in ours
                    for timing in (arc.rise, arc.fall)
                    if timing is not None
                )
                compared += len(ours)
                truncated += sum(
                    timing.truncated
                    for arc in ours
                    for timing in (arc.rise, arc.fall)
                    if timing is not None
                )
        assert bool(compared) == bool(truncated) == has_selects
