"""The arc cache is keyed on each stage's cut set, and the discharge walk
is fused.

A sweep (``active_clocks``, ``open_gates``) reaches a stage's arcs only
through the member devices it cuts, so the calculator caches arcs per
``(stage index, cut set)`` and serves a stage once for every sweep that
cuts the same devices.  The oracles elsewhere (MCMM vs standalone, pooled
vs serial) use that key on both sides and cannot see a wrong one; here a
calculator that served every sweep of a two-phase analysis is checked
against fresh calculators that each served one sweep.

``_worst_fall_by_gate`` walks the discharge paths once and keeps the
worst path per gate without materialising every path; it is checked
against the list-then-scan enumeration it replaced, kept below as the
reference.
"""

import multiprocessing

import pytest

from repro import Netlist, TimingAnalyzer
from repro.bench.perf import parity_circuits
from repro.circuits import barrel_shifter, mips_like_datapath, ripple_adder
from repro.core.constraints import qualified_low_nodes
from repro.core.mcmm import CORNER_NAMES, corner_scenarios
from repro.delay import StageContext
from repro.delay.effective_res import FALL
from repro.delay.stage_delay import _mark_truncated
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
        assert set(calc._parametric_source._arc_cache) == expected
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


# ----------------------------------------------------------------------
# The discharge enumeration before it was fused: every simple path to gnd
# materialised, then each path rescanned for its gates.
# ----------------------------------------------------------------------


def _reference_enumerate_paths(calc, start, targets, adjacency):
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
        for (
            neighbor,
            r,
            name,
            gate,
            group,
            _in_ok,
            _out_ok,
            neighbor_boundary,
        ) in adjacency.get(node, ()):
            if neighbor in visited:
                continue
            if neighbor_boundary and neighbor not in targets:
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
            path.append((node, neighbor, r, name))
            dfs(neighbor, r_sum + r)
            path.pop()
            visited.discard(neighbor)
            if fresh_group:
                del groups_used[group]

    dfs(start, 0.0)
    if not paths:
        return None
    return paths, truncated


def _reference_worst_fall_by_gate(calc, ctx, output, adjacency):
    found = _reference_enumerate_paths(
        calc, output, {calc.netlist.gnd}, adjacency
    )
    if found is None:
        return {}
    paths, truncated = found
    gate_of = {dev.name: dev.gate for dev in ctx.devices}
    best = {}
    for path_edges, r_sum in paths:
        gates = {gate_of[name] for _a, _b, _r, name in path_edges}
        for gate in gates:
            if gate not in best or r_sum > best[gate][0]:
                best[gate] = (r_sum, path_edges)
    result = {}
    timing_cache = {}
    for gate, (_r, path_edges) in best.items():
        key = id(path_edges)
        timing = timing_cache.get(key)
        if timing is None:
            spine = [
                (b, a, r, name) for (a, b, r, name) in reversed(path_edges)
            ]
            timing = calc._timing_from_spine(
                spine,
                output,
                adjacency=adjacency,
                transition=FALL,
            )
            if truncated and not timing.truncated:
                timing = _mark_truncated(timing)
            timing_cache[key] = timing
        result[gate] = timing
    return result


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
        calc.parametric = parametric
        sweeps = _sweeps(tv) if tv.clock is not None else [(None, frozenset())]
        contexts = {
            (stage.index, cut)
            for sweep in sweeps
            for stage in calc.graph
            for cut in [_cut_sets(calc, *sweep)[stage.index]]
        }
        compared = truncated = 0
        for index, cut in sorted(contexts, key=lambda c: (c[0], sorted(c[1]))):
            ctx = StageContext(calc, calc.graph[index], cut)
            adjacency = ctx.conduction_adjacency(FALL)
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
                    ours = calc._worst_fall_by_gate(output, adjacency)
                    reference = _reference_worst_fall_by_gate(
                        calc, ctx, output, adjacency
                    )
                    assert ours == reference, (
                        f"{name}: stage {index} output {output!r} "
                        f"max_paths={max_paths}"
                    )
                    compared += len(ours)
                    truncated += sum(t.truncated for t in ours.values())
        assert compared
        assert bool(truncated) == caps
