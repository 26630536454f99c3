"""Capped path searches are memoized by rooted shape, exactly.

A search that hits ``max_paths`` is kept on its adjacency map under its
key kind, cap and rooted shape, and a later search on the map with an
equal shape is served from the memo.  Every search on a capped map is
checked here against the memo-free walk (``_enumerate_paths``) field by
field, and each part of the memo key is shown to keep a search that
differs in it from a false hit.
"""

import gc
from collections import Counter

import pytest

from repro import TimingAnalyzer
from repro.bench.perf import SEARCH_MEMO, _search_memo, parity_circuits
from repro.circuits import barrel_shifter, mips_like_datapath, random_logic
from repro.delay import StageContext, StageDelayCalculator
from repro.delay import stage_delay
from repro.delay.effective_res import FALL, RISE
from repro.delay.stage_delay import (
    _BY_DEVICE,
    _BY_GATE,
    _enumerate_paths,
    _rooted_shape,
)
from repro.netlist import sim_dumps, sim_loads
from repro.trace import Trace


def _through_sim(net):
    """``net`` as an annotation-free ``.sim`` reads it back: without its
    one-hot groups, so pass networks fan out into many paths."""
    return sim_loads(sim_dumps(net))


def _sharing(best) -> list:
    """Per key, the first key holding the same path object."""
    first = {}
    return [first.setdefault(id(path), k) for k, (_r, path) in best.items()]


def _assert_same(ours, reference, where=""):
    """Same keys in the same order, the same resistances, the same
    ``(node, hop)`` objects, paths shared alike, and the same flag."""
    best, truncated = ours
    ref_best, ref_truncated = reference
    assert truncated == ref_truncated, where
    assert list(best) == list(ref_best), where
    for k, (r_sum, path) in best.items():
        ref_r, ref_path = ref_best[k]
        assert r_sum == ref_r, where
        assert len(path) == len(ref_path), where
        for (node, hop), (ref_node, ref_hop) in zip(path, ref_path):
            assert node == ref_node and hop is ref_hop, where
    assert _sharing(best) == _sharing(ref_best), where


@pytest.fixture
def recorded(monkeypatch):
    """Every ``_worst_paths`` call of the test: its arguments, the cap,
    and what it returned."""
    calls = []
    search = StageDelayCalculator._worst_paths

    def recording(calc, start, targets, adjacency, key=None, wanted=(None,)):
        result = search(calc, start, targets, adjacency, key, wanted)
        calls.append(
            (start, targets, adjacency, key, wanted, calc.max_paths, result)
        )
        return result

    monkeypatch.setattr(StageDelayCalculator, "_worst_paths", recording)
    return calls


def _check_capped_maps(calls) -> int:
    """Compare every recorded search on a map some search capped with
    the memo-free walk; returns how many were compared."""
    compared = 0
    for start, targets, adjacency, key, wanted, max_paths, result in calls:
        if adjacency.memo is None:
            continue
        reference = _enumerate_paths(
            start, targets, adjacency, key, wanted, max_paths
        )
        _assert_same(result, reference, f"{start} key={key} cap={max_paths}")
        compared += 1
    return compared


def _analyze(net, **options) -> dict:
    trace = Trace(logger=None)
    TimingAnalyzer(net, trace=trace, **options).analyze()
    return trace.counters


class TestMemoIsExact:
    @pytest.mark.parametrize("max_paths", [8, 64, 4096])
    @pytest.mark.parametrize(
        "name,make",
        parity_circuits(),
        ids=[name for name, _ in parity_circuits()],
    )
    def test_parity_circuits_through_sim(
        self, name, make, max_paths, recorded
    ):
        counters = _analyze(_through_sim(make()), max_paths=max_paths)
        compared = _check_capped_maps(recorded)
        capped = counters.get("capped_searches", 0)
        assert capped <= compared
        assert counters.get("search_memo_hits", 0) < max(capped, 1)

    @pytest.mark.parametrize("width", [6, 8])
    def test_unbuffered_shifter_at_a_low_cap(self, width, recorded):
        net = _through_sim(barrel_shifter(width, buffered=False))
        counters = _analyze(net, max_paths=4)
        assert counters["capped_searches"] > 0
        assert _check_capped_maps(recorded) >= counters["capped_searches"]

    def test_renamed_outputs_are_served_from_the_memo(self, recorded):
        # The datapath's shifter lost its one-hot group: each output's
        # discharge search caps, and its eight outputs are renamings of
        # one another.
        net = _through_sim(mips_like_datapath(8, 2, n_shifts=4)[0])
        counters = _analyze(net)
        assert counters["capped_searches"] == 8
        assert counters["search_memo_hits"] == 7
        assert _check_capped_maps(recorded) >= 8

    def test_benchmark_datapath_counters(self):
        # The exact counts the perf smoke gate holds the benchmark
        # datapath to: 16 capped discharge searches, 15 memo hits.
        assert SEARCH_MEMO == {"capped_searches": 16, "search_memo_hits": 15}
        assert _search_memo() == SEARCH_MEMO

    def test_uncapped_designs_build_no_shape(self, monkeypatch):
        shapes = []
        rooted_shape = stage_delay._rooted_shape

        def counting(*args):
            shapes.append(args[0])
            return rooted_shape(*args)

        monkeypatch.setattr(stage_delay, "_rooted_shape", counting)
        counters = _analyze(_through_sim(random_logic(300, seed=7)))
        assert "capped_searches" not in counters
        assert shapes == []


def _shifter():
    """The calculator, shifter stage and gates of a datapath read from
    ``.sim``; its discharge searches cap at the default 4,096 paths."""
    net = _through_sim(mips_like_datapath(8, 2, n_shifts=4)[0])
    calc = TimingAnalyzer(net, run_erc=False).calculator
    stage = calc.graph.stage_of("shm0")
    gates = {dev.gate: None for dev in calc.graph.devices_of(stage)}
    return calc, stage, gates


def _discharge(calc, stage):
    return StageContext(calc, stage, frozenset()).conduction_adjacency(FALL)


class TestNoFalseHit:
    """A search equal to a stored one in all but one part of the memo
    key is walked afresh; the same search with nothing changed is a
    hit."""

    def _search(self, calc, adjacency, start, key, wanted):
        trace = calc.trace = Trace(logger=None)
        result = calc._worst_paths(
            start, {calc.netlist.gnd}, adjacency, key, wanted
        )
        reference = _enumerate_paths(
            start, {calc.netlist.gnd}, adjacency, key, wanted, calc.max_paths
        )
        _assert_same(result, reference, start)
        return result, trace.counters.get("search_memo_hits", 0)

    def test_a_renamed_search_hits(self):
        calc, stage, gates = _shifter()
        adjacency = _discharge(calc, stage)
        first, hits = self._search(calc, adjacency, "shm0", _BY_GATE, gates)
        assert first[1] and hits == 0 and adjacency.memo
        for output in sorted(stage.outputs - {"shm0"}):
            _result, hits = self._search(
                calc, adjacency, output, _BY_GATE, gates
            )
            assert hits == 1, output

    def test_another_max_paths(self):
        calc, stage, gates = _shifter()
        adjacency = _discharge(calc, stage)
        calc.max_paths = 64
        low, _hits = self._search(calc, adjacency, "shm0", _BY_GATE, gates)
        calc.max_paths = 4096
        high, hits = self._search(calc, adjacency, "shm0", _BY_GATE, gates)
        assert hits == 0
        assert [r for r, _ in low[0].values()] != [
            r for r, _ in high[0].values()
        ]

    def test_another_max_paths_keeps_an_uncapped_search_uncapped(self):
        # Each matrix output of the unbuffered shifter is its own stage
        # with eight select paths: capped at four, complete at 64.
        net = _through_sim(barrel_shifter(8, buffered=False))
        calc = TimingAnalyzer(net, run_erc=False).calculator
        stage = calc.graph.stage_of("m0")
        adjacency = StageContext(calc, stage, frozenset()).pass_adjacency(RISE)
        targets = {node for node in stage.boundary if not net.is_rail(node)}
        selects = {dev.gate: None for dev in calc.graph.devices_of(stage)}
        for max_paths, capped in ((4, True), (64, False)):
            calc.max_paths = max_paths
            result = calc._worst_paths(
                "m0", targets, adjacency, _BY_GATE, selects
            )
            reference = _enumerate_paths(
                "m0", targets, adjacency, _BY_GATE, selects, max_paths
            )
            _assert_same(result, reference)
            assert result[1] is capped

    def test_a_width_edit_on_the_stored_path(self):
        calc, stage, gates = _shifter()
        adjacency = _discharge(calc, stage)
        (stored, _), _hits = self._search(
            calc, adjacency, "shm0", _BY_GATE, gates
        )
        _r, path = max(stored.values(), key=lambda kept: kept[0])
        device = path[len(path) // 2][1][2]
        edited, edited_stage, _gates = _shifter()
        # Narrower: the stored worst path gets worse.
        edited.netlist.device(device).w /= 2.0
        edited_adjacency = _discharge(edited, edited_stage)
        # The edited map is the stored one but for that device's
        # resistance, so it is offered the stored memo.
        edited_adjacency.memo = adjacency.memo
        result, hits = self._search(
            edited, edited_adjacency, "shm0", _BY_GATE, gates
        )
        assert hits == 0
        assert [r for r, _ in result[0].values()] != [
            r for r, _ in stored.values()
        ]

    def test_a_one_hot_group(self):
        calc, stage, gates = _shifter()
        adjacency = _discharge(calc, stage)
        (stored, _), _hits = self._search(
            calc, adjacency, "shm0", _BY_GATE, gates
        )
        # The same design with its shift selects declared one-hot again:
        # the stored walk took paths through two selects at once.
        grouped, grouped_stage, _gates = _shifter()
        selects = sorted(
            {dev.gate for dev in grouped.graph.devices_of(grouped_stage)}
            & {f"sh{k}" for k in range(4)}
        )
        grouped.netlist.add_exclusive_group(*selects)
        grouped_adjacency = _discharge(grouped, grouped_stage)
        grouped_adjacency.memo = adjacency.memo
        result, hits = self._search(
            grouped, grouped_adjacency, "shm0", _BY_GATE, gates
        )
        assert hits == 0
        assert [r for r, _ in result[0].values()] != [
            r for r, _ in stored.values()
        ]

    def test_another_wanted_set(self):
        calc, stage, gates = _shifter()
        adjacency = _discharge(calc, stage)
        (stored, _), _hits = self._search(
            calc, adjacency, "shm0", _BY_GATE, gates
        )
        fewer = {gate: None for gate in gates if gate != next(iter(stored))}
        (best, _), hits = self._search(
            calc, adjacency, "shm0", _BY_GATE, fewer
        )
        assert hits == 0
        assert list(best) != list(stored)

    def test_another_key_kind(self):
        calc, stage, _gates = _shifter()
        adjacency = _discharge(calc, stage)
        devices = calc.graph.devices_of(stage)
        # Gates that each gate one device of the stage: kept per gate or
        # per device, the searches have the same rooted shape.
        alone = {
            gate for gate, n in Counter(d.gate for d in devices).items()
            if n == 1
        }
        by_gate = {gate: None for gate in alone}
        by_device = {d.name: None for d in devices if d.gate in alone}
        gnd = {calc.netlist.gnd}
        assert (
            _rooted_shape("shm0", gnd, adjacency, _BY_GATE, by_gate)[0]
            == _rooted_shape("shm0", gnd, adjacency, _BY_DEVICE, by_device)[0]
        )
        (_kept, capped), _hits = self._search(
            calc, adjacency, "shm0", _BY_GATE, by_gate
        )
        assert capped
        (best, _), hits = self._search(
            calc, adjacency, "shm0", _BY_DEVICE, by_device
        )
        assert hits == 0
        assert set(best) <= set(by_device)


def test_a_capped_search_leaves_no_garbage():
    calc, stage, gates = _shifter()
    adjacency = _discharge(calc, stage)
    gnd = {calc.netlist.gnd}
    gc.collect()
    gc.disable()
    try:
        for output in ("shm0", "shm1"):  # a walk, then a memo hit
            _best, truncated = calc._worst_paths(
                output, gnd, adjacency, _BY_GATE, gates
            )
            assert truncated
        assert gc.collect() == 0
    finally:
        gc.enable()
