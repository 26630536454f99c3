"""A re-timed report rebuilds and re-encodes only what the edit re-timed.

* Within one ``critical_paths`` call the paths share one step object per
  (node, transition), and each equals the path :func:`trace_path` walks
  on its own.
* Across an incremental re-analysis a step is the old object exactly
  when its arrival is the very object the incremental sweep kept.
* ``result_to_text`` is ``json.dumps(result_to_json(...))`` byte for
  byte, with or without a memo of earlier step texts.
* ``max_delay`` and the phase widths come from the path ranking and
  equal the map's ``max_arrival``.
* An MCMM sweep settles the switch-level simulator once per phase, and
  an edit drops exactly the edited stages' arc-cache entries.
* A session explains a memo hit under the read lock.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import TimingAnalyzer, robust
from repro.bench.perf import parity_circuits
from repro.circuits import inverter_chain, mips_like_datapath, random_logic
from repro.core import critical_paths, trace_path
from repro.core.constraints import qualified_low_nodes
from repro.core.mcmm import corner_scenarios
from repro.core.report import result_to_json, result_to_text
from repro.netlist import Netlist, sim_dumps, sim_loads
from repro.serve import DesignSession
from repro.sim.switchsim import SwitchSim
from repro.tech import NMOS4

UM = 1e-6

CIRCUITS = parity_circuits()
IDS = [name for name, _make in CIRCUITS]


def all_paths(result):
    """The report's paths: the top-k list plus each phase's critical."""
    paths = list(result.paths)
    if result.clock_verification is not None:
        for phase in result.clock_verification.phases.values():
            if phase.critical is not None:
                paths.append(phase.critical)
    return paths


def step_keys(result) -> set:
    return {
        (step.node, step.transition)
        for path in all_paths(result)
        for step in path.steps
    }


def steps_by_key(result) -> dict:
    return {
        (step.node, step.transition): step
        for path in result.paths
        for step in path.steps
    }


def reuse_counts(old, new) -> tuple[int, int]:
    """Check every step of ``new`` against ``old``: it is the old object
    iff its arrival is the very object the incremental sweep kept.
    Returns ``(reused, rebuilt)``."""
    assert new.arrivals.recomputed is not None  # the sweep was incremental
    before = steps_by_key(old)
    reused = rebuilt = 0
    for path in new.paths:
        for step in path.steps:
            key = (step.node, step.transition)
            kept = new.arrivals.get(*key) is old.arrivals.get(*key)
            if kept and key in before:
                assert step is before[key], key
                reused += 1
            else:
                assert step is not before.get(key), key
                rebuilt += 1
    return reused, rebuilt


def edit(tv: TimingAnalyzer, device: str, factor: float):
    tv.netlist.device(device).w *= factor
    tv.notify_changed([device])
    return tv.analyze()


def loaded(net: Netlist) -> Netlist:
    """``net`` through ``.sim``, as the daemon and perfbench see designs."""
    return sim_loads(sim_dumps(net), name="design")


# ----------------------------------------------------------------------
# One call: shared steps, spliced tails.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,make", CIRCUITS, ids=IDS)
def test_paths_share_one_step_per_arrival(name, make):
    result = TimingAnalyzer(make()).analyze(top_k=8)
    if result.arrivals is not None:
        arrivals, paths = result.arrivals, result.paths
    else:
        phase = next(iter(result.clock_verification.phases.values()))
        arrivals = phase.arrivals
        paths = critical_paths(arrivals, None, k=8)
    # Each path is the one a lone walk gives ...
    assert paths == [
        trace_path(arrivals, path.endpoint, path.transition) for path in paths
    ]
    # ... and every (node, transition) is one step object across paths.
    objects: dict[tuple[str, str], set[int]] = {}
    for path in paths:
        for step in path.steps:
            objects.setdefault((step.node, step.transition), set()).add(
                id(step)
            )
    assert all(len(ids) == 1 for ids in objects.values())


def test_later_paths_splice_the_earlier_paths_source_side():
    result = TimingAnalyzer(loaded(random_logic(1500, seed=1))).analyze()
    first = result.paths[0]
    position = {(s.node, s.transition): i for i, s in enumerate(first.steps)}
    spliced = 0
    for path in result.paths[1:]:
        joined = [
            index
            for index, step in enumerate(path.steps)
            if (step.node, step.transition) in position
        ]
        if not joined:
            continue
        # From the first common arrival back to the source, the later
        # path *is* the first path's steps.
        last = joined[-1]
        start = position[(path.steps[last].node, path.steps[last].transition)]
        assert start == last
        assert all(
            a is b for a, b in zip(path.steps[: last + 1], first.steps)
        )
        spliced += 1
    assert spliced  # the paths of this design do share a source side


# ----------------------------------------------------------------------
# Across calls: only re-timed arrivals get new steps.
# ----------------------------------------------------------------------
def test_edit_on_a_path_rebuilds_exactly_the_retimed_steps():
    tv = TimingAnalyzer(loaded(random_logic(1500, seed=1)))
    old = tv.analyze()
    critical = old.paths[0]
    step = critical.steps[len(critical.steps) // 2]
    device = sorted(tv.stage_graph[step.stage_index].device_names)[0]
    new = edit(tv, device, 1.3)
    reused, rebuilt = reuse_counts(old, new)
    # The edited stage's outputs were re-timed, the source side was not.
    assert reused and rebuilt


def test_edit_off_the_paths_keeps_every_step():
    tv = TimingAnalyzer(loaded(random_logic(1500, seed=1)))
    result = tv.analyze()
    on_paths = {step.stage_index for path in result.paths for step in path.steps}
    candidates = sorted(
        index
        for index in range(len(tv.stage_graph))
        if index not in on_paths
    )
    found = 0
    for index in candidates[:40]:
        device = sorted(tv.stage_graph[index].device_names)[0]
        old, result = result, edit(tv, device, 1.1)
        kept = all(
            result.arrivals.get(*key) is old.arrivals.get(*key)
            for key in step_keys(old)
        )
        ends = [(path.endpoint, path.transition) for path in result.paths]
        if (
            not kept
            or not result.arrivals.recomputed
            or ends != [(path.endpoint, path.transition) for path in old.paths]
        ):
            continue
        assert result.paths == old.paths
        assert reuse_counts(old, result) == (
            sum(len(path.steps) for path in old.paths),
            0,
        )
        assert all(
            a is b for p, q in zip(old.paths, result.paths)
            for a, b in zip(p.steps, q.steps)
        )
        found += 1
    assert found  # some edit re-timed nodes that miss the reported paths


def test_every_reuse_follows_arrival_identity_over_many_edits():
    tv = TimingAnalyzer(loaded(random_logic(1500, seed=2)))
    old = tv.analyze()
    devices = sorted(tv.netlist.devices)
    totals = [0, 0]
    for turn in range(12):
        device = devices[(turn * 97) % len(devices)]
        new = edit(tv, device, 0.8 if turn % 2 else 1.25)
        reused, rebuilt = reuse_counts(old, new)
        totals[0] += reused
        totals[1] += rebuilt
        old = new
    assert all(totals)


def test_full_rebuild_shares_no_steps():
    tv = TimingAnalyzer(loaded(random_logic(300, seed=7)))
    old = tv.analyze()
    new = tv.analyze(input_slew=3e-9)  # new inputs: the full sweep runs
    assert new.arrivals.recomputed is None
    before = {id(step) for path in old.paths for step in path.steps}
    assert not any(
        id(step) in before for path in new.paths for step in path.steps
    )


# ----------------------------------------------------------------------
# One ranking scan for paths, max_delay and phase widths.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,make", CIRCUITS, ids=IDS)
def test_max_delay_and_widths_come_from_the_ranking(name, make):
    tv = TimingAnalyzer(make())
    result = tv.analyze()
    if result.clock_verification is None:
        worst = result.arrivals.max_arrival(set(tv.netlist.outputs) or None)
        assert result.max_delay == worst.time
        return
    for phase in result.clock_verification.phases.values():
        worst = phase.arrivals.max_arrival(None)
        assert phase.width == (worst.time if worst is not None else 0.0)
        if phase.critical is not None:
            top = critical_paths(phase.arrivals, None, k=1)[0]
            assert phase.critical == top


# ----------------------------------------------------------------------
# result_to_text == json.dumps(result_to_json(...)).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,make", CIRCUITS, ids=IDS)
def test_text_equals_dumped_json(name, make):
    result = TimingAnalyzer(make()).analyze()
    expected = json.dumps(result_to_json(result))
    memo: dict = {}
    assert result_to_text(result, memo=memo) == expected
    # Every path of the report -- per-phase criticals included -- went
    # through the step encoder, and the memo holds exactly those steps.
    assert set(memo) == {
        id(step) for path in all_paths(result) for step in path.steps
    }
    assert result_to_text(result, memo=memo) == expected
    assert result_to_text(result) == expected


def test_text_of_a_quarantined_result():
    net = Netlist("degraded-chain")
    net.set_input("n0")
    for i in range(4):
        src, out = f"n{i}", f"n{i + 1}"
        if i == 1:  # pull-up as strong as the pull-down: ratio 1 < 3
            net.add_pullup(out, w=8 * UM, l=4 * UM)
            net.add_enh(src, out, "gnd", w=8 * UM, l=4 * UM)
        else:
            net.add_pullup(out)
            net.add_enh(src, out, "gnd")
    net.set_output("n4")
    result = TimingAnalyzer(net, on_error=robust.QUARANTINE).analyze()
    assert result.diagnostics and not result.coverage.complete
    assert result_to_text(result) == json.dumps(result_to_json(result))


def test_memo_from_another_report_is_never_misread():
    first = TimingAnalyzer(random_logic(300, seed=7)).analyze()
    second = TimingAnalyzer(random_logic(300, seed=8)).analyze()
    memo: dict = {}
    result_to_text(first, memo=memo)
    assert result_to_text(second, memo=memo) == json.dumps(
        result_to_json(second)
    )


def test_session_reuses_the_text_of_every_kept_step():
    text = sim_dumps(random_logic(1500, seed=1))
    session = DesignSession("design", text)
    session.analyze()
    before = dict(session._step_texts)
    for turn, device in enumerate(sorted(session.netlist.devices)[:6]):
        width = session.netlist.device(device).w * (1.2 if turn % 2 else 0.9)
        payload, cached, _epoch, _dedup = session.delta(
            [{"device": device, "w": width}]
        )
        assert not cached
        (_engine, result), = session._results.values()
        assert payload == json.dumps(result.to_json())
        # The memo holds exactly this report's steps ...
        assert set(session._step_texts) == {
            id(step) for path in result.paths for step in path.steps
        }
        # ... and a step that is still the same object kept its text.
        for key, (step, encoded) in session._step_texts.items():
            held = before.get(key)
            if held is not None and held[0] is step:
                assert encoded is held[1]
        before = dict(session._step_texts)


def test_session_corner_report_text():
    text = sim_dumps(random_logic(300, seed=7))
    session = DesignSession("design", text)
    base, _cached, _epoch = session.analyze()
    slow, cached, _epoch = session.analyze(corner="slow")
    assert not cached
    net = sim_loads(text, name="design", tech=NMOS4)
    standalone = TimingAnalyzer(net, tech=net.tech.corner("slow")).analyze()
    assert slow == json.dumps(standalone.to_json())
    # The base report after a corner report (a memo of other steps).
    again, cached, _epoch = session.analyze(use_cache=False)
    assert again == base


# ----------------------------------------------------------------------
# Satellites: qualified-low memo, targeted invalidation, read-locked
# explain.
# ----------------------------------------------------------------------
def test_three_corner_sweep_settles_once_per_phase(monkeypatch):
    settles = []
    original = SwitchSim.settle

    def counted(self, *args, **kwargs):
        settles.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SwitchSim, "settle", counted)
    net, _ports = mips_like_datapath(4, 2, n_shifts=2)
    tv = TimingAnalyzer(net)
    tv.analyze_mcmm(corner_scenarios(net.tech))
    assert len(settles) == 2
    # Both settled on the analyzer's own stage decomposition.
    assert all(sim.graph is tv.stage_graph for sim in settles)


@pytest.mark.parametrize(
    "name,make",
    [(n, m) for n, m in CIRCUITS if m().clocks],
    ids=[n for n, m in CIRCUITS if m().clocks],
)
def test_qualified_low_on_the_analyzers_stage_graph(name, make):
    tv = TimingAnalyzer(make())
    tv.analyze()
    for phase, low in tv.calculator._qualified_low.items():
        assert low == qualified_low_nodes(tv.netlist, tv.clock, phase)


def test_invalidation_drops_exactly_the_edited_stages_entries():
    net, _ports = mips_like_datapath(4, 2, n_shifts=2)
    tv = TimingAnalyzer(net)
    tv.analyze()
    calc = tv.calculator
    populated = dict(calc._arc_cache)
    # The clocked sweeps gave some stage several cut sets.
    per_stage: dict[int, int] = {}
    for index, _cut in populated:
        per_stage[index] = per_stage.get(index, 0) + 1
    widest = max(sorted(per_stage), key=per_stage.__getitem__)
    assert per_stage[widest] > 1
    device = sorted(tv.stage_graph[widest].device_names)[0]
    dev = net.device(device)
    stale = {
        tv.stage_graph.stage_of(node).index
        for node in (dev.gate, dev.source, dev.drain)
        if tv.stage_graph.stage_of(node) is not None
    }
    assert widest in stale
    tv.notify_changed([device])
    assert set(calc._arc_cache) == {
        key for key in populated if key[0] not in stale
    }
    assert all(arcs is populated[key] for key, arcs in calc._arc_cache.items())


def test_memo_hit_explains_under_the_read_lock(monkeypatch):
    session = DesignSession("chain", sim_dumps(inverter_chain(8)))
    session.analyze()
    # The write-locked reference: a memo miss runs the engine first.
    session._results.clear()
    reference, _epoch = session.explain()
    assert session.analyses == 2

    entered, release = threading.Event(), threading.Event()
    original = session.analyzer.explain

    def held(*args, **kwargs):
        entered.set()
        assert release.wait(30)
        return original(*args, **kwargs)

    monkeypatch.setattr(session.analyzer, "explain", held)
    explained: list = []
    read: list = []
    explainer = threading.Thread(
        target=lambda: explained.append(session.explain())
    )
    reader = threading.Thread(target=lambda: read.append(session.analyze()))
    try:
        explainer.start()
        assert entered.wait(30)
        reader.start()
        reader.join(30)
        # The cached analyze returned while the explain was held.
        assert read and read[0][1] is True
        assert not explained
    finally:
        release.set()
        explainer.join(30)
        reader.join(30)
    assert explained[0][0] == reference
    assert session.analyses == 2  # the memo hit ran no analysis
