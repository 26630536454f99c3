"""Incremental re-timing equals a from-scratch analysis, byte for byte.

Hypothesis draws width-edit sequences -- widths at 0.5-2x their load
values, toggles back to the load value, and edits aimed at the stages
whose arcs the feedback cut removed -- on designs loaded through
``.sim``.  After every edit the incrementally re-timed report must equal
a fresh analyzer's: both the analyzer's own ``to_json()`` and the
:class:`~repro.serve.DesignSession` payload the daemon would send.  A
trace counter proves the incremental sweep really ran, so a build that
always fell back to the full sweep could not pass.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TimingAnalyzer
from repro.circuits import (
    carry_select_adder,
    decoder,
    random_logic,
    ripple_adder,
)
from repro.core import TimingGraph
from repro.netlist import sim_dumps, sim_loads
from repro.serve import DesignSession
from repro.trace import Trace

NAME = "design"

CIRCUITS = {
    "random_logic_s1": lambda: random_logic(1500, seed=1),
    "random_logic_s2": lambda: random_logic(1500, seed=2),
    "ripple_adder": lambda: ripple_adder(4),
    "carry_select_adder": lambda: carry_select_adder(8),
    "decoder": lambda: decoder(3),
}


@dataclass(frozen=True)
class Design:
    text: str
    devices: tuple[str, ...]
    load_w: dict
    #: Devices of the stages that own a cut feedback arc.
    cut_devices: tuple[str, ...]


@functools.lru_cache(maxsize=None)
def design(name: str) -> Design:
    text = sim_dumps(CIRCUITS[name]())
    net = sim_loads(text, name=NAME)
    tv = TimingAnalyzer(net)
    graph = TimingGraph.build(tv.calculator.all_arcs())
    cut_stages = {arc.stage_index for arc in graph.cut_arcs}
    cut_devices = sorted(
        {d for i in cut_stages for d in tv.stage_graph[i].device_names}
    )
    return Design(
        text=text,
        devices=tuple(sorted(net.devices)),
        load_w={name: dev.w for name, dev in net.devices.items()},
        cut_devices=tuple(cut_devices),
    )


def edit_sequences(info: Design):
    device = st.sampled_from(info.devices)
    if info.cut_devices:
        device = st.one_of(device, st.sampled_from(info.cut_devices))
    # None toggles the device back to its load width.
    factor = st.one_of(st.none(), st.floats(0.5, 2.0))
    return st.lists(st.tuples(device, factor), min_size=1, max_size=4)


def fresh_report(text: str, widths: dict) -> str:
    net = sim_loads(text, name=NAME)
    tv = TimingAnalyzer(net)
    for device, width in widths.items():
        net.device(device).w = width
    return json.dumps(tv.analyze().to_json())


def test_random_logic_designs_have_cut_arcs():
    # The cut-arc edits below only mean something if there are cuts.
    assert design("random_logic_s1").cut_devices
    assert design("random_logic_s2").cut_devices


@pytest.mark.parametrize("name", sorted(CIRCUITS))
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_edit_sequences_match_fresh_analysis(name, data):
    info = design(name)
    edits = data.draw(edit_sequences(info))
    trace = Trace(logger=None)
    net = sim_loads(info.text, name=NAME)
    tv = TimingAnalyzer(net, trace=trace)
    tv.analyze()
    session = DesignSession(NAME, info.text)
    session.analyze()
    widths: dict[str, float] = {}
    for device, factor in edits:
        width = info.load_w[device] * (1.0 if factor is None else factor)
        widths[device] = width
        net.device(device).w = width
        tv.notify_changed([device])
        report = json.dumps(tv.analyze().to_json())
        payload, _cached, _epoch, _dedup = session.delta(
            [{"device": device, "w": width}]
        )
        expected = fresh_report(info.text, widths)
        assert report == expected
        assert payload == expected
    assert trace.counters.get("propagate_incremental", 0) == len(edits)
