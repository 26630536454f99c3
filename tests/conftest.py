"""Shared fixtures: small hand-built circuits used across the test suite."""

from __future__ import annotations

import pytest

from repro import Netlist
from repro.circuits import add_inverter, add_pass
from repro.delay import pool, shutdown_pool
from repro.trace import Trace


@pytest.fixture
def inverter_net() -> Netlist:
    """A single depletion-load inverter: input ``a``, output ``out``."""
    net = Netlist("inv")
    net.set_input("a")
    add_inverter(net, "a", "out", tag="inv")
    net.set_output("out")
    return net


@pytest.fixture
def nand2_net() -> Netlist:
    """Hand-built 2-input NAND (series pull-down): inputs a, b; output out."""
    net = Netlist("nand2")
    net.set_input("a", "b")
    net.add_pullup("out", name="pu")
    net.add_enh("a", "out", "mid", name="pda")
    net.add_enh("b", "mid", "gnd", name="pdb")
    net.set_output("out")
    return net


@pytest.fixture
def latch_net() -> Netlist:
    """Dynamic half latch: d -> (phi1 switch) -> store -> inverter -> q."""
    net = Netlist("latch")
    net.set_input("d")
    net.set_clock("phi1", "phi1")
    net.set_clock("phi2", "phi2")
    add_pass(net, "phi1", "d", "store", name="sw")
    add_inverter(net, "store", "q", tag="inv")
    add_pass(net, "phi2", "q", "store2", name="sw2")
    add_inverter(net, "store2", "q2", tag="inv2")
    net.set_output("q2")
    return net


@pytest.fixture
def pass_mux_net() -> Netlist:
    """Inverter driving a pass switch into a gate load -- one mixed stage."""
    net = Netlist("passmux")
    net.set_input("a", "en")
    add_inverter(net, "a", "x", tag="i1")
    add_pass(net, "en", "x", "y", name="sw")
    add_inverter(net, "y", "out", tag="i2")
    net.set_output("out")
    return net


@pytest.fixture
def forced_pool(monkeypatch):
    """Make even a 6-device inverter take the pooled extraction path.

    Patches the crossover where :mod:`repro.delay.pool` reads it and
    yields the :class:`~repro.trace.Trace` to analyze with.  Afterwards
    the pool is reaped, and some sweep must really have taken it
    (``extract_parallel_sweeps``), so a patch that misses its reader
    cannot pass serially.
    """
    monkeypatch.setattr(pool, "PARALLEL_MIN_DEVICES", 0)
    monkeypatch.setattr(pool, "PARALLEL_COLD_MIN_DEVICES", 0)
    monkeypatch.setattr(pool, "available_cpus", lambda: 2)
    trace = Trace()
    yield trace
    shutdown_pool()
    assert trace.counters.get("extract_parallel_sweeps", 0) > 0, (
        "no sweep took the forced pool"
    )
