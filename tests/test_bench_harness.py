"""Tests for the shared benchmark harness (repro.bench)."""

import importlib
import json
import pathlib

import pytest

from repro.bench import (
    AccuracyRow,
    Series,
    compare_delay,
    percent_error,
    timed_analysis,
)
from repro.bench.harness import speed_gate
from repro.circuits import inverter_chain
from repro.sim import TransientOptions

FAST = TransientOptions(dt=0.2e-9, settle=20e-9)


class TestPercentError:
    def test_signed(self):
        assert percent_error(1.1, 1.0) == pytest.approx(10.0)
        assert percent_error(0.9, 1.0) == pytest.approx(-10.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            percent_error(1.0, 0.0)


class TestAccuracyRow:
    def test_cells_format(self):
        row = AccuracyRow("x", "rise", 2e-9, 1e-9)
        cells = row.cells()
        assert cells[0] == "x"
        assert "+100.0%" in cells[-1]

    def test_error_pct(self):
        assert AccuracyRow("x", "fall", 1.5e-9, 1e-9).error_pct == pytest.approx(50.0)


class TestCompareDelay:
    def test_produces_consistent_row(self):
        row = compare_delay(
            inverter_chain(2), "a", "n1", direction="rise", sim_options=FAST
        )
        assert row.transition == "rise"  # two inversions
        assert row.tv_delay > 0 and row.sim_delay > 0

    def test_label_override(self):
        row = compare_delay(
            inverter_chain(1), "a", "n0",
            direction="rise", label="custom", sim_options=FAST,
        )
        assert row.label == "custom"


class TestTimedAnalysis:
    def test_returns_time_and_result(self):
        seconds, result = timed_analysis(inverter_chain(4))
        assert seconds > 0
        assert result.max_delay > 0


class TestSeries:
    def test_format(self):
        series = Series("s", "x", "y")
        series.add(1, 2.0)
        series.add(10, 20.0)
        text = series.format()
        assert "series: s" in text
        assert "10" in text and "20" in text


class TestSpeedGate:
    def test_applies_with_two_cpus(self):
        gate = speed_gate(1.4, 1.0, {"affinity_cpus": 2})
        assert gate == {
            "applied": True,
            "required": 1.0,
            "measured": 1.4,
            "skip_reason": None,
        }

    def test_one_cpu_records_a_skip(self):
        gate = speed_gate(0.9, 1.0, {"affinity_cpus": 1})
        assert gate["applied"] is False and gate["measured"] == 0.9
        assert "1 usable CPU" in gate["skip_reason"]


#: A payload each harness's ``main`` can summarize, per module.
_STUB_PAYLOADS = {
    "perf": {"results": {}},
    "mcmm": {
        "circuit": "stub",
        "mcmm_speedup": 1.0,
        "speedup_gate": {"applied": False},
        "dominant": "slow",
    },
    "serve": {"results": [], "recovery": []},
}


class TestOutputPath:
    """``--json PATH`` sends a harness's ledger to PATH, and nowhere else,
    so a smoke run never overwrites the committed ``BENCH_*.json``."""

    @pytest.mark.parametrize("name", sorted(_STUB_PAYLOADS))
    def test_main_writes_only_the_given_path(
        self, name, tmp_path, monkeypatch
    ):
        module = importlib.import_module(f"repro.bench.{name}")
        payload = dict(_STUB_PAYLOADS[name], stub=True)
        monkeypatch.setattr(module, "run", lambda **_kw: (payload, []))
        written = []
        real_write = module.atomic_write_json

        def recording_write(path, data):
            written.append(pathlib.Path(path))
            real_write(path, data)

        monkeypatch.setattr(module, "atomic_write_json", recording_write)
        ledger = module.OUTPUT_PATH
        before = ledger.stat().st_mtime_ns if ledger.exists() else None
        out = tmp_path / "ledger.json"
        assert module.main(["--smoke", "--json", str(out)]) == 0
        assert written == [out]
        assert json.loads(out.read_text()) == payload
        after = ledger.stat().st_mtime_ns if ledger.exists() else None
        assert after == before
