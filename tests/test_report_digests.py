"""Pinned report digests: byte parity of every report, checked on every run.

Each :func:`repro.bench.perf.parity_circuits` entry is analyzed under
every delay model and the strict and quarantine policies, once at a
single corner and once as a three-corner MCMM sweep
(:func:`repro.core.mcmm.corner_scenarios`).  The SHA-256 of
``json.dumps(result.to_json())`` for each of those reports must equal
the one committed in ``tests/report_digests.json``.  The reports are
built in a subprocess under ``PYTHONHASHSEED=0``, because equal-delay
paths tie-break on set order.

A change meant to alter reports regenerates the file, and says why in
CHANGES.md::

    python tests/test_report_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("report_digests.json")
POLICIES = ("strict", "quarantine")


def _digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result.to_json()).encode()
    ).hexdigest()


def report_digests() -> dict[str, str]:
    """``circuit/model/policy/single|mcmm`` -> report digest."""
    from repro import TimingAnalyzer
    from repro.bench.perf import parity_circuits
    from repro.core.mcmm import corner_scenarios
    from repro.delay import DELAY_MODELS

    digests = {}
    for name, make in parity_circuits():
        for model in DELAY_MODELS:
            for policy in POLICIES:
                tv = TimingAnalyzer(make(), model=model, on_error=policy)
                key = f"{name}/{model}/{policy}"
                digests[f"{key}/single"] = _digest(tv.analyze())
                digests[f"{key}/mcmm"] = _digest(
                    tv.analyze_mcmm(corner_scenarios(tv.netlist.tech))
                )
    return digests


def _digests_in_subprocess() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    ).stdout
    return json.loads(out)


def test_reports_match_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    digests = _digests_in_subprocess()
    assert len(digests) == 384
    assert digests.keys() == pinned.keys()
    changed = sorted(key for key in pinned if digests[key] != pinned[key])
    assert not changed, (
        f"{len(changed)} of {len(pinned)} reports changed, first "
        f"{changed[:5]}; if intended, regenerate with "
        "`python tests/test_report_digests.py --write`"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        DIGESTS.write_text(
            json.dumps(_digests_in_subprocess(), indent=1, sort_keys=True)
            + "\n"
        )
    else:
        json.dump(report_digests(), sys.stdout)
