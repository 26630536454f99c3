"""Reference simulators.

Public surface:

* :class:`SpiceLite`, :class:`TransientOptions` -- the numerical transient
  simulator (the package's SPICE2 stand-in)
* :func:`measure_step_delay`, :class:`DelayMeasurement` -- one-shot delay
  measurements
* :class:`Waveform` -- sampled traces with crossing/slew measurements
* stimulus builders: :func:`constant`, :func:`step`, :func:`pulse`,
  :func:`piecewise`, :func:`two_phase_waveforms`
* :class:`SwitchSim`, :data:`X` -- the three-valued switch-level functional
  simulator
* :class:`RSim` -- event-driven switch-level simulator with RC-derived
  event delays (the RSIM-class middle ground)
* :func:`mos_current`, :func:`threshold` -- level-1 device equations

The numpy-backed names (the transient simulator, its measurements and
waveforms) load on first use, so the static analyzer, which reaches
this package through the switch-level simulator, never imports numpy.
"""

import importlib

from .devices import mos_current, threshold
from .rsim import Event, RSim
from .stimuli import (
    Stimulus,
    constant,
    piecewise,
    pulse,
    step,
    two_phase_waveforms,
)
from .switchsim import SwitchSim, X
from .vectors import DeckResult, Failure, VectorCommand, parse_deck, run_deck

#: Public name -> the submodule defining it, imported on first access.
_NUMPY_BACKED = {
    "SpiceLite": "spicelite",
    "TransientOptions": "spicelite",
    "DelayMeasurement": "measure",
    "measure_step_delay": "measure",
    "Waveform": "waveforms",
}


def __getattr__(name: str):
    """Import a numpy-backed public name on first access."""
    module = _NUMPY_BACKED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "SpiceLite",
    "TransientOptions",
    "DelayMeasurement",
    "measure_step_delay",
    "Waveform",
    "Stimulus",
    "constant",
    "step",
    "pulse",
    "piecewise",
    "two_phase_waveforms",
    "SwitchSim",
    "X",
    "RSim",
    "Event",
    "VectorCommand",
    "Failure",
    "DeckResult",
    "parse_deck",
    "run_deck",
    "mos_current",
    "threshold",
]
