"""RC delay models for nMOS stage timing.

Public surface:

* :class:`RCTree` -- rooted resistor/capacitor tree
* :func:`elmore_delay`, :func:`lumped_delay` -- first-moment metrics
* :func:`pr_moments`, :func:`pr_bounds`, :class:`PRBounds` --
  Penfield-Rubinstein bounds
* :class:`SlopeModel`, :data:`NO_SLOPE` -- input-ramp correction
* :func:`device_resistance` -- role-aware effective resistance
* :class:`StageDelayCalculator`, :class:`StageArc`, :class:`ArcTiming`,
  :data:`DELAY_MODELS` -- the stage timing-arc extractor
  (:mod:`repro.delay.stage_delay`)
* :func:`auto_workers`, :func:`parallel_crossover`,
  :func:`shutdown_pool`, :func:`pool_diagnostics`,
  :data:`WORKERS_AUTO` -- persistent extraction-pool controls
  (:mod:`repro.delay.pool`)
* :data:`PARAMETERS`, :func:`perturbed`, :func:`evaluate_arcs` -- the
  parametric (symbolic) delay layer
"""

from .effective_res import FALL, RISE, device_resistance
from .parametric import (
    PARAMETERS,
    SENSITIVITY_REL_STEP,
    evaluate_arcs,
    perturbed,
)
from .elmore import elmore_delay, lumped_delay
from .penfield import PRBounds, pr_bounds, pr_moments
from .pool import (
    PARALLEL_COLD_MIN_DEVICES,
    PARALLEL_MIN_DEVICES,
    WORKERS_AUTO,
    auto_workers,
    available_cpus,
    parallel_crossover,
    install_sigterm_cleanup,
    pool_diagnostics,
    shutdown_pool,
)
from .rctree import RCTree
from .slope import NO_SLOPE, SlopeModel
from .stage_delay import (
    DELAY_MODELS,
    ArcTiming,
    StageArc,
    StageContext,
    StageDelayCalculator,
)

__all__ = [
    "RCTree",
    "elmore_delay",
    "lumped_delay",
    "PRBounds",
    "pr_bounds",
    "pr_moments",
    "SlopeModel",
    "NO_SLOPE",
    "device_resistance",
    "RISE",
    "FALL",
    "DELAY_MODELS",
    "PARALLEL_MIN_DEVICES",
    "PARALLEL_COLD_MIN_DEVICES",
    "WORKERS_AUTO",
    "ArcTiming",
    "StageArc",
    "StageContext",
    "StageDelayCalculator",
    "auto_workers",
    "available_cpus",
    "parallel_crossover",
    "install_sigterm_cleanup",
    "pool_diagnostics",
    "shutdown_pool",
    "PARAMETERS",
    "SENSITIVITY_REL_STEP",
    "perturbed",
    "evaluate_arcs",
]
