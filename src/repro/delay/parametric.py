"""Parametric analytic delay terms over the technology parameter vector.

The concrete extractors in :mod:`repro.delay.stage_delay` produce plain
floats: every resistance, capacitance, and calibration factor is read
from one fixed :class:`~repro.tech.Technology` at extraction time.  That
would make a multi-corner sweep or a "what moves this path?" query pay
the full structural extraction again for every parameter point.

This module is the symbolic layer on top (after arXiv:2510.15907).  When
a :class:`~repro.delay.stage_delay.StageDelayCalculator` runs with
``parametric`` enabled (its ``parametric_source()``), each extracted
:class:`~repro.delay.stage_delay.ArcTiming` carries a **term**: a
replayable analytic recipe over the technology parameter vector, built
once during the structural walk.  Every corner of every delay model is
timed by evaluating these terms; nothing re-extracts at a corner.  A
term is a nested tuple:

``("spine", recipes, contribs, root, output, path, truncated)``
    One Elmore RC-tree evaluation.  ``recipes`` name the spine
    resistances as symbolic atoms -- ``("res", device, role,
    transition)`` (one :func:`~repro.delay.effective_res.device_resistance`
    call) or ``("load", node)`` (the parallel depletion pull-up combine)
    -- and ``contribs`` records, in the exact visit order of the
    concrete tree walk, which prefix resistance each node's capacitance
    multiplies.

``("tree", edges, root, output, path, truncated)``
    One RC tree under the ``lumped``/``pr-min``/``pr-max`` models.
    ``edges`` are ``(parent, child, atom)`` in the concrete walk's
    insertion order; evaluation rebuilds the tree with each atom and
    node capacitance instantiated and hands it to the calculator's
    ``_tree_delay``, the function concrete extraction uses.

``("max", a, b)``
    A worst-case merge of two terms (``a`` the incumbent).  Both sides
    are evaluated and the corner decides the winner, exactly as the
    concrete ``_merge_arcs``/``_rise_via_pullup`` comparisons would at
    that corner.

Replaying a term at any parameter point performs the *same
floating-point operations in the same order* as concrete extraction, so
evaluation at the extraction point is bit-for-bit identical to the
concrete model -- the hard parity gate.  The path search itself ran
once, at the extraction point: at a distant parameter point another
path may be worst, and only the candidates a ``max`` merge recorded are
re-decided there.

Terms are plain picklable tuples, so pooled extraction ships them over
the existing wire format unchanged.  :func:`evaluate_arcs` instantiates
every arc of a stage for one parameter point in a single pass; N
corners therefore cost one symbolic extraction plus N cheap evaluation
sweeps (see ``TimingAnalyzer.analyze_mcmm`` and ``repro.bench.mcmm``).

:data:`PARAMETERS` lists the technology fields the static delay model
actually reads; sensitivity queries (``repro explain --sensitivity``)
perturb each one and report the central-difference slope of the
endpoint arrival.
"""

from __future__ import annotations

import dataclasses

from ..tech import Technology
from .effective_res import device_resistance
from .rctree import RCTree
from .stage_delay import ArcTiming, StageArc

__all__ = [
    "PARAMETERS",
    "SENSITIVITY_REL_STEP",
    "perturbed",
    "evaluate_timing",
    "evaluate_arcs",
]

#: Technology fields the static delay model reads.  ``vdd``/``vt``/
#: ``kprime``/``lam`` influence only the electrical checks and the
#: simulator, not the RC delay arithmetic, so they are not listed:
#: their delay sensitivity is identically zero in this model.
PARAMETERS = (
    "r_sq_enh_pulldown",
    "r_sq_enh_pass",
    "r_sq_dep_pullup",
    "pass_rise_derate",
    "c_gate_area",
    "c_diff_area",
    "c_diff_len",
    "c_node_floor",
    "k_fall",
    "k_rise",
)

#: Relative half-step of the central-difference sensitivity estimate:
#: each parameter is evaluated at ``value * (1 +- SENSITIVITY_REL_STEP)``.
SENSITIVITY_REL_STEP = 0.05


def perturbed(
    tech: Technology, parameter: str, rel_step: float
) -> Technology:
    """``tech`` with one parameter scaled by ``(1 + rel_step)``.

    The building block of sensitivity sweeps: ``perturbed(t, "k_fall",
    -0.05)`` is the nominal technology with ``k_fall`` 5% low.
    ``parameter`` must be one of :data:`PARAMETERS`.
    """
    if parameter not in PARAMETERS:
        raise ValueError(
            f"unknown delay-model parameter {parameter!r}; "
            f"choose from {PARAMETERS}"
        )
    value = getattr(tech, parameter)
    return dataclasses.replace(
        tech, **{parameter: value * (1.0 + rel_step)}
    )


class _StageEnv:
    """Per-stage evaluation context: the calculator plus lazy pull-up table.

    ``("load", node)`` recipes replay the parallel depletion pull-up
    combine; the combine order must match the concrete
    ``_pulled_up_nodes`` walk, so the whole table is rebuilt with the
    same helper (cheap: one pass over the stage's devices) the first
    time a load recipe is evaluated.
    """

    __slots__ = ("calc", "stage", "_pulled_up", "_atoms")

    def __init__(self, calc, stage):
        self.calc = calc
        self.stage = stage
        self._pulled_up = None
        # The same atom recurs across a stage's arcs (every fall arc of a
        # gate shares its pulldown resistances; max nodes duplicate whole
        # subterms), so resolved values are memoized per stage.
        self._atoms: dict = {}

    def resistance(self, recipe: tuple) -> float:
        """Instantiate one symbolic resistance atom at ``calc.tech``."""
        value = self._atoms.get(recipe)
        if value is not None:
            return value
        calc = self.calc
        if recipe[0] == "res":
            _tag, name, role, transition = recipe
            value = device_resistance(
                calc.tech, calc.netlist.device(name), role, transition
            )
        else:
            # ("load", node): the combined depletion pull-up resistance.
            if self._pulled_up is None:
                self._pulled_up = calc._pulled_up_nodes(
                    self.stage, calc.graph.devices_of(self.stage)
                )
            value = self._pulled_up[recipe[1]]
        self._atoms[recipe] = value
        return value


def _evaluate_term(env: _StageEnv, term: tuple) -> ArcTiming:
    """Evaluate one term at the environment's parameter point."""
    if term[0] == "max":
        a = _evaluate_term(env, term[1])
        b = _evaluate_term(env, term[2])
        # Same tie rule as the concrete merge: the incumbent (a) wins.
        winner = a if a.delay >= b.delay else b
        return ArcTiming(
            delay=winner.delay,
            tau=winner.tau,
            path=winner.path,
            truncated=winner.truncated,
            term=term,
        )

    calc = env.calc
    if term[0] == "tree":
        _tag, edges, root, output, path, truncated = term
        tree = RCTree(root)
        for parent, child, atom in edges:
            tree.add_child(
                parent, child, env.resistance(atom), calc._node_cap(child)
            )
        delay, tau = calc._tree_delay(tree, output)
        return ArcTiming(
            delay=delay, tau=tau, path=path, truncated=truncated, term=term
        )

    _tag, recipes, contribs, root, output, path, truncated = term
    # Prefix resistances: prefix[i] is the root->(i-th spine node)
    # resistance, accumulated in spine order like the concrete walk.
    prefix = [0.0]
    r_total = 0.0
    for recipe in recipes:
        r_total += env.resistance(recipe)
        prefix.append(r_total)
    # Capacitance contributions in the recorded visit order.  The
    # ``cap != 0.0`` guard replays the concrete walk's skip exactly --
    # membership in ``contribs`` is structural, the skip is numeric.
    tau = 0.0
    node_cap = calc._node_cap
    for idx, node in contribs:
        cap = node_cap(node)
        if cap != 0.0:
            tau += prefix[idx] * cap
    k = calc._k_factor(root)
    if root == calc.netlist.gnd:
        # Max subterms sharing a pulldown spine repeat (output, r_total);
        # the derate is a pure function of the two, so memoize with the
        # resistance atoms.
        key = ("derate", output, r_total)
        derate = env._atoms.get(key)
        if derate is None:
            derate = calc._ratio_derate(output, r_total)
            env._atoms[key] = derate
        k *= derate
    return ArcTiming(
        delay=k * tau, tau=tau, path=path, truncated=truncated, term=term
    )


def _evaluate_timing(env: _StageEnv, timing):
    if timing is None:
        return None
    if timing.term is None:
        raise ValueError(
            "timing carries no parametric term; extract it with the "
            "calculator's parametric_source() first"
        )
    return _evaluate_term(env, timing.term)


def evaluate_timing(calc, stage, timing):
    """Re-evaluate one term-carrying :class:`ArcTiming` at ``calc.tech``.

    Returns a fresh timing whose floats are what concrete extraction at
    ``calc``'s technology would have produced (bit-for-bit at the term's
    own extraction point), or ``None`` if ``timing`` is ``None``.
    Raises :class:`ValueError` if the timing carries no term.
    """
    return _evaluate_timing(_StageEnv(calc, stage), timing)


def evaluate_arcs(calc, stage, arcs):
    """Instantiate a stage's term-carrying arcs at ``calc``'s tech point.

    ``arcs`` are the symbolic source's merged :class:`StageArc` list for
    ``stage``; the result is the arc list a full concrete extraction at
    ``calc.tech`` would produce, at evaluation cost (no path search).
    Raises :class:`ValueError` if any timing carries no term, so a
    concrete arc list can never pass for an evaluated one.
    """
    env = _StageEnv(calc, stage)
    return [
        StageArc(
            stage_index=arc.stage_index,
            trigger=arc.trigger,
            via=arc.via,
            output=arc.output,
            inverting=arc.inverting,
            rise=_evaluate_timing(env, arc.rise),
            fall=_evaluate_timing(env, arc.fall),
        )
        for arc in arcs
    ]
