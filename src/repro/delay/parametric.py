"""Parametric analytic delay terms over the technology parameter vector.

The concrete extractors in :mod:`repro.delay.stage_delay` produce plain
floats: every resistance, capacitance, and calibration factor is read
from one fixed :class:`~repro.tech.Technology` at extraction time.  That
would make a multi-corner sweep or a "what moves this path?" query pay
the full structural extraction again for every parameter point.

This module is the symbolic layer on top (after arXiv:2510.15907).  When
a :class:`~repro.delay.stage_delay.StageDelayCalculator` extracts a
stage with ``terms=True``, each extracted
:class:`~repro.delay.stage_delay.ArcTiming` carries a **term**: a
replayable analytic recipe over the technology parameter vector, built
once during the structural walk from the resistance atom every edge
record carries.  Every corner of every delay model is timed by
evaluating these terms; nothing re-extracts at a corner.  A corner's
calculator takes the terms from its host calculator, whose one arc
cache holds them.  A term is a nested tuple:

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
the existing wire format unchanged.

:func:`evaluate_arcs` evaluates in two steps.  It compiles the terms of
a set of arcs -- one stage's, or a whole sweep's -- into flat index
lists (:class:`_Program`): the design-wide resistance and node-cap
atoms, per Elmore spine its recipe and contribution indices, per tree
its edges, and the ``max`` merges as incumbent-first pairs.  Then, per
technology point, it instantiates the atoms once and runs the program,
building records only for the timings the arcs carry.  One compile
serves every corner: in an MCMM run (``TimingAnalyzer.analyze_mcmm``)
the scenario calculators share a :class:`CornerBatch`, and the first
corner's walk of each sweep evaluates the sweep's terms for every
corner in one call.  N corners therefore cost one symbolic extraction
and one compiled pass per sweep, run N times (see ``repro.bench.mcmm``).

:data:`PARAMETERS` lists the technology fields the static delay model
actually reads; sensitivity queries (``repro explain --sensitivity``)
perturb each one and report the central-difference slope of the
endpoint arrival.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import defaultdict
from functools import reduce
from itertools import accumulate
from operator import add, itemgetter, mul

from ..tech import Technology
from .effective_res import device_resistance
from .rctree import RCTree
from .stage_delay import ArcTiming, StageArc, _derate

__all__ = [
    "PARAMETERS",
    "SENSITIVITY_REL_STEP",
    "perturbed",
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


class CornerBatch:
    """The corner calculators of one run, whose terms are evaluated together.

    :func:`repro.core.mcmm.analyze_mcmm` makes one per run, before it
    analyzes any scenario, and sets it as every scenario calculator's
    ``batch``.  A member's :meth:`StageDelayCalculator.all_arcs` walk
    evaluates the stages its cache cannot serve in one
    :func:`evaluate_arcs` call, for itself and every member still
    ``waiting``, and leaves the others' lists here; a member's own walk
    takes its list (:meth:`take`) where it would have evaluated.
    ``graphs`` holds, per sweep, the timing graph a member last built
    for it (:func:`repro.core.graph.sweep_graph`).
    """

    def __init__(self, calculators):
        self.waiting = list(calculators)
        self.graphs: dict = {}
        self._pending: dict = {calc: {} for calc in self.waiting}

    def peers(self, calc) -> list:
        """The waiting members other than ``calc``."""
        return [member for member in self.waiting if member is not calc]

    def give(self, calc, key, arcs) -> None:
        """Leave ``calc`` its evaluated arcs of one (stage, cut set) key."""
        self._pending[calc][key] = arcs

    def take(self, calc, key):
        """``calc``'s arcs of ``key`` if a peer evaluated them, else None."""
        return self._pending[calc].pop(key, None)

    def finish(self, calc) -> None:
        """``calc``'s analysis is over: evaluate nothing more for it."""
        self.waiting.remove(calc)
        del self._pending[calc]


class _Program:
    """The terms of a list of timings, compiled to flat index lists.

    Each distinct term object is compiled once, its operations numbered
    in post order: ``res_atoms``, ``cap_nodes``, ``roots`` and
    ``up_outputs`` (outputs of gnd-rooted spines, for the ratio derate)
    are the atoms :meth:`timings` instantiates once per calculator;
    ``spines`` hold each Elmore leaf's recipe, prefix and capacitance
    indices in recorded order, ``trees`` each tree leaf's edges, and
    ``merges`` each ``max`` as ``(incumbent, challenger)`` ops.
    """

    def __init__(self, gnd: str, timings):
        # Each table numbers its keys in order of first sight: a miss
        # appends the next index.
        self.res_atoms: dict = defaultdict(itertools.count().__next__)
        self.cap_nodes: dict = defaultdict(itertools.count().__next__)
        self.roots: dict = defaultdict(itertools.count().__next__)
        self.up_outputs: dict = defaultdict(itertools.count().__next__)
        self.spines: list = []
        self.trees: list = []
        self.merges: list = []
        #: Per op: the term, and for leaves the path and truncation
        #: flag every timing it wins carries.
        self.terms: list = []
        self.paths: list = []
        self.truncated: list = []
        self._gnd = gnd
        self._op_of: dict = {}
        #: The ops that root some timing, and per timing its 1-based
        #: position among them (0 for a missing timing).
        self.root_ops: list = []
        self.slots: list = []
        slot_of: dict = {}
        for timing in timings:
            if timing is None:
                self.slots.append(0)
                continue
            if timing.term is None:
                raise ValueError(
                    "timing carries no parametric term; extract it with "
                    "terms=True first"
                )
            op = self._compile(timing.term)
            slot = slot_of.get(op)
            if slot is None:
                self.root_ops.append(op)
                slot = slot_of[op] = len(self.root_ops)
            self.slots.append(slot)

    def _new_op(self, term, path, truncated) -> int:
        self.terms.append(term)
        self.paths.append(path)
        self.truncated.append(truncated)
        return len(self.terms) - 1

    def _compile(self, term: tuple) -> int:
        op = self._op_of.get(id(term))
        if op is not None:
            return op
        res = self.res_atoms.__getitem__
        cap = self.cap_nodes.__getitem__
        if term[0] == "max":
            incumbent = self._compile(term[1])
            challenger = self._compile(term[2])
            op = self._new_op(term, None, None)
            self.merges.append((op, incumbent, challenger))
        elif term[0] == "tree":
            _tag, edges, root, output, path, truncated = term
            compiled = tuple(
                (parent, child, res(atom), cap(child))
                for parent, child, atom in edges
            )
            op = self._new_op(term, path, truncated)
            self.trees.append((op, root, output, compiled))
        else:
            _tag, recipes, contribs, root, output, path, truncated = term
            op = self._new_op(term, path, truncated)
            self.spines.append(
                (
                    op,
                    tuple(map(res, recipes)),
                    tuple(map(itemgetter(0), contribs)),
                    tuple(map(cap, map(itemgetter(1), contribs))),
                    self.roots[root],
                    self.up_outputs[output] if root == self._gnd else -1,
                )
            )
        self._op_of[id(term)] = op
        return op

    def _resistances(self, calc) -> list[float]:
        """Every resistance atom at ``calc.tech``."""
        tech = calc.tech
        device = calc.netlist.device
        graph = calc.graph
        pulled_up: dict[int, dict[str, float]] = {}
        values = []
        for atom in self.res_atoms:
            if atom[0] == "res":
                _tag, name, role, transition = atom
                values.append(
                    device_resistance(tech, device(name), role, transition)
                )
                continue
            # ("load", node): the parallel depletion pull-up combine of
            # the node's stage, in the concrete walk's order.
            stage = graph.stage_of(atom[1])
            table = pulled_up.get(stage.index)
            if table is None:
                table = calc._pulled_up_nodes(stage, graph.devices_of(stage))
                pulled_up[stage.index] = table
            values.append(table[atom[1]])
        return values

    def timings(self, calc) -> list:
        """The compiled timings at ``calc.tech``, ``None`` where missing.

        Performs the floating-point operations of concrete extraction in
        its order: prefix resistances in spine order, capacitance
        contributions in visit order (skipping zero capacitances as the
        concrete walk does), the calibration factor and, for gnd-rooted
        spines, the ratio derate; trees go through ``_tree_delay``, and
        a ``max`` keeps its incumbent on ties.  Timings that share a
        term share one record.
        """
        res = self._resistances(calc)
        node_cap = calc._node_cap
        cap = [node_cap(node) for node in self.cap_nodes]
        k_of = [calc._k_factor(root) for root in self.roots]
        up = [calc._pullup_resistance(output) for output in self.up_outputs]
        count = len(self.terms)
        delay = [0.0] * count
        tau_of = [0.0] * count
        resistance = res.__getitem__
        capacitance = cap.__getitem__
        # The concrete walk skips zero capacitances; with none at this
        # point, every contribution is added, in order, by reduce.
        skips = 0.0 in cap
        for op, recipes, prefixes, caps, root, up_index in self.spines:
            prefix = list(accumulate(map(resistance, recipes), initial=0.0))
            r_total = prefix[-1]
            shared = map(prefix.__getitem__, prefixes)
            if skips:
                tau = 0.0
                for r_shared, value in zip(shared, map(capacitance, caps)):
                    if value != 0.0:
                        tau += r_shared * value
            else:
                tau = reduce(add, map(mul, shared, map(capacitance, caps)), 0.0)
            k = k_of[root]
            if up_index >= 0:
                k *= _derate(up[up_index], r_total)
            delay[op] = k * tau
            tau_of[op] = tau
        for op, root, output, edges in self.trees:
            tree = RCTree(root)
            for parent, child, r_index, c_index in edges:
                tree.add_child(parent, child, res[r_index], cap[c_index])
            delay[op], tau_of[op] = calc._tree_delay(tree, output)
        leaf = list(range(count))
        for op, incumbent, challenger in self.merges:
            winner = (
                incumbent
                if delay[incumbent] >= delay[challenger]
                else challenger
            )
            delay[op] = delay[winner]
            tau_of[op] = tau_of[winner]
            leaf[op] = leaf[winner]
        paths = self.paths
        truncated = self.truncated
        terms = self.terms
        made = [None]
        made.extend(
            ArcTiming(
                delay[op], tau_of[op], paths[leaf[op]], truncated[leaf[op]],
                terms[op],
            )
            for op in self.root_ops
        )
        return [made[slot] for slot in self.slots]


def evaluate_arcs(calc, arcs, *, peers=None):
    """Instantiate term-carrying arcs at ``calc``'s technology point.

    ``arcs`` are merged :class:`StageArc` lists extracted with terms: one
    stage's, or the concatenated lists of several stages; each term
    names everything it reads.  The result is the arc list a full
    concrete extraction at ``calc.tech`` would produce, at evaluation
    cost (no path search).  The terms are compiled once; with ``peers``
    (calculators of the same structure at other technology points) the
    compiled program also runs at each peer's point, and the result is
    one list per calculator, ``calc``'s first.  Raises
    :class:`ValueError` if any timing carries no term, so a concrete arc
    list can never pass for an evaluated one.
    """
    program = _Program(
        calc.netlist.gnd,
        (timing for arc in arcs for timing in (arc.rise, arc.fall)),
    )
    lists = []
    for each in (calc,) if peers is None else (calc, *peers):
        timings = iter(program.timings(each))
        lists.append([
            StageArc(arc.stage_index, arc.trigger, arc.via, arc.output,
                     arc.inverting, next(timings), next(timings))
            for arc in arcs
        ])
    return lists[0] if peers is None else lists
