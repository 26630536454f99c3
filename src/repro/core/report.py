"""Reports: the versioned JSON schema, its validator, and text helpers.

Until this layer existed the analyzer's only output was an 87-line opaque
text report.  This module defines the machine-readable contract:

* :data:`REPORT_SCHEMA` -- a versioned JSON-Schema(-subset) document
  describing every field a timing report may carry;
* :func:`result_to_json` -- serialize an
  :class:`~repro.core.analyzer.AnalysisResult` to that schema
  (deterministic: byte-identical between serial and parallel runs);
* :func:`result_to_text` -- the same report as JSON text, exactly
  ``json.dumps(result_to_json(result))``, with each distinct path step
  encoded once; given the memo of the last report, only the steps that
  are new objects since (the steps of re-timed arrivals after an edit,
  see :mod:`repro.core.paths`) are encoded at all;
* :func:`validate_report` -- dependency-free structural validation
  against the schema (raises :class:`~repro.errors.ReportSchemaError`);
* :func:`schema_markdown` -- render the schema as the reference page
  checked in at ``docs/report-schema.md`` (the doc is *generated from*
  the schema; a test asserts the two never drift).

Schema versioning follows semver: a field addition bumps the minor
version, a meaning/type change bumps the major version.  Consumers should
accept any report whose major version they know.

The classic text helpers (:func:`format_ns`, :func:`design_fingerprint`,
:func:`slack_histogram`, :func:`format_table`) live here too, shared by
the analyzer, examples, and benches.

Regenerate the schema reference with::

    PYTHONPATH=src python -m repro.core.report > docs/report-schema.md
"""

from __future__ import annotations

import json
import os
import tempfile

from ..errors import ReportSchemaError
from ..netlist import Netlist
from ..stages import StageGraph, archetype_census
from .arrival import ArrivalMap

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "REPORT_SCHEMA",
    "result_to_json",
    "result_to_text",
    "validate_report",
    "schema_markdown",
    "format_ns",
    "design_fingerprint",
    "slack_histogram",
    "format_table",
    "atomic_write_text",
    "atomic_write_json",
]

#: Version of the JSON report contract (semver).
#: 1.1.0 added the ``diagnostics`` section (error policy, typed
#: diagnostic records, and quarantine coverage).
#: 1.2.0 added the optional ``mcmm`` section (multi-corner multi-mode
#: merge: per-scenario outcomes, worst arrival per node, dominant
#: scenario per critical endpoint) and the ``scenario`` field of
#: ``explanation``.
#: 1.3.0 added the ``sensitivities`` field of ``explanation``
#: (per-parameter arrival slopes from the parametric delay layer,
#: populated by ``repro explain --sensitivity``).
REPORT_SCHEMA_VERSION = "1.3.0"

_STEP_SCHEMA = {
    "type": "object",
    "description": "One hop of a timing path.",
    "required": ["node", "transition", "time", "slew", "stage", "via",
                 "devices"],
    "additionalProperties": False,
    "properties": {
        "node": {"type": "string", "description": "Circuit node name."},
        "transition": {
            "enum": ["rise", "fall"],
            "description": "Direction of the transition at this node.",
        },
        "time": {
            "type": "number",
            "description": "Cumulative arrival time at this node, seconds.",
        },
        "slew": {
            "type": "number",
            "description": "Transition time (slew) at this node, seconds.",
        },
        "stage": {
            "type": ["integer", "null"],
            "description": "Index of the stage traversed (null for the "
                           "source step).",
        },
        "via": {
            "enum": ["gate", "channel", None],
            "description": "How the stage was entered: a gate input, a "
                           "channel boundary, or null for the source step.",
        },
        "devices": {
            "type": "array",
            "items": {"type": "string"},
            "description": "Devices on the worst RC path of this hop.",
        },
    },
}

_PATH_SCHEMA = {
    "type": "object",
    "description": "A reconstructed worst-case timing path.",
    "required": ["endpoint", "transition", "arrival", "steps"],
    "additionalProperties": False,
    "properties": {
        "endpoint": {"type": "string", "description": "Path endpoint node."},
        "transition": {
            "enum": ["rise", "fall"],
            "description": "Endpoint transition direction.",
        },
        "arrival": {
            "type": "number",
            "description": "Worst-case arrival at the endpoint, seconds.",
        },
        "steps": {
            "type": "array",
            "items": {"$ref": "#/$defs/step"},
            "description": "Hops from startpoint to endpoint, in order.",
        },
    },
}

_PROVENANCE_RECORD_SCHEMA = {
    "type": "object",
    "description": "One hop of an arrival-time provenance chain "
                   "(see repro.core.provenance).",
    "required": ["node", "transition", "time", "slew", "kind", "delta",
                 "stage", "trigger", "inverting", "intrinsic_delay",
                 "slope_delay", "input_slew", "tau", "devices", "truncated"],
    "additionalProperties": False,
    "properties": {
        "node": {"type": "string", "description": "Circuit node name."},
        "transition": {
            "enum": ["rise", "fall"],
            "description": "Direction of the transition at this node.",
        },
        "time": {
            "type": "number",
            "description": "Cumulative arrival after this hop, seconds.",
        },
        "slew": {
            "type": "number",
            "description": "Output slew after this hop, seconds.",
        },
        "kind": {
            "enum": ["source", "gate", "transfer", "channel"],
            "description": "Arc family: externally seeded source, "
                           "inverting gate arc, non-inverting transfer "
                           "(clocked switch / precharge / follower / "
                           "select), or channel injection.",
        },
        "delta": {
            "type": "number",
            "description": "Exact contribution of this hop, seconds; the "
                           "deltas sum to the reported arrival "
                           "bit-for-bit.",
        },
        "stage": {
            "type": ["integer", "null"],
            "description": "Stage index (null for the source record).",
        },
        "trigger": {
            "type": ["string", "null"],
            "description": "Node whose transition triggered the arc "
                           "(null for the source record).",
        },
        "inverting": {
            "type": ["boolean", "null"],
            "description": "Whether the arc inverts (null for the source "
                           "record).",
        },
        "intrinsic_delay": {
            "type": "number",
            "description": "RC (delay-model) term of the hop, seconds.",
        },
        "slope_delay": {
            "type": "number",
            "description": "Input-slope correction term of the hop, "
                           "seconds.",
        },
        "input_slew": {
            "type": "number",
            "description": "Slew of the triggering transition, seconds.",
        },
        "tau": {
            "type": "number",
            "description": "Elmore time constant of the hop's RC tree, "
                           "seconds.",
        },
        "devices": {
            "type": "array",
            "items": {"type": "string"},
            "description": "Devices on the worst RC path of this hop.",
        },
        "truncated": {
            "type": "boolean",
            "description": "True if path enumeration hit its cap while "
                           "computing this hop (the delay is then a "
                           "lower bound).",
        },
    },
}

_EXPLANATION_SCHEMA = {
    "type": "object",
    "description": "A full provenance chain for one endpoint arrival "
                   "(the payload of `repro explain --json`).",
    "required": ["endpoint", "transition", "arrival", "phase", "scenario",
                 "exact", "records", "sensitivities"],
    "additionalProperties": False,
    "properties": {
        "endpoint": {"type": "string", "description": "Explained node."},
        "transition": {
            "enum": ["rise", "fall"],
            "description": "Explained transition direction.",
        },
        "arrival": {
            "type": "number",
            "description": "Reported worst-case arrival, seconds.",
        },
        "phase": {
            "type": ["string", "null"],
            "description": "Clock phase the chain was computed under "
                           "(null for combinational analysis).",
        },
        "scenario": {
            "type": ["string", "null"],
            "description": "MCMM scenario the chain came from (null for "
                           "single-scenario analysis).  Added in 1.2.0.",
        },
        "exact": {
            "type": "boolean",
            "description": "True iff the record deltas sum to `arrival` "
                           "exactly (always true in a healthy build).",
        },
        "records": {
            "type": "array",
            "items": {"$ref": "#/$defs/provenance_record"},
            "description": "Causal chain from source to endpoint.",
        },
        "sensitivities": {
            "type": ["array", "null"],
            "items": {"$ref": "#/$defs/sensitivity_record"},
            "description": "Per-parameter arrival slopes of this "
                           "endpoint, largest magnitude first (null "
                           "unless the explanation was built with "
                           "sensitivity=True).  Added in 1.3.0.",
        },
    },
}

_SENSITIVITY_RECORD_SCHEMA = {
    "type": "object",
    "description": "One technology parameter's leverage on an explained "
                   "arrival (central-difference estimate from the "
                   "parametric delay layer).",
    "required": ["parameter", "nominal", "sensitivity"],
    "additionalProperties": False,
    "properties": {
        "parameter": {
            "type": "string",
            "description": "Technology field name (one of "
                           "repro.delay.parametric.PARAMETERS).",
        },
        "nominal": {
            "type": "number",
            "description": "The parameter's value at the analyzed corner.",
        },
        "sensitivity": {
            "type": "number",
            "description": "d(arrival)/d(relative parameter change), "
                           "seconds per unit relative change: +2e-9 "
                           "means a +1% parameter move adds ~0.02 ns.",
        },
    },
}

_PHASE_SCHEMA = {
    "type": "object",
    "description": "Per-phase results of two-phase clock verification.",
    "required": ["phase", "width", "capture_nodes", "cut_arc_count",
                 "critical"],
    "additionalProperties": False,
    "properties": {
        "phase": {"type": "string", "description": "Phase label."},
        "width": {
            "type": "number",
            "description": "Minimum width of the phase, seconds.",
        },
        "capture_nodes": {
            "type": "array",
            "items": {"type": "string"},
            "description": "Storage nodes written during the phase "
                           "(sorted).",
        },
        "cut_arc_count": {
            "type": "integer",
            "description": "Feedback arcs cut in this phase's timing "
                           "graph.",
        },
        "critical": {
            "anyOf": [{"$ref": "#/$defs/path"}, {"type": "null"}],
            "description": "The phase's critical path (null if the phase "
                           "launches nothing).",
        },
    },
}

_CLOCK_SCHEMA = {
    "type": "object",
    "description": "Two-phase clock verification outcome.",
    "required": ["phase1", "phase2", "nonoverlap", "min_cycle", "phases",
                 "races", "overlap_margins"],
    "additionalProperties": False,
    "properties": {
        "phase1": {"type": "string", "description": "First phase label."},
        "phase2": {"type": "string", "description": "Second phase label."},
        "nonoverlap": {
            "type": "number",
            "description": "Dead time between phases, seconds.",
        },
        "min_cycle": {
            "type": "number",
            "description": "Minimum cycle time, seconds.",
        },
        "phases": {
            "type": "array",
            "items": {"$ref": "#/$defs/phase"},
            "description": "Per-phase results, in schema phase order.",
        },
        "races": {
            "type": "array",
            "items": {"$ref": "#/$defs/race"},
            "description": "Same-phase race violations found.",
        },
        "overlap_margins": {
            "type": "array",
            "items": {"$ref": "#/$defs/overlap_margin"},
            "description": "Tolerated clock overlap per phase direction.",
        },
    },
}

_RACE_SCHEMA = {
    "type": "object",
    "description": "A signal that can cross two same-phase latches in one "
                   "phase.",
    "required": ["phase", "from_node", "to_node", "kind"],
    "additionalProperties": False,
    "properties": {
        "phase": {"type": "string", "description": "Racing phase label."},
        "from_node": {"type": "string", "description": "Launching node."},
        "to_node": {"type": "string", "description": "Captured node."},
        "kind": {
            "enum": ["cross-stage", "same-stage"],
            "description": "Whether the race crosses stages or stays "
                           "within one conduction network.",
        },
    },
}

_OVERLAP_MARGIN_SCHEMA = {
    "type": "object",
    "description": "Maximum clock overlap the design tolerates in one "
                   "phase direction.",
    "required": ["from_phase", "to_phase", "margin", "from_node", "to_node"],
    "additionalProperties": False,
    "properties": {
        "from_phase": {"type": "string", "description": "Launching phase."},
        "to_phase": {"type": "string", "description": "Capturing phase."},
        "margin": {
            "type": ["number", "null"],
            "description": "Tolerated overlap, seconds (null: no "
                           "cross-phase path, unbounded margin).",
        },
        "from_node": {
            "type": ["string", "null"],
            "description": "Start of the fastest cross-phase path.",
        },
        "to_node": {
            "type": ["string", "null"],
            "description": "End of the fastest cross-phase path.",
        },
    },
}

_ERC_WARNING_SCHEMA = {
    "type": "object",
    "description": "One electrical-rules warning carried by the analysis.",
    "required": ["code", "severity", "subject", "message"],
    "additionalProperties": False,
    "properties": {
        "code": {"type": "string", "description": "Rule identifier."},
        "severity": {
            "enum": ["error", "warning"],
            "description": "Violation severity.",
        },
        "subject": {
            "type": "string",
            "description": "Node or device at fault.",
        },
        "message": {"type": "string", "description": "Human-readable "
                                                     "detail."},
    },
}

_DIAGNOSTIC_SCHEMA = {
    "type": "object",
    "description": "One typed record of a failure tolerated by a degraded "
                   "error policy (see repro.robust).",
    "required": ["code", "severity", "subject", "stage", "action",
                 "message"],
    "additionalProperties": False,
    "properties": {
        "code": {
            "type": "string",
            "description": "Failure class: an ERC rule code (e.g. "
                           "\"ratio\") or a pipeline code (e.g. "
                           "\"extraction-failure\", \"erc-crash\", "
                           "\"no-primary-inputs\").",
        },
        "severity": {
            "enum": ["error", "warning"],
            "description": "Severity of the underlying failure.",
        },
        "subject": {
            "type": "string",
            "description": "Node, device, or pipeline step at fault.",
        },
        "stage": {
            "type": ["integer", "null"],
            "description": "Implicated stage index (null when the failure "
                           "is not attributable to one stage).",
        },
        "action": {
            "enum": ["quarantined", "downgraded", "skipped"],
            "description": "What the analyzer did: excised the stage, "
                           "downgraded a fatal error to this record, or "
                           "skipped a pipeline step.",
        },
        "message": {
            "type": "string",
            "description": "Human-readable detail.",
        },
    },
}

_COVERAGE_SCHEMA = {
    "type": "object",
    "description": "Analyzed-vs-quarantined accounting of one run; "
                   "`complete` is true iff nothing was quarantined.",
    "required": ["complete", "stages_total", "stages_analyzed",
                 "stages_quarantined", "devices_total", "devices_analyzed",
                 "devices_quarantined", "nodes_total", "nodes_analyzed",
                 "nodes_quarantined"],
    "additionalProperties": False,
    "properties": {
        "complete": {
            "type": "boolean",
            "description": "True iff every stage was analyzed.",
        },
        "stages_total": {
            "type": "integer",
            "description": "Stages in the decomposition.",
        },
        "stages_analyzed": {
            "type": "integer",
            "description": "Stages that contributed timing arcs.",
        },
        "stages_quarantined": {
            "type": "integer",
            "description": "Stages excised from the analysis.",
        },
        "devices_total": {
            "type": "integer",
            "description": "Devices in the netlist.",
        },
        "devices_analyzed": {
            "type": "integer",
            "description": "Devices of analyzed stages.",
        },
        "devices_quarantined": {
            "type": "integer",
            "description": "Devices of quarantined stages.",
        },
        "nodes_total": {
            "type": "integer",
            "description": "Nodes in the netlist (including boundary "
                           "nodes, which belong to no stage).",
        },
        "nodes_analyzed": {
            "type": "integer",
            "description": "Nodes outside quarantined stages.",
        },
        "nodes_quarantined": {
            "type": "integer",
            "description": "Internal nodes of quarantined stages.",
        },
    },
}

_DIAGNOSTICS_SECTION_SCHEMA = {
    "type": "object",
    "description": "Degraded-mode accounting: the error policy the run "
                   "executed under, every tolerated failure, and what "
                   "fraction of the design the results cover.  Under the "
                   "default strict policy `records` is empty and "
                   "`coverage.complete` is true.",
    "required": ["policy", "records", "coverage"],
    "additionalProperties": False,
    "properties": {
        "policy": {
            "enum": ["strict", "quarantine", "best-effort"],
            "description": "Error policy of the run.",
        },
        "records": {
            "type": "array",
            "items": {"$ref": "#/$defs/diagnostic"},
            "description": "Tolerated failures, in pipeline order.",
        },
        "coverage": {
            "anyOf": [{"$ref": "#/$defs/coverage"}, {"type": "null"}],
            "description": "Quarantine accounting (null only for "
                           "hand-built results that never ran analyze()).",
        },
    },
}

_MCMM_SCENARIO_SCHEMA = {
    "type": "object",
    "description": "Outcome of one MCMM scenario (corner x clock mode).",
    "required": ["name", "technology", "clock", "mode", "max_delay",
                 "min_cycle", "race_count"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "description": "Scenario name."},
        "technology": {
            "type": ["string", "null"],
            "description": "Name of the scenario's technology corner "
                           "(null: the analyzer's base technology).",
        },
        "clock": {
            "type": ["object", "null"],
            "description": "Scenario clock override (null: the "
                           "analyzer's schema).",
            "required": ["phase1", "phase2", "nonoverlap"],
            "additionalProperties": False,
            "properties": {
                "phase1": {"type": "string",
                           "description": "First phase label."},
                "phase2": {"type": "string",
                           "description": "Second phase label."},
                "nonoverlap": {"type": "number",
                               "description": "Dead time between phases, "
                                              "seconds."},
            },
        },
        "mode": {
            "enum": ["combinational", "two-phase"],
            "description": "Analysis mode of this scenario.",
        },
        "max_delay": {
            "type": ["number", "null"],
            "description": "Scenario worst delay (see top-level "
                           "max_delay), seconds.",
        },
        "min_cycle": {
            "type": ["number", "null"],
            "description": "Scenario minimum cycle time (two-phase "
                           "mode; null otherwise), seconds.",
        },
        "race_count": {
            "type": "integer",
            "description": "Races found in this scenario (0 in "
                           "combinational mode).",
        },
        "analysis_seconds": {
            "type": "number",
            "description": "Wall-clock scenario time. OPTIONAL -- only "
                           "with include_wall_time=True.",
        },
    },
}

_MCMM_NODE_SCHEMA = {
    "type": "object",
    "description": "Worst arrival of one node across every scenario.",
    "required": ["node", "arrival", "scenario"],
    "additionalProperties": False,
    "properties": {
        "node": {"type": "string", "description": "Circuit node name."},
        "arrival": {
            "type": "number",
            "description": "Latest arrival over all scenarios, seconds.",
        },
        "scenario": {
            "type": "string",
            "description": "Scenario in which the node arrives latest "
                           "(its dominant corner).",
        },
    },
}

_MCMM_PATH_SCHEMA = {
    "type": "object",
    "description": "One critical-path endpoint merged across scenarios.",
    "required": ["endpoint", "arrival", "scenario"],
    "additionalProperties": False,
    "properties": {
        "endpoint": {"type": "string",
                     "description": "Path endpoint node."},
        "arrival": {
            "type": "number",
            "description": "Worst arrival over all scenarios, seconds.",
        },
        "scenario": {
            "type": "string",
            "description": "Dominant scenario for this endpoint.",
        },
    },
}

_MCMM_SCHEMA = {
    "type": "object",
    "description": "Multi-corner multi-mode merge.  The enclosing "
                   "report is the *dominant* scenario's report; this "
                   "section compares all scenarios.  Every scenario's "
                   "own report is byte-identical to a standalone "
                   "single-scenario analysis.",
    "required": ["scenario_count", "dominant", "scenarios", "nodes",
                 "paths"],
    "additionalProperties": False,
    "properties": {
        "scenario_count": {
            "type": "integer",
            "description": "Number of scenarios analyzed.",
        },
        "dominant": {
            "type": "string",
            "description": "Scenario with the worst cycle time (or "
                           "max delay) -- the signoff corner.",
        },
        "scenarios": {
            "type": "array",
            "items": {"$ref": "#/$defs/mcmm_scenario"},
            "description": "Per-scenario outcomes, in evaluation order.",
        },
        "nodes": {
            "type": "array",
            "items": {"$ref": "#/$defs/mcmm_node"},
            "description": "Worst arrival per node across scenarios, "
                           "sorted by node name.",
        },
        "paths": {
            "type": "array",
            "items": {"$ref": "#/$defs/mcmm_path"},
            "description": "Critical endpoints with their dominant "
                           "scenario, worst first.",
        },
        "analysis_seconds": {
            "type": "number",
            "description": "Wall-clock MCMM sweep time. OPTIONAL -- "
                           "only with include_wall_time=True.",
        },
    },
}

REPORT_SCHEMA = {
    "$id": "repro-timing-report",
    "title": "repro timing analysis report",
    "description": "Machine-readable result of one TimingAnalyzer run. "
                   "All times are seconds (strict SI). The payload is "
                   "deterministic: serial and parallel analyses of the "
                   "same netlist serialize byte-identically.",
    "version": REPORT_SCHEMA_VERSION,
    "type": "object",
    "required": ["schema", "schema_version", "generator", "netlist", "mode",
                 "units", "flow", "erc_warnings", "cut_arc_count",
                 "max_delay", "arrival_count", "paths", "clock",
                 "diagnostics"],
    "additionalProperties": False,
    "properties": {
        "schema": {
            "const": "repro-timing-report",
            "description": "Payload discriminator.",
        },
        "schema_version": {
            "type": "string",
            "description": "Semver of this contract; consumers should "
                           "accept any report whose major version they "
                           "know.",
        },
        "generator": {
            "type": "object",
            "description": "Tool that produced the report.",
            "required": ["tool", "version"],
            "additionalProperties": False,
            "properties": {
                "tool": {"const": "repro", "description": "Tool name."},
                "version": {"type": "string",
                            "description": "Package version."},
            },
        },
        "netlist": {
            "type": "object",
            "description": "Identity and size of the analyzed design.",
            "required": ["name", "devices", "stages"],
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string", "description": "Netlist name."},
                "devices": {"type": "integer",
                            "description": "Transistor count."},
                "stages": {"type": "integer",
                           "description": "Channel-connected stage count."},
            },
        },
        "mode": {
            "enum": ["combinational", "two-phase"],
            "description": "Analysis mode.",
        },
        "units": {
            "type": "object",
            "description": "Units of every numeric field.",
            "required": ["time"],
            "additionalProperties": False,
            "properties": {
                "time": {"const": "s", "description": "Strict SI seconds."},
            },
        },
        "flow": {
            "type": "object",
            "description": "Signal-flow inference coverage (R-T4 "
                           "accounting).",
            "required": ["total_devices", "pass_candidates",
                         "auto_resolved", "hinted", "unresolved",
                         "conflicts"],
            "additionalProperties": False,
            "properties": {
                "total_devices": {
                    "type": "integer",
                    "description": "All devices in the netlist.",
                },
                "pass_candidates": {
                    "type": "integer",
                    "description": "Devices needing a flow direction.",
                },
                "auto_resolved": {
                    "type": "integer",
                    "description": "Resolved by structural rules.",
                },
                "hinted": {
                    "type": "integer",
                    "description": "Resolved by designer hints.",
                },
                "unresolved": {
                    "type": "integer",
                    "description": "Left bidirectional.",
                },
                "conflicts": {
                    "type": "integer",
                    "description": "Rules demanded opposite directions.",
                },
            },
        },
        "erc_warnings": {
            "type": "array",
            "items": {"$ref": "#/$defs/erc_warning"},
            "description": "Electrical-rules warnings (errors abort the "
                           "analysis instead).",
        },
        "cut_arc_count": {
            "type": "integer",
            "description": "Feedback arcs cut to acyclify the timing "
                           "graph (summed over phases in two-phase "
                           "mode).",
        },
        "max_delay": {
            "type": ["number", "null"],
            "description": "Combinational: worst input-to-output delay. "
                           "Two-phase: worst phase width. Seconds.",
        },
        "arrival_count": {
            "type": ["integer", "null"],
            "description": "Recorded (node, transition) arrivals "
                           "(combinational mode; null otherwise).",
        },
        "paths": {
            "type": "array",
            "items": {"$ref": "#/$defs/path"},
            "description": "Top-k critical paths, worst first.",
        },
        "clock": {
            "anyOf": [{"$ref": "#/$defs/clock"}, {"type": "null"}],
            "description": "Two-phase verification outcome (null in "
                           "combinational mode).",
        },
        "diagnostics": {
            "$ref": "#/$defs/diagnostics",
            "description": "Degraded-mode accounting (policy, tolerated "
                           "failures, coverage).  Added in 1.1.0.",
        },
        "analysis_seconds": {
            "type": "number",
            "description": "Wall-clock analysis time. OPTIONAL -- "
                           "omitted by default so reports stay "
                           "deterministic; request it with "
                           "result_to_json(include_wall_time=True).",
        },
        "mcmm": {
            "$ref": "#/$defs/mcmm",
            "description": "Multi-corner multi-mode merge. OPTIONAL -- "
                           "present only on analyze_mcmm reports.  "
                           "Added in 1.2.0.",
        },
    },
    "$defs": {
        "step": _STEP_SCHEMA,
        "path": _PATH_SCHEMA,
        "provenance_record": _PROVENANCE_RECORD_SCHEMA,
        "explanation": _EXPLANATION_SCHEMA,
        "sensitivity_record": _SENSITIVITY_RECORD_SCHEMA,
        "phase": _PHASE_SCHEMA,
        "clock": _CLOCK_SCHEMA,
        "race": _RACE_SCHEMA,
        "overlap_margin": _OVERLAP_MARGIN_SCHEMA,
        "erc_warning": _ERC_WARNING_SCHEMA,
        "diagnostic": _DIAGNOSTIC_SCHEMA,
        "coverage": _COVERAGE_SCHEMA,
        "diagnostics": _DIAGNOSTICS_SECTION_SCHEMA,
        "mcmm": _MCMM_SCHEMA,
        "mcmm_scenario": _MCMM_SCENARIO_SCHEMA,
        "mcmm_node": _MCMM_NODE_SCHEMA,
        "mcmm_path": _MCMM_PATH_SCHEMA,
    },
}


# ----------------------------------------------------------------------
# Serialization.
# ----------------------------------------------------------------------
def _step_to_json(step) -> dict:
    return {
        "node": step.node,
        "transition": step.transition,
        "time": step.time,
        "slew": step.slew,
        "stage": step.stage_index,
        "via": step.via,
        "devices": list(step.devices),
    }


def _path_to_json(path, step_to_json=_step_to_json) -> dict:
    return {
        "endpoint": path.endpoint,
        "transition": path.transition,
        "arrival": path.arrival,
        "steps": [step_to_json(step) for step in path.steps],
    }


def _clock_to_json(verification, path_to_json) -> dict:
    clock = verification.clock
    return {
        "phase1": clock.phase1,
        "phase2": clock.phase2,
        "nonoverlap": clock.nonoverlap,
        "min_cycle": verification.min_cycle,
        "phases": [
            {
                "phase": phase,
                "width": result.width,
                "capture_nodes": sorted(result.storage_written),
                "cut_arc_count": result.cut_arc_count,
                "critical": (
                    path_to_json(result.critical)
                    if result.critical is not None
                    else None
                ),
            }
            for phase, result in (
                (p, verification.phases[p]) for p in clock.phases
            )
        ],
        "races": [
            {
                "phase": race.phase,
                "from_node": race.from_node,
                "to_node": race.to_node,
                "kind": race.kind,
            }
            for race in verification.races
        ],
        "overlap_margins": [
            {
                "from_phase": margin.from_phase,
                "to_phase": margin.to_phase,
                "margin": margin.margin,
                "from_node": margin.from_node,
                "to_node": margin.to_node,
            }
            for margin in verification.overlap_margins
        ],
    }


def result_to_json(result, *, include_wall_time: bool = False) -> dict:
    """Serialize an :class:`~repro.core.analyzer.AnalysisResult`.

    The payload conforms to :data:`REPORT_SCHEMA` and is deterministic:
    two analyses of the same netlist -- serial or parallel -- produce
    equal payloads (and equal ``json.dumps(..., sort_keys=True)`` bytes).
    Wall-clock time is the one nondeterministic field, so it is included
    only on request (``include_wall_time=True``).
    """
    return _result_payload(
        result, _path_to_json, include_wall_time=include_wall_time
    )


def _result_payload(result, path_to_json, *, include_wall_time: bool) -> dict:
    """The report of :func:`result_to_json`, each path by ``path_to_json``."""
    from .. import __version__  # local import: package init imports core

    payload = {
        "schema": "repro-timing-report",
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": {"tool": "repro", "version": __version__},
        "netlist": {
            "name": result.netlist_name,
            "devices": result.device_count,
            "stages": result.stage_count,
        },
        "mode": result.mode,
        "units": {"time": "s"},
        "flow": {
            "total_devices": result.flow.total_devices,
            "pass_candidates": result.flow.pass_candidates,
            "auto_resolved": result.flow.auto_resolved,
            "hinted": len(result.flow.hinted),
            "unresolved": len(result.flow.unresolved),
            "conflicts": len(result.flow.conflicts),
        },
        "erc_warnings": [
            {
                "code": violation.code,
                "severity": violation.severity,
                "subject": violation.subject,
                "message": violation.message,
            }
            for violation in result.erc_warnings
        ],
        "cut_arc_count": result.cut_arc_count,
        "max_delay": result.max_delay,
        "arrival_count": (
            len(result.arrivals) if result.arrivals is not None else None
        ),
        "paths": [path_to_json(path) for path in result.paths],
        "clock": (
            _clock_to_json(result.clock_verification, path_to_json)
            if result.clock_verification is not None
            else None
        ),
        "diagnostics": {
            "policy": result.policy,
            "records": [diag.to_json() for diag in result.diagnostics],
            "coverage": (
                result.coverage.to_json()
                if result.coverage is not None
                else None
            ),
        },
    }
    if include_wall_time:
        payload["analysis_seconds"] = result.analysis_seconds
    return payload


class _Encoded(str):
    """JSON text that :func:`_encode` splices in as it is."""


def _encode(value) -> str:
    """``json.dumps(value)`` for a report's values (str-keyed dicts,
    lists, scalars), with each :class:`_Encoded` spliced in as it is."""
    kind = type(value)
    if kind is _Encoded:
        return value
    if kind is dict:
        return "{" + ", ".join(
            f"{json.dumps(key)}: {_encode(item)}" for key, item in value.items()
        ) + "}"
    if kind is list:
        return "[" + ", ".join([_encode(item) for item in value]) + "]"
    return json.dumps(value)


def result_to_text(result, *, memo: dict | None = None) -> str:
    """``json.dumps(result_to_json(result))``, encoding each step once.

    The paths of a report share their steps (:mod:`repro.core.paths`),
    so each distinct step is encoded once, by the same
    :func:`_step_to_json` as :func:`result_to_json` uses, and its text
    spliced in wherever it recurs.  ``memo`` carries step texts from one
    report to the next: it maps ``id(step)`` to ``(step, text)``, a step
    that is still the same object reuses its text, and on return the
    memo holds exactly this report's steps.  One memo serves one thread
    at a time.
    """
    kept = memo if memo is not None else {}
    texts: dict[int, tuple] = {}

    def step_text(step) -> _Encoded:
        entry = texts.get(id(step))
        if entry is None:
            entry = kept.get(id(step))
            if entry is None or entry[0] is not step:
                entry = (step, _Encoded(json.dumps(_step_to_json(step))))
            texts[id(step)] = entry
        return entry[1]

    def path_to_json(path) -> dict:
        return _path_to_json(path, step_text)

    text = _encode(
        _result_payload(result, path_to_json, include_wall_time=False)
    )
    if memo is not None:
        memo.clear()
        memo.update(texts)
    return text


# ----------------------------------------------------------------------
# Validation (dependency-free JSON-Schema subset).
# ----------------------------------------------------------------------
_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _resolve_ref(ref: str, root: dict) -> dict:
    if not ref.startswith("#/"):
        raise ReportSchemaError(f"unsupported $ref {ref!r}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def _validate(value, schema: dict, root: dict, path: str, problems: list):
    ref = schema.get("$ref")
    if ref is not None:
        schema = _resolve_ref(ref, root)

    any_of = schema.get("anyOf")
    if any_of is not None:
        for option in any_of:
            trial: list[str] = []
            _validate(value, option, root, path, trial)
            if not trial:
                return
        problems.append(f"{path}: matches no anyOf alternative")
        return

    if "const" in schema:
        if value != schema["const"]:
            problems.append(
                f"{path}: expected constant {schema['const']!r}, "
                f"got {value!r}"
            )
        return

    if "enum" in schema:
        if value not in schema["enum"]:
            problems.append(
                f"{path}: {value!r} not one of {schema['enum']!r}"
            )
        return

    declared = schema.get("type")
    if declared is not None:
        types = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            problems.append(
                f"{path}: expected {'/'.join(types)}, "
                f"got {type(value).__name__}"
            )
            return

    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                problems.append(f"{path}: missing required field {name!r}")
        if schema.get("additionalProperties") is False:
            for name in value:
                if name not in properties:
                    problems.append(f"{path}: unexpected field {name!r}")
        for name, sub in properties.items():
            if name in value:
                _validate(value[name], sub, root, f"{path}.{name}", problems)

    if isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for index, element in enumerate(value):
                _validate(
                    element, items, root, f"{path}[{index}]", problems
                )


def validate_report(payload, schema: dict | None = None) -> None:
    """Validate a payload against the report schema (or any sub-schema).

    Raises :class:`ReportSchemaError` listing every violation; returns
    None on success.  The validator is a dependency-free subset of JSON
    Schema (type / required / properties / additionalProperties / items /
    enum / const / anyOf / local $ref) -- exactly the vocabulary
    :data:`REPORT_SCHEMA` uses, so no third-party ``jsonschema`` package
    is needed.
    """
    root = REPORT_SCHEMA
    if schema is None:
        schema = REPORT_SCHEMA
    problems: list[str] = []
    _validate(payload, schema, root, "$", problems)
    if problems:
        raise ReportSchemaError(
            "report does not conform to schema "
            f"v{REPORT_SCHEMA_VERSION}:\n  " + "\n  ".join(problems)
        )


# ----------------------------------------------------------------------
# Schema -> markdown reference (docs/report-schema.md is generated from
# this; tests assert the checked-in file matches).
# ----------------------------------------------------------------------
def _schema_type_label(schema: dict) -> str:
    ref = schema.get("$ref")
    if ref is not None:
        name = ref.rsplit("/", 1)[-1]
        return f"[`{name}`](#{name.replace('_', '-')})"
    if "anyOf" in schema:
        return " \\| ".join(
            _schema_type_label(option) for option in schema["anyOf"]
        )
    if "const" in schema:
        return f"const `{json.dumps(schema['const'])}`"
    if "enum" in schema:
        return " \\| ".join(
            f"`{json.dumps(v)}`" for v in schema["enum"]
        )
    declared = schema.get("type", "any")
    types = declared if isinstance(declared, list) else [declared]
    label = " \\| ".join(f"`{t}`" for t in types)
    if "array" in types and "items" in schema:
        label += f" of {_schema_type_label(schema['items'])}"
    return label


def _object_table(schema: dict) -> list[str]:
    lines = [
        "| field | type | required | description |",
        "|---|---|---|---|",
    ]
    required = set(schema.get("required", ()))
    for name, sub in schema.get("properties", {}).items():
        description = sub.get("description", "").replace("\n", " ")
        lines.append(
            f"| `{name}` | {_schema_type_label(sub)} "
            f"| {'yes' if name in required else 'no'} "
            f"| {description} |"
        )
    return lines


def schema_markdown() -> str:
    """Render :data:`REPORT_SCHEMA` as the markdown reference page.

    This is the single source of the checked-in
    ``docs/report-schema.md``; ``tests/test_documentation.py`` fails if
    the file and this function's output ever differ.
    """
    lines = [
        "# JSON report schema reference",
        "",
        "<!-- GENERATED from repro.core.report.REPORT_SCHEMA -- do not",
        "     edit by hand.  Regenerate with:",
        "     PYTHONPATH=src python -m repro.core.report > "
        "docs/report-schema.md -->",
        "",
        f"Schema id: `{REPORT_SCHEMA['$id']}` · "
        f"version: `{REPORT_SCHEMA_VERSION}` (semver: field additions "
        "bump the minor version, meaning/type changes bump the major "
        "version).",
        "",
        REPORT_SCHEMA["description"],
        "",
        "Produce a payload with `AnalysisResult.to_json()` (or `repro "
        "analyze --json`); check one with "
        "`repro.core.validate_report(payload)`.",
        "",
        "## Top-level report",
        "",
    ]
    lines.extend(_object_table(REPORT_SCHEMA))
    for name, sub in REPORT_SCHEMA["$defs"].items():
        lines.append("")
        lines.append(f"## {name}")
        lines.append("")
        description = sub.get("description")
        if description:
            lines.append(description)
            lines.append("")
        lines.extend(_object_table(sub))
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Atomic file emission.
# ----------------------------------------------------------------------
def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A reader never observes a half-written file and a SIGKILL mid-write
    leaves the previous contents intact: the text lands in a uniquely
    named temporary sibling, is fsync'd, and is renamed over the target
    in one atomic step.  Used for every JSON artifact the package
    persists -- bench results, the serve result cache -- where a torn
    file would poison later runs.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path, payload, *, indent: int = 2) -> None:
    """Serialize ``payload`` and :func:`atomic_write_text` it to ``path``."""
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


# ----------------------------------------------------------------------
# Classic text helpers.
# ----------------------------------------------------------------------
def format_ns(seconds: float, digits: int = 3) -> str:
    """Render a time in nanoseconds."""
    return f"{seconds * 1e9:.{digits}f} ns"


def design_fingerprint(netlist: Netlist, graph: StageGraph) -> str:
    """One-paragraph structural summary of a design."""
    stats = netlist.stats()
    census = archetype_census(netlist, graph)
    census_text = ", ".join(
        f"{kind}: {count}" for kind, count in census.items() if count
    )
    return (
        f"{netlist.name}: {stats['devices']} devices "
        f"({stats['enh']} enh / {stats['dep']} dep), "
        f"{stats['nodes']} nodes, {len(graph)} stages "
        f"[{census_text}], "
        f"{stats['inputs']} inputs, {stats['outputs']} outputs, "
        f"{stats['clocks']} clocks"
    )


def slack_histogram(
    arrivals: ArrivalMap,
    bins: int = 10,
) -> list[tuple[float, float, int]]:
    """Histogram of node arrival times: ``(low, high, count)`` per bin.

    The "timing profile" figure of a chip (experiment R-F1): most nodes
    settle early, a thin tail defines the critical region.
    """
    times = sorted(
        {a.node: a.time for a in arrivals.items() if a.pred is not None}.values()
    )
    if not times:
        return []
    low, high = times[0], times[-1]
    if high == low:
        return [(low, high, len(times))]
    width = (high - low) / bins
    counts = [0] * bins
    for t in times:
        idx = min(int((t - low) / width), bins - 1)
        counts[idx] += 1
    return [
        (low + i * width, low + (i + 1) * width, counts[i]) for i in range(bins)
    ]


def format_table(
    headers: list[str],
    rows: list[list[str]],
    *,
    title: str | None = None,
) -> str:
    """Plain-text aligned table (used by benches to print paper tables)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - doc regeneration helper
    print(schema_markdown(), end="")
