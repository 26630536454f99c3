"""Command-line interface: the tool a 1983 design flow would have invoked.

Subcommands operate on ``.sim`` netlists (with this package's ``|I/|O/|K``
boundary extension records):

``analyze``   full timing analysis (combinational or two-phase), report to
              stdout; exits 1 on races.  ``--json`` emits the versioned
              report schema (docs/report-schema.md) instead of text;
              ``--trace`` prints per-phase timings to stderr;
              ``--on-error=quarantine|best-effort`` degrades gracefully
              around ERC/extraction failures instead of aborting;
              ``--workers N|auto`` extracts arcs on the persistent
              worker pool for large netlists; repeatable
              ``--corner NAME=SPEC`` runs a multi-corner (MCMM) sweep
              sharing the structural phases across corners
``explain``   causal chain behind one node's arrival time: every hop with
              its stage, arc family, and delay-model terms; the terms sum
              to the reported arrival exactly
``erc``       electrical rules check; exits 1 on errors
``flow``      signal-flow inference report; exits 1 if devices remain
              unresolved (hints needed)
``stats``     structural fingerprint (devices, stages, archetypes)
``simulate``  run a test-vector deck (set/cycle/settle/expect); exits 1 on
              failed expectations
``charge``    charge-sharing hazard check on dynamic nodes
``optimize``  critical-path resizing loop; writes the resized netlist

Example::

    python -m repro analyze chip.sim --top-k 3 --tech process.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .core import TimingAnalyzer, design_fingerprint
from .errors import ReproError
from .flow import HintSet, infer_flow
from .netlist import check as erc_check
from .netlist import sim_dumps, sim_load
from .opt import optimize
from .stages import decompose
from .tech import NMOS4, Technology
from .trace import Trace

__all__ = ["main"]


def _load_netlist(args) -> "Netlist":
    tech = Technology.from_json(args.tech) if args.tech else NMOS4
    with open(args.netlist) as fp:
        return sim_load(fp, tech=tech)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("netlist", help=".sim netlist file")
    parser.add_argument(
        "--tech", help="JSON technology/process file", default=None
    )


def _parse_input_arrivals(args) -> dict[str, float]:
    arrivals = {}
    for spec in args.input_arrival or ():
        name, _eq, value = spec.partition("=")
        if not _eq:
            raise SystemExit(f"--input-arrival needs name=ns, got {spec!r}")
        arrivals[name] = float(value) * 1e-9
    return arrivals


def _apply_hints(args, net) -> None:
    hints = HintSet()
    for spec in args.hint or ():
        pattern, _eq, direction = spec.partition("=")
        if not _eq:
            raise SystemExit(f"--hint needs pattern=direction, got {spec!r}")
        hints.add(pattern, direction)
    if len(hints):
        hints.apply(net)


def _workers_spec(value: str):
    """``--workers`` argument: a positive integer or the literal ``auto``.

    Zero and negative widths are rejected here, at the argument parser,
    instead of being silently clamped to serial deep in the engine.
    """
    if value == "auto":
        return value
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        )
    return workers


def _parse_corner_scenarios(args, base_tech):
    """``--corner`` arguments -> MCMM scenarios.

    Each spec is ``NAME=CORNER`` (``slow``/``typ``/``fast`` of the
    loaded technology), ``NAME=FILE.json`` (an explicit process file),
    or a bare corner name as shorthand for ``slow=slow`` etc.
    """
    from .core.mcmm import CORNER_NAMES, Scenario

    scenarios = []
    for spec in args.corner or ():
        name, _eq, value = spec.partition("=")
        if not _eq:
            name = value = spec
        if not name:
            raise SystemExit(
                f"--corner needs name=corner|file, got {spec!r}"
            )
        if value in CORNER_NAMES:
            tech = base_tech.corner(value)
        elif os.path.exists(value):
            tech = Technology.from_json(value)
        else:
            raise SystemExit(
                f"--corner {spec!r}: {value!r} is neither a corner "
                f"({'/'.join(CORNER_NAMES)}) nor a technology file"
            )
        scenarios.append(Scenario(name=name, tech=tech))
    return scenarios


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_analyze(args) -> int:
    net = _load_netlist(args)
    arrivals = _parse_input_arrivals(args)
    _apply_hints(args, net)
    trace = Trace() if args.trace else None
    analyzer = TimingAnalyzer(
        net,
        model=args.model,
        run_erc=not args.no_erc,
        workers=args.workers,
        trace=trace,
        on_error=args.on_error,
    )
    scenarios = _parse_corner_scenarios(args, net.tech)
    if scenarios:
        mcmm = analyzer.analyze_mcmm(
            scenarios, arrivals, top_k=args.top_k
        )
        if args.json:
            _print_json(mcmm.to_json())
        else:
            print(mcmm.report())
        if trace is not None:
            print(trace.summary(), file=sys.stderr)
        raced = any(
            result.clock_verification is not None
            and result.clock_verification.races
            for result in mcmm.results.values()
        )
        return 1 if raced else 0
    result = analyzer.analyze(input_arrivals=arrivals, top_k=args.top_k)
    if args.json:
        _print_json(result.to_json())
    else:
        print(result.report())
    if trace is not None:
        print(trace.summary(), file=sys.stderr)
    if result.clock_verification is not None and result.clock_verification.races:
        return 1
    return 0


def _cmd_explain(args) -> int:
    net = _load_netlist(args)
    arrivals = _parse_input_arrivals(args)
    _apply_hints(args, net)
    analyzer = TimingAnalyzer(
        net,
        model=args.model,
        run_erc=not args.no_erc,
        on_error=args.on_error,
    )
    scenarios = _parse_corner_scenarios(args, net.tech)
    if scenarios:
        # MCMM explain: each node's chain comes from its *dominant*
        # corner (the scenario in which it arrives latest), named by the
        # explanation's `scenario` field.
        mcmm = analyzer.analyze_mcmm(scenarios, arrivals)
        dominant = mcmm.result(mcmm.dominant_scenario())
        nodes = args.node or [
            path.endpoint for path in dominant.paths[:1]
        ]
        if not nodes:
            print("error: no critical path to explain; name a node",
                  file=sys.stderr)
            return 2
        payloads = []
        for node in nodes:
            explanation = mcmm.explain(
                node, args.transition, sensitivity=args.sensitivity
            )
            if args.json:
                payloads.append(explanation.to_json())
            else:
                print(explanation.format())
        if args.json:
            _print_json(payloads if len(payloads) > 1 else payloads[0])
        return 0
    result = analyzer.analyze(input_arrivals=arrivals)
    nodes = args.node or [
        path.endpoint for path in result.paths[: 1]
    ]
    if not nodes:
        print("error: no critical path to explain; name a node",
              file=sys.stderr)
        return 2
    payloads = []
    for node in nodes:
        explanation = analyzer.explain(
            node, args.transition, result=result,
            sensitivity=args.sensitivity,
        )
        if args.json:
            payloads.append(explanation.to_json())
        else:
            print(explanation.format())
    if args.json:
        _print_json(payloads if len(payloads) > 1 else payloads[0])
    return 0


def _cmd_erc(args) -> int:
    net = _load_netlist(args)
    violations = erc_check(net)
    if not violations:
        print(f"{net.name}: electrical rules clean")
        return 0
    for violation in violations:
        print(violation)
    errors = [v for v in violations if v.severity == "error"]
    print(f"{len(errors)} error(s), {len(violations) - len(errors)} warning(s)")
    return 1 if errors else 0


def _cmd_flow(args) -> int:
    net = _load_netlist(args)
    hints = HintSet()
    for spec in args.hint or ():
        pattern, _eq, direction = spec.partition("=")
        if not _eq:
            raise SystemExit(f"--hint needs pattern=direction, got {spec!r}")
        hints.add(pattern, direction)
    if len(hints):
        hints.apply(net)
    report = infer_flow(net)
    print(report.summary())
    if report.unresolved:
        print("unresolved devices (add --hint pattern=s->d|d->s|bidir):")
        for name in report.unresolved:
            print(f"  {name}")
        return 1
    return 0


def _cmd_stats(args) -> int:
    net = _load_netlist(args)
    print(design_fingerprint(net, decompose(net)))
    return 0


def _cmd_simulate(args) -> int:
    from .sim import parse_deck, run_deck

    net = _load_netlist(args)
    with open(args.deck) as fp:
        commands = parse_deck(fp.read())
    result = run_deck(net, commands)
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_charge(args) -> int:
    from .core import charge_sharing_report

    net = _load_netlist(args)
    hazards = charge_sharing_report(net, threshold=args.threshold)
    if args.json:
        _print_json({
            "schema": "repro-charge-report",
            "netlist": net.name,
            "threshold": args.threshold,
            "hazards": [
                {
                    "node": hazard.node,
                    "node_class": hazard.node_class,
                    "c_store": hazard.c_store,
                    "c_shared": hazard.c_shared,
                    "retention": hazard.ratio,
                    "via": list(hazard.via),
                }
                for hazard in hazards
            ],
        })
        return 1 if hazards else 0
    if not hazards:
        print(f"{net.name}: no charge-sharing hazards "
              f"(threshold {args.threshold})")
        return 0
    for hazard in hazards:
        print(hazard)
    return 1


def _cmd_optimize(args) -> int:
    net = _load_netlist(args)
    history = optimize(
        net,
        target=args.target * 1e-9 if args.target else None,
        iterations=args.iterations,
        factor=args.factor,
    )
    for step in history:
        print(
            f"iteration {step.iteration}: "
            f"{step.delay_before * 1e9:.3f} -> "
            f"{step.delay_after * 1e9:.3f} ns "
            f"({len(step.applied)} device(s) widened)"
        )
    if not history:
        print("nothing to improve (already at target or no candidates)")
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(sim_dumps(net))
        print(f"wrote resized netlist to {args.output}")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from .serve import TimingServer
    from .testing.faults import FAULT_PLAN_ENV, install_plan_from_env

    if os.environ.get(FAULT_PLAN_ENV):
        # Chaos-test hook: arm a scripted fault plan (crash/torn-write/
        # hang at named fault points) from the environment.  Production
        # runs never set this variable.
        install_plan_from_env()
    server = TimingServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        cache_dir=args.cache_dir,
        journal_dir=(None if args.no_journal else args.journal_dir),
        default_deadline=(
            args.deadline_ms / 1000.0 if args.deadline_ms else None
        ),
        default_on_error=args.on_error,
    )
    for name in server.recovered_designs:
        print(f"recovered {name}: journal replay")
    tech = Technology.from_json(args.tech) if args.tech else None
    for path in args.netlist:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in server.sessions:
            # Already rebuilt from its journal; the durable state (which
            # includes every applied delta) wins over the on-disk file.
            continue
        with open(path) as fp:
            sim_text = fp.read()
        info = server.load(name, {"sim": sim_text,
                                  **({"tech": tech.to_dict()} if tech else {})})
        print(f"loaded {name}: {info['devices']} devices, "
              f"{info['stages']} stages")

    drains: list[threading.Thread] = []

    def _graceful(signum, frame):
        # Runs on the main thread, inside serve_forever.  stop() waits for
        # serve_forever to return, so it must run elsewhere: start the
        # drain on a helper thread and return at once.  stop() drains
        # in-flight requests, ends serve_forever, and reaps the worker
        # pool; we then exit 0 -- a clean drain, which is what a
        # container supervisor sending SIGTERM wants.
        if not drains:
            drain = threading.Thread(target=server.stop, name="repro-drain")
            drains.append(drain)
            drain.start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    print(f"repro serve: listening on http://{args.host}:{server.port} "
          f"(designs: {len(server.sessions)}, workers: {args.workers}, "
          f"max in-flight: {args.max_inflight})",
          flush=True)
    server.serve_forever()
    # The drain thread is past shutdown() here but may still be closing
    # the journal and reaping the pool; let it finish before exiting.
    for drain in drains:
        drain.join()
    server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TV-class static timing analysis for nMOS .sim netlists",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="print full tracebacks instead of one-line diagnostics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the timing analyzer")
    _add_common(p)
    p.add_argument("--model", default="elmore",
                   choices=("elmore", "lumped", "pr-min", "pr-max"))
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--workers", type=_workers_spec, default=1,
                   metavar="N|auto",
                   help="arc-extraction pool width: a positive integer, "
                        "or 'auto' to size from the available CPUs; "
                        "parallel extraction only engages when the "
                        "crossover heuristic predicts a win, and results "
                        "are identical to serial either way (default: 1)")
    p.add_argument("--no-erc", action="store_true",
                   help="skip electrical rules (partial netlists)")
    p.add_argument("--corner", action="append", metavar="NAME=SPEC",
                   help="repeatable: add an MCMM scenario named NAME at "
                        "corner SPEC ('slow'/'typ'/'fast' of the loaded "
                        "technology, or a process JSON file; a bare "
                        "corner name works as shorthand).  With corners "
                        "the report is the merged MCMM view -- worst "
                        "arrival per node, dominant corner per path -- "
                        "and structural phases run once for all corners")
    p.add_argument("--input-arrival", action="append", metavar="NAME=NS")
    p.add_argument("--hint", action="append", metavar="PATTERN=DIR")
    p.add_argument("--json", action="store_true",
                   help="emit the versioned JSON report schema "
                        "(docs/report-schema.md) instead of text")
    p.add_argument("--trace", action="store_true",
                   help="print per-phase timing/counter summary to stderr")
    p.add_argument("--on-error", default="strict",
                   choices=("strict", "quarantine", "best-effort"),
                   help="error policy: fail fast (strict, default), "
                        "excise broken stages and analyze the rest "
                        "(quarantine), or additionally downgrade "
                        "recoverable errors (best-effort)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "explain",
        help="causal chain behind a node's arrival time",
        description="Print every hop behind a node's worst arrival: "
                    "stage, arc family (gate/transfer/channel), RC and "
                    "slope delay terms.  The terms sum to the reported "
                    "arrival exactly.  With no NODE, explains the "
                    "critical-path endpoint.",
    )
    _add_common(p)
    p.add_argument("node", nargs="*",
                   help="node(s) to explain (default: critical endpoint)")
    p.add_argument("--transition", choices=("rise", "fall"), default=None,
                   help="explain this transition (default: the worst one)")
    p.add_argument("--sensitivity", action="store_true",
                   help="attach per-parameter arrival slopes: which "
                        "technology parameter moves this path most "
                        "(parametric delay layer)")
    p.add_argument("--model", default="elmore",
                   choices=("elmore", "lumped", "pr-min", "pr-max"))
    p.add_argument("--no-erc", action="store_true",
                   help="skip electrical rules (partial netlists)")
    p.add_argument("--corner", action="append", metavar="NAME=SPEC",
                   help="repeatable: explain against an MCMM sweep over "
                        "these corners (see `repro analyze --help`); "
                        "each node's chain comes from its dominant "
                        "corner, which the explanation names")
    p.add_argument("--input-arrival", action="append", metavar="NAME=NS")
    p.add_argument("--hint", action="append", metavar="PATTERN=DIR")
    p.add_argument("--json", action="store_true",
                   help="emit the explanation(s) as JSON")
    p.add_argument("--on-error", default="strict",
                   choices=("strict", "quarantine", "best-effort"),
                   help="error policy (see `repro analyze --help`); "
                        "explaining a quarantined node reports why it "
                        "was excised")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("erc", help="electrical rules check")
    _add_common(p)
    p.set_defaults(func=_cmd_erc)

    p = sub.add_parser("flow", help="signal-flow inference report")
    _add_common(p)
    p.add_argument("--hint", action="append", metavar="PATTERN=DIR")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("stats", help="structural fingerprint")
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", help="run a test-vector deck")
    _add_common(p)
    p.add_argument("deck", help="vector deck file (set/cycle/settle/expect)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("charge", help="charge-sharing hazard check")
    _add_common(p)
    p.add_argument("--threshold", type=float, default=0.5,
                   help="minimum acceptable retention ratio")
    p.add_argument("--json", action="store_true",
                   help="emit the hazard list as JSON")
    p.set_defaults(func=_cmd_charge)

    p = sub.add_parser(
        "serve",
        help="resident analysis daemon (JSON over HTTP)",
        description="Hold parsed designs hot and answer "
                    "analyze/explain/charge/delta queries over HTTP; "
                    "see docs/cli.md for the endpoint reference.",
    )
    p.add_argument("netlist", nargs="*",
                   help=".sim netlist file(s) to pre-load (the stem "
                        "names the design); more can be loaded over HTTP")
    p.add_argument("--tech", help="JSON technology/process file",
                   default=None)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8731,
                   help="TCP port (0 picks a free one; default 8731)")
    p.add_argument("--workers", type=_workers_spec, default=1,
                   metavar="N|auto",
                   help="arc-extraction pool width per engine run, as in "
                        "'analyze' (default: 1)")
    p.add_argument("--max-inflight", type=int, default=8, metavar="N",
                   help="admission limit: analysis requests beyond this "
                        "are refused with 429 + Retry-After (default: 8)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist the content-addressed result cache "
                        "here (atomic writes; survives restarts)")
    p.add_argument("--journal-dir", default=None, metavar="DIR",
                   help="write-ahead journal + snapshots here; on "
                        "restart, designs found in DIR are recovered "
                        "byte-identically before any preload")
    p.add_argument("--no-journal", action="store_true",
                   help="disable the durability layer even if "
                        "--journal-dir is given (sessions are "
                        "memory-only)")
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="default per-request extraction deadline; "
                        "requests may override with their own "
                        "'deadline_ms'")
    p.add_argument("--on-error",
                   choices=("strict", "quarantine", "best-effort"),
                   default="strict",
                   help="default error policy for loaded designs "
                        "(requests may override per call)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("optimize", help="critical-path resizing loop")
    _add_common(p)
    p.add_argument("--iterations", type=int, default=8)
    p.add_argument("--factor", type=float, default=1.5)
    p.add_argument("--target", type=float, default=None, metavar="NS")
    p.add_argument("-o", "--output", default=None,
                   help="write the resized netlist here (.sim)")
    p.set_defaults(func=_cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments, dispatch, map errors to exit codes.

    Expected failures (missing files, any :class:`ReproError`) print a
    one-line ``error:`` diagnostic and exit 2.  *Unexpected* exceptions
    are mapped to the same contract -- one line, exit 2 -- instead of
    dumping a traceback on the user; pass ``--debug`` to re-raise with
    the full traceback.  ``SystemExit``/``KeyboardInterrupt`` pass
    through untouched, and a ``BrokenPipeError`` (the report was piped
    into ``head``/``less`` and the reader quit) exits 0 silently.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The stdout consumer went away mid-report; not an error.  Point
        # stdout at devnull so interpreter shutdown does not raise again
        # on the final flush (no-op when stdout has no real fd, e.g.
        # under test capture).
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    except (FileNotFoundError, ReproError) as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if args.debug:
            raise
        print(
            f"internal error ({type(exc).__name__}): {exc} "
            "[rerun with --debug for a traceback]",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
