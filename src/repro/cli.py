"""Command-line front end.

Because the live Internet is replaced by the simulator, every invocation
names a scenario topology to probe:

* ``tracenet trace --scenario figure2 --source A --dest D`` — one session,
  traceroute-style output with subnet annotations;
* ``tracenet survey --network internet2`` — the Table 1/2 experiment:
  trace one target per ground-truth subnet, print the distribution table
  and similarity rates;
* ``tracenet crossval`` — the Section 4.2 experiment: three vantages over
  the four-ISP internet (Figures 6–9);
* ``tracenet protocols`` — Table 3: ICMP vs UDP vs TCP;
* ``tracenet radar --network geant --churn-count 4`` — continuous
  re-surveys over a network mutating under the collector, incremental
  dirty-prefix re-probing, per-round archive diffs;
* ``tracenet diff old.json new.json`` — the offline archive diff (bit
  identical to the radar's in-run diffs).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .baselines import Traceroute
from .core import TraceNET
from .events import ProgressSink
from .experiments import SurveyOutcome
from .metrics import MetricsRegistry, render_prometheus, stats_from_journal
from .netsim import Protocol, format_ip, ip
from .runner import CHECKPOINT_FILENAME
from .runspec import RADAR_DEFAULTS, Run, RunSpec, RunSpecError
from .topogen import figures
from .transport import JournalError, ReplayMismatch, ReplayTransport

#: Failures a command reports as one line on stderr, exiting 2: bad input
#: files, contradicted run descriptions, journals that do not replay.
COMMAND_ERRORS = (OSError, ValueError, JournalError, ReplayMismatch)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``tracenet`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except COMMAND_ERRORS as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracenet",
        description="TraceNET (IMC 2010) reproduction on a network simulator",
    )
    subparsers = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    trace = subparsers.add_parser("trace", help="one tracenet session")
    trace.add_argument("--scenario", choices=("figure2", "figure3"),
                       help="default: figure3")
    trace.add_argument("--source", default=None,
                       help="vantage host id (default: the scenario's first)")
    trace.add_argument("--dest", default=None,
                       help="destination IP (default: a far interface)")
    trace.add_argument("--protocol", choices=("icmp", "udp", "tcp"),
                       help="default: icmp")
    trace.add_argument("--compare-traceroute", action="store_true",
                       help="also print the plain traceroute view")
    trace.add_argument("--json", action="store_true", dest="as_json")
    _add_transport_options(trace)
    trace.set_defaults(handler=cmd_trace)

    survey = subparsers.add_parser(
        "survey", help="Table 1/2: accuracy over Internet2 or GEANT")
    survey.add_argument("--network", choices=("internet2", "geant"),
                        help="default: internet2")
    survey.add_argument("--seed", type=int, help="default: 7")
    survey.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help=f"checkpoint the survey to DIR/{CHECKPOINT_FILENAME}; a "
                             "re-run over the same directory resumes")
    survey.add_argument("--progress", action="store_true",
                        help="render a progress bar on stderr")
    _add_transport_options(survey)
    survey.set_defaults(handler=cmd_survey)

    crossval = subparsers.add_parser(
        "crossval", help="Figures 6-9: three vantages over four ISPs")
    crossval.add_argument("--seed", type=int, default=42)
    crossval.add_argument("--scale", type=float, default=0.4)
    crossval.add_argument("--targets-per-isp", type=int, default=60)
    crossval.set_defaults(handler=cmd_crossval)

    protocols = subparsers.add_parser(
        "protocols", help="Table 3: ICMP vs UDP vs TCP probing")
    protocols.add_argument("--seed", type=int, default=42)
    protocols.add_argument("--scale", type=float, default=0.4)
    protocols.add_argument("--targets-per-isp", type=int, default=60)
    protocols.set_defaults(handler=cmd_protocols)

    map_cmd = subparsers.add_parser(
        "map", help="collect, merge and print a subnet-level topology map")
    map_cmd.add_argument("--scenario", choices=("figure2", "figure3"),
                         default="figure2")
    map_cmd.add_argument("--dot", action="store_true",
                         help="emit GraphViz instead of the adjacency list")
    map_cmd.add_argument("--save", default=None, metavar="PATH",
                         help="also save the per-vantage archives as JSON")
    map_cmd.set_defaults(handler=cmd_map)

    overhead_cmd = subparsers.add_parser(
        "overhead", help="Section 3.6: measured probe cost vs the model")
    overhead_cmd.add_argument("--sizes", default="2,4,6,10,14,22",
                              help="comma-separated subnet sizes")
    overhead_cmd.set_defaults(handler=cmd_overhead)

    export_cmd = subparsers.add_parser(
        "export", help="export a ground-truth scenario (topology + policy) "
                       "as JSON")
    export_cmd.add_argument("--network", choices=("internet2", "geant"),
                            default="internet2")
    export_cmd.add_argument("--seed", type=int, default=7)
    export_cmd.add_argument("--out", required=True, metavar="PATH")
    export_cmd.set_defaults(handler=cmd_export)

    radar = subparsers.add_parser(
        "radar", help="continuous re-surveys over a churning network with "
                      "incremental dirty-prefix re-probing")
    radar.add_argument("--network", choices=("internet2", "geant"),
                       help="default: geant")
    radar.add_argument("--seed", type=int, help="default: 7")
    radar.add_argument("--limit", type=int, metavar="N",
                       help="survey only the first N targets")
    radar.add_argument("--full", action="store_true", default=None,
                       help="re-probe every target every round instead of "
                            "only the dirty prefixes")
    # Like every flag that shapes the probe stream the radar config flags
    # default to None, so ``--replay`` can tell a given flag from an absent
    # one; ``repro.runspec.COMMAND_DEFAULTS`` has the defaults.
    radar.add_argument("--rounds", type=int,
                       help="total rounds including the initial full "
                            "survey (default: 3)")
    radar.add_argument("--churn-count", type=int, metavar="N",
                       help="mutations in the seeded schedule (0 disables "
                            "churn entirely; default: 4)")
    radar.add_argument("--churn-seed", type=int, help="default: 7")
    radar.add_argument("--churn-start", type=int, metavar="PROBES",
                       help="probe count at which the first mutation "
                            "fires (default: 200)")
    radar.add_argument("--churn-interval", type=int, metavar="PROBES",
                       help="probes between mutations (default: 400)")
    radar.add_argument("--drop-rate", type=float,
                       help="seeded uniform response loss on the live "
                            "path (default: 0.0)")
    radar.add_argument("--fault-seed", type=int, help="default: 0")
    radar.add_argument("--out", default=None, metavar="DIR",
                       help="save per-round archives, diffs and the radar "
                            "summary there")
    radar.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the radar summary as JSON")
    _add_transport_options(radar)
    radar.set_defaults(handler=cmd_radar)

    diff_cmd = subparsers.add_parser(
        "diff", help="diff two collection archives offline (radar rounds, "
                     "checkpoints)")
    diff_cmd.add_argument("old", metavar="OLD", help="earlier archive JSON")
    diff_cmd.add_argument("new", metavar="NEW", help="later archive JSON")
    diff_cmd.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the full diff as JSON instead of the "
                               "summary paragraph")
    diff_cmd.add_argument("--out", default=None, metavar="PATH",
                          help="also write the diff JSON there")
    diff_cmd.set_defaults(handler=cmd_diff)

    stats_cmd = subparsers.add_parser(
        "stats", help="replay a probe or event journal offline and print "
                      "its metrics")
    stats_cmd.add_argument("journal", metavar="JOURNAL",
                           help="a JSONL probe journal written by --record, "
                                "or a session-event journal written by "
                                "--events")
    stats_cmd.add_argument("--format", choices=("json", "prometheus"),
                           default="json", dest="metrics_format")
    stats_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="write the metrics there instead of stdout")
    stats_cmd.add_argument("--heuristics", action="store_true",
                           help="also print the per-rule H1-H9 attribution "
                                "table (fires, probes charged, verdicts, "
                                "subnet-growth outcomes)")
    stats_cmd.set_defaults(handler=cmd_stats)

    spans_cmd = subparsers.add_parser(
        "spans", help="derive a journal's deterministic span tree offline "
                      "(probe or event journals)")
    spans_cmd.add_argument("journal", metavar="JOURNAL",
                           help="a probe journal (--record) or a "
                                "session-event journal (--events)")
    spans_cmd.add_argument("--json", action="store_true", dest="as_json",
                           help="emit the tree as JSON instead of the "
                                "critical-path / heuristics report")
    spans_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="write the JSON tree there (implies --json)")
    spans_cmd.add_argument("--chrome-out", default=None, metavar="PATH",
                           help="write a Chrome trace-event document "
                                "(empty for untimed offline trees)")
    spans_cmd.set_defaults(handler=cmd_spans)
    return parser


def _write_text(path: str, payload: str) -> None:
    """Write ``payload`` to a file, or to stdout for ``-``."""
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(payload)


def _json_text(payload) -> str:
    """The JSON of an artifact file: sorted keys, indent 1, final newline."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _write_metrics(registry: MetricsRegistry, path: str, fmt: str) -> None:
    """Render a registry as JSON or Prometheus text, to a file or stdout."""
    _write_text(path, render_prometheus(registry) if fmt == "prometheus"
                else json.dumps(registry.full_snapshot(), indent=2,
                                sort_keys=True) + "\n")


def _add_transport_options(command: argparse.ArgumentParser) -> None:
    """The transport-seam options every collection command shares."""
    command.add_argument("--record", default=None, metavar="JOURNAL",
                         help="journal every probe/response exchange to "
                              "this JSONL file")
    command.add_argument("--replay", default=None, metavar="JOURNAL",
                         help="re-serve a recorded journal instead of "
                              "probing the simulator; the run is rebuilt "
                              "from the journal header, and a flag that "
                              "contradicts it is an error")
    command.add_argument("--events", default=None, metavar="PATH",
                         help="write the session-event stream to this "
                              "JSONL file")
    command.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write the run's metrics registry there "
                              "('-' for stdout)")
    command.add_argument("--metrics-format", choices=("json", "prometheus"),
                         default="json",
                         help="metrics file format (default: json)")
    command.add_argument("--batch-window", type=int, metavar="N",
                         help="dispatch ladder/sweep probes through the "
                              "transport batch API, up to N per batch "
                              "(1 keeps the probe stream identical to the "
                              "serial path, > 1 is speculative; default: "
                              "0, serial per-probe loop)")
    command.add_argument("--stop-sets", action="store_true", default=None,
                         help="Doubletree stop sets: suppress re-probing of "
                              "path prefixes already traced this session "
                              "(fewer probes, same map)")
    command.add_argument("--spans-out", default=None, metavar="PATH",
                         help="write the run's deterministic span tree "
                              "there as JSON ('-' for stdout); the same "
                              "tree 'tracenet spans' derives offline")
    command.add_argument("--chrome-out", default=None, metavar="PATH",
                         help="write a Chrome trace-event JSON flamegraph "
                              "of the run (timing plane)")


def _write_tree(root, spans_out: Optional[str],
                chrome_out: Optional[str]) -> None:
    """Write a span tree as JSON ('-' for stdout) and as a Chrome trace."""
    if spans_out:
        _write_text(spans_out, _json_text(root.to_dict()))
        if spans_out != "-":
            print(f"wrote span tree to {spans_out}", file=sys.stderr)
    if chrome_out:
        from .tracing import chrome_trace, write_chrome_trace

        write_chrome_trace(chrome_out, chrome_trace(root))
        print(f"wrote Chrome trace to {chrome_out}", file=sys.stderr)


def _open_run(args, shape: str, **given) -> Run:
    """The command's run: live from its flags, or rebuilt from the
    --replay journal's header (a flag contradicting it is an error)."""
    if args.record and args.replay:
        raise RunSpecError("--record and --replay are mutually exclusive")
    given.update(batch_window=args.batch_window, stop_sets=args.stop_sets)
    if args.replay:
        transport = ReplayTransport(args.replay)
        spec = RunSpec.from_header(transport.metadata, shape, **given)
        return spec.build(transport=transport)
    return RunSpec.from_flags(shape, **given).build(record=args.record)


def _execute(run: Run, args, sinks=(), checkpoint_path=None):
    """Execute a run with the --events/--spans-out/--metrics-out sinks.

    The span tracer's clock feeds only the quarantined timing plane: the
    ``--spans-out`` JSON is the deterministic serialization, bit-identical
    to what ``tracenet spans`` derives from the run's journal offline.
    """
    registry = MetricsRegistry() if args.metrics_out else None
    tracer = None
    if args.spans_out or args.chrome_out:
        from time import perf_counter

        from .tracing import SpanBuilder

        tracer = SpanBuilder(clock=perf_counter)
    outcome = run.execute(events_path=args.events, sinks=sinks,
                          tracer=tracer, registry=registry,
                          checkpoint_path=checkpoint_path)
    if registry is not None:
        _write_metrics(registry, args.metrics_out, args.metrics_format)
    if tracer is not None:
        _write_tree(tracer.finish(), args.spans_out, args.chrome_out)
    return outcome


def cmd_trace(args) -> int:
    run = _open_run(args, "trace", scenario=args.scenario,
                    vantage=args.source,
                    destination=ip(args.dest) if args.dest else None,
                    protocol=args.protocol)
    result = _execute(run, args)
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.describe())
    if args.compare_traceroute:
        if run.network is None:
            print("(--compare-traceroute needs the simulator; "
                  "skipped under --replay)", file=sys.stderr)
        else:
            baseline = Traceroute(run.network.engine(), run.spec.vantage,
                                  protocol=Protocol(run.spec.protocol))
            print()
            print("traceroute view:")
            for hop in baseline.trace(run.spec.destination).hops:
                addr = (format_ip(hop.address)
                        if hop.address is not None else "*")
                print(f"{hop.ttl:3d}  {addr}")
    return 0


def cmd_survey(args) -> int:
    if args.checkpoint_dir is not None and (args.record or args.replay):
        # A resumed run would journal only the targets it still probes.
        print("--checkpoint-dir cannot be combined with --record/--replay",
              file=sys.stderr)
        return 2
    run = _open_run(args, "survey", network=args.network, seed=args.seed)
    mode = ("replay" if args.replay
            else "serial, recording" if args.record else "serial")
    checkpoint_path = None
    if args.checkpoint_dir is not None:
        import os

        os.makedirs(args.checkpoint_dir, exist_ok=True)
        checkpoint_path = os.path.join(args.checkpoint_dir,
                                       CHECKPOINT_FILENAME)
        mode = "serial, checkpointed"
    archive = _execute(run, args,
                       sinks=[ProgressSink()] if args.progress else [],
                       checkpoint_path=checkpoint_path)
    name = run.spec.network
    print(SurveyOutcome.of(run, archive, name).render(
        "Table 1: Internet2, original and collected subnet distribution"
        if name == "internet2" else
        "Table 2: GEANT, original and collected subnet distribution"))
    print(f"probes sent: {run.tool.prober.stats.sent} ({mode})")
    return 0


def cmd_crossval(args) -> int:
    from .experiments import run_cross_validation

    print(run_cross_validation(seed=args.seed, scale=args.scale,
                               per_isp=args.targets_per_isp).render())
    return 0


def cmd_protocols(args) -> int:
    from .experiments import run_protocol_comparison

    print(run_protocol_comparison(seed=args.seed, scale=args.scale,
                                  per_isp=args.targets_per_isp).render())
    return 0


def cmd_map(args) -> int:
    from .mapping import (
        CollectionArchive,
        map_from_collections,
        render_adjacency,
        save_archive,
    )

    scenario = (figures.figure2_network() if args.scenario == "figure2"
                else figures.figure3_network())
    collections = {}
    traces = []
    host_ids = sorted(scenario.hosts)
    for source in host_ids:
        tool = TraceNET(scenario.engine(), source)
        destinations = [scenario.topology.hosts[other].address
                        for other in host_ids if other != source]
        if not destinations:
            # Single-vantage scenario: trace toward every router instead.
            destinations = sorted(
                min(router.addresses)
                for router in scenario.topology.routers.values())
        for destination in destinations:
            traces.append(tool.trace(destination))
        collections[source] = tool.collected_subnets
    topo_map = map_from_collections(collections, traces)
    print(topo_map.summary())
    print()
    if args.dot:
        print(topo_map.to_dot(name=args.scenario))
    else:
        print(render_adjacency(topo_map))
    if args.save is not None:
        for vantage, subnets in collections.items():
            archive = CollectionArchive(vantage=vantage, subnets=list(subnets),
                                        metadata={"scenario": args.scenario})
            path = f"{args.save.rstrip('/')}/{args.scenario}-{vantage}.json"
            save_archive(path, archive)
            print(f"saved {path}")
    return 0


def cmd_overhead(args) -> int:
    from . import experiments

    sizes = tuple(int(part) for part in args.sizes.split(",") if part)
    outcome = experiments.run_overhead_sweep(sizes=sizes)
    print(outcome.render())
    return 0


def cmd_export(args) -> int:
    from .netsim import save_scenario

    network = RunSpec.from_flags("survey", network=args.network,
                                 seed=args.seed).load_network()
    save_scenario(args.out, network.topology, network.policy)
    print(f"exported {args.network} (seed {args.seed}) to {args.out}")
    print(f"  {network.topology.summary()}")
    print(f"  {network.policy.describe()}")
    return 0


def cmd_radar(args) -> int:
    import os

    from .mapping import save_archive

    radar_flags = {key: getattr(args, key) for key in RADAR_DEFAULTS
                   if key != "incremental"}
    run = _open_run(args, "radar", network=args.network, seed=args.seed,
                    limit=args.limit, **radar_flags,
                    incremental=None if args.full is None else not args.full)
    mode = ("replay" if args.replay
            else "live, recording" if args.record else "live")
    outcome = _execute(run, args)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for rnd in outcome.rounds:
            save_archive(os.path.join(args.out, f"round-{rnd.index}.json"),
                         rnd.archive)
            if rnd.diff is not None:
                _write_text(os.path.join(
                    args.out, f"diff-{rnd.index - 1}-{rnd.index}.json"),
                    _json_text(rnd.diff.to_dict()))
        _write_text(os.path.join(args.out, "radar.json"),
                    _json_text(outcome.to_dict()))
        print(f"saved {len(outcome.rounds)} round archive(s) to {args.out}",
              file=sys.stderr)

    if args.as_json:
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
        return 0
    spec, churn = run.spec, run.spec.radar["churn_count"]
    print(f"radar over {spec.network} (seed {spec.seed}): "
          f"{len(run.targets)} targets, {len(outcome.rounds)} rounds, "
          f"{'churn ' + str(churn) if churn > 0 else 'no churn'} "
          f"({mode})")
    for rnd in outcome.rounds:
        degraded = sum(1 for t in rnd.archive.traces if t.degraded)
        line = (f"round {rnd.index}: "
                f"{'full survey' if rnd.full else 'incremental'}, "
                f"probed {len(rnd.probed_targets)}/{len(run.targets)}, "
                f"{len(rnd.archive.subnets)} subnets, "
                f"{rnd.mutations_seen} mutation(s) absorbed"
                + (f", {degraded} degraded" if degraded else ""))
        print(line)
        if rnd.diff is not None and not rnd.diff.is_empty:
            for text in rnd.diff.describe().splitlines():
                print(f"    {text}")
    return 0


def cmd_diff(args) -> int:
    from .mapping import diff_archives, load_archive

    try:
        old = load_archive(args.old)
        new = load_archive(args.new)
    except (OSError, ValueError, KeyError) as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 2
    diff = diff_archives(old, new)
    payload = _json_text(diff.to_dict())
    if args.out:
        _write_text(args.out, payload)
        print(f"wrote diff to {args.out}", file=sys.stderr)
    if args.as_json:
        sys.stdout.write(payload)
    else:
        print(diff.describe())
    return 0


def cmd_stats(args) -> int:
    from .metrics import journal_kind, stats_from_events

    builder = None
    if args.heuristics:
        from .tracing import SpanBuilder

        builder = SpanBuilder()
    sinks = (builder,) if builder is not None else ()
    if journal_kind(args.journal) == "events":
        stats = stats_from_events(args.journal, extra_sinks=sinks)
    else:
        stats = stats_from_journal(args.journal, extra_sinks=sinks)
    print(stats.describe(), file=sys.stderr)
    if args.out:
        _write_metrics(stats.registry, args.out, args.metrics_format)
        print(f"wrote {args.metrics_format} metrics to {args.out}",
              file=sys.stderr)
    else:
        _write_metrics(stats.registry, "-", args.metrics_format)
    if builder is not None:
        from .tracing import render_heuristics_table

        print(render_heuristics_table(builder.finish()))
    return 0


def cmd_spans(args) -> int:
    from .tracing import per_trace_table, render_report, span_tree_from_journal

    root = span_tree_from_journal(args.journal)
    as_json = args.as_json or args.out
    if not as_json:
        print(render_report(root))
        print()
        print(per_trace_table(root))
    _write_tree(root, (args.out or "-") if as_json else None, args.chrome_out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
