#!/usr/bin/env python3
"""Survey-level benchmark of the tracenet collector.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reference-survey --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced survey and reports the per-layer ledger.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable summary.  See perfbench/README.md.

Each run measures in a child process of its own (``--role measure``), so
``peak_rss_mb`` is that workload's high-water mark alone, and the
journal recording that makes the ``journal-replay`` inputs stays in the
parent.  The traced run's ``tracemalloc`` pass (``--role alloc``) runs
in a third process, so it distorts neither timings nor memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Surveys per run at least: the archive digests of a run's surveys must
#: agree, so there must be two.
MIN_REPS = 2
#: Set-ups per run at least; set-ups after the last survey make up the
#: difference (isp-scale fits two surveys in a run).
MIN_SETUPS = 5
#: Share of the traced wall time by which the layers' self times may
#: miss it, and the most the ``bench`` root may keep for itself.
LEDGER_SHARE = 0.05
#: Latency samples beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Every child must be done this long after the run started.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("traces_per_s", "traces/s"),
    ("trace_ms_p50", "ms"),
    ("trace_ms_tail", "ms"),
    ("wire_probes", "probes"),
    ("exact_match_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("topogen.build_s", "s"),
    ("topogen.interfaces", "count"),
    ("topogen.alloc_mb", "MB"),
    ("routing.calls", "count"),
    ("routing.self_s", "s"),
    ("routing.bfs_runs", "count"),
    ("routing.alloc_mb", "MB"),
    ("engine.calls", "count"),
    ("engine.probes", "probes"),
    ("engine.self_s", "s"),
    ("engine.path_cache_hit_ratio", "ratio"),
    ("engine.bulk_hit_ratio", "ratio"),
    ("engine.alloc_mb", "MB"),
    ("dynamics.mutations_applied", "count"),
    ("dynamics.self_s", "s"),
    ("transport.self_s", "s"),
    ("transport.fault_drops", "count"),
    ("transport.replay_parse_s", "s"),
    ("probing.requests", "count"),
    ("probing.wire_ratio", "ratio"),
    ("probing.retries", "count"),
    ("probing.self_s", "s"),
    ("core.traces", "count"),
    ("core.self_s", "s"),
    ("core.subnets_collected", "count"),
    ("core.degraded_traces", "count"),
    ("runner.self_s", "s"),
    ("radar.round_s", "s"),
    ("radar.reprobe_ratio", "ratio"),
    ("events.delivered", "count"),
    ("events.tallied", "count"),
    ("events.self_s", "s"),
    ("metrics.self_s", "s"),
    ("tracing.self_s", "s"),
    ("mapping.archive_s", "s"),
    ("mapping.diff_s", "s"),
    ("bench.self_s", "s"),
    ("ledger.wall_s", "s"),
    ("ledger.unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
)

#: Ledger layers, in the order the summary prints them.
LAYERS = ("runner", "core", "probing", "transport", "dynamics", "engine",
          "routing", "events", "metrics", "tracing", "mapping", "bench")

#: tracemalloc attribution: file -> layer.  The network model classes
#: live in ``netsim`` but hold what ``topogen`` builds.
MODEL_FILES = ("topology.py", "subnet.py", "router.py", "iface.py",
               "builder.py", "responsiveness.py")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("measure", "alloc"),
                        default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """This process's resident high-water mark, in MB (10^6 bytes).

    ``ru_maxrss`` is in kilobytes on Linux and in bytes on macOS.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (usage if sys.platform == "darwin" else usage * 1024) / 1e6


def tail(samples):
    """(value, percentile) of the highest percentile that still has
    ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# -- the measuring child ------------------------------------------------------


def measure(payload) -> dict:
    """Untraced surveys for ``seconds``: the end-to-end metrics.

    Surveys cycle through the run's sub-seeds, so a run averages over
    several seeded instances of its workload.
    """
    import workloads as W

    workload = payload["workload"]
    seeds = W.run_seeds(payload["workload"], payload["seed"])
    journals = payload.get("journals") or {}
    clock = time.perf_counter
    reps, setups, errors = [], [], []
    latencies, exact, rss = {}, {}, None
    started = clock()
    while len(reps) < MIN_REPS * len(seeds) \
            or clock() - started < payload["seconds"]:
        seed = seeds[len(reps) % len(seeds)]
        gc.collect()
        parts = W.survey(workload, seed, journals.get(str(seed)))
        samples = [s for part in parts for s in part.latencies]
        latencies.setdefault(seed, []).extend(samples)
        setups.append(sum(p.setup_s for p in parts))
        reps.append({
            "seed": seed,
            "calls": sum(p.calls for p in parts),
            "collection_s": sum(p.collection_s for p in parts),
            "tail": tail(samples) if samples else (0.0, 0.0),
            "samples": len(samples),
            "attempted": sum(p.attempted for p in parts),
            "failed": sum(p.failed for p in parts),
            "wire": sum(p.wire_probes for p in parts),
            "digests": [p.digest for p in parts],
            "violations": sum(p.registry.value("overhead_violations_total")
                              for p in parts if p.registry is not None),
        })
        # ru_maxrss is a lifetime high-water mark: read it once every
        # instance has been surveyed, before later surveys add heap
        # fragmentation to it.
        if len(reps) == len(seeds):
            rss = peak_rss_mb()
        errors.extend(f"{p.name}: {p.error}" for p in parts if p.error)
        if errors:
            break
        if seed not in exact:
            exact[seed] = list(W.exactness(workload, seed, parts))
        parts = None
    if rss is None:
        rss = peak_rss_mb()
    while len(setups) < MIN_SETUPS and not errors:
        setups.append(W.setup_only(workload, seeds[0], journals.get(
            str(seeds[0]))))
        gc.collect()

    by_seed = {}
    for rep in reps:
        by_seed.setdefault(rep["seed"], []).append(rep)
    first = {seed: group[0] for seed, group in by_seed.items()}
    # Per instance: the median survey, so an interrupted or unlucky survey
    # moves nothing; then the instances pooled with equal weight.
    collection_s = {seed: statistics.median(r["collection_s"] for r in group)
                    for seed, group in by_seed.items()}
    checks = {
        "digest_stable": all(r["digests"] == first[r["seed"]]["digests"]
                             for r in reps),
        "wire_probes_stable": all(r["wire"] == first[r["seed"]]["wire"]
                                  for r in reps),
    }
    if workload in W.INSTRUMENTED:
        checks["auditor_clean"] = all(r["violations"] == 0 for r in reps)
    pooled = [sum(e[0] for e in exact.values()),
              sum(e[1] for e in exact.values())]
    tail_pcts = sorted(r["tail"][1] for r in reps)
    return {
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "errors": errors,
        "checks": checks,
        "digests": {str(seed): rep["digests"] for seed, rep in first.items()},
        "exact": {str(seed): value for seed, value in exact.items()},
        "notes": [
            f"sub-seeds {seeds}: {len(reps)} surveys, {len(setups)} set-ups",
            f"trace_ms_p50 over {sum(map(len, latencies.values()))} samples",
            f"trace_ms_tail: per survey p{tail_pcts[0]:.2f}-p"
            f"{tail_pcts[-1]:.2f} of {min(r['samples'] for r in reps)}-"
            f"{max(r['samples'] for r in reps)} samples",
        ],
        "metrics": {
            "setup_s": statistics.median(setups),
            "traces_per_s": ratio(sum(r["calls"] for r in first.values()),
                                  sum(collection_s.values())),
            "trace_ms_p50": statistics.mean(
                statistics.median(samples) if samples else 0.0
                for samples in latencies.values()) * 1e3,
            "trace_ms_tail": statistics.mean(
                statistics.median(r["tail"][0] for r in group)
                for group in by_seed.values()) * 1e3,
            "wire_probes": statistics.mean(r["wire"]
                                           for r in first.values()),
            "exact_match_rate": ratio(*pooled),
            "peak_rss_mb": rss,
        },
    }


def _program_counts(parts) -> dict:
    """What the program itself counted during one survey."""
    counts = {
        "prober_sent": 0, "engine_probes": 0, "replay_consumed": 0,
        "bfs_runs": 0, "path_cache_hits": 0, "batched_probes": 0,
        "bulk_hits": 0, "fault_drops": 0, "retries": 0, "subnets": 0,
        "build_s": 0.0, "parse_s": 0.0, "interfaces": 0, "rounds": 0,
        "reprobed": 0, "targets": 0,
    }
    for part in parts:
        tool = part.tool
        counts["prober_sent"] += tool.prober.stats.sent
        counts["retries"] += tool.prober.stats.retries
        counts["subnets"] += len(tool.collected_subnets)
        counts["build_s"] += part.build_s
        counts["parse_s"] += part.parse_s
        counts["targets"] += len(part.targets)
        if part.engine is not None:
            stats = part.engine.stats
            counts["engine_probes"] += stats.probes_sent
            counts["path_cache_hits"] += stats.path_cache_hits
            counts["batched_probes"] += stats.batched_probes
            counts["bulk_hits"] += stats.bulk_lookup_hits
            counts["bfs_runs"] += part.engine.routing.bfs_runs
        if part.network is not None:
            counts["interfaces"] += sum(
                len(subnet.addresses)
                for subnet in part.network.topology.subnets.values())
        if part.replay is not None:
            counts["replay_consumed"] += part.replay.cursor
        if part.fault is not None:
            fault = part.fault
            counts["fault_drops"] += (fault.injected_drops
                                      + fault.burst_drops
                                      + fault.intermittent_drops)
        if part.radar is not None:
            counts["rounds"] += len(part.radar.rounds)
            counts["reprobed"] += sum(len(r.probed_targets)
                                      for r in part.radar.rounds[1:])
    return counts


def _mask_check(proxies, counter_counts) -> bool:
    """Each kind of sink saw, per event type, what a CounterSink counted
    over the same surveys: as payloads where the sink is interested, as
    tallies where it only tallies, else not at all."""
    from repro import events

    kinds = {}
    for proxy in proxies:
        entry = kinds.setdefault(proxy.__name__, (proxy, {}, {}))
        for cls, count in proxy.delivered.items():
            entry[1][cls.__name__] = entry[1].get(cls.__name__, 0) + count
        for cls, count in proxy.tallied.items():
            entry[2][cls.__name__] = entry[2].get(cls.__name__, 0) + count
    for proxy, delivered, tallied in kinds.values():
        if not (set(delivered) | set(tallied)) <= set(counter_counts):
            return False
        interests = getattr(proxy, "interests", None)
        for name, count in counter_counts.items():
            cls = getattr(events, name)
            wanted = interests is None or any(
                issubclass(cls, interest) for interest in interests)
            expected = (count if wanted else 0,
                        count if not wanted and hasattr(proxy, "tally")
                        else 0)
            if (delivered.get(name, 0), tallied.get(name, 0)) != expected:
                return False
    return True


def traced(payload) -> dict:
    """Untraced and traced surveys in turn: the per-layer ledger."""
    import workloads as W
    from ledger import Ledger, patched

    workload = payload["workload"]
    seed = W.run_seeds(payload["workload"], payload["seed"])[0]
    journals = (payload.get("journals") or {}).get(str(seed))
    clock = time.perf_counter
    ledger = Ledger()
    untraced_s, traced_s, digests, errors = [], [], [], []
    attempted = failed = 0
    program = {}
    first_proxies = None
    started = clock()
    while not traced_s or clock() - started < payload["seconds"]:
        for tracing in (False, True):
            gc.collect()
            mode = W.Mode(latencies=False,
                          ledger=ledger if tracing else None)
            mark = len(ledger.proxies)
            if tracing:
                with patched(ledger):
                    parts = W.survey(workload, seed, journals, mode)
            else:
                parts = W.survey(workload, seed, journals, mode)
            attempted += sum(p.attempted for p in parts)
            failed += sum(p.failed for p in parts)
            errors.extend(f"{p.name}: {p.error}" for p in parts if p.error)
            wall = sum(p.collection_s + p.digest_s for p in parts)
            (traced_s if tracing else untraced_s).append(wall)
            digests.append([p.digest for p in parts])
            if tracing:
                if first_proxies is None:
                    first_proxies = ledger.proxies[mark:]
                for key, value in _program_counts(parts).items():
                    program[key] = program.get(key, 0) + value
            parts = None
            if errors:
                break
        if errors:
            break
    runs = len(traced_s)

    checks = {"wrappers_change_nothing": all(d == digests[0]
                                              for d in digests)}
    wire = ledger.counts["transport.wire_probes"]
    if workload == "journal-replay":
        checks["wire_reconciles"] = (wire == program.get("prober_sent")
                                     == program.get("replay_consumed"))
        checks["replay_bypasses_engine"] = (
            ledger.calls["engine"] == 0 and ledger.calls["routing"] == 0)
    else:
        checks["wire_reconciles"] = (wire == program.get("prober_sent")
                                     == program.get("engine_probes"))
    if workload in W.INSTRUMENTED:
        gc.collect()
        parts = W.survey(workload, seed, journals,
                         W.Mode(latencies=False, counter=True))
        counter_counts = {}
        for part in parts:
            for name, count in part.counter.counts.items():
                counter_counts[name] = counter_counts.get(name, 0) + count
        parts = None
        checks["dispatch_masks_unchanged"] = bool(first_proxies) and \
            _mask_check(first_proxies, counter_counts)
    else:
        checks["no_sink_time"] = not ledger.proxies and all(
            ledger.self_s.get(layer, 0.0) == 0.0
            for layer in ("events", "metrics", "tracing"))

    wall = sum(traced_s)
    self_sum = sum(ledger.self_s.values())
    unattributed = ratio(ledger.self_s.get("bench", 0.0), wall)
    checks["ledger_reconciles"] = (
        abs(self_sum - wall) <= LEDGER_SHARE * wall
        and unattributed <= LEDGER_SHARE)

    def per_run(value):
        return value / runs

    def self_s(layer):
        return per_run(ledger.self_s.get(layer, 0.0))

    rounds = program.get("rounds", 0)
    metrics = {
        "topogen.build_s": per_run(program.get("build_s", 0.0)),
        "topogen.interfaces": per_run(program.get("interfaces", 0)),
        "routing.calls": per_run(ledger.calls["routing"]),
        "routing.self_s": self_s("routing"),
        "routing.bfs_runs": per_run(program.get("bfs_runs", 0)),
        "engine.calls": per_run(ledger.calls["engine"]),
        "engine.probes": per_run(program.get("engine_probes", 0)),
        "engine.self_s": self_s("engine"),
        "engine.path_cache_hit_ratio": ratio(
            program.get("path_cache_hits", 0),
            program.get("engine_probes", 0)),
        "engine.bulk_hit_ratio": ratio(program.get("bulk_hits", 0),
                                       program.get("batched_probes", 0)),
        "dynamics.mutations_applied": per_run(
            ledger.counts["dynamics.mutations_applied"]),
        "dynamics.self_s": self_s("dynamics"),
        "transport.self_s": self_s("transport"),
        "transport.fault_drops": per_run(program.get("fault_drops", 0)),
        "transport.replay_parse_s": per_run(program.get("parse_s", 0.0)),
        "probing.requests": per_run(ledger.counts["probing.requests"]),
        "probing.wire_ratio": ratio(wire, ledger.counts["probing.requests"]),
        "probing.retries": per_run(program.get("retries", 0)),
        "probing.self_s": self_s("probing"),
        "core.traces": per_run(ledger.calls["core"]),
        "core.self_s": self_s("core"),
        "core.subnets_collected": per_run(program.get("subnets", 0)),
        "core.degraded_traces": per_run(
            ledger.counts["core.degraded_traces"]),
        "runner.self_s": self_s("runner"),
        "radar.round_s": ratio(ledger.tagged_s["radar.round"], rounds),
        "radar.reprobe_ratio": ratio(program.get("reprobed", 0),
                                     program.get("targets", 0)),
        "events.delivered": per_run(sum(sum(p.delivered.values())
                                        for p in ledger.proxies)),
        "events.tallied": per_run(sum(sum(p.tallied.values())
                                      for p in ledger.proxies)),
        "events.self_s": self_s("events"),
        "metrics.self_s": self_s("metrics"),
        "tracing.self_s": self_s("tracing"),
        "mapping.archive_s": per_run(ledger.tagged_s["mapping.archive"]),
        "mapping.diff_s": per_run(ledger.tagged_s["mapping.diff"]),
        "bench.self_s": self_s("bench"),
        "ledger.wall_s": per_run(wall),
        "ledger.unattributed_share": unattributed,
        "trace_overhead": ratio(statistics.median(traced_s),
                                statistics.median(untraced_s)) - 1.0,
    }
    rows = [f"{'layer':<10} {'self_s':>10} {'share':>7} {'calls':>9}"]
    for layer in LAYERS:
        seconds = self_s(layer)
        rows.append(f"{layer:<10} {seconds:>10.4f} "
                    f"{ratio(seconds, per_run(wall)):>7.1%} "
                    f"{per_run(ledger.calls[layer]):>9.0f}")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "checks": checks,
        "digests": {str(seed): digests[0]} if digests else {},
        "notes": [f"traced surveys: {runs}, untraced surveys: "
                  f"{len(untraced_s)}", *rows],
        "metrics": metrics,
    }


def allocations(payload) -> dict:
    """Live memory by layer at the end of one survey (``tracemalloc``)."""
    import tracemalloc

    import workloads as W

    tracemalloc.start()
    seed = W.run_seeds(payload["workload"], payload["seed"])[0]
    parts = W.survey(payload["workload"], seed,
                     (payload.get("journals") or {}).get(str(seed)),
                     W.Mode(latencies=False))
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    layers = {"topogen": 0, "routing": 0, "engine": 0}
    for stat in snapshot.statistics("filename"):
        path = stat.traceback[0].filename.replace(os.sep, "/")
        name = path.rsplit("/", 1)[-1]
        if "/repro/topogen/" in path or (
                "/repro/netsim/" in path and name in MODEL_FILES):
            layers["topogen"] += stat.size
        elif path.endswith("/repro/netsim/routing.py"):
            layers["routing"] += stat.size
        elif path.endswith("/repro/netsim/engine.py"):
            layers["engine"] += stat.size
    del parts
    return {f"{layer}.alloc_mb": size / 1e6 for layer, size in layers.items()}


def child_main(args) -> int:
    sys.path.insert(0, SRC)
    payload = json.load(sys.stdin)
    if args.role == "alloc":
        result = allocations(payload)
    elif payload["trace"]:
        result = traced(payload)
    else:
        result = measure(payload)
    print(json.dumps(result))
    return 0


# -- the parent ---------------------------------------------------------------


def run_child(role: str, payload: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--role", role,
         "--workload", payload["workload"], "--seed", str(payload["seed"]),
         "--seconds", str(payload["seconds"]),
         "--trace", str(payload["trace"])],
        input=json.dumps(payload), capture_output=True, text=True,
        cwd=ROOT, env=env, timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_exactness(seed: int):
    """Pooled (exact, eligible) from ``experiments``, Tables 1-2."""
    from repro.evaluation.matching import Category
    from repro.experiments import run_geant_survey, run_internet2_survey

    exact = eligible = 0
    for outcome in (run_internet2_survey(seed), run_geant_survey(seed)):
        outcomes = outcome.report.outcomes
        exact += outcome.report.count(Category.EXACT)
        eligible += len(outcomes) - sum(1 for o in outcomes if o.unresponsive)
    return [exact, eligible]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        return child_main(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no tracenet sources under {SRC}; run it from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(W.WORKLOADS)})", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    payload = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace}
    seeds = W.run_seeds(args.workload, args.seed)
    if args.trace:
        seeds = seeds[:1]
    journals = {}
    if args.workload == "journal-replay":
        journals = {str(seed): W.record_reference_journals(seed)
                    for seed in seeds}
        payload["journals"] = {
            seed: {name: {"journal": entry["journal"],
                          "targets": entry["targets"]}
                   for name, entry in by_name.items()}
            for seed, by_name in journals.items()}
    try:
        result = run_child("measure", payload, deadline)
        if args.trace:
            result["metrics"].update(run_child("alloc", payload, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checks = result["checks"]
    if not args.trace and args.workload in ("reference-survey",
                                            "journal-replay"):
        checks["exact_match_equals_experiments"] = result["exact"] == {
            str(seed): reference_exactness(seed) for seed in seeds}
    if journals:
        checks["replay_equals_live_archive"] = result["digests"] == {
            seed: [by_name[name]["live_digest"] for name, _ in W.REFERENCE]
            for seed, by_name in journals.items()}
    correct = result["failed"] == 0 and not result["errors"] \
        and all(checks.values())

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": float(result["metrics"][name]),
                      "unit": unit} for name, unit in units.items()}
    print(f"perfbench {args.workload} seed {args.seed} "
          f"({'traced ledger' if args.trace else 'untraced'})")
    for note in result["notes"]:
        print(f"  {note}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, passed in sorted(checks.items()):
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    for error in result["errors"]:
        print(f"  error {error}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
