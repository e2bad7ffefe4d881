"""Ablation — the probe-economy design choices of the implementation.

The paper notes its implementation "is optimized to collect the subnets
with the least number of probes" (merged heuristics, response reuse).  This
bench quantifies the three mechanisms our implementation uses on the
Internet2 survey:

* response caching in the prober (merged heuristics share probes);
* cross-trace subnet reuse in TraceNET (a subnet met on an earlier path is
  not re-explored);
* the retry-on-silence policy of Section 3.8 (costs probes, buys coverage).

A second table weighs the retry rule itself on Internet2 and GEANT (seed
7): the default evidence-gated retry, the paper's retry of every silence
and no retry, lossless and under 1% and 5% uniform loss (fault seeds
0-5).  The gate must keep the lossless map and hold pooled exact match
within 0.5 pp of retry-once at every loss rate.
"""

from conftest import write_artifact
from repro.core import TraceNET
from repro.evaluation import (
    Category,
    annotate_unresponsive,
    collected_prefixes,
    match_subnets,
)
from repro.mapping import archive_from_tool, archives_equivalent
from repro.netsim import Engine
from repro.probing import RetryPolicy
from repro.topogen import geant, internet2
from repro.transport import FaultInjectingTransport, SimulatorTransport

RETRY_RULES = {
    "gated (default)": RetryPolicy(),
    "retry-once (paper 3.8)": RetryPolicy(gated=False),
    "no retry": RetryPolicy(attempts=0),
}
NETWORKS = {"internet2": internet2, "geant": geant}
LOSS_RATES = (0.0, 0.01, 0.05)
FAULT_SEEDS = range(6)
#: How far pooled exact match may drift from retry-once, in points.
EXACT_TOLERANCE_PP = 0.5


def survey_probes(use_cache: bool, reuse_subnets: bool, retries: int = 1,
                  seed: int = 7):
    network = internet2.build(seed=seed)
    engine = Engine(network.topology, policy=network.policy)
    tool = TraceNET(engine, "utdallas", reuse_subnets=reuse_subnets)
    tool.prober.use_cache = use_cache
    tool.prober.retries = retries
    tool.trace_many(internet2.targets(network, seed=seed))
    collected = sum(1 for s in tool.collected_subnets if s.size >= 2)
    return tool.prober.stats.sent, collected


def run_ablation():
    variants = {
        "full (cache + reuse + retry)": survey_probes(True, True, 1),
        "no response cache": survey_probes(False, True, 1),
        "no subnet reuse": survey_probes(True, False, 1),
        "no cache + no reuse": survey_probes(False, False, 1),
        "no retry on silence": survey_probes(True, True, 0),
    }
    return variants


def retry_survey(module, rule: RetryPolicy, drop_rate: float,
                 fault_seed: int, seed: int = 7):
    """One survey under ``rule``: its archive, wire probes and counters,
    and (exact matches, responsive originals) as Tables 1-2 count them."""
    network = module.build(seed=seed)
    transport = SimulatorTransport(
        Engine(network.topology, policy=network.policy))
    if drop_rate:
        transport = FaultInjectingTransport(transport, drop_rate=drop_rate,
                                            seed=fault_seed)
    tool = TraceNET(transport, "utdallas", retries=rule)
    traces = tool.trace_many(module.targets(network, seed=seed))
    report = match_subnets(network.ground_truth,
                           collected_prefixes(tool.collected_subnets))
    annotate_unresponsive(report, network.records)
    eligible = sum(1 for o in report.outcomes if not o.unresponsive)
    stats = tool.prober.stats
    return {"archive": archive_from_tool(tool, traces), "probes": stats.sent,
            "retries": stats.retries, "answered": stats.retries_answered,
            "exact": report.count(Category.EXACT), "eligible": eligible}


def run_retry_rules():
    """Pooled totals per (rule, loss rate), plus each lossless archive."""
    pooled, lossless = {}, {}
    for rule_name, rule in RETRY_RULES.items():
        for drop_rate in LOSS_RATES:
            total = dict.fromkeys(
                ("probes", "retries", "answered", "exact", "eligible"), 0)
            for net_name, module in NETWORKS.items():
                for fault_seed in (FAULT_SEEDS if drop_rate else (0,)):
                    run = retry_survey(module, rule, drop_rate, fault_seed)
                    for key in total:
                        total[key] += run[key]
                    if not drop_rate:
                        lossless[rule_name, net_name] = run["archive"]
            pooled[rule_name, drop_rate] = total
    return pooled, lossless


def render_retry_rules(pooled) -> str:
    lines = ["Retry rule on silence: Internet2 + GEANT seed 7, pooled over "
             "fault seeds 0-5 under loss",
             f"{'rule':<24} {'loss':>5} {'probes':>8} {'retries':>8} "
             f"{'answered':>8} {'exact':>11} {'rate':>7}"]
    for (rule_name, drop_rate), total in pooled.items():
        rate = total["exact"] / total["eligible"]
        lines.append(
            f"{rule_name:<24} {drop_rate:>5.0%} {total['probes']:>8} "
            f"{total['retries']:>8} {total['answered']:>8} "
            f"{total['exact']:>5}/{total['eligible']:<5} {rate:>7.2%}")
    return "\n".join(lines)


def test_ablation_probe_economy(benchmark):
    variants, (pooled, lossless) = benchmark.pedantic(
        lambda: (run_ablation(), run_retry_rules()), rounds=1, iterations=1)
    lines = ["Ablation: probe cost of the Internet2 survey (179 targets)",
             f"{'variant':<32} {'probes':>8} {'subnets':>8}"]
    for name, (probes, subnets) in variants.items():
        lines.append(f"{name:<32} {probes:>8} {subnets:>8}")
    text = "\n".join(lines) + "\n\n" + render_retry_rules(pooled)
    print()
    print(text)
    write_artifact("ablation_probe_economy.txt", text)

    full_probes, full_subnets = variants["full (cache + reuse + retry)"]
    # Dropping the cache costs probes without finding more subnets.
    no_cache_probes, no_cache_subnets = variants["no response cache"]
    assert no_cache_probes > full_probes
    assert no_cache_subnets <= full_subnets + 2
    # With the cache still on, dropping subnet reuse costs little: the
    # re-exploration is answered from the cache.  Dropping both re-pays
    # the full exploration along every shared path prefix.
    no_reuse_probes, _ = variants["no subnet reuse"]
    neither_probes, _ = variants["no cache + no reuse"]
    assert no_reuse_probes >= full_probes
    assert neither_probes > full_probes * 3
    assert neither_probes > no_cache_probes
    # Dropping the retry saves probes (every silent address costs one
    # instead of two) at equal-or-worse coverage on this quiet topology.
    no_retry_probes, no_retry_subnets = variants["no retry on silence"]
    assert no_retry_probes < full_probes
    assert no_retry_subnets <= full_subnets + 2

    # The gate keeps the lossless map: the retries it skips are never
    # answered there.
    gated, once = "gated (default)", "retry-once (paper 3.8)"
    for net_name in NETWORKS:
        assert archives_equivalent(lossless[gated, net_name],
                                   lossless[once, net_name]), net_name
    assert pooled[gated, 0.0]["probes"] < pooled[once, 0.0]["probes"]

    def rate(rule_name, drop_rate):
        total = pooled[rule_name, drop_rate]
        return 100.0 * total["exact"] / total["eligible"]

    # Under loss the gate holds retry-once's exact match, while dropping
    # the retry altogether costs more than the tolerance at 5% loss.
    for drop_rate in LOSS_RATES:
        assert abs(rate(gated, drop_rate) - rate(once, drop_rate)) \
            <= EXACT_TOLERANCE_PP, drop_rate
    assert rate("no retry", 0.05) < rate(once, 0.05) - EXACT_TOLERANCE_PP
