"""Reusable experiment runners — one per table/figure of the paper.

The benchmark harness, the examples and the CLI's ``crossval``,
``protocols`` and ``overhead`` commands drive the experiments through these
functions, so a bench's measured run is exactly the run whose output is
printed.  Every runner returns a structured outcome object with a
``render()`` producing the paper-style table/figure text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .baselines import Traceroute
from .core import TraceNET, overhead
from .core.results import ObservedSubnet
from .evaluation import (
    IPAccounting,
    MatchReport,
    VantageCollection,
    agreement_rates,
    annotate_unresponsive,
    collected_prefixes,
    ip_accounting,
    match_subnets,
    prefix_length_histogram,
    render_distribution_table,
    render_group_counts,
    render_histogram,
    render_ip_accounting,
    render_protocol_table,
    render_similarity,
    render_venn,
    similarity_summary,
    subnets_per_group,
    venn_regions,
)
from .netsim import Engine, LoadBalancer, LoadBalancingMode, Prefix, Protocol
from .probing import Prober
from .topogen import MultiISPNetwork, build_internet, figures, geant, internet2
from .topogen.spec import GeneratedNetwork


# ---------------------------------------------------------------------------
# Tables 1-2 + Section 4.1.2 (accuracy over Internet2 / GEANT)
# ---------------------------------------------------------------------------


@dataclass
class SurveyOutcome:
    """Result of a Table 1/2 accuracy survey."""

    name: str
    network: GeneratedNetwork
    report: MatchReport
    probes_sent: int
    collected: List[ObservedSubnet]

    @property
    def exact_match_rate(self) -> float:
        return self.report.exact_match_rate()

    @property
    def observable_exact_match_rate(self) -> float:
        return self.report.exact_match_rate(exclude_unresponsive=True)

    def similarity(self, exclude_unresponsive: bool = False) -> Tuple[float, float]:
        return similarity_summary(self.report,
                                  exclude_unresponsive=exclude_unresponsive)

    def render(self) -> str:
        title = (f"Table: {self.name}, original and collected subnet "
                 f"distribution ({self.probes_sent} probes)")
        lines = [render_distribution_table(self.report, title)]
        lines.append(render_similarity(f"{self.name} (incl. unresponsive)",
                                       *self.similarity()))
        lines.append(render_similarity(
            f"{self.name} (excl. unresponsive)",
            *self.similarity(exclude_unresponsive=True)))
        return "\n".join(lines)


def run_survey(network: GeneratedNetwork, targets: List[int],
               vantage: str, name: str,
               protocol: Protocol = Protocol.ICMP,
               disabled_rules: frozenset = frozenset()) -> SurveyOutcome:
    """Trace every target from one vantage and classify the collection."""
    engine = Engine(network.topology, policy=network.policy)
    tool = TraceNET(engine, vantage, protocol=protocol,
                    disabled_rules=disabled_rules)
    tool.trace_many(targets)
    report = match_subnets(network.ground_truth,
                           collected_prefixes(tool.collected_subnets))
    annotate_unresponsive(report, network.records)
    return SurveyOutcome(
        name=name,
        network=network,
        report=report,
        probes_sent=tool.prober.stats.sent,
        collected=tool.collected_subnets,
    )


def run_internet2_survey(seed: int = 7) -> SurveyOutcome:
    """Table 1: tracenet accuracy over the Internet2-like topology."""
    network = internet2.build(seed=seed)
    return run_survey(network, internet2.targets(network, seed=seed),
                      "utdallas", "Internet2")


def run_geant_survey(seed: int = 7) -> SurveyOutcome:
    """Table 2: tracenet accuracy over the GEANT-like topology."""
    network = geant.build(seed=seed)
    return run_survey(network, geant.targets(network, seed=seed),
                      "utdallas", "GEANT")


# ---------------------------------------------------------------------------
# Section 4.2 (cross-validation over four ISPs; Figures 6-9, Table 3)
# ---------------------------------------------------------------------------


def _isp_targets(internet: Optional[MultiISPNetwork], seed: int,
                 scale: float, per_isp: Optional[int]):
    """The ISP internet (built unless given) and its target groups: every
    target with ``per_isp=None``, else ``per_isp`` x ISPs drawn
    proportionally to ISP size."""
    if internet is None:
        internet = build_internet(seed=seed, scale=scale)
    if per_isp is None:
        return internet, internet.targets(seed=seed)
    return internet, internet.targets_proportional(
        seed=seed, total=per_isp * len(internet.isps))


@dataclass
class CrossValidationOutcome:
    """Result of the three-vantage ISP experiment."""

    internet: MultiISPNetwork
    collections: Dict[str, VantageCollection]
    targets: List[int]

    @property
    def prefix_sets(self) -> Dict[str, Set[Prefix]]:
        return {site: c.prefixes for site, c in self.collections.items()}

    @property
    def venn(self) -> Dict[FrozenSet[str], int]:
        return venn_regions(self.prefix_sets)

    @property
    def agreement(self) -> Dict[str, Dict[str, float]]:
        return agreement_rates(self.prefix_sets)

    def accounting(self) -> List[IPAccounting]:
        rows: List[IPAccounting] = []
        groups = sorted(self.internet.isps)
        for site in sorted(self.collections):
            rows.extend(ip_accounting(self.collections[site],
                                      self.internet.isp_of, groups))
        return rows

    def subnet_counts(self) -> Dict[str, Dict[str, int]]:
        groups = sorted(self.internet.isps)
        return {
            site: subnets_per_group(collection,
                                    self.internet.isp_of_prefix, groups)
            for site, collection in self.collections.items()
        }

    def histograms(self) -> Dict[str, Dict[int, int]]:
        return {site: prefix_length_histogram(collection)
                for site, collection in self.collections.items()}

    def render_figure6(self) -> str:
        lines = [render_venn(self.venn, sorted(self.collections))]
        for site, rates in sorted(self.agreement.items()):
            lines.append(f"  {site}: seen-by-all {rates['all']:.0%}, "
                         f"seen-by-another {rates['shared']:.0%}")
        return "\n".join(lines)

    def render_figure7(self) -> str:
        return render_ip_accounting(self.accounting())

    def render_figure8(self) -> str:
        return render_group_counts(self.subnet_counts())

    def render_figure9(self) -> str:
        return render_histogram(self.histograms())

    def render(self) -> str:
        return "\n\n".join([self.render_figure6(), self.render_figure7(),
                            self.render_figure8(), self.render_figure9()])


def run_cross_validation(seed: int = 42, scale: float = 0.4,
                         per_isp: Optional[int] = 60,
                         internet: Optional[MultiISPNetwork] = None
                         ) -> CrossValidationOutcome:
    """Figures 6-9: one common target set traced from three vantages.

    Every vantage's engine probes through the one ``internet.policy``, so
    the vantages share its rate-limiter buckets: a later vantage starts
    its new virtual clock against the token levels an earlier one drained
    (see :class:`~repro.netsim.responsiveness.ResponsePolicy`).  Only the
    first vantage (rice) therefore matches an independent run.  At the
    defaults umass collects 109 subnets here against 108 on a fresh
    internet, uoregon 106 against 110, and Figure 6's all-three region
    holds 56 subnets against 75 with fresh buckets.
    """
    internet, grouped = _isp_targets(internet, seed, scale, per_isp)
    targets = [t for group in grouped.values() for t in group]
    collections: Dict[str, VantageCollection] = {}
    for site in sorted(internet.vantages):
        engine = Engine(internet.topology, policy=internet.policy)
        tool = TraceNET(engine, site)
        tool.trace_many(targets)
        collections[site] = VantageCollection(
            vantage=site, subnets=tool.collected_subnets, targets=targets)
    return CrossValidationOutcome(internet=internet, collections=collections,
                                  targets=targets)


@dataclass
class ProtocolComparisonOutcome:
    """Result of the Table 3 protocol comparison."""

    counts: Dict[str, Dict[str, int]]
    vantage: str

    def totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for per_isp in self.counts.values():
            for protocol, count in per_isp.items():
                totals[protocol] = totals.get(protocol, 0) + count
        return totals

    def render(self) -> str:
        return render_protocol_table(
            self.counts,
            title=f"Table 3: subnets per probing protocol (vantage {self.vantage})")


def run_protocol_comparison(seed: int = 42, scale: float = 0.4,
                            per_isp: Optional[int] = 60,
                            vantage: str = "rice",
                            internet: Optional[MultiISPNetwork] = None
                            ) -> ProtocolComparisonOutcome:
    """Table 3: the same targets probed with ICMP, UDP and TCP.

    The three protocol runs share ``internet.policy`` and so its
    rate-limiter buckets, exactly as the vantages of
    :func:`run_cross_validation` do: UDP and TCP start against buckets
    the previous run drained.  At the defaults UDP collects 36 subnets
    here against 41 on a fresh internet; ICMP and TCP match.
    """
    internet, grouped = _isp_targets(internet, seed, scale, per_isp)
    counts: Dict[str, Dict[str, int]] = {name: {} for name in sorted(internet.isps)}
    for protocol in (Protocol.ICMP, Protocol.UDP, Protocol.TCP):
        engine = Engine(internet.topology, policy=internet.policy)
        tool = TraceNET(engine, vantage, protocol=protocol)
        for group in grouped.values():
            tool.trace_many(group)
        for name in counts:
            counts[name][protocol.value] = sum(
                1 for s in tool.collected_subnets
                if s.size >= 2 and internet.isp_of(s.pivot) == name)
    return ProtocolComparisonOutcome(counts=counts, vantage=vantage)


# ---------------------------------------------------------------------------
# Section 3.6 (probing overhead model)
# ---------------------------------------------------------------------------


@dataclass
class OverheadPoint:
    subnet_size: int
    measured_probes: int
    lower_bound: int
    upper_bound: int

    @property
    def within_model(self) -> bool:
        return self.measured_probes <= self.upper_bound * 1.25


@dataclass
class OverheadOutcome:
    points: List[OverheadPoint]

    def render(self) -> str:
        lines = ["Section 3.6: measured probes vs analytic bounds",
                 f"{'|S|':>5} {'measured':>9} {'lower':>7} {'upper':>7} ok"]
        for point in self.points:
            lines.append(
                f"{point.subnet_size:>5} {point.measured_probes:>9} "
                f"{point.lower_bound:>7} {point.upper_bound:>7} "
                f"{'yes' if point.within_model else 'NO'}")
        return "\n".join(lines)


def run_overhead_sweep(sizes=(2, 4, 6, 8, 10, 14, 22, 30),
                       metrics=None) -> OverheadOutcome:
    """Explore single LANs of growing size and meter the probe cost.

    ``metrics`` (a :class:`repro.metrics.MetricsRegistry`) attaches the
    metrics sink and probe-economy auditor to every per-size prober, so a
    sweep doubles as an auditor regression: topologies this tame must
    produce zero ``overhead_violations_total``.
    """
    from .core.exploration import explore_subnet
    from .core.positioning import position_subnet
    from .netsim import TopologyBuilder

    points: List[OverheadPoint] = []
    for size in sizes:
        if size <= 2:
            length = 30
        elif size <= 6:
            length = 29
        elif size <= 14:
            length = 28
        elif size <= 30:
            length = 27
        else:
            length = 26
        builder = TopologyBuilder(f"overhead-{size}")
        builder.link("R1", "R2")
        members = ["R2"] + [f"M{i}" for i in range(size - 1)]
        lan = builder.lan(members, length=length)
        builder.edge_host("v", "R1")
        topology = builder.build()
        engine = Engine(topology)
        prober = Prober(engine, "v")
        if metrics is not None:
            from .metrics import instrument

            instrument(prober.events, registry=metrics)
        pivot = topology.routers[members[1]].interface_on(lan.subnet_id).address
        entry = [i.address for i in topology.routers["R2"].interfaces
                 if i.subnet_id != lan.subnet_id][0]
        position = position_subnet(prober, entry, pivot, 3)
        assert position is not None
        subnet = explore_subnet(prober, position)
        points.append(OverheadPoint(
            subnet_size=subnet.size,
            measured_probes=subnet.probes_used,
            lower_bound=overhead.lower_bound(max(2, subnet.size)),
            upper_bound=overhead.upper_bound(max(2, subnet.size)),
        ))
    return OverheadOutcome(points=points)


# ---------------------------------------------------------------------------
# Alias resolution from tracenet data (the paper's router-level-map motif)
# ---------------------------------------------------------------------------


@dataclass
class AliasResolutionOutcome:
    """Accuracy of analytical and Ally-filtered alias inference."""

    analytical_precision: float
    analytical_recall: float
    filtered_precision: float
    filtered_recall: float
    analytical_pairs: int
    confirmed_pairs: int
    negative_constraints: int
    ally_tests: int
    extra_probes: int
    router_map_summary: str = ""
    router_map_accuracy: str = ""

    def render(self) -> str:
        lines = [
            "Alias resolution from tracenet data (Internet2 survey)",
            f"{'method':<34} {'pairs':>7} {'precision':>10} {'recall':>8} "
            f"{'extra probes':>13}",
            f"{'analytical (free)':<34} {self.analytical_pairs:>7} "
            f"{self.analytical_precision:>10.1%} "
            f"{self.analytical_recall:>8.1%} {0:>13}",
            f"{'analytical + Ally verification':<34} "
            f"{self.confirmed_pairs:>7} {self.filtered_precision:>10.1%} "
            f"{self.filtered_recall:>8.1%} {self.extra_probes:>13}",
            f"negative (non-alias) constraints from subnets: "
            f"{self.negative_constraints}",
        ]
        if self.router_map_summary:
            lines.append(self.router_map_summary)
            lines.append(f"  {self.router_map_accuracy}")
        return "\n".join(lines)


def run_alias_resolution(seed: int = 7) -> AliasResolutionOutcome:
    """Infer alias pairs from an Internet2 survey and verify them with Ally.

    The paper's introduction places alias resolution on the critical path
    to router-level maps; tracenet's positioning data (ingress +
    contra-pivot on the ingress router) yields pairs without extra probes,
    and same-subnet membership yields negative constraints.
    """
    from .aliases import (
        AliasVerdict,
        AllyResolver,
        analytical_pairs,
        ground_truth_pairs,
        negative_pairs,
        pair_keys,
        score_pairs,
    )

    network = internet2.build(seed=seed)
    engine = Engine(network.topology, policy=network.policy)
    tool = TraceNET(engine, "utdallas")
    tool.trace_many(internet2.targets(network, seed=seed))

    pairs = pair_keys(analytical_pairs(tool.collected_subnets))
    negatives = negative_pairs(tool.collected_subnets)
    observed = tool.collected_addresses
    truth = ground_truth_pairs(network.topology, restrict_to=observed)
    analytical_accuracy = score_pairs(pairs, truth)

    prober = Prober(engine, "utdallas")
    before = prober.stats_snapshot()
    resolver = AllyResolver(prober)
    confirmed = [
        (result.first, result.second)
        for result in resolver.verify_pairs(sorted(pairs))
        if result.verdict == AliasVerdict.ALIASES
    ]
    filtered_accuracy = score_pairs(confirmed, truth)

    from .aliases import groups_from_pairs
    from .evaluation import build_router_level_map, score_router_level_map
    router_map = build_router_level_map(tool.collected_subnets,
                                        groups_from_pairs(confirmed))
    router_accuracy = score_router_level_map(router_map, network.topology)

    return AliasResolutionOutcome(
        analytical_precision=analytical_accuracy.precision,
        analytical_recall=analytical_accuracy.recall,
        filtered_precision=filtered_accuracy.precision,
        filtered_recall=filtered_accuracy.recall,
        analytical_pairs=len(pairs),
        confirmed_pairs=len(confirmed),
        negative_constraints=len(negatives),
        ally_tests=resolver.tests_run,
        extra_probes=prober.stats.sent - before.sent,
        router_map_summary=router_map.summary(),
        router_map_accuracy=router_accuracy.describe(),
    )


# ---------------------------------------------------------------------------
# Marginal utility of vantage points (the paper's [6] motif, §1)
# ---------------------------------------------------------------------------


@dataclass
class VantageUtilityOutcome:
    """Coverage growth as vantage points are added, per strategy."""

    #: strategy -> cumulative structure counts (tracenet: distinct
    #: subnets; traceroute: distinct hop-adjacency links) for 1..k vantages
    subnet_curves: Dict[str, List[int]]
    #: strategy -> list of cumulative distinct-address counts
    address_curves: Dict[str, List[int]]
    vantage_order: List[str]

    def marginal_gains(self, strategy: str) -> List[float]:
        """Fractional subnet-coverage gain of each added vantage."""
        curve = self.subnet_curves[strategy]
        gains = []
        for previous, current in zip(curve, curve[1:]):
            gains.append((current - previous) / max(1, previous))
        return gains

    def render(self) -> str:
        lines = ["Marginal utility of vantage points",
                 f"{'strategy':<14} " + " ".join(
                     f"{'+' + site:>12}" for site in self.vantage_order)
                 + "   (cumulative subnets / links)"]
        for strategy, curve in self.subnet_curves.items():
            lines.append(f"{strategy:<14} "
                         + " ".join(f"{value:>12}" for value in curve))
        lines.append("")
        lines.append(f"{'strategy':<14} " + " ".join(
            f"{'+' + site:>12}" for site in self.vantage_order)
            + "   (cumulative distinct addresses)")
        for strategy, curve in self.address_curves.items():
            lines.append(f"{strategy:<14} "
                         + " ".join(f"{value:>12}" for value in curve))
        return "\n".join(lines)


def run_vantage_utility(seed: int = 42, scale: float = 0.4,
                        per_isp: Optional[int] = 60,
                        internet: Optional[MultiISPNetwork] = None
                        ) -> VantageUtilityOutcome:
    """Coverage vs number of vantage points, tracenet against traceroute.

    The paper's introduction argues that piling on vantage points has
    limited utility [6] and that exploring each visited subnet in full is
    the better lever; this experiment measures both curves.
    """
    internet, grouped = _isp_targets(internet, seed, scale, per_isp)
    targets = [t for group in grouped.values() for t in group]
    vantage_order = sorted(internet.vantages)

    subnet_curves: Dict[str, List[int]] = {"tracenet": [], "traceroute": []}
    address_curves: Dict[str, List[int]] = {"tracenet": [], "traceroute": []}

    tracenet_blocks: Set[Prefix] = set()
    tracenet_addresses: Set[int] = set()
    traceroute_addresses: Set[int] = set()
    traceroute_links: Set[tuple] = set()
    for site in vantage_order:
        tool = TraceNET(Engine(internet.topology, policy=internet.policy),
                        site)
        tool.trace_many(targets)
        tracenet_blocks |= {s.prefix for s in tool.collected_subnets
                            if s.size > 1}
        tracenet_addresses |= tool.collected_addresses
        subnet_curves["tracenet"].append(len(tracenet_blocks))
        address_curves["tracenet"].append(len(tracenet_addresses))

        tracer = Traceroute(Engine(internet.topology, policy=internet.policy),
                            site, vary_flow=False)
        for target in targets:
            result = tracer.trace(target)
            hops = [a for a in result.path_addresses if a is not None]
            traceroute_addresses.update(hops)
            traceroute_links.update(zip(hops, hops[1:]))
        subnet_curves["traceroute"].append(len(traceroute_links))
        address_curves["traceroute"].append(len(traceroute_addresses))

    return VantageUtilityOutcome(subnet_curves=subnet_curves,
                                 address_curves=address_curves,
                                 vantage_order=vantage_order)


# ---------------------------------------------------------------------------
# Section 1's cost-effectiveness claim: tracenet from one vantage vs
# traceroute from many
# ---------------------------------------------------------------------------


@dataclass
class BandwidthOutcome:
    """Address yield and wire cost of the two collection strategies."""

    tracenet_addresses: int
    tracenet_probes: int
    tracenet_bytes: int
    traceroute_addresses: int
    traceroute_probes: int
    traceroute_bytes: int
    traceroute_vantages: int

    @property
    def tracenet_bytes_per_address(self) -> float:
        return self.tracenet_bytes / max(1, self.tracenet_addresses)

    @property
    def traceroute_bytes_per_address(self) -> float:
        return self.traceroute_bytes / max(1, self.traceroute_addresses)

    def render(self) -> str:
        return "\n".join([
            "Section 1: bandwidth economy — tracenet (1 vantage) vs "
            f"traceroute ({self.traceroute_vantages} vantages)",
            f"{'strategy':<28} {'addresses':>10} {'probes':>8} "
            f"{'bytes':>10} {'bytes/addr':>11}",
            f"{'tracenet, 1 vantage':<28} {self.tracenet_addresses:>10} "
            f"{self.tracenet_probes:>8} {self.tracenet_bytes:>10} "
            f"{self.tracenet_bytes_per_address:>11.1f}",
            f"{'traceroute, all vantages':<28} "
            f"{self.traceroute_addresses:>10} {self.traceroute_probes:>8} "
            f"{self.traceroute_bytes:>10} "
            f"{self.traceroute_bytes_per_address:>11.1f}",
        ])


def run_bandwidth_comparison(seed: int = 42, scale: float = 0.4,
                             per_isp: Optional[int] = 60,
                             internet: Optional[MultiISPNetwork] = None
                             ) -> BandwidthOutcome:
    """Compare address yield per byte: one tracenet vantage against classic
    traceroute run from every available vantage point."""
    from .netsim.packet import wire_bytes

    internet, grouped = _isp_targets(internet, seed, scale, per_isp)
    targets = [t for group in grouped.values() for t in group]

    first_site = sorted(internet.vantages)[0]
    tracenet_tool = TraceNET(
        Engine(internet.topology, policy=internet.policy), first_site)
    tracenet_tool.trace_many(targets)
    tracenet_addresses = len(tracenet_tool.collected_addresses)
    tracenet_probes = tracenet_tool.prober.stats.sent

    traceroute_addresses: set = set()
    traceroute_probes = 0
    for site in sorted(internet.vantages):
        tracer = Traceroute(
            Engine(internet.topology, policy=internet.policy), site,
            vary_flow=False)
        for target in targets:
            result = tracer.trace(target)
            traceroute_addresses.update(
                a for a in result.path_addresses if a is not None)
        traceroute_probes += tracer.prober.stats.sent

    return BandwidthOutcome(
        tracenet_addresses=tracenet_addresses,
        tracenet_probes=tracenet_probes,
        tracenet_bytes=wire_bytes(Protocol.ICMP, tracenet_probes),
        traceroute_addresses=len(traceroute_addresses),
        traceroute_probes=traceroute_probes,
        traceroute_bytes=wire_bytes(Protocol.ICMP, traceroute_probes),
        traceroute_vantages=len(internet.vantages),
    )


# ---------------------------------------------------------------------------
# Heuristic ablation (Section 3.5: what each rule family buys)
# ---------------------------------------------------------------------------


@dataclass
class HeuristicAblationOutcome:
    """Accuracy of the Internet2 survey with rule families disabled."""

    variants: Dict[str, SurveyOutcome]

    def render(self) -> str:
        lines = ["Ablation: heuristic families on the Internet2 survey",
                 f"{'variant':<26} {'exact':>7} {'ovres':>6} {'merg':>6} "
                 f"{'undes':>6} {'probes':>8}"]
        from .evaluation import Category
        for name, outcome in self.variants.items():
            report = outcome.report
            lines.append(
                f"{name:<26} {report.exact_match_rate():>7.1%} "
                f"{report.count(Category.OVER):>6} "
                f"{report.count(Category.MERGED):>6} "
                f"{report.count(Category.UNDER):>6} "
                f"{outcome.probes_sent:>8}")
        return "\n".join(lines)


def run_heuristic_ablation(seed: int = 7) -> HeuristicAblationOutcome:
    """Re-run the Table 1 survey with heuristic families switched off.

    * no H6 (fixed entry points): equidistant foreign subnets leak in;
    * no H7+H8 (router contiguity): far/close fringe interfaces leak in;
    * no H3+H4 (contra-pivot discipline): ingress fringe leaks in.
    """
    variants: Dict[str, SurveyOutcome] = {}
    for name, disabled in (
            ("full pipeline", frozenset()),
            ("no H6", frozenset({"H6"})),
            ("no H7+H8", frozenset({"H7", "H8"})),
            ("no H3+H4", frozenset({"H3", "H4"})),
            ("no H6+H7+H8", frozenset({"H6", "H7", "H8"})),
    ):
        network = internet2.build(seed=seed)
        variants[name] = run_survey(
            network, internet2.targets(network, seed=seed), "utdallas",
            f"Internet2[{name}]", disabled_rules=disabled)
    return HeuristicAblationOutcome(variants=variants)


# ---------------------------------------------------------------------------
# Figure 2 (disjoint-path case study) and Section 3.7 (path fluctuations)
# ---------------------------------------------------------------------------


@dataclass
class DisjointPathOutcome:
    traceroute_concludes_disjoint: bool
    tracenet_sees_shared_lan: bool
    shared_lan: Prefix
    details: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Figure 2: overlay path disjointness case study",
                 f"  shared multi-access LAN (ground truth): {self.shared_lan}",
                 f"  traceroute concludes P1/P3 link-disjoint: "
                 f"{'yes (wrong)' if self.traceroute_concludes_disjoint else 'no'}",
                 f"  tracenet reveals the shared LAN on both paths: "
                 f"{'yes' if self.tracenet_sees_shared_lan else 'no'}"]
        return "\n".join(lines)


def run_disjoint_paths() -> DisjointPathOutcome:
    """Figure 2: do P1 (A->D) and P3 (B->C) share a link?"""
    net = figures.figure2_network()
    lan = net.topology.subnets[net.landmarks["shared_lan"]]
    d = net.hosts["D"].address
    c = net.hosts["C"].address

    p1 = Traceroute(net.engine(), "A", vary_flow=False).trace(d)
    p3 = Traceroute(net.engine(), "B", vary_flow=False).trace(c)
    p1_links = {a for a in p1.path_addresses if a is not None}
    p3_links = {a for a in p3.path_addresses if a is not None}
    traceroute_disjoint = not (p1_links & p3_links)

    t1 = TraceNET(net.engine(), "A").trace(d)
    t3 = TraceNET(net.engine(), "B").trace(c)
    lan_seen = (lan.prefix in {s.prefix for s in t1.subnets}
                and lan.prefix in {s.prefix for s in t3.subnets})
    return DisjointPathOutcome(
        traceroute_concludes_disjoint=traceroute_disjoint,
        tracenet_sees_shared_lan=lan_seen,
        shared_lan=lan.prefix,
        details={"p1": p1, "p3": p3, "t1": t1, "t3": t3},
    )


@dataclass
class FluctuationOutcome:
    traceroute_path_variants: int
    tracenet_subnet_variants: int
    runs: int

    def render(self) -> str:
        return "\n".join([
            "Section 3.7: behaviour under per-flow load balancing "
            f"({self.runs} repetitions)",
            f"  distinct classic-traceroute hop sequences: "
            f"{self.traceroute_path_variants}",
            f"  distinct tracenet views of the target subnet: "
            f"{self.tracenet_subnet_variants}",
        ])


def run_fluctuation_experiment(runs: int = 8, seed: int = 3) -> FluctuationOutcome:
    """Section 3.7: stable-ingress tracenet vs classic traceroute under ECMP."""
    from .netsim import TopologyBuilder

    builder = TopologyBuilder("ecmp")
    builder.link("A", "B1")
    builder.link("A", "B2")
    builder.link("B1", "C")
    builder.link("B2", "C")
    lan = builder.lan(["C", "D", "E"], length=29)
    builder.edge_host("v", "A")
    topology = builder.build()
    target = topology.routers["E"].interface_on(lan.subnet_id).address

    trace_paths = set()
    subnet_views = set()
    rng = random.Random(seed)
    balancer = LoadBalancer(LoadBalancingMode.PER_FLOW, seed=seed)
    # One classic tracer across all runs: its per-probe flow rotation is
    # exactly what per-flow balancers scatter.
    tracer = Traceroute(Engine(topology, balancer=balancer), "v",
                        vary_flow=True)
    for _ in range(runs):
        trace_paths.add(tuple(tracer.trace(target).path_addresses))
        tool = TraceNET(
            Engine(topology, balancer=LoadBalancer(
                LoadBalancingMode.PER_FLOW, seed=rng.randrange(1 << 30))),
            "v")
        subnet = tool.trace(target).subnet_for(target)
        assert subnet is not None
        subnet_views.add((subnet.prefix, frozenset(subnet.members)))
    return FluctuationOutcome(
        traceroute_path_variants=len(trace_paths),
        tracenet_subnet_variants=len(subnet_views),
        runs=runs,
    )
