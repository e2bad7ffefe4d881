"""Reusable experiment runners — one per table/figure of the paper.

The benchmark harness, the examples and the CLI's ``survey``,
``crossval``, ``protocols`` and ``overhead`` commands drive the experiments
through these functions, so a bench's measured run is exactly the run
whose output is printed.  Every runner returns a structured outcome object
with a ``render()`` producing the paper-style table/figure text.

Every survey-shaped run is a :class:`~repro.runspec.RunSpec` survey over
its own freshly built network, and each outcome is a fold over the runs'
archives: no run inherits rate-limiter state another drained, so every
outcome is a pure function of its arguments.  Only the Section 3.6
overhead sweep, the Section 3.7 fluctuation study and the Figure 2 case
study assemble collectors by hand.
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
from .mapping import CollectionArchive
from .netsim import Engine, LoadBalancer, LoadBalancingMode, Prefix, Protocol
from .probing import Prober
from .runspec import Run, RunSpec
from .topogen import MultiISPNetwork, figures
from .topogen.isp import VANTAGE_SITES
from .topogen.spec import GeneratedNetwork


def _survey(**flags) -> Tuple[Run, CollectionArchive]:
    """Build and execute the survey ``flags`` describe on its own network."""
    run = RunSpec.from_flags("survey", **flags).build()
    return run, run.execute()


def _traceroute(spec: RunSpec, site: str) -> Traceroute:
    """The classic-traceroute baseline from ``site`` over a fresh build of
    ``spec``'s network."""
    network = spec.load_network()
    return Traceroute(Engine(network.topology, policy=network.policy), site,
                      vary_flow=False)


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

    @classmethod
    def of(cls, run: Run, archive: CollectionArchive,
           name: str) -> "SurveyOutcome":
        """Classify a survey run's archive against its ground truth."""
        report = match_subnets(run.network.ground_truth,
                               collected_prefixes(archive.subnets))
        annotate_unresponsive(report, run.network.records)
        return cls(name=name, network=run.network, report=report,
                   probes_sent=run.tool.prober.stats.sent,
                   collected=archive.subnets)

    @property
    def exact_match_rate(self) -> float:
        return self.report.exact_match_rate()

    @property
    def observable_exact_match_rate(self) -> float:
        return self.report.exact_match_rate(exclude_unresponsive=True)

    def similarity(self, exclude_unresponsive: bool = False) -> Tuple[float, float]:
        return similarity_summary(self.report,
                                  exclude_unresponsive=exclude_unresponsive)

    def render(self, title: Optional[str] = None) -> str:
        if title is None:
            title = (f"Table: {self.name}, original and collected subnet "
                     f"distribution ({self.probes_sent} probes)")
        lines = [render_distribution_table(self.report, title)]
        lines.append(render_similarity(f"{self.name} (incl. unresponsive)",
                                       *self.similarity()))
        lines.append(render_similarity(
            f"{self.name} (excl. unresponsive)",
            *self.similarity(exclude_unresponsive=True)))
        return "\n".join(lines)


def run_internet2_survey(seed: int = 7) -> SurveyOutcome:
    """Table 1: tracenet accuracy over the Internet2-like topology."""
    return SurveyOutcome.of(*_survey(network="internet2", seed=seed),
                            name="Internet2")


def run_geant_survey(seed: int = 7) -> SurveyOutcome:
    """Table 2: tracenet accuracy over the GEANT-like topology."""
    return SurveyOutcome.of(*_survey(network="geant", seed=seed),
                            name="GEANT")


# ---------------------------------------------------------------------------
# Section 4.2 (cross-validation over four ISPs; Figures 6-9, Table 3)
# ---------------------------------------------------------------------------


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
                         per_isp: Optional[int] = 60
                         ) -> CrossValidationOutcome:
    """Figures 6-9: one common target set traced from three vantages.

    Each vantage is its own ``isp`` survey over its own freshly built
    internet, so a vantage's collection is exactly the one its standalone
    run collects.  No vantage starts against rate-limiter buckets another
    one drained: the paper's vantages are separate PlanetLab hosts.
    """
    collections: Dict[str, VantageCollection] = {}
    for site in sorted(VANTAGE_SITES):
        run, archive = _survey(network="isp", seed=seed, scale=scale,
                               per_isp=per_isp, vantage=site)
        collections[site] = VantageCollection(
            vantage=site, subnets=archive.subnets, targets=run.targets)
    return CrossValidationOutcome(internet=run.network,
                                  collections=collections,
                                  targets=run.targets)


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
                            vantage: str = "rice"
                            ) -> ProtocolComparisonOutcome:
    """Table 3: the same targets probed with ICMP, UDP and TCP.

    Each protocol is its own ``isp`` survey from ``vantage`` over its own
    freshly built internet, so each protocol's counts are those of its
    standalone run: no protocol starts against rate-limiter buckets the
    previous one drained.
    """
    counts: Dict[str, Dict[str, int]] = {}
    for protocol in (Protocol.ICMP, Protocol.UDP, Protocol.TCP):
        run, archive = _survey(network="isp", seed=seed, scale=scale,
                               per_isp=per_isp, vantage=vantage,
                               protocol=protocol.value)
        for name in sorted(run.network.isps):
            counts.setdefault(name, {})[protocol.value] = sum(
                1 for s in archive.subnets
                if s.size >= 2 and run.network.isp_of(s.pivot) == name)
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

    run, archive = _survey(network="internet2", seed=seed)
    pairs = pair_keys(analytical_pairs(archive.subnets))
    negatives = negative_pairs(archive.subnets)
    truth = ground_truth_pairs(run.network.topology,
                               restrict_to=run.tool.collected_addresses)
    analytical_accuracy = score_pairs(pairs, truth)

    prober = Prober(run.tool.transport, run.spec.vantage)
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
    router_map = build_router_level_map(archive.subnets,
                                        groups_from_pairs(confirmed))
    router_accuracy = score_router_level_map(router_map, run.network.topology)

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
                        per_isp: Optional[int] = 60
                        ) -> VantageUtilityOutcome:
    """Coverage vs number of vantage points, tracenet against traceroute.

    The paper's introduction argues that piling on vantage points has
    limited utility [6] and that exploring each visited subnet in full is
    the better lever; this experiment measures both curves.  Every
    vantage's tracenet survey and traceroute baseline probe their own
    freshly built internet.
    """
    vantage_order = sorted(VANTAGE_SITES)
    subnet_curves: Dict[str, List[int]] = {"tracenet": [], "traceroute": []}
    address_curves: Dict[str, List[int]] = {"tracenet": [], "traceroute": []}

    tracenet_blocks: Set[Prefix] = set()
    tracenet_addresses: Set[int] = set()
    traceroute_addresses: Set[int] = set()
    traceroute_links: Set[tuple] = set()
    for site in vantage_order:
        run, archive = _survey(network="isp", seed=seed, scale=scale,
                               per_isp=per_isp, vantage=site)
        tracenet_blocks |= {s.prefix for s in archive.subnets if s.size > 1}
        tracenet_addresses |= run.tool.collected_addresses
        subnet_curves["tracenet"].append(len(tracenet_blocks))
        address_curves["tracenet"].append(len(tracenet_addresses))

        tracer = _traceroute(run.spec, site)
        for target in run.targets:
            hops = [a for a in tracer.trace(target).path_addresses
                    if a is not None]
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
                             per_isp: Optional[int] = 60
                             ) -> BandwidthOutcome:
    """Compare address yield per byte: one tracenet vantage against classic
    traceroute run from every available vantage point, each run over its
    own freshly built internet."""
    from .netsim.packet import wire_bytes

    sites = sorted(VANTAGE_SITES)
    run, _ = _survey(network="isp", seed=seed, scale=scale, per_isp=per_isp,
                     vantage=sites[0])
    tracenet_probes = run.tool.prober.stats.sent

    traceroute_addresses: set = set()
    traceroute_probes = 0
    for site in sites:
        tracer = _traceroute(run.spec, site)
        for target in run.targets:
            traceroute_addresses.update(
                a for a in tracer.trace(target).path_addresses
                if a is not None)
        traceroute_probes += tracer.prober.stats.sent

    return BandwidthOutcome(
        tracenet_addresses=len(run.tool.collected_addresses),
        tracenet_probes=tracenet_probes,
        tracenet_bytes=wire_bytes(Protocol.ICMP, tracenet_probes),
        traceroute_addresses=len(traceroute_addresses),
        traceroute_probes=traceroute_probes,
        traceroute_bytes=wire_bytes(Protocol.ICMP, traceroute_probes),
        traceroute_vantages=len(sites),
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
        variants[name] = SurveyOutcome.of(
            *_survey(network="internet2", seed=seed, disabled_rules=disabled),
            name=f"Internet2[{name}]")
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
