"""Unit tests for the experiment runners (shared by benches and CLI)."""

import hashlib

import pytest

from repro import experiments
from repro.core import TraceNET
from repro.evaluation import Category
from repro.netsim import Engine, format_ip
from repro.runspec import RunSpec
from repro.topogen.adversarial import build_gauntlet


def collection_digest(subnets):
    """SHA-256 over the sorted ``prefix member...`` lines of a collection."""
    lines = sorted(f"{s.prefix} " + " ".join(format_ip(m)
                                             for m in sorted(s.members))
                   for s in subnets)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestSurveyRunners:
    @pytest.fixture(scope="class")
    def internet2_outcome(self):
        return experiments.run_internet2_survey(seed=11)

    def test_internet2_outcome_fields(self, internet2_outcome):
        assert internet2_outcome.name == "Internet2"
        assert internet2_outcome.probes_sent > 0
        assert len(internet2_outcome.report.outcomes) == 179

    def test_internet2_render_contains_table(self, internet2_outcome):
        text = internet2_outcome.render()
        assert "orgl" in text
        assert "similarity" in text

    def test_similarity_pair(self, internet2_outcome):
        incl = internet2_outcome.similarity()
        excl = internet2_outcome.similarity(exclude_unresponsive=True)
        assert 0 <= incl[0] <= excl[0] <= 1

    def test_seed_changes_network_not_shape(self):
        a = experiments.run_internet2_survey(seed=1)
        b = experiments.run_internet2_survey(seed=2)
        assert abs(a.exact_match_rate - b.exact_match_rate) < 0.15


class TestTablesPinned:
    """Tables 1-2 as the hand-assembled collectors produced them before
    every survey became a ``RunSpec`` run: collection, probes, exact
    matches out of ground-truth subnets."""

    @pytest.mark.parametrize("runner,seed,probes,exact,digest", [
        ("run_internet2_survey", 7, 3045, (136, 179),
         "800270c26df2f5a930b5a1ba39c19e598b16c98691eebdad27d7bfd5643d2374"),
        ("run_internet2_survey", 11, 3168, (135, 179),
         "2c20bcc40f46ba6b1159762ca331a78c184d6646c6cd5a69b02816d715a1be4d"),
        ("run_geant_survey", 7, 4004, (147, 271),
         "ce89c9ac0bc7390694e936bb8c956781c5861334bb25cd975a764f3a9c20144e"),
        ("run_geant_survey", 11, 4361, (147, 271),
         "81585d718abc83c1befde9541a22f37b66d64919c2c5f82c060d385f0fdce533"),
    ])
    def test_survey_unchanged(self, runner, seed, probes, exact, digest):
        outcome = getattr(experiments, runner)(seed=seed)
        assert outcome.probes_sent == probes
        assert (outcome.report.count(Category.EXACT),
                len(outcome.report.outcomes)) == exact
        assert collection_digest(outcome.collected) == digest


class TestFlowsPinned:
    """Two more networks in the style of :class:`TestTablesPinned`: the
    adversarial gauntlet through the full pipeline and one ``isp`` survey.
    """

    def test_gauntlet_unchanged(self):
        gauntlet = build_gauntlet(seed=5, motifs_per_kind=2)
        network = gauntlet.network
        tool = TraceNET(Engine(network.topology, policy=network.policy),
                        "vantage")
        tool.trace_many(gauntlet.targets)
        assert tool.prober.stats.sent == 365
        assert collection_digest(tool.collected_subnets) == \
            "470a1d5798fda19127d33ff8d0aad01c419f581d905337a0ff7eb612276d409c"

    def test_isp_survey_unchanged(self):
        run, archive = isp_run("rice")
        assert run.tool.prober.stats.sent == 6507
        assert collection_digest(archive.subnets) == \
            "189b742081749c0a7fc736f0c1a9ae037997bf07d8dfcb91852467adf6a869cc"


def isp_run(site, protocol=None):
    """The standalone ``isp`` survey the tests below compare against."""
    run = RunSpec.from_flags("survey", network="isp", seed=5, scale=0.12,
                             per_isp=10, vantage=site,
                             protocol=protocol).build()
    return run, run.execute()


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def outcome(self):
        return experiments.run_cross_validation(seed=5, scale=0.12,
                                                per_isp=10)

    def test_three_collections(self, outcome):
        assert sorted(outcome.collections) == ["rice", "umass", "uoregon"]

    def test_venn_partitions(self, outcome):
        universe = set()
        for prefixes in outcome.prefix_sets.values():
            universe |= prefixes
        assert sum(outcome.venn.values()) == len(universe)

    def test_agreement_bounds(self, outcome):
        for rates in outcome.agreement.values():
            assert 0 <= rates["all"] <= rates["shared"] <= 1

    def test_accounting_rows(self, outcome):
        rows = outcome.accounting()
        assert len(rows) == 3 * 4  # vantages x ISPs
        for row in rows:
            assert row.targets >= 0

    def test_each_vantage_is_its_standalone_survey(self, outcome):
        for site, collection in outcome.collections.items():
            run, archive = isp_run(site)
            assert collection.targets == run.targets
            assert collection_digest(collection.subnets) == \
                collection_digest(archive.subnets), site

    def test_renders(self, outcome):
        assert "Figure 6" in outcome.render_figure6()
        assert "Figure 7" in outcome.render_figure7()
        assert "Figure 8" in outcome.render_figure8()
        assert "Figure 9" in outcome.render_figure9()
        assert outcome.render().count("Figure") >= 4


class TestProtocolComparison:
    def test_counts_structure(self):
        outcome = experiments.run_protocol_comparison(seed=5, scale=0.12,
                                                      per_isp=10)
        assert sorted(outcome.counts) == ["abovenet", "level3", "ntt",
                                          "sprintlink"]
        for per_isp in outcome.counts.values():
            assert set(per_isp) == {"icmp", "udp", "tcp"}
        totals = outcome.totals()
        assert totals["icmp"] >= totals["udp"] >= totals["tcp"]

    def test_each_protocol_is_its_standalone_survey(self):
        outcome = experiments.run_protocol_comparison(seed=5, scale=0.12,
                                                      per_isp=10)
        for protocol in ("icmp", "udp", "tcp"):
            run, archive = isp_run("rice", protocol)
            alone = {name: sum(1 for s in archive.subnets
                               if s.size >= 2
                               and run.network.isp_of(s.pivot) == name)
                     for name in outcome.counts}
            assert {name: counts[protocol] for name, counts
                    in outcome.counts.items()} == alone, protocol


class TestOverheadSweep:
    def test_points_within_model(self):
        outcome = experiments.run_overhead_sweep(sizes=(2, 6, 10))
        assert [p.subnet_size for p in outcome.points] == [2, 6, 10]
        assert all(p.within_model for p in outcome.points)

    def test_render(self):
        outcome = experiments.run_overhead_sweep(sizes=(2,))
        assert "3.6" in outcome.render()


class TestDisjointPaths:
    def test_paper_conclusion(self):
        outcome = experiments.run_disjoint_paths()
        assert outcome.traceroute_concludes_disjoint
        assert outcome.tracenet_sees_shared_lan
        assert "Figure 2" in outcome.render()


class TestFluctuations:
    def test_stability_gap(self):
        outcome = experiments.run_fluctuation_experiment(runs=8, seed=3)
        assert outcome.tracenet_subnet_variants == 1
        assert outcome.traceroute_path_variants >= 1
        assert "3.7" in outcome.render()


class TestBandwidth:
    def test_tracenet_more_addresses(self):
        outcome = experiments.run_bandwidth_comparison(seed=5, scale=0.12,
                                                       per_isp=10)
        assert outcome.tracenet_addresses > outcome.traceroute_addresses
        assert outcome.tracenet_bytes > 0
        assert "bandwidth economy" in outcome.render()


class TestHeuristicAblation:
    def test_variants_present(self):
        outcome = experiments.run_heuristic_ablation(seed=11)
        assert "full pipeline" in outcome.variants
        assert "no H6" in outcome.variants
        assert "Ablation" in outcome.render()

    def test_full_at_least_as_accurate(self):
        outcome = experiments.run_heuristic_ablation(seed=11)
        full = outcome.variants["full pipeline"].exact_match_rate
        bare = outcome.variants["no H6+H7+H8"].exact_match_rate
        assert full >= bare - 0.02
