"""Figure 6 — distribution of exactly-matching subnets across the three
PlanetLab vantage points.

Paper: ~60% of a vantage's subnets are observed by all three sites, and
~80% by at least one other site.
"""

from conftest import write_artifact


def test_fig6_crossval_venn(benchmark, crossval_outcome):
    # The shared cross-validation run is the expensive part; benchmark the
    # Venn/agreement computation it feeds.
    def compute():
        return crossval_outcome.venn, crossval_outcome.agreement

    venn, agreement = benchmark.pedantic(compute, rounds=1, iterations=1)
    text = crossval_outcome.render_figure6()
    print()
    print(text)
    write_artifact("fig6_crossval_venn.txt", text)

    assert sum(venn.values()) > 100
    triple = venn.get(frozenset(crossval_outcome.collections), 0)
    assert triple > 0
    for site, rates in agreement.items():
        # Paper shape: around 60% seen by all, roughly 80% seen by >= 1.
        assert 0.40 <= rates["all"] <= 0.90, (site, rates)
        assert 0.65 <= rates["shared"] <= 1.0, (site, rates)
        assert rates["shared"] >= rates["all"]
