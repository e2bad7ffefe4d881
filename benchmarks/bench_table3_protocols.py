"""Table 3 — tracenet under ICMP, UDP and TCP probing over four ISPs.

Paper (PlanetLab site Rice): ICMP 11 995 subnets total, UDP 3 779, TCP 68 —
ICMP clearly outperforms UDP, and TCP is negligible.
"""

from conftest import (
    BENCH_SCALE,
    BENCH_SEED,
    BENCH_TARGETS_PER_ISP,
    write_artifact,
)
from repro import experiments


def test_table3_protocols(benchmark):
    outcome = benchmark.pedantic(
        experiments.run_protocol_comparison,
        kwargs=dict(seed=BENCH_SEED, scale=BENCH_SCALE,
                    per_isp=BENCH_TARGETS_PER_ISP, vantage="rice"),
        rounds=1, iterations=1)
    text = outcome.render()
    print()
    print(text)
    write_artifact("table3_protocols.txt", text)

    totals = outcome.totals()
    # The paper's ordering: ICMP >> UDP >> TCP (TCP nearly nothing).
    assert totals["icmp"] > totals["udp"] > totals["tcp"]
    assert totals["udp"] >= totals["icmp"] * 0.15
    assert totals["tcp"] <= totals["icmp"] * 0.1
    # Every ISP individually keeps the ICMP >= UDP ordering.
    for isp, counts in outcome.counts.items():
        assert counts["icmp"] >= counts["udp"], isp
