"""Section 1's cost-effectiveness claim.

"Taking into account that acquiring similar information with traceroute
requires extensive tracing conducted from many vantage points and a careful
post processing, tracenet can be regarded as a cost effective solution in
terms of bandwidth and computation."

This bench pits one tracenet vantage against classic traceroute run from
*every* vantage point over the same target set and compares the address
yield per byte on the wire.
"""

from conftest import (
    BENCH_SCALE,
    BENCH_SEED,
    BENCH_TARGETS_PER_ISP,
    write_artifact,
)
from repro import experiments


def test_bandwidth_economy(benchmark):
    outcome = benchmark.pedantic(
        experiments.run_bandwidth_comparison,
        kwargs=dict(seed=BENCH_SEED, scale=BENCH_SCALE,
                    per_isp=BENCH_TARGETS_PER_ISP),
        rounds=1, iterations=1)
    text = outcome.render()
    print()
    print(text)
    write_artifact("bandwidth_economy.txt", text)

    # One tracenet vantage discovers more addresses than traceroute from
    # all three vantages combined...
    assert outcome.tracenet_addresses > outcome.traceroute_addresses
    # ...at a comparable or better per-address wire cost.
    assert (outcome.tracenet_bytes_per_address
            <= outcome.traceroute_bytes_per_address * 1.5)
