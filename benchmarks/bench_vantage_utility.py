"""Marginal utility of vantage points (the paper's §1 argument via [6]).

"A common goal in most topology discovery studies is to increase the
coverage ... by increasing the number of vantage points ... the utility of
this commonly followed approach was shown to be limited.  One of our
primary goals is to maximize the utility of our data collection process by
focusing on discovering the complete topology of the visited subnets."

Measured: cumulative coverage as vantage points are added, tracenet vs
classic traceroute over the same target set.
"""

from conftest import (
    BENCH_SCALE,
    BENCH_SEED,
    BENCH_TARGETS_PER_ISP,
    write_artifact,
)
from repro import experiments


def test_vantage_utility(benchmark):
    outcome = benchmark.pedantic(
        experiments.run_vantage_utility,
        kwargs=dict(seed=BENCH_SEED, scale=BENCH_SCALE,
                    per_isp=BENCH_TARGETS_PER_ISP),
        rounds=1, iterations=1)
    text = outcome.render()
    print()
    print(text)
    write_artifact("vantage_utility.txt", text)

    # Diminishing returns: each added vantage helps tracenet less.
    gains = outcome.marginal_gains("tracenet")
    assert gains[0] >= gains[-1]
    assert gains[-1] < 0.25
    # One tracenet vantage already out-collects traceroute from all three
    # vantages combined (addresses).
    assert (outcome.address_curves["tracenet"][0]
            > outcome.address_curves["traceroute"][-1])
