"""Shared fixtures for the benchmark harness.

Figures 6-9 share one cross-validation run, which the session-scoped
fixture below makes once.  Every Section 4.2 run builds its own four-ISP
internet from (seed, scale), so no bench's numbers depend on which bench
ran before it.  Every bench writes its rendered artifact under
``benchmarks/output/`` so a run leaves the full set of regenerated
tables/figures on disk.
"""

from __future__ import annotations

import os

import pytest

from repro import experiments

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

#: Scale of the four-ISP internet used by the benches (1.0 = full profile).
BENCH_SCALE = 0.6
#: Common target-set size per ISP.
BENCH_TARGETS_PER_ISP = 80
BENCH_SEED = 42


def write_artifact(name: str, text: str) -> str:
    """Persist a rendered table/figure; returns the path."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


@pytest.fixture(scope="session")
def crossval_outcome():
    return experiments.run_cross_validation(
        seed=BENCH_SEED, scale=BENCH_SCALE, per_isp=BENCH_TARGETS_PER_ISP)
