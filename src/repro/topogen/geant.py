"""GEANT-like ground-truth topology (paper Section 4.1, Table 2).

Table 2's ``orgl`` row: 271 subnets, only /28–/30 ("published GEANT
topology mostly consists of /30 and /29 subnets").  GEANT's distinguishing
feature in the paper is how much of it would not answer probes: 97 of 271
subnets are totally unresponsive and another 25 partially so — which is why
the raw exact-match rate (53.5%) looks poor while the rate over observable
subnets (97.3%) is excellent.
"""

from __future__ import annotations

import random
from typing import List

from .spec import GeneratedNetwork, NetworkBlueprint, add_vantage, synthesize

#: Table 2 "orgl" row: prefix length -> number of subnets.
ORIGINAL_DISTRIBUTION = {28: 24, 29: 109, 30: 138}

#: Table 2 "miss\unrs" row: totally unresponsive subnets.
FIREWALLED = {28: 10, 29: 53, 30: 34}

#: Table 2 "undes\unrs" row: partially unresponsive subnets.
PARTIALLY_SILENT = {28: 11, 29: 14}

#: Table 2 "miss" row: one /29 missed through sparse utilization.
SPARSE = {29: 1}

#: Table 2 "undes" row: three /28s naturally underestimated.
UNDERUTILIZED = {28: 3}


def blueprint(seed: int = 2010) -> NetworkBlueprint:
    """The GEANT blueprint (Table 2 ground truth)."""
    return NetworkBlueprint(
        name="geant",
        seed=seed,
        base="62.40.96.0/19",
        distribution=dict(ORIGINAL_DISTRIBUTION),
        firewalled=dict(FIREWALLED),
        partial=dict(PARTIALLY_SILENT),
        sparse=dict(SPARSE),
        underutilized=dict(UNDERUTILIZED),
        backbone_routers=12,
        chords=4,
    )


def build(seed: int = 2010, vantage: str = "utdallas") -> GeneratedNetwork:
    """Synthesize GEANT with the paper's single UT Dallas vantage."""
    network = synthesize(blueprint(seed), validate=False)
    add_vantage(network, vantage)
    network.topology.validate()  # once, vantage stub included
    return network


def targets(network: GeneratedNetwork, seed: int = 2010) -> List[int]:
    """One random address per original subnet (the paper's target set)."""
    return network.pick_targets(random.Random(seed ^ 0x6EA47))
