"""Internet2-like ground-truth topology (paper Section 4.1, Table 1).

The blueprint reproduces the *original* subnet prefix distribution of
Table 1's ``orgl`` row — 179 subnets, mostly point-to-point /30 links with a
handful of larger LANs — plus the observability structure the authors found
when they probed every address of the missed/underestimated subnets:

* 21 totally unresponsive subnets (the ``miss\\unrs`` row),
* 19 partially unresponsive /28s (the ``undes\\unrs`` row),
* 3 naturally missed subnets (scattered sparse utilization),
* 3 naturally underestimated subnets (one small contiguous cluster — the
  paper's two /28s "with only 2 / only 5 addresses utilized").
"""

from __future__ import annotations

import random
from typing import List

from .spec import GeneratedNetwork, NetworkBlueprint, add_vantage, synthesize

#: Table 1 "orgl" row: prefix length -> number of subnets.
ORIGINAL_DISTRIBUTION = {24: 6, 25: 1, 26: 0, 27: 2, 28: 26, 29: 20, 30: 101, 31: 23}

#: Table 1 "miss\unrs" row: totally unresponsive subnets.
FIREWALLED = {24: 4, 25: 1, 27: 2, 28: 1, 29: 4, 30: 8, 31: 1}

#: Table 1 "undes\unrs" row: partially unresponsive subnets.
PARTIALLY_SILENT = {28: 19}

#: Table 1 "miss" row: subnets missed for non-responsiveness reasons.
SPARSE = {24: 1, 28: 2}

#: Table 1 "undes" row: natural underestimations (sparse but clustered).
UNDERUTILIZED = {24: 1, 28: 2}


def blueprint(seed: int = 2010) -> NetworkBlueprint:
    """The Internet2 blueprint (Table 1 ground truth)."""
    return NetworkBlueprint(
        name="internet2",
        seed=seed,
        base="64.57.0.0/16",
        distribution=dict(ORIGINAL_DISTRIBUTION),
        firewalled=dict(FIREWALLED),
        partial=dict(PARTIALLY_SILENT),
        sparse=dict(SPARSE),
        underutilized=dict(UNDERUTILIZED),
        backbone_routers=9,  # Internet2's nine-node backbone
        chords=3,
    )


def build(seed: int = 2010, vantage: str = "utdallas") -> GeneratedNetwork:
    """Synthesize Internet2 with the paper's single UT Dallas vantage."""
    network = synthesize(blueprint(seed), validate=False)
    add_vantage(network, vantage)
    network.topology.validate()  # once, vantage stub included
    return network


def targets(network: GeneratedNetwork, seed: int = 2010) -> List[int]:
    """One random address per original subnet (the paper's target set)."""
    return network.pick_targets(random.Random(seed ^ 0x5EED))
