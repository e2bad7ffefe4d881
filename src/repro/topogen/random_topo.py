"""Small random topologies for tests and property-based checks."""

from __future__ import annotations

import random
from typing import Optional

from .spec import GeneratedNetwork, NetworkBlueprint, add_vantage, synthesize


def random_blueprint(seed: int, max_p2p: int = 20, max_lans: int = 6,
                     name: Optional[str] = None) -> NetworkBlueprint:
    """A random but always-valid blueprint drawn from ``seed``."""
    rng = random.Random(seed)
    distribution = {
        31: rng.randint(1, max(1, max_p2p // 2)),
        30: rng.randint(2, max_p2p),
    }
    for length in (29, 28, 27):
        count = rng.randint(0, max_lans)
        if count:
            distribution[length] = count
    return NetworkBlueprint(
        name=name if name is not None else f"random-{seed}",
        seed=seed,
        base="10.0.0.0/12",
        distribution=distribution,
        backbone_routers=rng.randint(3, 8),
        chords=rng.randint(0, 3),
    )


def build_random(seed: int, vantage: str = "vantage", **kwargs
                 ) -> GeneratedNetwork:
    """Synthesize a random network with one vantage point attached."""
    network = synthesize(random_blueprint(seed, **kwargs), validate=False)
    add_vantage(network, vantage)
    network.topology.validate()  # once, vantage stub included
    return network
