"""Survey-scale exactness of the engine's route and path memos.

Whole surveys — the reference Internet2 and GEANT surveys and the
adversarial gauntlet — are recorded twice, once through the hop-by-hop
:class:`~reference_walk.WalkingEngine` and once through the memoizing
:class:`~repro.netsim.Engine`, and the two journals must be byte-equal:
every probe, response, source address and responder.  The surveys probe many
addresses per destination subnet, so every derived path is exercised
against an independent walk, under the default balancer, a per-flow
balancer everywhere, and host-unreachable answers for unassigned
addresses.
"""

import io
import re

import pytest

from reference_walk import WalkingEngine
from repro.core.tracenet import TraceNET
from repro.netsim import (
    Engine,
    LoadBalancer,
    LoadBalancingMode,
    UnassignedAddressBehavior,
)
from repro.netsim.engine import _PER_ADDRESS
from repro.runner import SurveyRunner
from repro.topogen import geant, internet2
from repro.topogen.adversarial import build_gauntlet
from repro.transport import RecordingTransport, SimulatorTransport

SEED = 7

#: Probe ids come from a process-wide counter, so two surveys in one
#: process number their probes differently; everything else must match.
PROBE_ID = re.compile(r'"probe_id": \d+, ')


def reference(module):
    network = module.build(seed=SEED)
    return network, "utdallas", module.targets(network, seed=SEED)


def gauntlet():
    built = build_gauntlet(seed=SEED)
    return built.network, "vantage", built.targets


def journal(engine_cls, build, **engine_kwargs):
    """The journal text of one survey answered by ``engine_cls``."""
    network, vantage, targets = build()
    engine = engine_cls(network.topology, policy=network.policy,
                        **engine_kwargs)
    buffer = io.StringIO()
    transport = RecordingTransport(SimulatorTransport(engine), buffer)
    SurveyRunner(TraceNET(transport, vantage)).run(targets)
    transport.close()
    return PROBE_ID.sub("", buffer.getvalue()), engine


@pytest.mark.parametrize("build, engine_kwargs", [
    (lambda: reference(internet2), {}),
    (lambda: reference(geant), {}),
    (gauntlet, {}),
    (lambda: reference(internet2),
     {"balancer": LoadBalancer(LoadBalancingMode.PER_FLOW, seed=SEED)}),
    (lambda: reference(geant),
     {"unassigned_behavior": UnassignedAddressBehavior.HOST_UNREACHABLE}),
], ids=["internet2", "geant", "gauntlet", "internet2-per-flow",
        "geant-host-unreachable"])
def test_survey_journal_matches_walker(build, engine_kwargs):
    walked, _ = journal(WalkingEngine, build, **engine_kwargs)
    memoized, engine = journal(Engine, build, **engine_kwargs)
    # Compare line by line: pytest's diff of two whole journals is slow.
    walked_lines, memoized_lines = walked.splitlines(), memoized.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(walked_lines,
                                                     memoized_lines))
                  if a != b), None)
    assert first is None, (walked_lines[first], memoized_lines[first])
    assert len(memoized_lines) == len(walked_lines)
    # Routes were shared: fewer routes than memoized paths.
    assert 0 < len(engine._routes) < len(engine._path_cache)
    if "balancer" in engine_kwargs:
        # Some routes crossed a per-flow choice and serve one address each.
        assert _PER_ADDRESS in engine._routes.values()
