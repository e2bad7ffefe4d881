"""Behaviour pinning: every committed digest re-derives bit for bit.

``tests/digests.json`` holds SHA-256 digests of the journal, archive,
event stream, deterministic metrics and span tree of the reference CLI
flows in ``tests/digest_flows.py``.  A refactor that claims to change no
behaviour must leave every one of them unchanged.  Each flow's ``map``
digest covers only the collected subnets and traces: a change that moves
probe counts alone re-pins the byte digests and leaves every map alone.
"""

import json

import pytest

from digest_flows import DIGESTS_PATH, FLOWS, flow_digests

with open(DIGESTS_PATH, "r", encoding="utf-8") as _fp:
    PINNED = json.load(_fp)


def test_every_flow_is_pinned():
    assert sorted(PINNED) == sorted(FLOWS)


def test_collector_options_keep_the_geant_map():
    """Stop sets and a batch window of 4 change what a GEANT survey
    spends, not what it maps."""
    assert len({PINNED[flow]["map"] for flow in (
        "survey-geant", "survey-geant-stop-sets",
        "survey-geant-batch-window-4")}) == 1


@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_flow_digests_unchanged(flow, tmp_path):
    assert flow_digests(flow, str(tmp_path)) == PINNED[flow]
