"""Test helper: a sharded survey folded in-process, no fleet.

Runs :func:`repro.parallel.run_shard` once per :func:`shard_targets` slice,
in order, on the calling thread, and folds the payloads exactly as the
service coordinator does (:func:`outcome_from_payload` +
:func:`merge_outcomes`).  Deterministic and thread-free, so tests can pin
the shard primitives' content contract without leases or heartbeats.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.mapping.store import CollectionArchive
from repro.parallel import (
    ShardOutcome,
    ShardSpec,
    merge_outcomes,
    outcome_from_payload,
    run_shard,
    shard_targets,
)
from repro.probing import ProbeStats, StopSet


@dataclass
class InlineShardedRun:
    archive: CollectionArchive
    stats: ProbeStats
    stop_set: Optional[StopSet]
    shards: List[ShardOutcome]


def run_inline_shards(spec: ShardSpec, targets: Sequence[int], shards: int,
                      checkpoint_dir: Optional[str] = None,
                      checkpoint_every: int = 25) -> InlineShardedRun:
    """Survey ``targets`` as ``shards`` shards; shard ``i`` checkpoints to
    ``<checkpoint_dir>/shard-<i>.json`` when a directory is given."""
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    outcomes = []
    for index, shard in enumerate(shard_targets(targets, shards)):
        checkpoint = (os.path.join(checkpoint_dir, f"shard-{index}.json")
                      if checkpoint_dir is not None else None)
        payload = run_shard(spec, index, shard, checkpoint, checkpoint_every)
        outcomes.append(outcome_from_payload(index, shard, payload))
    archive, stats, stop_set = merge_outcomes(spec.vantage, targets,
                                              outcomes)
    return InlineShardedRun(archive=archive, stats=stats, stop_set=stop_set,
                            shards=outcomes)
