"""Radar mode: continuous re-surveys of a network that keeps changing.

"A Radar for the Internet" (Latapy, Magnien & Ouédraogo) reframes topology
measurement from *one map* to a *sequence of maps* whose deltas carry the
signal.  :class:`RadarRunner` is tracenet's version of that instrument: a
full survey round, then periodic re-survey rounds that re-probe only the
**dirty** portion of the target set — destinations plausibly affected by
the topology mutations observed since the previous round — and carry every
clean trace forward unchanged.

Determinism: dirtiness derives exclusively from the
:class:`~repro.events.TopologyMutated` stream (which itself derives from
the mutation schedule, never from apply outcomes), so a live radar run and
a journal replay probe the identical targets in the identical order and
serialize identical round archives and diffs.  With no churn at all, every
round's archive is byte-identical to an ordinary repeated survey's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from .core.results import TraceResult
from .core.tracenet import TraceNET
from .events import SubnetRetracted, TopologyMutated
from .mapping.diff import ArchiveDiff, diff_archives
from .mapping.store import CollectionArchive
from .netsim.addressing import Prefix

#: Mutation kinds whose blast radius is the whole routing plane — every
#: target is dirty, not just the ones inside a named prefix.
GLOBAL_KINDS = frozenset({"ecmp"})


class _MutationLog:
    """Bus sink accumulating TopologyMutated events between rounds."""

    interests = (TopologyMutated,)

    def __init__(self):
        self.pending: List[TopologyMutated] = []

    def __call__(self, event) -> None:
        if isinstance(event, TopologyMutated):
            self.pending.append(event)

    def drain(self) -> List[TopologyMutated]:
        drained, self.pending = self.pending, []
        return drained


def mutation_prefixes(mutations: Sequence[TopologyMutated]
                      ) -> Optional[List[Prefix]]:
    """The CIDR blocks a batch of mutations touched.

    Returns None when any mutation's blast radius is global (an ECMP
    reconvergence, or a mutation carrying no prefix information) — the
    caller must treat the whole target set as dirty.
    """
    prefixes: Set[str] = set()
    for event in mutations:
        if event.kind in GLOBAL_KINDS:
            return None
        detail = event.detail or {}
        texts = []
        for key in ("prefix", "old_prefix", "new_prefix"):
            if detail.get(key):
                texts.append(detail[key])
        if detail.get("prefixes"):
            texts.extend(detail["prefixes"])
        if not texts:
            return None  # unknown blast radius: be conservative
        prefixes.update(texts)
    return [Prefix.parse(text) for text in sorted(prefixes)]


class _BlockIndex:
    """The union of a round's mutated blocks as sorted, merged intervals.

    One ``bisect`` answers whether an address or a prefix meets any of the
    blocks — the same answer as testing each block in turn, at a cost that
    no longer grows with the number of blocks.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, blocks: Sequence[Prefix]):
        starts: List[int] = []
        ends: List[int] = []
        for block in sorted(blocks):
            low = block.network
            high = low + block.size - 1
            if ends and low <= ends[-1] + 1:
                ends[-1] = max(ends[-1], high)
            else:
                starts.append(low)
                ends.append(high)
        self._starts = starts
        self._ends = ends

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __contains__(self, address: int) -> bool:
        i = bisect_right(self._starts, address) - 1
        return i >= 0 and address <= self._ends[i]

    def overlaps(self, prefix: Prefix) -> bool:
        """True when ``prefix`` shares an address with some block."""
        low = prefix.network
        i = bisect_right(self._starts, low + prefix.size - 1) - 1
        return i >= 0 and low <= self._ends[i]


@dataclass
class RadarRound:
    """One round of the radar: what was probed and what changed."""

    index: int
    full: bool
    probed_targets: List[int]
    archive: CollectionArchive
    diff: Optional[ArchiveDiff] = None
    mutations_seen: int = 0

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "full": self.full,
            "probed_targets": len(self.probed_targets),
            "mutations_seen": self.mutations_seen,
            "traces": len(self.archive.traces),
            "subnets": len(self.archive.subnets),
            "degraded": sum(1 for t in self.archive.traces if t.degraded),
            "diff": self.diff.to_dict() if self.diff is not None else None,
        }


@dataclass
class RadarResult:
    """The full radar run: the sequence of maps plus their deltas."""

    rounds: List[RadarRound] = field(default_factory=list)

    @property
    def final_archive(self) -> CollectionArchive:
        return self.rounds[-1].archive

    @property
    def diffs(self) -> List[ArchiveDiff]:
        return [r.diff for r in self.rounds if r.diff is not None]

    def to_dict(self) -> Dict:
        return {"rounds": [r.to_dict() for r in self.rounds]}


class RadarRunner:
    """Drives a collector through repeated re-survey rounds.

    Args:
        tool: the collector.  Its event bus must be the same bus the
            :class:`~repro.transport.MutatingTransport` (if any) emits
            :class:`~repro.events.TopologyMutated` on — that stream is the
            radar's change detector.
        targets: the survey destination set, fixed across rounds.
        rounds: total rounds including the initial full survey.
        incremental: re-probe only dirty prefixes on rounds > 0.  False
            re-probes everything every round (the naive radar).
        idle_ticks: simulated ticks to idle the transport between rounds
            (rate-limit buckets refill; probe-count epochs do *not*
            advance — mutations fire on probes, not idle time).
    """

    def __init__(self, tool: TraceNET, targets: Sequence[int],
                 rounds: int = 3, incremental: bool = True,
                 idle_ticks: int = 0):
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.tool = tool
        self.targets = list(targets)
        self.rounds = rounds
        self.incremental = incremental
        self.idle_ticks = idle_ticks
        self._log = _MutationLog()
        tool.events.subscribe(self._log)

    # -- the rounds --------------------------------------------------------

    def run(self) -> RadarResult:
        result = RadarResult()
        prev_round: Optional[RadarRound] = None
        for index in range(self.rounds):
            if index > 0 and self.idle_ticks > 0:
                idle = getattr(self.tool.transport, "idle", None)
                if idle is not None:
                    idle(self.idle_ticks)
            prev_round = self._run_round(index, prev_round)
            result.rounds.append(prev_round)
        # The records after the last trace (retractions, mutations).
        self.tool.events.drain()
        return result

    def _run_round(self, index: int,
                   prev: Optional[RadarRound]) -> RadarRound:
        mutations = self._log.drain()
        dirty: Optional[_BlockIndex] = None
        if index > 0:
            blocks = mutation_prefixes(mutations) if mutations else []
            dirty = _BlockIndex(blocks) if blocks is not None else None
        if index == 0 or not self.incremental:
            probed = list(self.targets)
            full = True
        else:
            probed = self._dirty_targets(dirty, prev.archive)
            full = False
        if dirty and probed:
            self._evict_dirty(dirty)

        fresh: Dict[int, TraceResult] = {}
        for target in probed:
            fresh[target] = self.tool.trace(target)

        carried = ({t.destination: t for t in prev.archive.traces}
                   if prev is not None else {})
        traces = [fresh.get(target, carried.get(target))
                  for target in self.targets]
        archive = CollectionArchive(
            vantage=self.tool.vantage_host_id,
            subnets=list(self.tool.collected_subnets),
            traces=[t for t in traces if t is not None],
            metadata={"done_targets": sorted(set(self.targets))},
        )
        diff = None
        if prev is not None:
            diff = diff_archives(prev.archive, archive)
            self._retract(diff)
        return RadarRound(index=index, full=full, probed_targets=probed,
                          archive=archive, diff=diff,
                          mutations_seen=len(mutations))

    # -- dirtiness ---------------------------------------------------------

    def _dirty_targets(self, dirty: Optional[_BlockIndex],
                       previous: CollectionArchive) -> List[int]:
        """Targets whose previous trace a mutation could have invalidated.

        A target is dirty when a mutated prefix contains the destination
        itself, any hop of its previous trace, or any member of a subnet
        that trace observed — or when its previous trace was already
        degraded (re-validate) or missing.  ``dirty`` None means a global
        blast radius: every target is dirty.  Order follows the target
        list, so re-probing is deterministic.
        """
        if dirty is None:
            return list(self.targets)
        touches = dirty.__contains__
        previous_traces = {t.destination: t for t in previous.traces}
        result: List[int] = []
        for target in self.targets:
            trace = previous_traces.get(target)
            if trace is None or trace.degraded:
                result.append(target)
            elif dirty and (touches(trace.destination)
                            or any(map(touches, trace.addresses))):
                result.append(target)
        return result

    def _evict_dirty(self, dirty: _BlockIndex) -> None:
        """Forget registered subnets the mutations may have rewritten.

        A global blast radius never gets here: routing changed but
        subnets did not, so the registry stays valid and only the traces
        need refreshing.
        """
        touches = dirty.__contains__
        self.tool.evict_subnets(
            lambda subnet: dirty.overlaps(subnet.prefix)
            or any(map(touches, subnet.members)))

    def _retract(self, diff: ArchiveDiff) -> None:
        events = self.tool.events
        if not events:
            return
        for change in diff.vanished:
            events.record(SubnetRetracted, change.prefix, "not-reobserved")


__all__ = [
    "GLOBAL_KINDS",
    "RadarResult",
    "RadarRound",
    "RadarRunner",
    "mutation_prefixes",
]
