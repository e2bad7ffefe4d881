"""Doubletree-style stop sets: cross-trace redundancy elimination.

Donnet, Huffaker, Friedman & claffy ("Implementation and Deployment of a
Distributed Network Topology Discovery Algorithm") showed that at survey
scale most probes re-discover path prefixes the collector has already seen:
traces toward destinations in the same prefix share almost all of their
early hops.  Doubletree suppresses that redundancy with *stop sets* of
(interface, destination-prefix) pairs consulted before probing.

This module is tracenet's forward-probing adaptation.  A :class:`StopSet`
remembers, per destination prefix, the deepest hop sequence of a trace that
reached a destination inside that prefix.  A later trace toward the same
prefix first *verifies* membership (Doubletree's stop-set membership
check): one probe at the deepest remembered hop, cascading to shallower
remembered hops while routers mismatch.  Routes from a single vantage form
a tree, so a match at any depth validates every hop above it — those are
served from memory, each one a suppressed probe, and live probing resumes
past the verified hop.  A mismatched-router verification is free: the
TTL-Exceeded proves the destination lies deeper, so the ladder reuses the
cached response when it reaches that TTL.  Only a verification answered by
the destination itself can waste a probe, and the cascade stops at the
first one.

One collector fills a stop set over its whole target list; passing the
same set to a later survey starts that survey warm.  Suppression changes
the probe economy by design — counted probes only ever go down — while the
collected map stays equal on the reference networks; the exact contract is
gated by the throughput bench and the stop-set tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..netsim.addressing import Prefix

#: Destination-prefix granularity of the shared-path assumption.
#: Doubletree deploys /24 at internet scale; the reference networks'
#: subnets are finer than that, and a /24 bucket that lumps several
#: distinct subnets turns most membership checks into cross-subnet
#: rejections.  /28 matches their subnet granularity and measures best on
#: both (internet2 -13.8% probes, geant -9.5%); override per StopSet for
#: coarser deployments.
DEFAULT_STOP_PREFIX_LENGTH = 28

#: A remembered path must reach at least this deep (with a verifiable,
#: non-anonymous hop) before consulting it can save probes: the membership
#: check costs one probe and suppression saves ``depth - 1``.
MIN_REMEMBERED_DEPTH = 2

#: One remembered hop: (ttl, interface address or None for anonymous).
RememberedHop = Tuple[int, Optional[int]]


class StopSet:
    """(interface, destination-prefix) stop set shared across traces.

    Args:
        prefix_length: destination aggregation granularity; destinations in
            the same /``prefix_length`` block are assumed to share their
            path prefix (the Doubletree assumption).
    """

    def __init__(self, prefix_length: int = DEFAULT_STOP_PREFIX_LENGTH):
        if not 0 < prefix_length <= 32:
            raise ValueError(
                f"stop-set prefix length must be in (0, 32], got {prefix_length}")
        self.prefix_length = prefix_length
        self._paths: Dict[int, Tuple[RememberedHop, ...]] = {}
        # Epoch scoping: entries remember the topology epoch they were
        # recorded under and are lazily discarded once the epoch advances
        # (a TopologyMutated event) — a remembered path through a flapped
        # link must not keep hiding what the network looks like now.
        self.epoch = 0
        self._epochs: Dict[int, int] = {}
        # Consultation accounting.
        self.recorded = 0     # destination prefixes with a remembered path
        self.hits = 0         # membership checks that verified
        self.misses = 0       # consultations with no usable remembered path
        self.rejected = 0     # membership checks that diverged (fell back)
        self.suppressed = 0   # ladder probes served from memory, not the wire
        self.invalidated = 0  # entries discarded by an epoch advance

    def __len__(self) -> int:
        return len(self._paths)

    def __bool__(self) -> bool:
        # An empty stop set is still a live, fillable stop set.
        return True

    def key(self, destination: int) -> int:
        """The destination-prefix bucket ``destination`` aggregates into."""
        return Prefix.containing(destination, self.prefix_length).network

    def advance_epoch(self) -> None:
        """The network changed: stop trusting every remembered path.

        Invalidation is lazy — stale entries are discarded (and counted)
        when next consulted, so an advance costs O(1) regardless of stop-set
        size.  Paths recorded after the advance are trusted again.
        """
        self.epoch += 1

    def lookup(self, destination: int) -> Optional[Tuple[RememberedHop, ...]]:
        """The remembered hop sequence toward ``destination``'s prefix.

        Entries recorded under an earlier topology epoch are stale by
        definition: the path they remember may no longer exist, and
        consulting one could suppress probes that would have discovered
        the post-mutation network.  They are dropped here, lazily.
        """
        key = self.key(destination)
        path = self._paths.get(key)
        if path is not None and self._epochs.get(key, 0) != self.epoch:
            del self._paths[key]
            self._epochs.pop(key, None)
            self.invalidated += 1
            return None
        return path

    def record(self, destination: int,
               hops: Iterable[RememberedHop]) -> bool:
        """Remember the pre-destination hops of a trace that reached.

        ``hops`` is the (ttl, address) ladder strictly before the
        destination hop, anonymous hops as ``address=None``.  The *deepest*
        recorded path per prefix wins — a deeper path verifies deeper and
        suppresses more, and suppressed traces themselves never deepen it
        (their served hops came from this path).  Returns True when the
        path was stored or replaced a shallower one.
        """
        key = self.key(destination)
        path = tuple((int(ttl), address) for ttl, address in hops)
        if not path:
            return False
        existing = self._paths.get(key)
        if existing is not None and self._epochs.get(key, 0) != self.epoch:
            # A stale survivor from before the epoch advance: any fresh
            # path beats it, whatever the depths.
            existing = None
            self.invalidated += 1
        if existing is None:
            if key not in self._paths:
                self.recorded += 1
            self._paths[key] = path
            self._epochs[key] = self.epoch
            return True
        if _verifiable_depth(path) > _verifiable_depth(existing):
            self._paths[key] = path
            self._epochs[key] = self.epoch
            return True
        return False

    def verification_hops(self, destination: int) -> List[RememberedHop]:
        """Membership-check candidates, deepest first.

        Every remembered non-anonymous hop at depth >=
        :data:`MIN_REMEMBERED_DEPTH`, ordered deepest to shallowest.  Routes
        from one vantage form a tree, so a match at any depth validates
        everything above it — the consumer checks candidates in this order
        and suppresses below the first one that verifies.  Empty when there
        is no remembered path for the destination's prefix, or when it is
        too shallow for suppression to pay for the verification probe.
        """
        path = self.lookup(destination)
        if path is None:
            return []
        return [(ttl, address) for ttl, address in reversed(path)
                if address is not None and ttl >= MIN_REMEMBERED_DEPTH]

    def counters(self) -> Dict[str, int]:
        """Flat consultation counters (bench reports)."""
        return {
            "prefixes": len(self._paths),
            "recorded": self.recorded,
            "hits": self.hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "suppressed": self.suppressed,
            "invalidated": self.invalidated,
        }


def _verifiable_depth(path: Sequence[RememberedHop]) -> int:
    """The deepest non-anonymous ttl of a remembered path (0 when none)."""
    for ttl, address in reversed(path):
        if address is not None:
            return ttl
    return 0


__all__ = [
    "DEFAULT_STOP_PREFIX_LENGTH",
    "MIN_REMEMBERED_DEPTH",
    "StopSet",
]
