"""Shortest-path routing over the router↔subnet graph.

Routing is per destination *subnet* (routers advertise their connected
prefixes): a packet destined to an address in subnet S is forwarded along a
hop-count shortest path until it reaches a router attached to S, which then
delivers across the LAN.  Equal-cost ties produce ECMP next-hop sets; the
:class:`LoadBalancer` decides which member a given packet takes, modelling
the per-flow and per-packet load-balancing behaviours of Section 3.7.
"""

from __future__ import annotations

import enum
import random
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .topology import Topology


@dataclass(frozen=True)
class NextHop:
    """One forwarding choice: the neighbor router and the subnet crossed."""

    router_id: str
    via_subnet_id: str


class LoadBalancingMode(enum.Enum):
    """How a router picks among equal-cost next hops."""

    NONE = "none"            # deterministic: always the first candidate
    PER_FLOW = "per-flow"    # hash of flow identity (Paris-stable)
    PER_PACKET = "per-packet"  # random per packet (the hostile case)


@dataclass(frozen=True)
class FlowKey:
    """The header fields a per-flow balancer hashes."""

    src: int
    dst: int
    protocol: str
    flow_id: int


class LoadBalancer:
    """Per-router ECMP tie-breaking policy.

    Deterministic given its seed: per-flow hashing uses CRC32 over the flow
    key, per-packet splitting uses a seeded PRNG stream.
    """

    def __init__(self, default_mode: LoadBalancingMode = LoadBalancingMode.NONE,
                 seed: int = 0):
        self.default_mode = default_mode
        self._per_router: Dict[str, LoadBalancingMode] = {}
        self._rng = random.Random(seed)
        # Mutation counter: memoized paths bake in per-flow ECMP choices,
        # so a mid-run mode change must invalidate them (engine watches).
        self.version = 0

    def set_mode(self, router_id: str, mode: LoadBalancingMode) -> None:
        """Override the balancing mode of one router."""
        self._per_router[router_id] = mode
        self.version += 1

    def mode_of(self, router_id: str) -> LoadBalancingMode:
        return self._per_router.get(router_id, self.default_mode)

    def choose(self, router_id: str, candidates: List[NextHop],
               flow: FlowKey) -> NextHop:
        """Pick the next hop this packet takes at ``router_id``."""
        if not candidates:
            raise ValueError(f"no next-hop candidates at {router_id}")
        if len(candidates) == 1:
            return candidates[0]
        mode = self.mode_of(router_id)
        if mode == LoadBalancingMode.NONE:
            return candidates[0]
        if mode == LoadBalancingMode.PER_FLOW:
            material = f"{router_id}|{flow.src}|{flow.dst}|{flow.protocol}|{flow.flow_id}"
            digest = zlib.crc32(material.encode("ascii"))
            return candidates[digest % len(candidates)]
        return candidates[self._rng.randrange(len(candidates))]

    def choose_stable(self, router_id: str, candidates: List[NextHop],
                      flow: FlowKey) -> Optional[NextHop]:
        """Like :meth:`choose` but side-effect free: returns the hop this
        flow always takes, or None when the choice is per-packet random
        (in which case no PRNG state is consumed)."""
        if not candidates:
            raise ValueError(f"no next-hop candidates at {router_id}")
        if len(candidates) == 1:
            return candidates[0]
        mode = self.mode_of(router_id)
        if mode == LoadBalancingMode.PER_PACKET:
            return None
        return self.choose(router_id, candidates, flow)


#: BFS states retained per table.  One state is O(subnets), so the bound
#: matters far less than it did for router-level maps.  It does not cover
#: a survey: the reference surveys (seeds 4-7) route toward 170-178
#: distinct subnets on Internet2 and 261-268 on GEANT.  They still repeat
#: no BFS (``bfs_runs`` equals the distinct subnet count), because a
#: subnet's levels are read only while its next hops are first computed,
#: and the next-hop sets themselves are cached without a bound.
DEFAULT_DISTANCE_CACHE = 128

#: Level of a subnet the BFS has not labelled yet: farther than the depth
#: reached, or unreachable once the BFS is exhausted.  Larger than any
#: level, so ``min`` over a router's subnets skips it.
_UNSEEN = 1 << 62


class _Bfs:
    """One destination subnet's BFS, extended only as far as asked.

    ``levels[T]`` is exact for every subnet within ``depth`` levels of the
    destination and ``_UNSEEN`` beyond; ``frontier`` holds the subnets at
    level ``depth`` and is empty once the graph is exhausted.
    """

    __slots__ = ("levels", "frontier", "depth")

    def __init__(self, subnet_count: int, start: int):
        self.levels = [_UNSEEN] * subnet_count
        self.levels[start] = 0
        self.frontier = [start]
        self.depth = 0


class RoutingTable:
    """All-pairs router→subnet distances and ECMP next-hop sets.

    One BFS per *used* destination subnet, run over the subnet adjacency
    graph (two subnets are adjacent when they share a router), which is
    orders of magnitude smaller than the router graph: LAN-heavy
    topologies hang tens of thousands of single-homed routers off a few
    hundred subnets.  The BFS assigns every subnet ``T`` a level ``δ(T)``
    (0 for the destination itself) and router distances follow from the
    identity ``d(r) = min δ(T)`` over the subnets ``T`` attached to ``r``:
    a chain of subnet crossings from ``r`` to the destination is exactly a
    walk in the subnet graph.  Next-hop sets are derived lazily and
    cached, so a survey that only routes toward its own targets never
    pays for the rest of the network.

    Each BFS is resumable: it is extended level by level only until one
    of the queried router's subnets is labelled, so a query near the
    destination labels only the subnets near it, and a later, farther
    query on the same destination picks up where the last one stopped.
    A router's subnets are pairwise adjacent, so its first labelled
    subnet carries ``d(r)``, and every subnet at level ``d(r)`` or less
    is labelled by then — all that :meth:`next_hops` reads.

    The graph is interned on first use: router and subnet ids are mapped
    to dense integer indices in sorted-id order, which fixes the ECMP
    candidate order (attached subnets ascending, then neighbors
    ascending).  BFS states are held in an LRU bounded by
    ``distance_cache_size``.

    A topology ``version`` bump costs what it touched.  Only the subnets
    whose ``membership_version`` stamp is newer than the interned graph
    have their member rows recomputed; the routers that joined or left
    them get new subnet rows, and only the transit and adjacency rows
    those routers sit on are re-derived.  A mutation whose rows come out
    equal (a renumber, a flap restored before the next query) keeps every
    cache.  A BFS state is dropped only when a subnet whose transit or
    adjacency row changed is labelled in it: levels up to a state's depth
    never read the rows of subnets it has not labelled.  Next-hop sets go
    with their dropped states, and with states the LRU evicted since the
    last change (a restarted state may not have labelled what they read);
    a moved router's own next-hop sets go with it.  Only a change to the
    router or subnet id set interns the graph afresh.

    Attributes:
        bfs_runs: BFS states started so far — one per distinct destination
            subnet actually routed toward (modulo LRU evictions and states
            a mutation made stale).
    """

    def __init__(self, topology: Topology,
                 distance_cache_size: int = DEFAULT_DISTANCE_CACHE):
        self.topology = topology
        self.distance_cache_size = max(1, distance_cache_size)
        self.bfs_runs = 0
        self._graph_version: Optional[int] = None
        self._router_ids: List[str] = []
        self._subnet_ids: List[str] = []
        self._r_index: Dict[str, int] = {}
        self._s_index: Dict[str, int] = {}
        self._members: List[Tuple[int, ...]] = []  # subnet -> member routers
        self._r2s: List[Tuple[int, ...]] = []  # router -> attached subnets
        # Interned ``_r2s`` rows: every single-homed router on a LAN shares
        # one tuple, which keeps LAN-heavy topologies at a pointer per
        # router, across patches too.
        self._rows: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._transit: List[List[int]] = []  # subnet -> multi-homed routers
        self._s2s: List[List[int]] = []  # subnet -> adjacent subnets
        # subnet index -> its resumable BFS, LRU-bounded.
        self._levels: "OrderedDict[int, _Bfs]" = OrderedDict()
        # destination subnet id -> router id -> its ECMP set.
        self._next_hops: Dict[str, Dict[str, List[NextHop]]] = {}
        # Subnet indices whose state the LRU evicted since the last change:
        # their next-hop sets may have read levels a restarted state has
        # not labelled, so no state vouches for them.
        self._evicted: Set[int] = set()

    # -- graph interning ---------------------------------------------------

    def _ensure_graph(self) -> None:
        version = getattr(self.topology, "version", -1)
        if self._graph_version == version:
            return
        if self._graph_version is None or not self._patch_graph():
            self._intern_graph()
        self._graph_version = version

    def _member_row(self, subnet_id: str) -> Tuple[int, ...]:
        """``subnet_id``'s member routers as ascending indices."""
        r_index = self._r_index
        return tuple(sorted(
            r_index[rid] for rid in self.topology.subnets[subnet_id].router_ids))

    def _derive_rows(self, subnet_index: int) -> bool:
        """Set ``subnet_index``'s transit and adjacency rows from its member
        row and their subnet rows; True when either row changed."""
        r2s = self._r2s
        # A single-homed router never forwards across its subnet, so only
        # the multi-homed members can be next hops.
        transit = [r for r in self._members[subnet_index] if len(r2s[r]) > 1]
        adjacent = set()
        for r in transit:
            adjacent.update(r2s[r])
        adjacent.discard(subnet_index)
        s2s = sorted(adjacent)
        if transit == self._transit[subnet_index] \
                and s2s == self._s2s[subnet_index]:
            return False
        self._transit[subnet_index] = transit
        self._s2s[subnet_index] = s2s
        return True

    def _intern_graph(self) -> None:
        topology = self.topology
        self._router_ids = sorted(topology.routers)
        self._subnet_ids = sorted(topology.subnets)
        self._r_index = {rid: i for i, rid in enumerate(self._router_ids)}
        self._s_index = {sid: j for j, sid in enumerate(self._subnet_ids)}
        self._members = [self._member_row(sid) for sid in self._subnet_ids]
        r2s: List[List[int]] = [[] for _ in self._router_ids]
        for j, row in enumerate(self._members):
            for r in row:
                r2s[r].append(j)  # subnets visited in ascending order
        rows = self._rows = {}
        self._r2s = [rows.setdefault(row, row) for row in map(tuple, r2s)]
        count = len(self._subnet_ids)
        self._transit = [None] * count
        self._s2s = [None] * count
        for j in range(count):
            self._derive_rows(j)
        self._levels.clear()
        self._next_hops.clear()
        self._evicted.clear()

    def _patch_graph(self) -> bool:
        """Re-derive only the rows the mutations since the last intern
        touched; False when the router or subnet id set changed, which
        needs a fresh intern."""
        topology = self.topology
        if len(topology.routers) != len(self._router_ids) \
                or len(topology.subnets) != len(self._subnet_ids):
            return False
        since = self._graph_version
        s_index = self._s_index
        members = self._members
        # router index -> the subnets it joined or left
        moved: Dict[int, Set[int]] = {}
        for subnet_id, subnet in topology.subnets.items():
            if subnet.membership_version <= since:
                continue
            j = s_index.get(subnet_id)
            if j is None:
                return False  # a new id in place of a removed one
            row = self._member_row(subnet_id)
            old = members[j]
            if row == old:
                continue  # a renumber, or a flap already restored
            members[j] = row
            for r in set(old).symmetric_difference(row):
                moved.setdefault(r, set()).add(j)
        if not moved:
            return True
        r2s = self._r2s
        rows = self._rows
        affected = set()
        for r, toggled in moved.items():
            old = r2s[r]
            row = tuple(sorted(toggled.symmetric_difference(old)))
            r2s[r] = rows.setdefault(row, row)
            affected.update(old)
            affected.update(row)
        changed = [k for k in affected if self._derive_rows(k)]
        if changed:
            levels_of = self._levels
            for stale in [subnet for subnet, state in levels_of.items()
                          if any(state.levels[k] != _UNSEEN
                                 for k in changed)]:
                del levels_of[stale]
            # Keep only the next-hop sets a state still here has labelled
            # every level of.
            kept = {self._subnet_ids[subnet] for subnet in levels_of
                    if subnet not in self._evicted}
            for subnet_id in [sid for sid in self._next_hops
                              if sid not in kept]:
                del self._next_hops[subnet_id]
            self._evicted.clear()
        router_ids = self._router_ids
        for by_router in self._next_hops.values():
            for r in moved:
                by_router.pop(router_ids[r], None)
        return True

    # -- distances ---------------------------------------------------------

    def _levels_to(self, subnet_index: int,
                   router_index: Optional[int]) -> List[int]:
        """Per-subnet levels toward ``subnet_index``, labelled at least as
        far as ``router_index``'s distance (the whole graph when that
        router is unreachable; not at all when it is None)."""
        state = self._levels.get(subnet_index)
        if state is None:
            self.bfs_runs += 1
            state = _Bfs(len(self._subnet_ids), subnet_index)
            self._levels[subnet_index] = state
            if len(self._levels) > self.distance_cache_size:
                self._evicted.add(self._levels.popitem(last=False)[0])
        else:
            self._levels.move_to_end(subnet_index)
        levels = state.levels
        if router_index is None:
            return levels
        own = self._r2s[router_index]
        s2s = self._s2s
        frontier = state.frontier
        depth = state.depth
        while frontier and min(map(levels.__getitem__, own),
                               default=_UNSEEN) == _UNSEEN:
            depth += 1
            reached = []
            for subnet in frontier:
                for neighbor in s2s[subnet]:
                    if levels[neighbor] == _UNSEEN:
                        levels[neighbor] = depth
                        reached.append(neighbor)
            frontier = reached
        state.frontier = frontier
        state.depth = depth
        return levels

    def _router_distance(self, levels: List[int], router_index: int) -> int:
        """``d(r) = min δ(T)`` over the labelled subnets attached to ``r``
        (``_UNSEEN`` when unreachable).  Call it on levels :meth:`_levels_to`
        extended for ``r``: they are then labelled at least to ``d(r)``."""
        return min(map(levels.__getitem__, self._r2s[router_index]),
                   default=_UNSEEN)

    # -- public API --------------------------------------------------------

    def distance(self, router_id: str, subnet_id: str) -> Optional[int]:
        """Hops from ``router_id`` to the nearest router attached to ``subnet_id``.

        0 means the router is itself attached; None means unreachable.
        """
        self._ensure_graph()
        subnet_index = self._s_index.get(subnet_id)
        if subnet_index is None:
            raise KeyError(subnet_id)
        router_index = self._r_index.get(router_id)
        if router_index is None:
            return None
        value = self._router_distance(
            self._levels_to(subnet_index, router_index), router_index)
        return None if value == _UNSEEN else value

    def next_hops(self, router_id: str, subnet_id: str) -> List[NextHop]:
        """The ECMP set at ``router_id`` toward ``subnet_id`` (may be empty).

        A neighbor across ``via`` is one hop closer exactly when
        ``δ(via) == d(r)``: ``via`` then met the BFS frontier through a
        router at ``d(r) - 1``, and any such router pulls ``δ(via)`` down
        to ``d(r)``.  Subnets one level further out are skipped whole.
        """
        self._ensure_graph()
        by_router = self._next_hops.get(subnet_id)
        if by_router is not None:
            cached = by_router.get(router_id)
            if cached is not None:
                return cached
        subnet_index = self._s_index.get(subnet_id)
        if subnet_index is None:
            raise KeyError(subnet_id)
        router_index = self._r_index.get(router_id)
        levels = self._levels_to(subnet_index, router_index)
        candidates: List[NextHop] = []
        if router_index is not None:
            own = self._router_distance(levels, router_index)
            if 0 < own < _UNSEEN:
                closer = own - 1
                r2s = self._r2s
                router_ids = self._router_ids
                for via in r2s[router_index]:
                    if levels[via] != own:
                        continue
                    via_id = self._subnet_ids[via]
                    for neighbor in self._transit[via]:
                        # Every subnet of a neighbor sits at level >= own - 1
                        # (this router's own subnets at >= own), so it is
                        # closer iff one of them is at own - 1.
                        if closer in map(levels.__getitem__, r2s[neighbor]):
                            candidates.append(NextHop(
                                router_id=router_ids[neighbor],
                                via_subnet_id=via_id))
        if by_router is None:
            by_router = self._next_hops[subnet_id] = {}
        by_router[router_id] = candidates
        return candidates

    def egress_interface_toward(self, router_id: str, subnet_id: str) -> Optional[int]:
        """Address of ``router_id``'s interface on its path toward ``subnet_id``.

        This is the address a *shortest-path interface* router stamps on its
        TTL-Exceeded replies when the reply target lives in ``subnet_id``.
        """
        router = self.topology.routers[router_id]
        attached = router.interface_on(subnet_id)
        if attached is not None:
            return attached.address
        hops = self.next_hops(router_id, subnet_id)
        if not hops:
            return None
        via = router.interface_on(hops[0].via_subnet_id)
        return via.address if via is not None else None
