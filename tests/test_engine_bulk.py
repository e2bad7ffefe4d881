"""Differential tests for the batched ``send_many`` fast loop.

The contract: ``send_many`` chunks and a plain ``send`` loop through the
hop-by-hop :class:`~reference_walk.WalkingEngine` are packet-for-packet
identical — same responses, same rate-limit bucket drains — and the
batched-lookup counters always reconcile (``bulk_lookup_hits + bulk_lookup_misses == batched_probes``).
"""

from conftest import address_on
from reference_walk import WalkingEngine
from repro.netsim import (
    Engine,
    IndirectConfig,
    LoadBalancer,
    LoadBalancingMode,
    Probe,
    ResponsePolicy,
    TopologyBuilder,
)

#: Batch size: several TTL sweeps per ``send_many`` call.
CHUNK = 32


#: The engine class answering each dispatch lane.
LANE_ENGINE = {"serial": WalkingEngine, "batched": Engine}


def chain(engine_cls=Engine, n=6, policy=None):
    builder = TopologyBuilder("chain")
    for i in range(1, n):
        builder.link(f"R{i}", f"R{i+1}")
    builder.edge_host("v", "R1")
    topo = builder.build()
    return engine_cls(topo, policy=policy), topo


def diamond(mode, engine_cls=Engine, seed=5):
    """v - R1 - {R2 | R3} - R4 - R5: one ECMP split at R1."""
    builder = TopologyBuilder("diamond")
    builder.link("R1", "R2")
    builder.link("R1", "R3")
    builder.link("R2", "R4")
    builder.link("R3", "R4")
    builder.link("R4", "R5")
    builder.edge_host("v", "R1")
    topo = builder.build()
    balancer = LoadBalancer(default_mode=mode, seed=seed)
    return engine_cls(topo, balancer=balancer), topo


def signature(response):
    if response is None:
        return None
    return response.kind, response.source, response.responder


def ladder(topo, dsts, ttls=range(1, 7), repeats=3, flows=(0,)):
    """A survey-shaped probe sequence: repeated TTL sweeps per target."""
    src = topo.hosts["v"].address
    return [
        Probe(src=src, dst=address_on(topo, *name), ttl=ttl, flow_id=flow)
        for _ in range(repeats)
        for name in dsts
        for ttl in ttls
        for flow in flows
    ]


def run_lane(engine, probes, lane, chunk=CHUNK):
    """Answer ``probes`` with a ``send`` loop or in ``send_many`` chunks."""
    if lane == "serial":
        return [engine.send(p) for p in probes]
    responses = []
    for start in range(0, len(probes), chunk):
        responses.extend(engine.send_many(probes[start:start + chunk]))
    return responses


def dispatch(make_engine, probes_of, chunk=CHUNK):
    """Run one probe sequence through both dispatch lanes.

    ``make_engine(engine_cls)`` must build everything fresh per call
    (rate-limit buckets are stateful across engines sharing a policy
    object).
    """
    streams, engines = {}, {}
    for lane in ("serial", "batched"):
        engine, topo = make_engine(LANE_ENGINE[lane])
        responses = run_lane(engine, probes_of(topo), lane, chunk)
        streams[lane] = [signature(r) for r in responses]
        engines[lane] = engine
    assert streams["batched"] == streams["serial"]
    stats = engines["batched"].stats
    assert (stats.bulk_lookup_hits + stats.bulk_lookup_misses
            == stats.batched_probes)
    return streams, engines


class TestBulkEquivalence:
    def test_matches_serial_on_chain(self):
        _, engines = dispatch(
            chain,
            lambda topo: ladder(topo, [("R5", "R4"), ("R3", "R2"),
                                       ("R2", "R1")]))
        assert engines["batched"].stats.bulk_lookup_hits > 0

    def test_multiple_flows_keyed_separately(self):
        dispatch(chain,
                 lambda topo: ladder(topo, [("R5", "R4"), ("R4", "R3")],
                                     flows=(0, 3, 7)))

    def test_rate_limited_bucket_drains_identically(self):
        def limited(engine_cls):
            policy = ResponsePolicy().rate_limit_router(
                "R2", capacity=2, refill_per_tick=0.3)
            return chain(engine_cls, policy=policy)

        streams, _ = dispatch(
            limited,
            lambda topo: ladder(topo, [("R5", "R4")], ttls=(2,),
                                repeats=40))
        assert None in streams["serial"]          # the bucket did drain
        assert any(s is not None for s in streams["serial"])

    def test_nil_router_stays_silent(self):
        def configured(engine_cls):
            engine, topo = chain(engine_cls)
            topo.routers["R2"].indirect_config = IndirectConfig.NIL
            engine.clear_path_cache()
            return engine, topo

        streams, _ = dispatch(
            configured,
            lambda topo: ladder(topo, [("R5", "R4"), ("R4", "R3")]))
        # The NIL router stays silent on indirect probes (ttl=2 expires at
        # R2), while deeper hops answer.
        assert None in streams["serial"]
        assert any(s is not None and s[2] == "R3" for s in streams["serial"])

    def test_per_packet_balancer_preserves_rng_stream(self):
        streams, engines = dispatch(
            lambda cls: diamond(LoadBalancingMode.PER_PACKET, cls),
            lambda topo: ladder(topo, [("R5", "R4")], ttls=(2,),
                                repeats=48))
        responders = {s[2] for s in streams["batched"] if s is not None}
        assert responders == {"R2", "R3"}
        # Per-packet flows are uncacheable: the batched lane must fall back
        # probe for probe, never serving them from the path memo.
        assert engines["batched"].stats.bulk_lookup_hits == 0

    def test_per_flow_balancer_is_cached(self):
        _, engines = dispatch(
            lambda cls: diamond(LoadBalancingMode.PER_FLOW, cls),
            lambda topo: ladder(topo, [("R5", "R4"), ("R4", "R5")],
                                flows=(0, 5)))
        assert engines["batched"].stats.bulk_lookup_hits > 0

    def test_misses_interleaved_mid_batch(self):
        # New destinations first appear in the middle of a batch, so the
        # fast loop must splice per-probe sends between memo-served hits.
        def probes_of(topo):
            warm = ladder(topo, [("R5", "R4")], repeats=8)
            cold = ladder(topo, [("R3", "R2")], repeats=1)
            head, tail = warm[:CHUNK // 2], warm[CHUNK // 2:]
            return head + cold + tail

        _, engines = dispatch(chain, probes_of)
        stats = engines["batched"].stats
        assert stats.bulk_lookup_hits > 0
        assert stats.bulk_lookup_misses > 0


class TestRateLimitedNilOrdering:
    def test_token_state_matches_serial(self):
        # Regression: the batched loop once checked the NIL (source=None)
        # plan before drawing the rate-limit bucket, leaving a silenced,
        # rate-limited router's token state ahead of a serial run.  The
        # bucket must be consumed first, exactly as the walk does.
        def run(lane):
            policy = ResponsePolicy().rate_limit_router(
                "R2", capacity=3, refill_per_tick=0.1)
            policy.silence_router("R2")
            engine, topo = chain(LANE_ENGINE[lane], policy=policy)
            probes = ladder(topo, [("R5", "R4")], ttls=(2, 3), repeats=30)
            responses = run_lane(engine, probes, lane)
            bucket = policy._rate_limiters["R2"]
            return ([signature(r) for r in responses],
                    (bucket.tokens, bucket.last_tick))

        serial_stream, serial_bucket = run("serial")
        stream, bucket = run("batched")
        assert stream == serial_stream
        assert bucket == serial_bucket
        # R2 never answers (silenced), deeper hops still do.
        assert all(s is None or s[2] != "R2" for s in serial_stream)
        assert any(s is not None for s in serial_stream)


class TestMutationBetweenBatches:
    def test_rewired_topology_drops_the_memo(self):
        # A topology mutation lands between two batches on a warm path
        # memo: the next batch must route over the new shortcut exactly as
        # a serial run does, never replaying the stale memoized walks.
        streams, stats = {}, {}
        for lane in ("serial", "batched"):
            builder = TopologyBuilder("chain")
            for i in range(1, 6):
                builder.link(f"R{i}", f"R{i+1}")
            builder.edge_host("v", "R1")
            topo = builder.build()
            engine = LANE_ENGINE[lane](topo)
            probes = ladder(topo, [("R5", "R4"), ("R6", "R5")], repeats=2)
            responses = run_lane(engine, probes, lane)
            builder.link("R1", "R5")
            responses += run_lane(engine, probes, lane)
            streams[lane] = [signature(r) for r in responses]
            stats[lane] = engine.stats
        assert streams["batched"] == streams["serial"]
        half = len(streams["serial"]) // 2
        assert streams["serial"][:half] != streams["serial"][half:]
        batched = stats["batched"]
        assert (batched.bulk_lookup_hits + batched.bulk_lookup_misses
                == batched.batched_probes)
        assert batched.bulk_lookup_hits > 0
