"""Every recorded run replays and analyses offline from its journal alone.

One matrix over the journal shapes the CLI records — traces over each
protocol, surveys plain / with stop sets / batched, and a radar run under
churn, loss and ``--limit`` — asserting the live == replay == offline
contract through :mod:`repro.runspec`, the one builder behind ``--replay``,
``tracenet stats`` and ``tracenet spans``:

* ``--replay <journal>`` with no other flag reproduces the live archive,
  event stream and span tree;
* :func:`stats_from_journal` reproduces the live deterministic metrics;
* :func:`span_tree_from_journal` reproduces the live span tree;
* a flag that contradicts the header makes ``--replay`` exit 2.
"""

import dataclasses
import json
import os

import pytest

from repro.cli import main
from repro.mapping import archive_to_dict
from repro.metrics import stats_from_journal
from repro.probing import RetryPolicy
from repro.runspec import RunSpec, RunSpecError
from repro.tracing import span_tree_from_journal
from repro.transport import ReplayMismatch, ReplayTransport

#: shape -> (live argv, a flag that contradicts the recorded header).
SHAPES = {
    "trace-icmp": (["trace", "--protocol", "icmp", "--json"],
                   ["--protocol", "udp"]),
    "trace-udp": (["trace", "--protocol", "udp", "--json"],
                  ["--protocol", "tcp"]),
    "trace-tcp": (["trace", "--protocol", "tcp", "--json"],
                  ["--protocol", "icmp"]),
    "survey": (["survey", "--network", "geant"], ["--stop-sets"]),
    "survey-stop-sets": (["survey", "--network", "geant", "--stop-sets"],
                         ["--batch-window", "4"]),
    "survey-batch-window-4": (["survey", "--network", "geant",
                               "--batch-window", "4"],
                              ["--batch-window", "1"]),
    "radar": (["radar", "--network", "geant", "--drop-rate", "0.05",
               "--limit", "30"], ["--drop-rate", "0.0"]),
}


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


def _outputs(capsys, tmp_path, tag, argv):
    """Run one CLI collection; returns (stdout, events, spans, out dir)."""
    paths = {key: str(tmp_path / f"{tag}.{key}")
             for key in ("events", "spans", "metrics", "out")}
    extra = ["--events", paths["events"], "--spans-out", paths["spans"]]
    if argv[0] == "radar":
        extra += ["--out", paths["out"]]
    if tag == "live":
        extra += ["--metrics-out", paths["metrics"]]
    stdout = _run(capsys, argv + extra)
    with open(paths["events"], encoding="utf-8") as fp:
        events = fp.read()
    with open(paths["spans"], encoding="utf-8") as fp:
        spans = json.load(fp)
    return stdout, events, spans, paths


def _read_dir(path):
    return {name: open(os.path.join(path, name), encoding="utf-8").read()
            for name in sorted(os.listdir(path))}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_journal_round_trip(shape, capsys, tmp_path):
    argv, contradiction = SHAPES[shape]
    journal = str(tmp_path / "run.jsonl")
    live_out, live_events, live_spans, live = _outputs(
        capsys, tmp_path, "live", argv + ["--record", journal])
    output_flags = [flag for flag in argv if flag == "--json"]
    replay_out, replay_events, replay_spans, replay = _outputs(
        capsys, tmp_path, "replay",
        [argv[0], "--replay", journal, *output_flags])

    # --replay with nothing but the journal reproduces the live run.
    assert replay_events == live_events
    assert replay_spans == live_spans
    if argv[0] == "trace":
        assert replay_out == live_out
    elif argv[0] == "radar":
        assert _read_dir(replay["out"]) == _read_dir(live["out"])
        assert replay_out == live_out.replace("(live, recording)",
                                              "(replay)")
    else:
        assert replay_out == live_out.replace("(serial, recording)",
                                              "(replay)")
        header = ReplayTransport(journal).metadata
        replayed = RunSpec.from_header(header).build(
            transport=ReplayTransport(journal)).execute()
        rebuilt = RunSpec.from_header(header).build().execute()
        assert archive_to_dict(replayed) == archive_to_dict(rebuilt)

    # Offline analytics: the live deterministic metrics and span tree.
    with open(live["metrics"], encoding="utf-8") as fp:
        live_metrics = json.load(fp)["metrics"]
    stats = stats_from_journal(journal)
    assert stats.registry.snapshot() == live_metrics
    assert stats.exchanges_remaining == 0
    assert span_tree_from_journal(journal).to_dict() == live_spans

    # The header is authoritative: a contradicting flag exits 2.
    assert main([argv[0], "--replay", journal, *contradiction]) == 2
    err = capsys.readouterr().err
    assert f"{contradiction[0]} contradicts the journal header" in err


class TestHeaders:
    def test_live_header_round_trips(self):
        for shape, flags in (("trace", {"vantage": "A",
                                        "destination": 167772161,
                                        "protocol": "udp"}),
                             ("survey", {"stop_sets": True}),
                             ("radar", {"limit": 30, "drop_rate": 0.05})):
            spec = RunSpec.from_flags(shape, **flags)
            assert RunSpec.from_header(spec.header()) == spec

    @pytest.mark.parametrize("spec", [
        RunSpec("trace", vantage="A", destination=167772161,
                scenario="figure3", protocol="tcp"),
        RunSpec("survey", network="geant", seed=7, vantage="utdallas"),
        RunSpec("survey", network="geant", seed=7, vantage="utdallas",
                protocol="udp", limit=10),
        RunSpec("survey", network="internet2", seed=13, vantage="utdallas",
                collector={"batch_window": 4, "stop_sets": True}),
        RunSpec.from_flags("radar", protocol="tcp", limit=30,
                           drop_rate=0.05),
    ], ids=["trace-tcp", "survey", "survey-udp", "survey-collector",
            "radar-tcp"])
    def test_spec_round_trips_through_header(self, spec):
        assert RunSpec.from_header(spec.header()) == spec

    def test_icmp_survey_header_omits_protocol(self):
        assert "protocol" not in RunSpec.from_flags("survey").header()
        assert "protocol" not in RunSpec.from_flags("radar").header()

    def test_udp_survey_journal_replays(self, tmp_path):
        spec = RunSpec("survey", network="geant", seed=7, vantage="utdallas",
                       protocol="udp", limit=10)
        journal = str(tmp_path / "udp.jsonl")
        live = spec.build(record=journal).execute()
        transport = ReplayTransport(journal)
        replayed = RunSpec.from_header(transport.metadata).build(
            transport=transport).execute()
        assert archive_to_dict(replayed) == archive_to_dict(live)

    def test_only_survey_headers_record_the_gated_retry(self):
        specs = {"trace": RunSpec.from_flags("trace", destination=167772161),
                 "survey": RunSpec.from_flags("survey"),
                 "radar": RunSpec.from_flags("radar")}
        assert specs["survey"].header()["collector"] == {"retry": "gated"}
        assert "collector" not in specs["trace"].header()
        assert "collector" not in specs["radar"].header()
        assert {shape: spec.tool_kwargs()["retries"]
                for shape, spec in specs.items()} == {
            "trace": RetryPolicy(gated=False), "survey": RetryPolicy(),
            "radar": RetryPolicy(gated=False)}
        with pytest.raises(RunSpecError, match="unknown retry rule"):
            RunSpec("survey", collector={"retry": "twice"}).tool_kwargs()

    def test_header_without_retry_rule_replays_retry_once(self, tmp_path):
        """A journal written before the retry gate records no rule: it
        rebuilds the paper's retry of every silence, byte for byte."""
        gated = RunSpec.from_flags("survey", network="internet2")
        old = dataclasses.replace(gated, collector={})
        header = gated.header()
        assert header.pop("collector") == {"retry": "gated"}
        assert old.header() == header
        journal = str(tmp_path / "old.jsonl")
        live = old.build(record=journal)
        live_archive = live.execute(events_path=str(tmp_path / "live.jsonl"))
        stats = live.tool.prober.stats
        # Enough unanswered retries that the gate would have closed.
        assert stats.retries_answered == 0 and stats.retries > 10 * (
            RetryPolicy.WARMUP)
        transport = ReplayTransport(journal)
        spec = RunSpec.from_header(transport.metadata)
        assert spec == old
        replayed = spec.build(transport=transport).execute(
            events_path=str(tmp_path / "replay.jsonl"))
        assert archive_to_dict(replayed) == archive_to_dict(live_archive)
        assert (tmp_path / "replay.jsonl").read_bytes() == \
            (tmp_path / "live.jsonl").read_bytes()
        # The gated rule would not have sent this journal's probes.
        transport = ReplayTransport(journal)
        with pytest.raises(ReplayMismatch):
            gated.build(transport=transport).execute()

    def test_radar_header_records_limit_only_when_given(self):
        assert "limit" not in RunSpec.from_flags("radar").header()
        assert RunSpec.from_flags("radar", limit=30).header()["limit"] == 30

    def test_header_fills_gaps_but_rejects_contradictions(self):
        header = {"network": "geant", "seed": 7}
        spec = RunSpec.from_header(header, vantage="utdallas")
        assert spec.shape == "survey" and spec.vantage == "utdallas"
        with pytest.raises(RunSpecError, match="records seed=7"):
            RunSpec.from_header(header, seed=8)
        with pytest.raises(RunSpecError, match="records a survey run"):
            RunSpec.from_header(header, "radar")
        with pytest.raises(RunSpecError, match="neither a destination"):
            RunSpec.from_header({})

    def test_isp_and_ablation_specs_round_trip(self):
        isp = RunSpec.from_flags("survey", network="isp", seed=5, scale=0.12,
                                 per_isp=10, vantage="umass")
        every_target = dataclasses.replace(isp, per_isp=None)
        ablated = RunSpec.from_flags("survey", network="internet2",
                                     disabled_rules=frozenset({"H7", "H6"}))
        assert isp.header() == {
            "network": "isp", "seed": 5, "vantage": "umass", "scale": 0.12,
            "per_isp": 10, "collector": {"retry": "gated"}}
        assert every_target.header()["per_isp"] is None
        assert ablated.header()["collector"] == {
            "disabled_rules": ["H6", "H7"], "retry": "gated"}
        assert ablated.tool_kwargs()["disabled_rules"] == {"H6", "H7"}
        for spec in (isp, every_target, ablated):
            assert RunSpec.from_header(spec.header()) == spec
        plain = RunSpec.from_flags("survey", network="internet2").header()
        assert not {"scale", "per_isp"} & set(plain)
        assert "disabled_rules" not in plain["collector"]

    def test_isp_targets_are_the_proportional_draw(self):
        spec = RunSpec.from_flags("survey", network="isp", seed=5, scale=0.12,
                                  per_isp=10, vantage="rice")
        internet = spec.load_network()
        grouped = internet.targets_proportional(seed=5, total=10 * 4)
        assert spec.targets(internet) == [t for group in grouped.values()
                                          for t in group]
        assert dataclasses.replace(spec, limit=7).targets(internet) == \
            spec.targets(internet)[:7]
        assert len(dataclasses.replace(spec, per_isp=None).targets(
            internet)) == sum(map(len, internet.targets(seed=5).values()))

    def test_isp_survey_journal_replays(self, tmp_path):
        spec = RunSpec.from_flags("survey", network="isp", seed=5,
                                  scale=0.12, per_isp=10, vantage="uoregon",
                                  limit=12)
        journal = str(tmp_path / "isp.jsonl")
        live = spec.build(record=journal).execute()
        transport = ReplayTransport(journal)
        assert RunSpec.from_header(transport.metadata) == spec
        replayed = RunSpec.from_header(transport.metadata).build(
            transport=transport).execute()
        assert archive_to_dict(replayed) == archive_to_dict(live)

    def test_unknown_network_raises(self):
        with pytest.raises(RunSpecError, match="unknown scenario or network"):
            RunSpec.from_flags("survey", network="arpanet").build()


def test_v1_journal_replays_to_the_pinned_archive():
    """A committed version-1 journal (its records still carry IP-IDs and
    record-route fields) replays, in a fresh interpreter, to the archive
    the live figure-3 ICMP trace is pinned to."""
    from digest_flows import DIGESTS_PATH, _cli, _sha

    journal = os.path.join(os.path.dirname(__file__), "data",
                           "journal_v1_figure3_icmp.jsonl")
    with open(DIGESTS_PATH, encoding="utf-8") as fp:
        pinned = json.load(fp)["trace-figure3-icmp"]["archive"]
    assert _sha(_cli(["trace", "--replay", journal, "--json"])) == pinned


class TestBrokenJournals:
    """Malformed or truncated journals fail with one line, exit 2."""

    @pytest.fixture
    def journal_lines(self, tmp_path, capsys):
        journal = tmp_path / "trace.jsonl"
        _run(capsys, ["trace", "--record", str(journal)])
        return journal.read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("cut", ["exchanges", "mid-line"])
    @pytest.mark.parametrize("command", [
        ["stats"], ["spans"], ["trace", "--replay"]])
    def test_truncated_journal(self, journal_lines, tmp_path, capsys,
                               cut, command):
        broken = tmp_path / "broken.jsonl"
        if cut == "exchanges":
            text = "".join(journal_lines[:len(journal_lines) // 2])
        else:
            text = "".join(journal_lines)[:-40]
        broken.write_text(text)
        assert main([*command, str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command[0]} failed: ")
        assert len(err.strip().splitlines()) == 1
