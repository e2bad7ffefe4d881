"""Unit tests for the command-line front end."""

import json

import pytest

from repro.cli import main
from repro.experiments import run_cross_validation, run_protocol_comparison


class TestTrace:
    def test_default_scenario(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "tracenet to" in out

    def test_figure2_with_source(self, capsys):
        assert main(["trace", "--scenario", "figure2", "--source", "A"]) == 0
        assert "tracenet to" in capsys.readouterr().out

    def test_unknown_source_fails(self, capsys):
        assert main(["trace", "--source", "nobody"]) == 2

    def test_json_output(self, capsys):
        assert main(["trace", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reached"] is True

    def test_compare_traceroute(self, capsys):
        assert main(["trace", "--compare-traceroute"]) == 0
        assert "traceroute view:" in capsys.readouterr().out

    def test_explicit_destination(self, capsys):
        assert main(["trace", "--scenario", "figure3",
                     "--dest", "10.0.1.1"]) == 0
        out = capsys.readouterr().out
        assert "10.0.1.1" in out

    def test_udp_protocol(self, capsys):
        assert main(["trace", "--protocol", "udp"]) == 0
        assert "tracenet to" in capsys.readouterr().out


class TestSurvey:
    def test_internet2(self, capsys):
        assert main(["survey", "--network", "internet2", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "orgl" in out
        assert "exact match rate" in out

    def test_geant(self, capsys):
        assert main(["survey", "--network", "geant", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_checkpoint_dir_resumes(self, capsys, tmp_path):
        argv = ["survey", "--network", "geant", "--seed", "7",
                "--checkpoint-dir", str(tmp_path / "ck")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "ck" / "shard-0.json").exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "probes sent: 0 " in second
        # The resumed archive reproduces the same similarity lines.
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_checkpoint_dir_refuses_record(self, capsys, tmp_path):
        assert main(["survey", "--network", "geant",
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--record", str(tmp_path / "j.jsonl")]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_workers_option_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(["survey", "--workers", "2"])


class TestNoCommand:
    def test_help_shown(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.slow
class TestCrossvalAndProtocols:
    """The CLI prints exactly the experiments module's outcome."""

    def test_crossval(self, capsys):
        assert main(["crossval", "--scale", "0.12",
                     "--targets-per-isp", "8"]) == 0
        out = capsys.readouterr().out
        outcome = run_cross_validation(seed=42, scale=0.12, per_isp=8)
        assert out == outcome.render() + "\n"
        assert "Figure 6" in out
        assert "Figure 8" in out
        assert "Figure 9" in out

    def test_protocols(self, capsys):
        assert main(["protocols", "--scale", "0.12",
                     "--targets-per-isp", "8"]) == 0
        out = capsys.readouterr().out
        outcome = run_protocol_comparison(seed=42, scale=0.12, per_isp=8)
        assert out == outcome.render() + "\n"
        assert "Table 3" in out
        assert "ICMP" in out


class TestMapCommand:
    def test_adjacency_output(self, capsys):
        assert main(["map", "--scenario", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "topology map:" in out
        assert "/29" in out

    def test_dot_output(self, capsys):
        assert main(["map", "--scenario", "figure3", "--dot"]) == 0
        out = capsys.readouterr().out
        assert "graph" in out
        assert "--" in out

    def test_save_archives(self, capsys, tmp_path):
        assert main(["map", "--scenario", "figure3",
                     "--save", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "saved" in out
        from repro.mapping import load_archive
        archives = list(tmp_path.glob("*.json"))
        assert archives
        loaded = load_archive(str(archives[0]))
        assert loaded.metadata["scenario"] == "figure3"


class TestOverheadCommand:
    def test_table_printed(self, capsys):
        assert main(["overhead", "--sizes", "2,6"]) == 0
        out = capsys.readouterr().out
        assert "3.6" in out
        assert "upper" in out


class TestExportCommand:
    def test_scenario_export(self, capsys, tmp_path):
        path = str(tmp_path / "net.json")
        assert main(["export", "--network", "internet2", "--seed", "3",
                     "--out", path]) == 0
        out = capsys.readouterr().out
        assert "exported internet2" in out
        from repro.netsim import load_scenario
        topology, policy = load_scenario(path)
        assert len(topology.subnets) >= 179
        assert policy.firewalled_subnet_ids
