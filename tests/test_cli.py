"""The `python -m repro` reproduction CLI."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure7", "table1", "headline"):
            assert name in out

    def test_single_exhibit(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "ION-GPFS" in out
        assert "[table2:" in out

    def test_unknown_exhibit(self, capsys):
        assert main(["figure99"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_scaled_run(self, capsys):
        assert main(["figure6", "--scale", "0.25"]) == 0
        assert "sub-GPFS" in capsys.readouterr().out

    def test_output_directory(self, tmp_path, capsys):
        assert main(["table1", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "table1.txt").exists()
        assert "Table 1" in (tmp_path / "table1.txt").read_text()

    def test_serve_subcommand_wired(self, capsys):
        """`serve` dispatches to its own parser (here: its --help)."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--queue-limit" in out and "--max-concurrency" in out

    def test_serve_rejects_bad_cache_dir(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--cache-dir", str(not_a_dir)])
        assert exc.value.code == 2

    def test_lifetime_subcommand(self, tmp_path, capsys):
        assert main([
            "lifetime", "--scale", "0.2", "--labels", "CNL-UFS",
            "--kinds", "TLC", "--ages", "0,0.9",
            "--prom", str(tmp_path / "metrics.txt"),
            "-o", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Device lifetime sweep" in out
        assert "[lifetime: 2 cells" in out
        assert (tmp_path / "lifetime.txt").exists()
        prom = (tmp_path / "metrics.txt").read_text()
        assert "repro_lifetime_bandwidth_mb" in prom

    def test_lifetime_rejects_bad_age(self, capsys):
        assert main(["lifetime", "--scale", "0.2", "--labels", "CNL-UFS",
                     "--kinds", "TLC", "--ages", "1.5"]) == 2
        assert "lifetime sweep" in capsys.readouterr().err

    def test_lifetime_in_list_output(self, capsys):
        assert main(["list"]) == 0
        assert "lifetime" in capsys.readouterr().out

    def test_lifetime_checkpoint_workload(self, capsys):
        assert main([
            "lifetime", "--scale", "0.2", "--labels", "CNL-UFS",
            "--kinds", "SLC", "--ages", "0", "--workload", "checkpoint",
        ]) == 0
        assert "Device lifetime sweep" in capsys.readouterr().out

    def test_netfault_subcommand(self, tmp_path, capsys):
        assert main([
            "netfault", "--scale", "0.2", "--loss-rates", "0,0.05",
            "--labels", "CNL-UFS,ION-GPFS", "--kinds", "SLC",
            "--stats-dir", str(tmp_path / "stats"),
            "--prom", str(tmp_path / "metrics.txt"),
            "-o", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "CNL vs ION under fabric degradation" in out
        assert "[netfault: 4 cells" in out
        assert "[net stats:" in out
        assert (tmp_path / "netfault.txt").exists()
        assert (tmp_path / "stats" / "net_stats.csv").exists()
        prom = (tmp_path / "metrics.txt").read_text()
        assert "repro_netfault_delivered_factor" in prom

    def test_netfault_rejects_bad_loss_rates(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["netfault", "--loss-rates", "0,nope"])
        assert exc.value.code == 2
        assert "loss-rates" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["lifetime", "--ages", "0,x"],
        ["netfault", "--loss-rates", "0,0.05,x"],
    ])
    def test_malformed_axis_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_netfault_rejects_unknown_label(self, capsys):
        assert main(["netfault", "--scale", "0.2", "--loss-rates", "0",
                     "--labels", "NOPE"]) == 2
        assert "netfault sweep" in capsys.readouterr().err

    def test_netfault_replay_mode(self, tmp_path, capsys):
        trace = tmp_path / "jobs.jsonl"
        trace.write_text(
            '{"job": "cell", "label": "CNL-UFS", "kind": "SLC", '
            '"workload": {"panels": 2, "panel_bytes": 65536}}\n'
        )
        assert main(["netfault", "--replay", str(trace), "--speed", "0"]) == 0
        assert "trace replay: 1 jobs" in capsys.readouterr().out

    def test_netfault_replay_bad_trace(self, tmp_path, capsys):
        trace = tmp_path / "jobs.jsonl"
        trace.write_text("{broken\n")
        assert main(["netfault", "--replay", str(trace)]) == 2
        assert "netfault replay" in capsys.readouterr().err

    def test_netfault_in_list_output(self, capsys):
        assert main(["list"]) == 0
        assert "netfault" in capsys.readouterr().out
