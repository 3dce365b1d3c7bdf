"""Experiment runner and figure harness (reduced workload)."""

from __future__ import annotations

import pytest

from repro.experiments import Workload, figure6, run_config, run_matrix, table1, table2
from repro.experiments.report import grid_table, kv_lines, percent_table
from repro.ssd.metrics import BREAKDOWN_KEYS, PAL_KEYS

MiB = 1024 * 1024

#: 4x smaller than the default so the whole file runs in seconds
SMALL = Workload(panels=4, panel_bytes=4 * MiB, iterations=1)


class TestRunConfig:
    def test_result_fields_populated(self):
        r = run_config("CNL-EXT4", "MLC", SMALL)
        assert r.label == "CNL-EXT4"
        assert r.kind == "MLC"
        assert r.bandwidth_mb > 0
        assert r.remaining_mb >= 0
        assert 0 <= r.channel_utilization <= 1
        assert 0 <= r.package_utilization <= 1
        assert sum(r.breakdown.values()) == pytest.approx(1.0)
        assert sum(r.parallelism.values()) == pytest.approx(1.0)
        assert r.metrics is None

    def test_keep_metrics(self):
        r = run_config("CNL-UFS", "MLC", SMALL, keep_metrics=True)
        assert r.metrics is not None

    def test_pattern_peak_replays_only_for_kept_metrics(self, monkeypatch):
        """The pattern peak feeds only ``RunMetrics``: the scalar runner
        skips it for the main replay's discarded metrics and for the
        unconstrained peak replay, which reads the aggregate alone."""
        import dataclasses

        import repro.ssd.metrics as metrics_mod

        calls: list[int] = []
        real = metrics_mod.media_pattern_peak

        def spy(log, geom, kind):
            calls.append(len(log))
            return real(log, geom, kind)

        monkeypatch.setattr(metrics_mod, "media_pattern_peak", spy)
        tiny = Workload(panels=2, panel_bytes=256 * 1024)
        plain = run_config("CNL-EXT4", "SLC", tiny, keep_metrics=False)
        assert calls == []
        kept = run_config("CNL-EXT4", "SLC", tiny, keep_metrics=True)
        assert len(calls) == 1
        assert kept.metrics.pattern_peak_bytes_per_sec > 0
        assert dataclasses.replace(kept, metrics=None) == plain

    def test_accepts_objects_or_strings(self):
        from repro.experiments import config_by_label
        from repro.nvm import MLC as MLC_KIND

        a = run_config("CNL-UFS", "MLC", SMALL)
        b = run_config(config_by_label("CNL-UFS"), MLC_KIND, SMALL)
        assert a.bandwidth_mb == pytest.approx(b.bandwidth_mb)

    def test_deterministic(self):
        a = run_config("CNL-EXT2", "TLC", SMALL, seed=7)
        b = run_config("CNL-EXT2", "TLC", SMALL, seed=7)
        assert a.bandwidth_mb == b.bandwidth_mb

    def test_ion_runs_two_clients(self):
        r = run_config("ION-GPFS", "MLC", SMALL, keep_metrics=True)
        assert set(r.metrics.client_bandwidth) == {0, 1}
        assert r.aggregate_mb > r.bandwidth_mb

    def test_run_matrix_keys(self):
        out = run_matrix(["CNL-UFS"], ["SLC", "PCM"], SMALL)
        assert set(out) == {("CNL-UFS", "SLC"), ("CNL-UFS", "PCM")}


class TestWorkload:
    def test_bytes_per_client(self):
        assert SMALL.bytes_per_client == 16 * MiB

    def test_traces_partitioned(self):
        t0, t1 = SMALL.traces(2)
        assert t0.client == 0 and t1.client == 1
        assert t1[0].offset == SMALL.bytes_per_client


class TestStaticExhibits:
    def test_table1_text(self):
        fd = table1()
        for name in ("SLC", "MLC", "TLC", "PCM"):
            assert name in fd.text
        assert fd.data["TLC"]["read_ns"] == 150_000

    def test_table2_rows(self):
        fd = table2()
        assert len(fd.data["rows"]) == 13
        assert "ION-GPFS" in fd.text

    def test_figure6(self):
        fd = figure6(panels=8, panel_mb=2)
        assert fd.data["gpfs"]["stride_entropy"] > fd.data["posix"]["stride_entropy"]
        assert "sub-GPFS" in fd.text


class TestReportRendering:
    def test_grid_table(self):
        vals = {("r1", "c1"): 1.0, ("r1", "c2"): 2.0, ("r2", "c1"): 3.0}
        out = grid_table("T", ["r1", "r2"], ["c1", "c2"], vals)
        assert "T" in out
        assert "-" in out  # missing (r2, c2) rendered as dash

    def test_percent_table(self):
        vals = {("r", "K"): {k: 1 / len(BREAKDOWN_KEYS) for k in BREAKDOWN_KEYS}}
        out = percent_table("P", ["r"], ["K"], vals, BREAKDOWN_KEYS)
        assert "16.7%" in out

    def test_kv_lines(self):
        out = kv_lines("H", {"a": 1.5, "b": "x"})
        assert "a" in out and "1.50" in out and "x" in out

    def test_pal_keys_shape(self):
        assert PAL_KEYS == ("PAL1", "PAL2", "PAL3", "PAL4")
