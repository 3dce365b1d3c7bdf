"""Per-layer breakdowns and the ``repro obs report`` CLI gate."""

from __future__ import annotations

import pytest

from repro.obs.export import write_jsonl
from repro.obs.report import main, render_report, sim_breakdown, wall_breakdown
from repro.obs.trace import Tracer


def traced_replay(tr: Tracer, label: str, makespan: int, split=(0.6, 0.4)):
    root = tr.sim_span("device", "replay", 0, makespan, site_key=("r", label))
    t = 0
    for i, (layer, frac) in enumerate(zip(("cell", "channel_bus"), split)):
        dur = makespan - t if i == len(split) - 1 else int(frac * makespan)
        tr.sim_span(layer, "attribution", t, t + dur, parent=root,
                    site_key=("a", label, layer))
        t += dur
    return root


class TestSimBreakdown:
    def test_tiled_children_give_full_coverage(self):
        tr = Tracer()
        traced_replay(tr, "A", 1000)
        traced_replay(tr, "B", 500)
        out = sim_breakdown(tr.sim_spans())
        assert out["replays"] == 2
        assert out["total_ns"] == 1500
        assert out["attributed_ns"] == 1500
        assert out["coverage"] == 1.0
        assert out["layers"]["cell"] == 900  # 600 + 300
        assert out["layers"]["channel_bus"] == 600

    def test_gap_lowers_coverage(self):
        tr = Tracer()
        root = tr.sim_span("device", "replay", 0, 1000, site_key=("r",))
        tr.sim_span("cell", "attribution", 0, 700, parent=root, site_key=("a",))
        out = sim_breakdown(tr.sim_spans())
        assert out["coverage"] == pytest.approx(0.7)

    def test_empty(self):
        out = sim_breakdown([])
        assert out["coverage"] == 0.0 and out["replays"] == 0

    def test_runner_emit_replay_spans_tiles_exactly(self):
        """The real attribution helper covers 100% of a real replay."""
        from repro.experiments.runner import Cell, emit_replay_spans, run_cell
        from repro.experiments import Workload

        cell = Cell("CNL-EXT4", "TLC", Workload(panels=2, panel_bytes=256 * 1024))
        res = run_cell(cell, keep_metrics=True)
        tr = Tracer()
        emit_replay_spans(tr, cell, res.metrics)
        out = sim_breakdown(tr.sim_spans())
        assert out["replays"] == 1
        assert out["coverage"] == 1.0
        assert set(out["layers"]) <= {
            "non_overlapped_dma", "flash_bus", "channel_bus",
            "cell_contention", "channel_contention", "cell",
        }


class TestWallBreakdown:
    def test_self_time_excludes_children(self):
        tr = Tracer()
        tr.spans.clear()
        # hand-build nesting: outer 1.0s containing inner 0.4s
        outer = tr.wall_event("cli", "run", 1.0)
        from repro.obs.trace import WALL, Span

        tr.spans.append(Span(WALL, "engine", "batch", "inner", outer, 0.0, 0.4, ()))
        out = wall_breakdown(tr.spans)
        assert out["layers"]["cli"] == pytest.approx(0.6)
        assert out["layers"]["engine"] == pytest.approx(0.4)
        assert out["total_s"] == pytest.approx(1.0)

    def test_total_falls_back_to_layer_sum_without_roots(self):
        from repro.obs.trace import WALL, Span

        spans = [Span(WALL, "pool", "c", "s1", "gone", 0.0, 0.5, ())]
        assert wall_breakdown(spans)["total_s"] == pytest.approx(0.5)


class TestReportCli:
    def write_trace(self, tmp_path, coverage=1.0):
        tr = Tracer(trace_id="cli-test")
        root = tr.sim_span("device", "replay", 0, 1000, site_key=("r",))
        tr.sim_span("cell", "attribution", 0, int(1000 * coverage),
                    parent=root, site_key=("a",))
        tr.wall_event("cli", "run", 0.1)
        path = tmp_path / "t.jsonl"
        write_jsonl(tr, path)
        return path

    def test_report_renders_both_domains(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace cli-test" in out
        assert "simulated time" in out and "wall time" in out
        assert "cell" in out and "cli" in out
        assert "100.0% of simulated time" in out

    def test_coverage_gate_passes_and_fails(self, tmp_path, capsys):
        full = self.write_trace(tmp_path, coverage=1.0)
        assert main(["report", str(full), "--require-coverage", "0.95"]) == 0
        tmp2 = tmp_path / "low"
        tmp2.mkdir()
        low = self.write_trace(tmp2, coverage=0.5)
        assert main(["report", str(low), "--require-coverage", "0.95"]) == 1
        assert "below required" in capsys.readouterr().err

    def test_missing_and_empty_traces_exit_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2

    def test_render_report_without_sim_spans(self):
        tr = Tracer(trace_id="w")
        tr.wall_event("cli", "run", 0.1)
        text = render_report({"trace_id": "w"}, tr.spans)
        assert "no sim-domain spans" in text
