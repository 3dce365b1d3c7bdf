"""Engine integration of the columnar backend.

Covers the routing contract: fault-free matrices ride the batch kernel
without ever forming a pool, chaos runs skip it wholesale (and still
match the fault-free numbers), planner rejections fall back per-cell
to the scalar path, and the 1-CPU pool degrade records its decision.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.batch.plan import BatchUnsupported
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import MatrixEngine
from repro.experiments.runner import Workload
from repro.faults import FaultSpec

KiB = 1024
TINY = Workload(panels=2, panel_bytes=64 * KiB)
CELLS = [
    ("CNL-EXT4", "SLC"),
    ("CNL-UFS", "TLC"),
    ("ION-GPFS", "MLC"),
    ("CNL-NATIVE-16", "PCM"),
]

_FIELDS = (
    "label", "kind", "bandwidth_mb", "aggregate_mb", "remaining_mb",
    "channel_utilization", "package_utilization", "breakdown", "parallelism",
)


def assert_results_equal(a, b):
    assert set(a) == set(b)
    for cell in a:
        for field in _FIELDS:
            assert getattr(a[cell], field) == getattr(b[cell], field), (
                f"{cell} differs on {field}"
            )


class TestBatchRouting:
    def test_default_backend_is_batch(self):
        assert MatrixEngine().backend == "batch"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            MatrixEngine(backend="gpu")

    def test_batch_handles_all_cells_without_pool(self):
        engine = MatrixEngine(workers=4, backend="batch")
        results = engine.run_cells(CELLS, TINY)
        assert engine.batch_stats["batch_cells"] == len(CELLS)
        assert engine.batch_stats["fallback_cells"] == 0
        assert engine.batch_fallbacks == {}
        # every cell was served in-process: no pool sizing ever happened
        assert engine.pool_decision is None
        assert all(r.backend == "batch" for r in results.values())

    def test_scalar_backend_still_available_and_equal(self):
        batch = MatrixEngine(backend="batch").run_cells(CELLS, TINY)
        scalar = MatrixEngine(backend="scalar").run_cells(CELLS, TINY)
        assert_results_equal(batch, scalar)
        assert all(r.backend == "scalar" for r in scalar.values())

    def test_batch_results_are_cached(self):
        cache = ResultCache()
        engine = MatrixEngine(backend="batch", cache=cache)
        engine.run_cells(CELLS, TINY)
        rerun = MatrixEngine(backend="batch", cache=cache)
        results = rerun.run_cells(CELLS, TINY)
        assert rerun.batch_stats["batch_cells"] == 0  # all cache hits
        assert cache.hits >= len(CELLS)
        assert all(r.backend == "batch" for r in results.values())

    def test_summary_reports_backend_and_batch_stats(self):
        engine = MatrixEngine(backend="batch")
        engine.run_cells(CELLS[:2], TINY)
        s = engine.summary()
        assert s["backend"] == "batch"
        assert s["batch"]["batch_cells"] == 2
        assert s["pool"] is None


class TestPlannerFallback:
    def test_unplannable_cell_falls_back_to_scalar(self, monkeypatch):
        """A planner rejection degrades one cell, not the matrix."""
        import repro.batch.backend as backend_mod

        real_plan = backend_mod.plan_cell
        victim = CELLS[0]

        def picky_plan(label, kind_name, workload, seed):
            if (label, kind_name) == victim:
                raise BatchUnsupported("synthetic rejection")
            return real_plan(label, kind_name, workload, seed)

        monkeypatch.setattr(backend_mod, "plan_cell", picky_plan)
        engine = MatrixEngine(backend="batch")
        results = engine.run_cells(CELLS, TINY)

        assert engine.batch_stats["batch_cells"] == len(CELLS) - 1
        assert engine.batch_stats["fallback_cells"] == 1
        assert "synthetic rejection" in engine.batch_fallbacks[victim]
        assert results[victim].backend == "scalar"
        baseline = MatrixEngine(backend="scalar").run_cells(CELLS, TINY)
        assert_results_equal(results, baseline)


class TestPatternPeakSites:
    """The pattern-peak replay feeds only ``RunMetrics``, so the batch
    backend runs it only when the caller keeps them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.ssd.metrics as metrics_mod

        seen: list[int] = []
        real = metrics_mod.media_pattern_peak

        def spy(log, geom, kind):
            seen.append(len(log))
            return real(log, geom, kind)

        monkeypatch.setattr(metrics_mod, "media_pattern_peak", spy)
        return seen

    def test_discarded_metrics_skip_the_replay(self, calls):
        from repro.batch import run_cells_batch

        results, _ = run_cells_batch(CELLS, TINY, 1013, keep_metrics=False)
        assert set(results) == set(CELLS)
        assert all(r.metrics is None for r in results.values())
        MatrixEngine(workers=1).run_cells(CELLS, TINY)
        assert calls == []

    def test_kept_metrics_equal_the_scalar_run(self, calls):
        import dataclasses

        from repro.batch import run_cells_batch
        from repro.experiments.runner import run_config
        from repro.ssd.metrics import RunMetrics

        results, _ = run_cells_batch(CELLS, TINY, 1013, keep_metrics=True)
        # one metrics call, hence one peak replay, per cell
        assert len(calls) == len(CELLS)
        assert all(n > 0 for n in calls)
        for (label, kind), got in results.items():
            want = run_config(label, kind, TINY, seed=1013, keep_metrics=True).metrics
            assert got.metrics is not None and want is not None
            assert got.metrics.pattern_peak_bytes_per_sec > 0
            for f in dataclasses.fields(RunMetrics):
                assert getattr(got.metrics, f.name) == getattr(want, f.name), f.name


class TestStreaming:
    """The backend assembles and measures one cell's log at a time."""

    @pytest.fixture
    def events(self, monkeypatch):
        import repro.batch.backend as backend_mod

        seen: list[tuple[str, int]] = []
        real_assemble = backend_mod.assemble_log
        real_measure = backend_mod.compute_metrics_batch

        def assemble(*args):
            log = real_assemble(*args)
            seen.append(("assemble", len(log)))
            return log

        def measure(log, geom, kind, **kwargs):
            seen.append(("measure", len(log)))
            return real_measure(log, geom, kind, **kwargs)

        monkeypatch.setattr(backend_mod, "assemble_log", assemble)
        monkeypatch.setattr(backend_mod, "compute_metrics_batch", measure)
        return seen

    def test_assembly_and_measurement_alternate_cell_by_cell(self, events):
        from repro.batch import run_cells_batch

        results, _ = run_cells_batch(CELLS, TINY, 1013)
        assert set(results) == set(CELLS)
        assert [e for e, _ in events] == ["assemble", "measure"] * len(CELLS)
        # every metrics call measures the non-empty log just assembled
        sizes = [n for _, n in events]
        assert sizes[0::2] == sizes[1::2]
        assert all(n > 0 for n in sizes)

    @pytest.mark.parametrize("keep_metrics", [False, True])
    def test_per_cell_results_equal_own_log_metrics(self, keep_metrics):
        """Each streamed cell's results equal a separate metrics call on
        that cell's own assembled log, field by field."""
        import dataclasses

        from repro.batch import plan_cell, run_cells_batch, stack_plans
        from repro.batch.scheduler import replay_plans
        from repro.ssd.metrics import RunMetrics, compute_metrics
        from repro.ssd.scheduler import assemble_log

        results, _ = run_cells_batch(CELLS, TINY, 1013, keep_metrics=keep_metrics)
        plans = [plan_cell(label, kind, TINY, 1013) for label, kind in CELLS]
        stack_plans(plans)
        mains, _ = replay_plans(plans, [False] * len(plans))
        for cell, main, p in zip(CELLS, mains, plans):
            want = compute_metrics(
                assemble_log(*main), p.path.device.geom, p.path.device.kind,
                pattern_peak=keep_metrics,
            )
            got = results[cell]
            assert got.aggregate_mb == want.bandwidth_mb, cell
            assert got.bandwidth_mb == float(
                np.mean([bw / 1e6 for bw in want.client_bandwidth.values()])
            ), cell
            assert got.channel_utilization == want.channel_utilization, cell
            assert got.package_utilization == want.package_utilization, cell
            assert got.breakdown == want.breakdown, cell
            assert got.parallelism == want.parallelism, cell
            if keep_metrics:
                assert got.metrics is not None
                for f in dataclasses.fields(RunMetrics):
                    assert getattr(got.metrics, f.name) == getattr(want, f.name), (
                        cell, f.name,
                    )
            else:
                assert got.metrics is None


@pytest.mark.chaos
class TestChaosBypassesBatch:
    def test_fault_injected_run_skips_batch_and_matches(self):
        """Fault plans mutate completions mid-replay; the static batch
        plan cannot express that, so chaos runs must take the scalar
        path — and still converge to the fault-free numbers."""
        baseline = MatrixEngine(backend="batch").run_cells(CELLS[:2], TINY)
        chaos = MatrixEngine(
            workers=2,
            backend="batch",
            faults=FaultSpec(seed=0, worker_crash_rate=1.0),
            max_retries=2,
            retry_backoff_s=0.0,
        )
        recovered = chaos.run_cells(CELLS[:2], TINY)
        assert chaos.batch_stats["batch_cells"] == 0
        assert_results_equal(recovered, baseline)
        assert chaos.fault_stats["worker_crashes"] > 0


class TestPoolDegrade:
    def test_single_cpu_fault_free_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        engine = MatrixEngine(workers=4, backend="scalar")
        engine.run_cells(CELLS[:2], TINY)
        d = engine.pool_decision
        assert d is not None
        assert d["degraded"] is True and d["effective_workers"] == 1
        assert "1-CPU" in d["reason"]
        assert engine.summary()["pool"]["degraded"] is True

    def test_multi_cpu_keeps_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        engine = MatrixEngine(workers=2, backend="scalar")
        engine.run_cells(CELLS[:2], TINY)
        d = engine.pool_decision
        assert d is not None and d["degraded"] is False
        assert d["effective_workers"] == 2

    @pytest.mark.chaos
    def test_fault_injection_keeps_pool_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        engine = MatrixEngine(
            workers=2,
            backend="scalar",
            faults=FaultSpec(seed=0, worker_crash_rate=1.0),
            max_retries=2,
            retry_backoff_s=0.0,
        )
        engine.run_cells(CELLS[:2], TINY)
        d = engine.pool_decision
        assert d is not None and d["degraded"] is False
        assert d["effective_workers"] == 2
        assert "fault injection" in d["reason"]

    def test_map_degrades_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        engine = MatrixEngine(workers=4)
        assert engine.map(len, ["ab", "cde", ""]) == [2, 3, 0]
        assert engine.pool_decision["degraded"] is True


def test_batch_cell_seconds_apportion_the_phase_times():
    """Per-cell seconds sum to the plan, stack, replay and metrics
    totals, every planned cell gets a positive share, and the tracer
    sees one ``scheduler`` event per cell carrying its replay share."""
    import math

    from repro import obs
    from repro.batch import run_cells_batch

    tracer = obs.install(obs.Tracer())
    try:
        _, report = run_cells_batch(CELLS, TINY, 1013)
    finally:
        obs.uninstall()
    assert set(report.seconds) == set(report.planned) == set(CELLS)
    assert all(s > 0 for s in report.seconds.values())
    phases = (
        report.plan_seconds + report.stack_seconds
        + report.replay_seconds + report.metrics_seconds
    )
    assert math.fsum(report.seconds.values()) == pytest.approx(phases, rel=1e-9)
    events = [s for s in tracer.wall_spans() if s.layer == "scheduler"]
    assert sorted(s.name for s in events) == sorted(f"{l}|{k}" for l, k in CELLS)
    assert math.fsum(s.duration for s in events) == pytest.approx(
        report.replay_seconds, rel=1e-6
    )
