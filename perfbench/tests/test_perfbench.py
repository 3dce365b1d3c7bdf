"""Tests of the benchmark itself: generators, statistics, wrappers.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# -- generators ----------------------------------------------------------
def _inputs(workload) -> object:
    """A plain rendering of everything a workload generated from its seed."""
    if isinstance(workload, workloads.Table2):
        return list(workload.cells)
    if isinstance(workload, workloads.GcOverwrite):
        return [
            [(g.posix.op, g.commands[0].lba) for g in burst]
            for burst in workload.bursts
        ]
    if isinstance(workload, workloads.ServiceMixed):
        return [tuple(job.key() for job in pair) for pair in workload.rounds]
    if isinstance(workload, workloads.LintTree):
        return [p.as_posix() for p in workload.files]
    raise TypeError(type(workload).__name__)


def _generate(cls, seed):
    workload = cls(seed, ROOT)
    try:
        return _inputs(workload)
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_in_its_seed(name):
    cls = workloads.WORKLOADS[name]
    assert _generate(cls, 7) == _generate(cls, 7)
    assert _generate(cls, 7) != _generate(cls, 8)


def test_service_mix_has_fixed_counts_repeats_and_twins():
    w = workloads.ServiceMixed(3, ROOT)
    jobs = [job for pair in w.rounds for job in pair]
    assert len(jobs) == 2 * w.ROUNDS
    twins = [r for r, (a, b) in enumerate(w.rounds) if a == b]
    assert twins == list(w.TWIN_ROUNDS)
    seen, repeats = set(), 0
    for a, b in w.rounds:
        assert a == b or a.key() != b.key()
        repeats += sum(1 for job in dict.fromkeys((a, b)) if job in seen)
        seen.update((a, b))
    assert repeats == w.MIX["repeat"]
    cells = {(j.label, j.kind) for j in jobs if isinstance(j, workloads.CellJob)}
    assert len(cells) == len(workloads.LABELS) * len(workloads.KIND_NAMES)
    fresh = sum(1 for j in dict.fromkeys(jobs) if isinstance(j, workloads.CellJob))
    assert fresh == len(cells)  # every Table-2 cell runs fresh exactly once


def test_gc_bursts_read_one_request_in_three():
    w = workloads.GcOverwrite(5, ROOT)
    for burst in w.bursts:
        ops = [g.posix.op for g in burst]
        assert ops.count("read") == w.READS_PER_BURST
        assert len(ops) == w.PER_BURST


def test_lint_corpus_extracts_and_cleans_up():
    w = workloads.LintTree(1, ROOT)
    workdir = w.workdir
    assert (workdir / "lint-baseline.json").is_file()
    assert len(w.files) > 100
    w.close()
    assert not workdir.exists()


# -- statistics ----------------------------------------------------------
def test_percentile_is_nearest_rank():
    xs = list(range(1, 11))
    assert stats.percentile(xs, 50) == 5
    assert stats.percentile(xs, 90) == 9
    assert stats.percentile(xs, 91) == 10
    assert stats.percentile(xs, 100) == 10
    assert stats.percentile([3.0], 1) == 3.0
    assert stats.median([4, 1, 3, 2]) == 2  # a measured value, not 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(xs, 0)


def test_tail_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))
    assert stats.samples_beyond(100, 90) == 10
    assert stats.tail_percentile(xs, 90) == (90, 90)
    # 50 samples: p90 has only 5 beyond; p80 is the highest with 10
    assert stats.samples_beyond(50, 90) == 5
    assert stats.tail_percentile(list(range(1, 51)), 90) == (40, 80.0)
    # no percentile of 10 or fewer samples has 10 beyond it
    assert stats.tail_percentile([5, 1, 9], 90) == (9, 100.0)


# -- traced-run wrappers -------------------------------------------------
def _bindings() -> dict:
    """Every binding a tracer may patch, by (owner, attribute)."""
    for name in layers._SUBCLASS_MODULES:
        importlib.import_module(name)
    out = {}
    for _, module_name, path, _ in layers.SITES:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, method = path.split(".")
            for cls in layers._all_subclasses(getattr(module, cls_name)):
                if method in vars(cls):
                    out[(cls, method)] = vars(cls)[method]
        else:
            out[(module, path)] = vars(module)[path]
    return out


def test_install_then_remove_restores_every_original():
    before = _bindings()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        for (owner, attr), original in before.items():
            patched = vars(owner)[attr]
            assert patched is not original
            assert hasattr(patched, "__wrapped_layer__")
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    assert not tracer.installed
    after = _bindings()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_self_time_excludes_child_spans():
    import time

    tracer = layers.LayerTracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer._wrap("inner", inner, None)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    tracer._wrap("outer", outer, None)()
    assert tracer.total_s["outer"] >= tracer.total_s["inner"] >= 0.02
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"]
    )
    assert tracer.self_s["inner"] == tracer.total_s["inner"]


# -- host-speed scaling --------------------------------------------------
def test_factor_scales_by_the_slices_inside_the_interval():
    host = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_SLICE_S
    host.slices = [(float(t), ref) for t in range(10)]
    host.slices += [(float(t), 2 * ref) for t in range(10, 20)]
    assert host.factor(0.0, 9.5) == pytest.approx(1.0)
    assert host.factor(10.0, 19.0) == pytest.approx(0.5)
    # an interval with too few slices borrows the nearest ones
    assert host.factor(14.1, 14.2) == pytest.approx(0.5)


def test_short_runs_take_the_slices_they_lack():
    host = hostspeed.HostSpeed()
    assert host.factor(0.0, 0.1) > 0
    assert len(host.slices) == hostspeed.MIN_SLICES


def test_timer_takes_slices_until_stopped():
    import time

    host = hostspeed.HostSpeed()
    host.start()
    try:
        end = time.perf_counter() + 3.5 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        host.stop()
    taken = len(host.slices)
    assert taken >= 2
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert len(host.slices) == taken


# -- the benchmark's declared surface ------------------------------------
def test_recorded_digests_cover_every_workload():
    table = json.loads((BENCH / "digests.json").read_text())
    assert set(table) == set(workloads.WORKLOADS)
    for entry in table.values():
        assert entry["ops"] and entry["seed"] == 1013


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {
        "bench.trace_overhead_frac", "bench.layer_coverage_frac",
        "bench.host_speed", "bench.raw_wall_s",
    } <= per_layer
