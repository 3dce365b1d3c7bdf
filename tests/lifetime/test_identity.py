"""Age-0 golden identity: the sweep's baseline row IS today's Table 2.

The whole lifetime subsystem rides on one promise — an un-aged device
with wear-leveling off replays bit-identically to the stock path.  All
52 (config, kind) cells are checked against both backends: the scalar
plain-cell ``run_cell`` reference and the columnar batch kernel (itself golden-
tested against scalar).  Plus: bit-identical results at any worker
count, and monotone degradation as devices age.
"""

from __future__ import annotations

import pytest

from repro.batch import run_cells_batch
from repro.experiments.configs import TABLE2_CONFIGS
from repro.experiments.parallel import MatrixEngine
from repro.experiments.runner import Cell, Workload, run_cell
from repro.lifetime import WearPolicy, lifetime_sweep
from repro.nvm.kinds import KINDS

KiB = 1024
TINY = Workload(panels=2, panel_bytes=256 * KiB)
SEED = 1013
CELLS = [(c.label, k.name) for c in TABLE2_CONFIGS for k in KINDS]


def aged(label, kind, age, policy):
    return run_cell(
        Cell(label, kind, TINY, SEED, age=age, policy=WearPolicy(kind=policy))
    )


@pytest.fixture(scope="module")
def batch_results():
    results, _report = run_cells_batch(CELLS, TINY, SEED, keep_metrics=False)
    return results


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_age0_bit_identity_both_backends(cell, batch_results):
    """Un-aged + policy 'none' == scalar reference == batch kernel."""
    label, kind = cell
    got = aged(label, kind, 0.0, "none")
    ref = run_cell(Cell(label, kind, TINY, SEED))
    assert got.bandwidth_mb == ref.bandwidth_mb  # bit-exact, not approx
    assert got.aggregate_mb == ref.aggregate_mb
    batch = batch_results[cell]
    assert got.bandwidth_mb == batch.bandwidth_mb
    assert got.aggregate_mb == batch.aggregate_mb
    # a fresh device saw no faults, no wear, no amplification
    assert got.waf == 1.0
    assert got.total_erases == 0
    assert got.retired_blocks == 0
    assert got.read_fault_p == 0.0
    assert got.faults_injected == 0


def test_age0_identity_holds_with_leveling_enabled():
    """Wear-leveling can only act when erases happen; the read-dominated
    workload on a fresh device never triggers GC, so even an active
    policy must not perturb the age-0 numbers."""
    ref = run_cell(Cell("CNL-UFS", "TLC", TINY, SEED))
    for kind in ("dynamic", "static"):
        got = aged("CNL-UFS", "TLC", 0.0, kind)
        assert got.bandwidth_mb == ref.bandwidth_mb
        assert got.wl_moved_pages == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_count_determinism(workers):
    """The sweep grid is bit-identical at any pool size."""
    engine = MatrixEngine(workers=workers)
    report = lifetime_sweep(
        ("CNL-UFS", "ION-GPFS"),
        kinds=("TLC",),
        ages=(0.0, 0.5),
        policy=WearPolicy(kind="dynamic"),
        workload=TINY,
        seed=SEED,
        engine=engine,
    )
    serial = lifetime_sweep(
        ("CNL-UFS", "ION-GPFS"),
        kinds=("TLC",),
        ages=(0.0, 0.5),
        policy=WearPolicy(kind="dynamic"),
        workload=TINY,
        seed=SEED,
    )
    assert set(report.results) == set(serial.results)
    for cell, res in serial.results.items():
        assert report.results[cell] == res  # frozen dataclass equality


class TestAgeMonotonicity:
    @pytest.fixture(scope="class")
    def aged_cells(self):
        return {
            age: aged("CNL-UFS", "TLC", age, "dynamic")
            for age in (0.0, 0.5, 0.9)
        }

    def test_waf_non_decreasing(self, aged_cells):
        waf = [aged_cells[a].waf for a in (0.0, 0.5, 0.9)]
        assert waf[0] <= waf[1] <= waf[2]

    def test_fault_rate_strictly_rises(self, aged_cells):
        p = [aged_cells[a].read_fault_p for a in (0.0, 0.5, 0.9)]
        assert p[0] == 0.0
        assert p[0] < p[1] < p[2]

    def test_p99_latency_non_decreasing(self, aged_cells):
        p99 = [aged_cells[a].p99_latency_ms for a in (0.0, 0.5, 0.9)]
        assert p99[0] <= p99[1] <= p99[2]
        assert p99[2] > p99[0]  # near end-of-life must actually hurt

    def test_retirement_and_wear_rise(self, aged_cells):
        r = [aged_cells[a].retired_blocks for a in (0.0, 0.5, 0.9)]
        assert r[0] == 0 and r[0] <= r[1] <= r[2] and r[2] > 0
        mw = [aged_cells[a].mean_wear for a in (0.0, 0.5, 0.9)]
        assert mw[0] < mw[1] < mw[2]

    def test_bandwidth_non_increasing(self, aged_cells):
        bw = [aged_cells[a].bandwidth_mb for a in (0.0, 0.5, 0.9)]
        assert bw[0] >= bw[1] >= bw[2]
