"""Micro-benchmarks of the simulator's hot kernels.

These time the building blocks the figures stand on: the transaction
scheduler, FTL translation, interval arithmetic, the LOBPCG iteration
and the out-of-core SpMM sweep.
"""

from __future__ import annotations

import numpy as np

from repro.interconnect import HostPath, bridged_pcie2
from repro.nvm import ONFI3_SDR400, TLC
from repro.ooc import DataPool, DOoCStore, OutOfCoreOperator, PanelizedMatrix, ci_hamiltonian, lobpcg
from repro.ssd import DeviceFTL, Geometry, TransactionScheduler
from repro.ssd.request import DeviceCommand
from repro.ssd.segments import union_measure

MiB = 1024 * 1024


def test_scheduler_throughput(benchmark):
    """Page transactions scheduled per second (the replay hot loop)."""
    geom = Geometry(kind=TLC)
    ftl = DeviceFTL(geom, logical_bytes=256 * MiB)
    ftl.preload(64 * MiB)
    txns = ftl.translate(DeviceCommand("read", 0, 32 * MiB))

    def run():
        sched = TransactionScheduler(geom, ONFI3_SDR400, bridged_pcie2(8))
        sched.submit(txns, arrival=0, req_id=0)
        return sched.n_txns

    n = benchmark(run)
    assert n == 32 * MiB // TLC.page_bytes


def test_ftl_translate_throughput(benchmark):
    """Logical-extent to transaction translation rate."""
    geom = Geometry(kind=TLC)
    ftl = DeviceFTL(geom, logical_bytes=512 * MiB)
    ftl.preload(256 * MiB)

    def run():
        out = 0
        for off in range(0, 64 * MiB, 1 * MiB):
            out += len(ftl.translate(DeviceCommand("read", off, 1 * MiB)))
        return out

    n = benchmark(run)
    assert n == 64 * MiB // TLC.page_bytes


def test_interval_union_measure(benchmark):
    """Segmented union measure on a realistic busy-interval volume."""
    rng = np.random.default_rng(5)
    n = 50_000
    key = rng.integers(0, 64, size=n)
    starts = np.sort(rng.integers(0, 10**9, size=n))
    ends = starts + rng.integers(1, 10**5, size=n)

    total = benchmark(union_measure, key, starts, ends, 64)
    assert total.sum() > 0


def test_lobpcg_iteration(benchmark):
    """One preconditioned LOBPCG solve on a 3000-dim CI operator."""
    h = ci_hamiltonian(3000, seed=2)
    d = np.maximum(np.abs(h.diagonal()), 1.0)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3000, 6))

    def run():
        return lobpcg(
            lambda x: h @ x, x0, preconditioner=lambda r: r / d[:, None],
            tol=1e-6, maxiter=100,
        )

    res = benchmark(run)
    assert res.converged


def test_ooc_spmm_sweep(benchmark):
    """One out-of-core panel sweep (H @ X) through the DOoC store."""
    h = ci_hamiltonian(4000, seed=3)
    pool = DataPool("bench")
    store = DOoCStore(pool, memory_bytes=256 * 1024, cache_reads=False)
    matrix = PanelizedMatrix(h, store, panels=16)
    op = OutOfCoreOperator(matrix, prefetch_depth=2)
    x = np.random.default_rng(1).standard_normal((4000, 8))

    y = benchmark(op.apply, x)
    assert np.allclose(y, h @ x)
