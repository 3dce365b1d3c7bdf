"""Differential validation: list scheduler vs event-driven model.

Both implement the same resource semantics (cell arrays, per-plane
registers, package buses, channel buses, host path).  The greedy list
schedule cannot backfill, so it may trail the event-driven schedule
slightly — but on the workload shapes the figures use, the makespans
must agree closely and the bottleneck ceilings must match.
"""

from __future__ import annotations

import pytest

from repro.interconnect import HostPath, bridged_pcie2
from repro.nvm import ONFI3_SDR400, PCM, SLC, TLC
from repro.ssd import DeviceFTL, Geometry, TransactionScheduler
from tests.oracles.des_model import DesSSD
from repro.ssd.request import DeviceCommand

MiB = 1024 * 1024


def both_makespans(geom, batches, host):
    lst = TransactionScheduler(geom, ONFI3_SDR400, host)
    for req_id, (txns, arrival) in enumerate(batches):
        lst.submit(txns, arrival=arrival, req_id=req_id)
    log = lst.finish()
    list_makespan = int(log["done"].max())

    des = DesSSD(geom, ONFI3_SDR400, host)
    des_makespan = des.run(batches).makespan_ns
    return list_makespan, des_makespan


def sequential_batches(geom, nbytes, chunk, ftl_logical=64 * MiB):
    ftl = DeviceFTL(geom, logical_bytes=ftl_logical)
    ftl.preload(nbytes)
    batches = []
    for off in range(0, nbytes, chunk):
        batches.append((ftl.translate(DeviceCommand("read", off, chunk)), 0))
    return batches


@pytest.mark.parametrize("kind", [SLC, TLC, PCM], ids=lambda k: k.name)
def test_saturating_sequential_read(kind):
    """Bus-saturating streams: both models must hit the same ceiling."""
    geom = Geometry(kind=kind, channels=2, packages_per_channel=2,
                    dies_per_package=2, planes_per_die=2, blocks_per_plane=64)
    host = HostPath(name="fast", bytes_per_sec=1e12, per_request_ns=0)
    batches = sequential_batches(geom, 8 * MiB, 1 * MiB)
    lst, des = both_makespans(geom, batches, host)
    assert lst == pytest.approx(des, rel=0.10)


def test_single_die_serial_chain_exact():
    """With one die there is no scheduling freedom: exact agreement."""
    geom = Geometry(kind=SLC, channels=1, packages_per_channel=1,
                    dies_per_package=1, planes_per_die=1, blocks_per_plane=64)
    host = HostPath(name="fast", bytes_per_sec=1e12, per_request_ns=0)
    batches = sequential_batches(geom, 256 * 1024, 64 * 1024, ftl_logical=4 * MiB)
    lst, des = both_makespans(geom, batches, host)
    assert lst == des


def test_slow_host_bound_stream():
    """Host-bound: both models drain at the host rate."""
    geom = Geometry(kind=SLC, channels=2, packages_per_channel=2,
                    dies_per_package=2, planes_per_die=2, blocks_per_plane=64)
    host = HostPath(name="slow", bytes_per_sec=100e6, per_request_ns=0)
    batches = sequential_batches(geom, 4 * MiB, 1 * MiB)
    lst, des = both_makespans(geom, batches, host)
    assert lst == pytest.approx(des, rel=0.05)


def test_staggered_arrivals():
    geom = Geometry(kind=TLC, channels=2, packages_per_channel=2,
                    dies_per_package=2, planes_per_die=2, blocks_per_plane=64)
    host = bridged_pcie2(8)
    ftl = DeviceFTL(geom, logical_bytes=64 * MiB)
    ftl.preload(8 * MiB)
    batches = [
        (ftl.translate(DeviceCommand("read", i * MiB, 1 * MiB)), i * 400_000)
        for i in range(8)
    ]
    lst, des = both_makespans(geom, batches, host)
    assert lst == pytest.approx(des, rel=0.10)


def test_write_stream():
    geom = Geometry(kind=SLC, channels=2, packages_per_channel=2,
                    dies_per_package=2, planes_per_die=2, blocks_per_plane=64)
    host = bridged_pcie2(8)
    ftl = DeviceFTL(geom, logical_bytes=64 * MiB)
    batches = [
        (ftl.translate(DeviceCommand("write", i * MiB, 1 * MiB)), 0)
        for i in range(4)
    ]
    lst, des = both_makespans(geom, batches, host)
    assert lst == pytest.approx(des, rel=0.15)


def test_paper_geometry_spot_check():
    """One spot check at the full 8x64x128 paper geometry."""
    geom = Geometry(kind=TLC)
    host = bridged_pcie2(8)
    batches = sequential_batches(geom, 16 * MiB, 4 * MiB, ftl_logical=128 * MiB)
    lst, des = both_makespans(geom, batches, host)
    assert lst == pytest.approx(des, rel=0.10)
