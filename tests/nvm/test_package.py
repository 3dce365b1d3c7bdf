"""The package oracle: dies behind a shared flash bus."""

from __future__ import annotations

import pytest

from repro.nvm import DDR800, ONFI3_SDR400, MLC
from tests.oracles.media import Package


class TestPackage:
    def test_die_count_and_ids(self):
        pkg = Package(kind=MLC, bus=ONFI3_SDR400, dies_per_package=2, package_id=3)
        assert len(pkg.dies) == 2
        assert [d.die_id for d in pkg.dies] == [6, 7]

    def test_capacity_sums_dies(self):
        pkg = Package(kind=MLC, bus=ONFI3_SDR400, blocks_per_plane=4)
        assert pkg.capacity_bytes == sum(d.capacity_bytes for d in pkg.dies)

    def test_flash_bus_time_follows_bus_spec(self):
        pkg_slow = Package(kind=MLC, bus=ONFI3_SDR400)
        pkg_fast = Package(kind=MLC, bus=DDR800)
        assert pkg_slow.flash_bus_ns(4096) == pytest.approx(
            4 * pkg_fast.flash_bus_ns(4096), abs=2
        )

    def test_dies_use_requested_geometry(self):
        pkg = Package(
            kind=MLC, bus=ONFI3_SDR400, dies_per_package=4, planes_per_die=2,
            blocks_per_plane=8,
        )
        assert len(pkg.dies) == 4
        assert all(d.planes == 2 for d in pkg.dies)
        assert all(d.blocks_per_plane == 8 for d in pkg.dies)
