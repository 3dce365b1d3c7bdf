"""FTL: mapping, preload, RMW, GC, wear, plane grouping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm import SLC, TLC
from repro.ssd import DeviceFTL, FTLError, Geometry, OpCode
from repro.ssd.ftl import FLAT, GROUP, NBYTES, OP
from repro.ssd.request import DeviceCommand

KiB = 1024


def small_ftl(kind=SLC, logical_kib=256, blocks=8, op=0.25, gc_low=2):
    geom = Geometry(
        kind=kind, channels=2, packages_per_channel=2, dies_per_package=1,
        planes_per_die=2, blocks_per_plane=blocks,
    )
    return DeviceFTL(geom, logical_bytes=logical_kib * KiB, overprovision=op,
                     gc_low_water=gc_low), geom


class TestPreload:
    def test_identity_mapping(self):
        ftl, geom = small_ftl()
        ftl.preload(64 * KiB)
        npages = 64 * KiB // geom.page_bytes
        assert np.array_equal(ftl.map[:npages], np.arange(npages))
        ftl.check_invariants()

    def test_preload_marks_frontiers(self):
        ftl, geom = small_ftl()
        ftl.preload(geom.page_bytes * geom.plane_units)  # one full stripe slot
        assert np.all(ftl.frontier[:, 0] >= 1)

    def test_preload_too_big(self):
        ftl, _ = small_ftl(logical_kib=64)
        with pytest.raises(FTLError):
            ftl.preload(1 << 30)

    def test_logical_space_exceeding_capacity(self):
        geom = Geometry(kind=SLC, channels=1, packages_per_channel=1,
                        dies_per_package=1, planes_per_die=1, blocks_per_plane=2)
        with pytest.raises(FTLError):
            DeviceFTL(geom, logical_bytes=1 << 30)


class TestReadTranslation:
    def test_sequential_read_is_striped(self):
        ftl, geom = small_ftl()
        ftl.preload(64 * KiB)
        txns = ftl.translate(DeviceCommand("read", 0, 8 * geom.page_bytes))
        assert len(txns) == 8
        assert txns[:, FLAT].tolist() == list(range(8))
        assert np.all(txns[:, OP] == OpCode.READ)

    def test_partial_page_edges(self):
        ftl, geom = small_ftl()
        ftl.preload(64 * KiB)
        pb = geom.page_bytes
        txns = ftl.translate(DeviceCommand("read", pb // 2, pb))
        assert len(txns) == 2
        assert txns[0, NBYTES] == pb // 2
        assert txns[1, NBYTES] == pb - pb // 2

    def test_bytes_conserved(self):
        ftl, geom = small_ftl()
        ftl.preload(128 * KiB)
        n = 37 * KiB
        txns = ftl.translate(DeviceCommand("read", 3 * KiB, n))
        assert txns[:, NBYTES].sum() == n

    def test_read_beyond_space(self):
        ftl, _ = small_ftl(logical_kib=64)
        with pytest.raises(FTLError):
            ftl.translate(DeviceCommand("read", 63 * KiB, 8 * KiB))

    def test_cold_read_adopts_identity(self):
        ftl, geom = small_ftl()
        txns = ftl.translate(DeviceCommand("read", 0, geom.page_bytes))
        assert txns[0, FLAT] == 0
        assert ftl.map[0] == 0
        ftl.check_invariants()


class TestPlaneGrouping:
    def test_aligned_pairs_grouped(self):
        ftl, geom = small_ftl()
        ftl.preload(64 * KiB)
        txns = ftl.translate(DeviceCommand("read", 0, 4 * geom.page_bytes))
        groups = txns[:, GROUP].tolist()
        assert groups[0] == groups[1] >= 0
        assert groups[2] == groups[3] >= 0
        assert groups[0] != groups[2]

    def test_misaligned_start_not_grouped(self):
        ftl, geom = small_ftl()
        ftl.preload(64 * KiB)
        txns = ftl.translate(DeviceCommand("read", geom.page_bytes, geom.page_bytes * 2))
        # starts at flat 1 (plane 1): cannot pair with flat 2 (other die)
        assert np.all(txns[:, GROUP] == -1)

    def test_group_members_same_die(self):
        ftl, geom = small_ftl()
        ftl.preload(128 * KiB)
        txns = ftl.translate(DeviceCommand("read", 0, 16 * geom.page_bytes))
        by_group = {}
        for flat, group in txns[:, [FLAT, GROUP]].tolist():
            if group >= 0:
                by_group.setdefault(group, []).append(flat)
        assert by_group, "expected some plane groups"
        U = geom.plane_units
        P = geom.planes_per_die
        for members in by_group.values():
            dies = {(m % U) // P for m in members}
            slots = {m // U for m in members}
            assert len(dies) == 1 and len(slots) == 1
            assert len(members) <= P


class TestWriteTranslation:
    def test_full_page_write_allocates(self):
        ftl, geom = small_ftl()
        txns = ftl.translate(DeviceCommand("write", 0, geom.page_bytes))
        assert txns[:, OP].tolist() == [OpCode.WRITE]
        assert ftl.map[0] == txns[0, FLAT]
        ftl.check_invariants()

    def test_subpage_overwrite_triggers_rmw(self):
        ftl, geom = small_ftl()
        ftl.preload(64 * KiB)
        txns = ftl.translate(DeviceCommand("write", 0, geom.page_bytes // 2))
        ops = txns[:, OP].tolist()
        assert OpCode.READ in ops and OpCode.WRITE in ops
        assert ftl.stats["rmw_reads"] == 1

    def test_subpage_write_to_cold_page_no_rmw(self):
        ftl, geom = small_ftl()
        txns = ftl.translate(DeviceCommand("write", 0, geom.page_bytes // 2))
        assert txns[:, OP].tolist() == [OpCode.WRITE]

    def test_overwrite_invalidates_old(self):
        ftl, geom = small_ftl()
        ftl.preload(64 * KiB)
        old = int(ftl.map[0])
        ftl.translate(DeviceCommand("write", 0, geom.page_bytes))
        assert int(ftl.map[0]) != old
        assert ftl.reverse[old] == 0  # 0: no logical page
        ftl.check_invariants()

    def test_writes_stripe_across_units(self):
        ftl, geom = small_ftl()
        txns = ftl.translate(DeviceCommand("write", 0, 8 * geom.page_bytes))
        units = set((txns[:, FLAT] % geom.plane_units).tolist())
        assert len(units) == 8

    def test_trim_unmaps(self):
        ftl, geom = small_ftl()
        ftl.preload(64 * KiB)
        assert len(ftl.translate(DeviceCommand("trim", 0, geom.page_bytes))) == 0
        assert ftl.map[0] == -1
        ftl.check_invariants()


class TestGarbageCollection:
    def test_gc_triggers_and_frees(self):
        ftl, geom = small_ftl(logical_kib=32, blocks=3, op=0.3, gc_low=2)
        pb = geom.page_bytes
        saw_erase = False
        # hammer one logical page until GC must run (8 plane units x
        # 1 spare block x 64 pages must fill before the low-water mark)
        for i in range(1500):
            txns = ftl.translate(DeviceCommand("write", 0, pb))
            saw_erase = saw_erase or bool(np.any(txns[:, OP] == OpCode.ERASE))
        assert saw_erase
        assert ftl.stats["gc_runs"] > 0
        ftl.check_invariants()

    def test_gc_preserves_logical_contents(self):
        ftl, geom = small_ftl(logical_kib=32, blocks=3, op=0.3)
        pb = geom.page_bytes
        npages = 32 * KiB // pb
        # fill the space, then churn page 0 to force relocations
        for p in range(npages):
            ftl.translate(DeviceCommand("write", p * pb, pb))
        for _ in range(1600):
            ftl.translate(DeviceCommand("write", 0, pb))
        assert ftl.stats["gc_runs"] > 0
        # every logical page still mapped, all distinct
        mapped = ftl.map[:npages]
        assert np.all(mapped >= 0)
        assert len(np.unique(mapped)) == npages
        ftl.check_invariants()

    def test_overwrite_of_page_gc_just_relocated(self):
        """Regression: GC may relocate the very page a write is about
        to overwrite; the stale old mapping must not be invalidated
        twice (valid-count underflow)."""
        geom = Geometry(
            kind=SLC, channels=4, packages_per_channel=4, dies_per_package=2,
            planes_per_die=2, blocks_per_plane=24,
        )
        op = 0.12
        logical = int(geom.capacity_bytes * (1.0 - op) * 0.95)
        ftl = DeviceFTL(geom, logical_bytes=logical, overprovision=op)
        ftl.preload(logical)
        chunk = 256 * 1024
        rng = np.random.default_rng(3)
        nchunks = logical // chunk
        for _ in range(220):
            c = int(rng.integers(0, nchunks))
            ftl.translate(DeviceCommand("write", c * chunk, chunk))
        assert ftl.stats["gc_runs"] > 0
        ftl.check_invariants()

    def test_wear_spread_bounded(self):
        ftl, geom = small_ftl(logical_kib=32, blocks=3, op=0.3)
        pb = geom.page_bytes
        for _ in range(2000):
            ftl.translate(DeviceCommand("write", 0, pb))
        # FIFO free-block reuse keeps wear within a reasonable band
        assert ftl.max_wear > 0
        assert ftl.wear_spread <= ftl.max_wear


class TestInvariantsUnderRandomWorkload:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "trim"]),
                st.integers(0, 31),  # page index
                st.integers(1, 4),  # pages
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_mapping_stays_injective(self, cmds):
        ftl, geom = small_ftl(logical_kib=512, blocks=16, op=0.25)
        ftl.preload(128 * KiB)
        pb = geom.page_bytes
        max_page = 512 * KiB // pb
        for op, page, npages in cmds:
            page = page % max_page
            npages = min(npages, max_page - page)
            if npages <= 0:
                continue
            ftl.translate(DeviceCommand(op, page * pb, npages * pb))
        ftl.check_invariants()
