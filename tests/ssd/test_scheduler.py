"""Transaction scheduler: timing semantics on every resource."""

from __future__ import annotations

import numpy as np
import pytest

from repro.interconnect import HostPath
from repro.nvm import DDR800, ONFI3_SDR400, SLC, TLC
from repro.ssd import Geometry, OpCode, TransactionScheduler

FAST_HOST = HostPath(name="fast", bytes_per_sec=1e12, per_request_ns=0)


def sched_for(kind=SLC, bus=ONFI3_SDR400, host=FAST_HOST, **geom_kw):
    geom_kw.setdefault("channels", 2)
    geom_kw.setdefault("packages_per_channel", 2)
    geom_kw.setdefault("dies_per_package", 2)
    geom_kw.setdefault("planes_per_die", 2)
    geom_kw.setdefault("blocks_per_plane", 8)
    geom = Geometry(kind=kind, **geom_kw)
    return TransactionScheduler(geom, bus, host), geom


def read_txn(flat, nbytes=2048, group=-1, pib=0):
    return (OpCode.READ, flat, nbytes, group, pib)


def block(rows):
    """A transaction block of ``(op, flat, nbytes, group, pib)`` rows."""
    return np.array(rows, dtype=np.int64).reshape(-1, 5)


class TestReadPath:
    def test_single_read_latency(self):
        sched, geom = sched_for()
        done = sched.submit(block([read_txn(0)]), arrival=0, req_id=0)
        log = sched.finish()
        # cell -> flash bus -> channel bus (+cmd) -> host
        cell = SLC.read_ns
        fb = ONFI3_SDR400.transfer_ns(2048)
        ch = ONFI3_SDR400.cmd_ns + fb
        assert log["cell_end"][0] == cell
        assert log["fb_end"][0] == cell + fb
        assert log["ch_end"][0] == cell + fb + ch
        assert done == log["h_end"][0]

    def test_arrival_offsets_everything(self):
        sched, _ = sched_for()
        sched.submit(block([read_txn(0)]), arrival=1000, req_id=0)
        log = sched.finish()
        assert log["cell_start"][0] == 1000

    def test_same_die_serializes_cells(self):
        sched, geom = sched_for()
        U = geom.plane_units
        # flats 0 and 0+U: same plane unit, consecutive page slots
        sched.submit(block([read_txn(0), read_txn(U)]), arrival=0, req_id=0)
        log = sched.finish()
        # second cell waits for the first's register transfer to finish
        assert log["cell_start"][1] >= log["fb_end"][0]

    def test_different_dies_overlap(self):
        sched, geom = sched_for()
        P = geom.planes_per_die
        # flats 0 and 2: different channels in plane-first striping
        sched.submit(block([read_txn(0), read_txn(P)]), arrival=0, req_id=0)
        log = sched.finish()
        assert log["cell_start"][1] == log["cell_start"][0]

    def test_channel_shared_by_transfers(self):
        sched, geom = sched_for()
        # same die pair: transfers serialize on the channel
        sched.submit(block([read_txn(0), read_txn(1)]), arrival=0, req_id=0)
        log = sched.finish()
        assert log["ch_start"][1] >= log["ch_end"][0]

    def test_full_page_sense_for_partial_read(self):
        sched, _ = sched_for()
        sched.submit(block([read_txn(0, nbytes=512)]), arrival=0, req_id=0)
        log = sched.finish()
        assert log["cell_end"][0] - log["cell_start"][0] == SLC.read_ns
        # but the bus moves only the payload
        assert log["fb_end"][0] - log["fb_start"][0] == ONFI3_SDR400.transfer_ns(512)


class TestMultiPlaneGroups:
    def test_group_shares_command_cycles(self):
        sched, _ = sched_for()
        grouped = block([read_txn(0, group=5), read_txn(1, group=5)])
        sched.submit(grouped, arrival=0, req_id=0)
        log = sched.finish()
        ch0 = log["ch_end"][0] - log["ch_start"][0]
        ch1 = log["ch_end"][1] - log["ch_start"][1]
        assert ch0 - ch1 == ONFI3_SDR400.cmd_ns

    def test_ungrouped_pay_full_command(self):
        sched, _ = sched_for()
        sched.submit(block([read_txn(0), read_txn(1)]), arrival=0, req_id=0)
        log = sched.finish()
        ch0 = log["ch_end"][0] - log["ch_start"][0]
        ch1 = log["ch_end"][1] - log["ch_start"][1]
        assert ch0 == ch1


class TestWritePath:
    def test_write_order_host_channel_cell(self):
        sched, _ = sched_for()
        t = (OpCode.WRITE, 0, 2048, -1, 0)
        done = sched.submit(block([t]), arrival=0, req_id=0)
        log = sched.finish()
        assert log["h_end"][0] <= log["ch_start"][0]
        assert log["ch_end"][0] <= log["fb_start"][0]
        assert log["fb_end"][0] <= log["cell_start"][0]
        assert done == log["cell_end"][0]

    def test_program_ladder_applied(self):
        sched, _ = sched_for(kind=TLC)
        slow = (OpCode.WRITE, 0, 8192, -1, 2)  # upper page
        fast = (OpCode.WRITE, 2, 8192, -1, 0)  # lower page
        sched.submit(block([slow, fast]), arrival=0, req_id=0)
        log = sched.finish()
        assert (log["cell_end"][0] - log["cell_start"][0]) == 6_000_000
        assert (log["cell_end"][1] - log["cell_start"][1]) == 440_000


class TestErase:
    def test_erase_occupies_die_only(self):
        sched, _ = sched_for()
        t = (OpCode.ERASE, 0, 0, -1, 0)
        done = sched.submit(block([t]), arrival=0, req_id=0)
        log = sched.finish()
        assert done == SLC.erase_ns
        assert log["ch_end"][0] == log["cell_end"][0]  # no bus activity

    def test_erase_blocks_subsequent_read_on_die(self):
        sched, _ = sched_for()
        sched.submit(block([(OpCode.ERASE, 0, 0, -1, 0)]), arrival=0, req_id=0)
        sched.submit(block([read_txn(0)]), arrival=0, req_id=1)
        log = sched.finish()
        assert log["cell_start"][1] >= SLC.erase_ns


class TestHostPath:
    def test_slow_host_serializes_returns(self):
        slow = HostPath(name="slow", bytes_per_sec=1e6, per_request_ns=0)
        sched, geom = sched_for(host=slow)
        P = geom.planes_per_die
        sched.submit(block([read_txn(0), read_txn(P)]), arrival=0, req_id=0)
        log = sched.finish()
        assert log["h_start"][1] >= log["h_end"][0]

    def test_faster_bus_shortens_transfers(self):
        s1, _ = sched_for(bus=ONFI3_SDR400)
        s2, _ = sched_for(bus=DDR800)
        s1.submit(block([read_txn(0)]), 0, 0)
        s2.submit(block([read_txn(0)]), 0, 0)
        t1 = s1.finish()
        t2 = s2.finish()
        fb1 = t1["fb_end"][0] - t1["fb_start"][0]
        fb2 = t2["fb_end"][0] - t2["fb_start"][0]
        assert fb1 == pytest.approx(4 * fb2, abs=2)


class TestBookkeeping:
    def test_negative_arrival_rejected(self):
        sched, _ = sched_for()
        with pytest.raises(ValueError):
            sched.submit(block([read_txn(0)]), arrival=-1, req_id=0)

    def test_log_columns_consistent(self):
        sched, _ = sched_for()
        sched.submit(block([read_txn(i) for i in range(6)]), arrival=0, req_id=3, client=2)
        log = sched.finish()
        assert len(log) == 6
        assert set(log["req"].tolist()) == {3}
        assert set(log["client"].tolist()) == {2}

    def test_empty_log(self):
        sched, _ = sched_for()
        assert len(sched.finish()) == 0

    def test_n_txns(self):
        sched, _ = sched_for()
        sched.submit(block([read_txn(0)]), 0, 0)
        assert sched.n_txns == 1

    def test_decode_matches_geometry(self):
        sched, geom = sched_for()
        for flat in range(geom.plane_units):
            sched.submit(block([read_txn(flat)]), arrival=0, req_id=flat)
        log = sched.finish()
        for flat in range(geom.plane_units):
            ids = (log["channel"][flat], log["package"][flat],
                   log["die"][flat], log["plane"][flat])
            assert ids == geom.resource_ids(flat)
            ch, pkg, die, plane = ids
            addr = geom.decode(flat)
            assert ch == addr.channel
            assert plane == addr.plane
            assert pkg == geom.global_package(addr.channel, addr.package)
            assert die == geom.global_die(addr.channel, addr.package, addr.die)

    def test_each_block_prepasses_once_and_finish_never(self, monkeypatch):
        """``finish`` reuses the pre-pass ``submit`` ran on each block."""
        import repro.ssd.scheduler as scheduler_mod

        sched, _ = sched_for()
        calls: list[int] = []
        real = scheduler_mod.prepass

        def spy(media, links, op, *rest, **kwargs):
            calls.append(len(op))
            return real(media, links, op, *rest, **kwargs)

        monkeypatch.setattr(scheduler_mod, "prepass", spy)
        blocks = [
            block([read_txn(0), read_txn(1)]),
            block([(OpCode.WRITE, 2, 2048, -1, 0)]),
            block([read_txn(3), read_txn(4), read_txn(5)]),
        ]
        for req, txns in enumerate(blocks):
            sched.submit(txns, arrival=0, req_id=req)
        assert calls == [2, 1, 3]
        log = sched.finish()
        assert calls == [2, 1, 3]
        assert log["flat"].tolist() == [0, 1, 2, 3, 4, 5]
        assert log["req"].tolist() == [0, 0, 1, 2, 2, 2]
        assert log["op"].tolist() == [OpCode.READ] * 2 + [OpCode.WRITE] + [OpCode.READ] * 3
