"""Metrics: bandwidth, utilization, decomposition, parallelism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.interconnect import HostPath, bridged_pcie2
from repro.nvm import ONFI3_SDR400, SLC
from repro.ssd import (
    BREAKDOWN_KEYS,
    PAL_KEYS,
    Geometry,
    OpCode,
    TransactionScheduler,
    compute_metrics,
    media_pattern_peak,
)

FAST = HostPath(name="fast", bytes_per_sec=1e12, per_request_ns=0)


def make_run(txn_batches, host=FAST, kind=SLC):
    geom = Geometry(kind=kind, channels=2, packages_per_channel=2,
                    dies_per_package=2, planes_per_die=2, blocks_per_plane=8)
    sched = TransactionScheduler(geom, ONFI3_SDR400, host)
    for req_id, (txns, arrival) in enumerate(txn_batches):
        block = np.array(txns, dtype=np.int64).reshape(-1, 5)
        sched.submit(block, arrival=arrival, req_id=req_id)
    log = sched.finish()
    return compute_metrics(log, geom, kind), log, geom


def reads(flats, nbytes=2048, group=-1):
    return [(OpCode.READ, f, nbytes, group, 0) for f in flats]


class TestBandwidth:
    def test_payload_and_makespan(self):
        m, log, _ = make_run([(reads([0]), 0)])
        assert m.payload_bytes == 2048
        assert m.makespan_ns == int(log["done"].max())
        assert m.bandwidth_bytes_per_sec == pytest.approx(
            2048 * 1e9 / m.makespan_ns
        )

    def test_empty_log(self):
        geom = Geometry(kind=SLC)
        sched = TransactionScheduler(geom, ONFI3_SDR400, FAST)
        m = compute_metrics(sched.finish(), geom, SLC)
        assert m.payload_bytes == 0
        assert m.bandwidth_bytes_per_sec == 0.0

    def test_counts(self):
        m, _, _ = make_run([(reads([0, 2, 4]), 0), (reads([6]), 0)])
        assert m.n_txns == 4
        assert m.n_requests == 2
        assert m.read_bytes == 4 * 2048
        assert m.write_bytes == 0


class TestPatternPeak:
    def test_peak_at_least_achieved_with_slow_host(self):
        slow = HostPath(name="slow", bytes_per_sec=50e6, per_request_ns=0)
        m, _, _ = make_run([(reads(list(range(16))), 0)], host=slow)
        assert m.pattern_peak_bytes_per_sec > m.bandwidth_bytes_per_sec
        assert m.remaining_bytes_per_sec > 0

    def test_peak_reflects_media_not_host(self):
        fast_m, log, geom = make_run([(reads(list(range(16))), 0)])
        slow = HostPath(name="slow", bytes_per_sec=50e6, per_request_ns=0)
        slow_m, _, _ = make_run([(reads(list(range(16))), 0)], host=slow)
        assert fast_m.pattern_peak_bytes_per_sec == pytest.approx(
            slow_m.pattern_peak_bytes_per_sec, rel=0.01
        )

    def test_empty(self):
        geom = Geometry(kind=SLC)
        sched = TransactionScheduler(geom, ONFI3_SDR400, FAST)
        assert media_pattern_peak(sched.finish(), geom, SLC) == 0.0


class TestUtilization:
    def test_both_in_unit_interval(self):
        m, _, _ = make_run([(reads(list(range(32))), 0)])
        assert 0.0 <= m.channel_utilization <= 1.0
        assert 0.0 <= m.package_utilization <= 1.0

    def test_single_channel_stream_leaves_other_idle(self):
        # flats 0,1 then next page slot on same unit -> channel 0 only
        geom_units = 16
        flats = [0, 1, geom_units, geom_units + 1]
        m, _, _ = make_run([(reads(flats), 0)])
        assert m.channel_utilization <= 0.55  # half the channels idle

    def test_striped_stream_engages_all_channels(self):
        m, _, _ = make_run([(reads(list(range(32))), 0)])
        assert m.channel_utilization > 0.9


class TestBreakdown:
    def test_fractions_sum_to_one(self):
        m, _, _ = make_run([(reads(list(range(16))), 0)])
        assert sum(m.breakdown.values()) == pytest.approx(1.0)
        assert set(m.breakdown) == set(BREAKDOWN_KEYS)

    def test_network_host_dominates_dma(self):
        slow = HostPath(name="network", bytes_per_sec=30e6, per_request_ns=0)
        m, _, _ = make_run([(reads(list(range(32))), 0)], host=slow)
        assert m.breakdown["non_overlapped_dma"] > 0.5

    def test_fast_host_has_negligible_dma(self):
        m, _, _ = make_run([(reads(list(range(32))), 0)])
        assert m.breakdown["non_overlapped_dma"] < 0.05

    def test_cell_dominates_serial_die_chain(self):
        # all ops on one die: cells serialize, buses idle between
        U = 16
        m, _, _ = make_run([(reads([0, U, 2 * U, 3 * U]), 0)])
        assert m.breakdown["cell"] > 0.5


class TestParallelism:
    def test_keys_and_normalization(self):
        m, _, _ = make_run([(reads(list(range(8))), 0)])
        assert set(m.parallelism) == set(PAL_KEYS)
        assert sum(m.parallelism.values()) == pytest.approx(1.0)

    def test_single_page_is_pal1(self):
        m, _, _ = make_run([(reads([0]), 0)])
        assert m.parallelism["PAL1"] == pytest.approx(1.0)

    def test_plane_pair_is_pal3(self):
        m, _, _ = make_run([(reads([0, 1], group=1), 0)])
        assert m.parallelism["PAL3"] == pytest.approx(1.0)

    def test_two_dies_same_channel_is_pal2(self):
        # small geom: units: plane0/1 ch0 die0 -> u=0,1 ; ch0 die1 -> u=4,5
        m, _, _ = make_run([(reads([0, 4]), 0)])
        assert m.parallelism["PAL2"] == pytest.approx(1.0)

    def test_pair_plus_die_interleave_is_pal4(self):
        batches = [
            (
                reads([0, 1], group=1) + reads([4, 5], group=2),
                0,
            )
        ]
        m, _, _ = make_run(batches)
        assert m.parallelism["PAL4"] == pytest.approx(1.0)

    def test_weighting_by_bytes(self):
        batches = [
            (reads([0], nbytes=1024), 0),  # PAL1, 1 KiB
            (reads([0, 1], group=1, nbytes=2048), 0),  # PAL3, 4 KiB
        ]
        m, _, _ = make_run(batches)
        assert m.parallelism["PAL3"] == pytest.approx(4096 / 5120)
        assert m.parallelism["PAL1"] == pytest.approx(1024 / 5120)
