"""Fabric calibration + the netfault exhibit: loss-0 golden identity on
both backends at multiple worker counts, monotone degradation, typed
saturation, and CSV byte-stability across worker counts."""

from __future__ import annotations

import pytest

from repro.cluster.ion import IonServiceConfig, simulate_ion_service
from repro.experiments import MatrixEngine, TABLE2_CONFIGS, Workload
from repro.netfault import (
    NetStatsRecorder,
    calibrate_fabric,
    netfault_exhibit,
    simulate_packet_ion,
)
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry

KiB = 1024
MiB = 1024 * 1024
TINY = Workload(panels=2, panel_bytes=256 * KiB)
ALL_LABELS = tuple(c.label for c in TABLE2_CONFIGS)
ALL_KINDS = ("SLC", "MLC", "TLC", "PCM")

#: a reduced co-sim that keeps packet counts test-sized
SMALL_ION = IonServiceConfig(bytes_per_client=4 * MiB)


class TestCalibration:
    def test_loss_zero_cosim_is_bit_identical_to_stock(self):
        stock = simulate_ion_service(SMALL_ION)
        packet, link = simulate_packet_ion(SMALL_ION)
        assert packet.makespan_ns == stock.makespan_ns
        assert (
            packet.per_client_bytes_per_sec == stock.per_client_bytes_per_sec
        )
        assert packet.aggregate_bytes_per_sec == stock.aggregate_bytes_per_sec
        assert link.packets_lost == 0

    def test_loss_zero_factor_is_exactly_one(self):
        cal = calibrate_fabric(0.0, cfg=SMALL_ION)
        assert cal.delivered_factor == 1.0
        assert not cal.unreachable

    def test_delivered_bandwidth_is_monotone_in_loss(self):
        rates = (0.0, 0.02, 0.1, 0.3)
        factors = [
            calibrate_fabric(r, cfg=SMALL_ION).delivered_factor
            for r in rates
        ]
        assert factors[0] == 1.0
        assert factors == sorted(factors, reverse=True)
        assert factors[-1] < factors[0]

    def test_saturating_loss_is_typed_not_a_hang(self):
        cal = calibrate_fabric(0.95, cfg=SMALL_ION)
        assert cal.unreachable
        assert cal.delivered_factor == 0.0

    def test_calibration_is_deterministic(self):
        a = calibrate_fabric(0.1, cfg=SMALL_ION)
        b = calibrate_fabric(0.1, cfg=SMALL_ION)
        assert a.degraded_mb == b.degraded_mb
        assert a.link == b.link

    def test_healthy_cosim_runs_once_per_config(self, monkeypatch):
        """The loss-free baseline depends on the configuration alone: a
        calibration at another seed reuses it and equals a cold one."""
        import repro.netfault.calibrate as calibrate_mod

        calls = []

        def spy(cfg):
            calls.append(cfg)
            return simulate_ion_service(cfg)

        monkeypatch.setattr(calibrate_mod, "simulate_ion_service", spy)
        calibrate_mod._healthy_mb.cache_clear()
        calibrate_fabric(0.1, net_seed=1, cfg=SMALL_ION)
        assert calls == [SMALL_ION]
        warm = calibrate_fabric(0.1, net_seed=2, cfg=SMALL_ION)
        assert calls == [SMALL_ION]
        calibrate_mod._healthy_mb.cache_clear()
        assert warm == calibrate_fabric(0.1, net_seed=2, cfg=SMALL_ION)
        assert calls == [SMALL_ION, SMALL_ION]


class TestExhibitGolden:
    """Loss-0 row of the exhibit == the stock experiment matrix."""

    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_loss_zero_row_matches_engine_all_52_cells(
        self, backend, workers
    ):
        engine = MatrixEngine(workers=workers, backend=backend)
        report = netfault_exhibit(
            TINY, engine=engine, loss_rates=(0.0,),
        )
        cells = [(lb, k) for lb in ALL_LABELS for k in ALL_KINDS]
        reference = MatrixEngine(workers=1, backend=backend).run_cells(
            cells, TINY, 1013, with_remaining=False
        )
        assert len(report.results) == 52
        for (label, kind), ref in reference.items():
            got = report.results[(0.0, label, kind)]
            assert got.bandwidth_mb == ref.bandwidth_mb, (label, kind)
            assert got.aggregate_mb == ref.aggregate_mb, (label, kind)
        assert report.calibrations[0.0].delivered_factor == 1.0

    def test_worker_counts_agree_cell_for_cell(self):
        rates = (0.0, 0.05)
        labels = ("CNL-UFS", "ION-GPFS")
        kinds = ("SLC",)
        serial = netfault_exhibit(
            TINY, engine=MatrixEngine(workers=1),
            loss_rates=rates, labels=labels, kinds=kinds,
        )
        pooled = netfault_exhibit(
            TINY, engine=MatrixEngine(workers=2),
            loss_rates=rates, labels=labels, kinds=kinds,
        )
        assert serial.text == pooled.text
        for key, res in serial.results.items():
            assert res.bandwidth_mb == pooled.results[key].bandwidth_mb, key


class TestExhibitBehaviour:
    LABELS = ("CNL-UFS", "ION-GPFS")
    KINDS = ("SLC",)

    def _sweep(self, rates, **kwargs):
        return netfault_exhibit(
            TINY, engine=MatrixEngine(workers=1), loss_rates=rates,
            labels=self.LABELS, kinds=self.KINDS, **kwargs,
        )

    def test_loss_melts_only_the_ion_column(self):
        report = self._sweep((0.0, 0.1))
        cnl0 = report.results[(0.0, "CNL-UFS", "SLC")]
        cnl1 = report.results[(0.1, "CNL-UFS", "SLC")]
        ion0 = report.results[(0.0, "ION-GPFS", "SLC")]
        ion1 = report.results[(0.1, "ION-GPFS", "SLC")]
        assert cnl1.bandwidth_mb == cnl0.bandwidth_mb  # fabric-independent
        assert ion1.bandwidth_mb < ion0.bandwidth_mb

    def test_ion_bandwidth_monotone_in_loss(self):
        report = self._sweep((0.0, 0.02, 0.1, 0.95))
        bws = [
            report.results[(r, "ION-GPFS", "SLC")].bandwidth_mb
            for r in report.loss_rates
        ]
        assert bws == sorted(bws, reverse=True)
        assert bws[-1] == 0.0  # unreachable -> zeroed, never a hang
        assert report.calibrations[0.95].unreachable

    def test_unknown_label_rejected_up_front(self):
        with pytest.raises(KeyError):
            netfault_exhibit(
                TINY, engine=MatrixEngine(workers=1),
                loss_rates=(0.0,), labels=("NOPE",),
            )

    def test_rendered_text_has_a_row_per_rate_and_kind(self):
        report = self._sweep((0.0, 0.05))
        assert "CNL vs ION under fabric degradation" in report.text
        assert report.text.count("SLC") == 2

    def test_publish_exports_the_sweep(self):
        report = self._sweep((0.0, 0.05))
        registry = MetricsRegistry()
        report.publish(registry)
        text = prometheus_text(registry)
        assert 'repro_netfault_delivered_factor{loss_rate="0"} 1.0' in text
        assert 'loss_rate="0.05"' in text
        assert 'repro_netfault_bandwidth_mb{' in text
        assert "repro_netfault_link_packets_lost" in text


class TestCsvWorkerStability:
    def test_net_stats_csv_identical_across_worker_counts(self, tmp_path):
        """The per-packet CSV is emitted from the coordinator in DES
        order: pooling the healthy matrix must not move a byte."""
        outs = {}
        for workers in (1, 2):
            stats = NetStatsRecorder(tmp_path / f"w{workers}")
            netfault_exhibit(
                TINY, engine=MatrixEngine(workers=workers),
                loss_rates=(0.0, 0.05), labels=("CNL-UFS", "ION-GPFS"),
                kinds=("SLC",), stats=stats,
            )
            stats.close()
            outs[workers] = (
                tmp_path / f"w{workers}" / "net_stats.csv"
            ).read_bytes()
        assert outs[1] == outs[2]
        assert len(outs[1]) > 1000  # the lossy run actually logged packets
