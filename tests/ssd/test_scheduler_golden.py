"""Golden equivalence: vectorized scheduler ≡ frozen scalar reference.

The vectorized :class:`~repro.ssd.scheduler.TransactionScheduler` must
produce a bit-identical transaction log (all 23 columns) and identical
completion times to the pre-vectorization reference implementation on
seeded traces, for every NVM medium the paper evaluates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.configs import config_by_label
from repro.experiments.runner import Workload
from repro.interconnect import HostPath
from repro.nvm import ONFI3_SDR400
from repro.nvm.kinds import kind_by_name
from repro.ssd import Geometry, controller
from repro.ssd.ftl import DeviceFTL
from tests.oracles.reference_scheduler import ReferenceScheduler
from repro.ssd.scheduler import LOG_COLUMNS, TransactionScheduler
from repro.trace.replay import replay
from repro.trace.synth import random_mix_trace

MiB = 1024 * 1024
TINY = Workload(panels=2, panel_bytes=1 * MiB)


def _replay_with(sched_cls, label: str, kind_name: str, monkeypatch):
    """Replay a seeded trace with the given scheduler implementation."""
    monkeypatch.setattr(controller, "TransactionScheduler", sched_cls)
    cfg = config_by_label(label)
    kind = kind_by_name(kind_name)
    path = cfg.build(kind, TINY.bytes_per_client, seed=1013)
    return replay(path, TINY.traces(path.clients), posix_window=TINY.posix_window)


@pytest.mark.parametrize("kind_name", ["SLC", "TLC", "PCM"])
@pytest.mark.parametrize("label", ["CNL-EXT4", "ION-GPFS", "CNL-UFS"])
class TestGoldenEquivalence:
    def test_log_bit_identical(self, label, kind_name, monkeypatch):
        new = _replay_with(TransactionScheduler, label, kind_name, monkeypatch)
        ref = _replay_with(ReferenceScheduler, label, kind_name, monkeypatch)
        log_new, log_ref = new.result.log, ref.result.log
        assert len(log_new) == len(log_ref) > 0
        for col in LOG_COLUMNS:
            assert np.array_equal(log_new[col], log_ref[col]), col

    def test_completions_and_metrics_identical(self, label, kind_name, monkeypatch):
        new = _replay_with(TransactionScheduler, label, kind_name, monkeypatch)
        ref = _replay_with(ReferenceScheduler, label, kind_name, monkeypatch)
        assert new.result.group_completions == ref.result.group_completions
        assert new.bandwidth_mb == ref.bandwidth_mb
        assert new.aggregate_mb == ref.aggregate_mb
        assert new.metrics.makespan_ns == ref.metrics.makespan_ns


class TestGoldenRandomMix:
    """Write/erase-heavy streams (GC churn) through both schedulers."""

    @pytest.mark.parametrize("kind_name", ["SLC", "TLC", "PCM"])
    def test_random_mix_identical(self, kind_name):
        kind = kind_by_name(kind_name)
        host = HostPath(name="h", bytes_per_sec=2e9, per_request_ns=1000)

        def run(sched_cls):
            geom = Geometry(
                kind=kind, channels=2, packages_per_channel=2,
                dies_per_package=2, planes_per_die=2, blocks_per_plane=16,
            )
            ftl = DeviceFTL(geom, 4 * MiB)
            ftl.preload(2 * MiB)
            sched = sched_cls(geom, ONFI3_SDR400, host)
            trace = random_mix_trace(
                n_requests=64, file_bytes=2 * MiB, read_fraction=0.5, seed=17
            )
            from repro.ssd.request import DeviceCommand

            t, completions = 0, []
            for rid, req in enumerate(trace):
                cmd = DeviceCommand(req.op, req.offset, req.nbytes)
                txns = ftl.translate(cmd)
                if len(txns):
                    t = sched.submit(txns, arrival=t, req_id=rid)
                completions.append(t)
            return sched.finish(), completions

        log_new, done_new = run(TransactionScheduler)
        log_ref, done_ref = run(ReferenceScheduler)
        assert done_new == done_ref
        assert len(log_new) == len(log_ref) > 0
        for col in LOG_COLUMNS:
            assert np.array_equal(log_new[col], log_ref[col]), col
