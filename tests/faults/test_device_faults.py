"""Device-layer fault overlay: pure-overlay guarantee, determinism,
retry ladders, strict mode, plane failures."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.runner import Workload, run_config
from repro.faults import (
    DeviceFaultModel,
    DieFailure,
    FaultSpec,
    TransientMediaFault,
    is_transient,
)
from repro.nvm.kinds import SLC, TLC
from tests.oracles.media import Die

KiB = 1024
# enough panels/bytes to issue a meaningful command stream (tiny
# workloads batch into ~4 device commands and show nothing)
W = Workload(panels=4, panel_bytes=256 * KiB)

CHAOTIC = FaultSpec(seed=7, read_fault_rate=0.05, die_failure_rate=0.02)


def _model(spec: FaultSpec, kind=SLC, dies: int = 16) -> DeviceFaultModel:
    return spec.plan().device_model(kind, SimpleNamespace(dies=dies))


def _decode(flat: int) -> tuple:
    return (0, 0, flat, 0)  # index 2 is the die, matching sched._decode


def _one_row(flat: int) -> np.ndarray:
    """A one-transaction block (op, flat, nbytes, group, pib) at ``flat``."""
    return np.array([(0, flat, 0, -1, 0)], dtype=np.int64)


class TestPureOverlay:
    def test_zero_rate_spec_is_bit_identical(self):
        healthy = run_config("CNL-EXT4", "SLC", W, with_remaining=False)
        overlaid = run_config(
            "CNL-EXT4", "SLC", W, with_remaining=False, faults=FaultSpec(seed=9)
        )
        assert overlaid.bandwidth_mb == healthy.bandwidth_mb
        assert overlaid.aggregate_mb == healthy.aggregate_mb
        assert overlaid.breakdown == healthy.breakdown
        assert overlaid.faults is None  # nothing to inject -> healthy path

    def test_no_penalty_means_done_unchanged(self):
        model = _model(FaultSpec(seed=1))  # all rates zero
        for seq in range(50):
            assert model.on_command(seq, "read", _one_row(3), 1000, _decode) == 1000
        assert model.faults_injected == 0


@pytest.mark.chaos
class TestInjection:
    def test_faults_inject_and_degrade_bandwidth(self):
        healthy = run_config("CNL-EXT4", "SLC", W, with_remaining=False)
        faulty = run_config(
            "CNL-EXT4", "SLC", W, with_remaining=False, faults=CHAOTIC
        )
        assert faulty.faults is not None
        assert faulty.faults["faults_injected"] > 0
        assert faulty.faults["penalty_ns"] > 0
        assert faulty.bandwidth_mb <= healthy.bandwidth_mb

    def test_same_seed_is_deterministic(self):
        a = run_config("CNL-EXT4", "SLC", W, with_remaining=False, faults=CHAOTIC)
        b = run_config("CNL-EXT4", "SLC", W, with_remaining=False, faults=CHAOTIC)
        assert a.bandwidth_mb == b.bandwidth_mb
        assert a.faults == b.faults  # identical fault log, event for event

    def test_different_seed_changes_injection(self):
        other = FaultSpec(seed=8, read_fault_rate=0.05, die_failure_rate=0.02)
        a = run_config("CNL-EXT4", "SLC", W, with_remaining=False, faults=CHAOTIC)
        b = run_config("CNL-EXT4", "SLC", W, with_remaining=False, faults=other)
        assert a.faults["events"] != b.faults["events"]

    def test_endurance_scales_injection(self):
        spec = FaultSpec(seed=3, read_fault_rate=0.01)
        slc = _model(spec, SLC)
        tlc = _model(spec, TLC)
        assert tlc.read_fault_p > slc.read_fault_p  # TLC ~33x more fragile


class TestRetryLadder:
    def test_ladder_is_exponential_backoff_total(self):
        model = _model(FaultSpec(seed=1, retry_latency_ns=1000))
        # rounds cost 1000*2^0 + 1000*2^1 + ... = 1000*((1<<n)-1)
        assert model._ladder_ns(1) == 1000
        assert model._ladder_ns(3) == 7000
        assert model._ladder_ns(4) == 15000

    def test_read_fault_pays_ladder_and_counts(self):
        model = _model(FaultSpec(seed=2, read_fault_rate=1.0))
        assert model.read_fault_p == 0.75  # capped
        done = 0
        for seq in range(200):
            done = model.on_command(seq, "read", _one_row(1), 0, _decode)
        assert model.read_faults > 0
        assert model.retries >= model.read_faults  # >= one round per fault
        assert model.penalty_ns > 0
        snap = model.snapshot()
        assert snap["faults_injected"] == model.faults_injected
        assert len(snap["events"]) == model.faults_injected

    def test_writes_never_hit_read_retry(self):
        model = _model(FaultSpec(seed=2, read_fault_rate=1.0))
        for seq in range(100):
            model.on_command(seq, "write", _one_row(1), 0, _decode)
        assert model.read_faults == 0


class TestDieFailures:
    def _failing_model(self, strict: bool) -> DeviceFaultModel:
        # die_failure_rate caps at 0.25/die; scan seeds until one fails
        for seed in range(64):
            model = _model(
                FaultSpec(seed=seed, die_failure_rate=1.0, strict=strict)
            )
            if model.failed_dies:
                return model
        raise AssertionError("no seed in 0..63 failed a die (p=0.25/die)")

    def test_touching_failed_die_pays_recovery(self):
        model = self._failing_model(strict=False)
        die = min(model.failed_dies)
        done = model.on_command(0, "write", _one_row(die), 1000, _decode)
        assert done > 1000
        assert model.die_fault_hits == 1
        assert model.remapped == 1

    def test_strict_mode_raises_typed_die_failure(self):
        model = self._failing_model(strict=True)
        die = min(model.failed_dies)
        with pytest.raises(DieFailure) as exc:
            model.on_command(0, "write", _one_row(die), 1000, _decode)
        assert exc.value.code == "die_failure"
        assert not is_transient(exc.value)

    def test_strict_mode_raises_on_uncorrectable_read(self):
        model = _model(
            FaultSpec(seed=0, read_fault_rate=1.0, strict=True, max_retries=2)
        )
        raised = None
        for seq in range(5000):  # exhaustion needs the 0.25^n recurrence
            try:
                model.on_command(seq, "read", _one_row(1), 0, _decode)
            except TransientMediaFault as exc:
                raised = exc
                break
        assert raised is not None
        assert raised.code == "transient_media_fault"
        assert is_transient(raised)


class TestPlaneFailures:
    """Plane failure is modelled only by the die oracle: no program path
    injects it (:class:`DeviceFaultModel` fails whole dies)."""

    def test_failed_plane_raises_typed_error(self):
        die = Die(kind=SLC, planes=2, blocks_per_plane=4)
        die.fail_plane(1)
        assert die.is_plane_failed(1) and not die.is_plane_failed(0)
        assert not die.failed  # one healthy plane left
        die.program(0, 0, 0)  # healthy plane still works
        with pytest.raises(DieFailure):
            die.program(1, 0, 0)
        die.fail_plane(0)
        assert die.failed
