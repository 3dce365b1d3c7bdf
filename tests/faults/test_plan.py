"""FaultSpec/FaultPlan: seeded determinism, wear scaling, cache keys."""

from __future__ import annotations

import json

import pytest

from repro.experiments import Cell
from repro.experiments.runner import Workload
from repro.faults import FaultPlan, FaultSpec, media_wear_factor
from repro.nvm.kinds import MLC, PCM, SLC, TLC

KiB = 1024
TINY = Workload(panels=2, panel_bytes=64 * KiB)


class TestWearFactor:
    def test_slc_is_the_reference(self):
        assert media_wear_factor(SLC) == 1.0

    def test_fragility_ordering_matches_section_2_3(self):
        # TLC most fragile, PCM far more durable than any NAND
        assert (
            media_wear_factor(TLC)
            > media_wear_factor(MLC)
            > media_wear_factor(SLC)
            > media_wear_factor(PCM)
        )

    def test_pcm_is_orders_of_magnitude_more_durable(self):
        assert media_wear_factor(PCM) <= 0.01


class TestSpecValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultSpec(read_fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(worker_crash_rate=-0.1)

    def test_degraded_factor_range(self):
        with pytest.raises(ValueError):
            FaultSpec(link_degraded_factor=0.0)
        with pytest.raises(ValueError):
            FaultSpec(link_degraded_factor=1.5)

    def test_retry_budget_positive(self):
        with pytest.raises(ValueError):
            FaultSpec(max_retries=0)

    def test_enabled_flags(self):
        assert not FaultSpec().enabled
        assert FaultSpec(read_fault_rate=0.1).injects_device_faults
        assert FaultSpec(link_flap_rate=0.1).injects_link_faults
        assert FaultSpec(link_degraded_factor=0.5).injects_link_faults
        assert FaultSpec(worker_crash_rate=0.1).injects_worker_faults
        assert FaultSpec.default_chaos().enabled

    def test_signature_is_json_safe_and_seed_sensitive(self):
        a = FaultSpec(seed=1, read_fault_rate=0.1)
        b = FaultSpec(seed=2, read_fault_rate=0.1)
        assert json.dumps(a.signature())  # serialisable
        assert a.signature() != b.signature()
        assert a.signature() == FaultSpec(seed=1, read_fault_rate=0.1).signature()


class TestPlanDeterminism:
    def test_uniform_is_pure_in_seed_and_site(self):
        p1 = FaultPlan(FaultSpec(seed=42))
        p2 = FaultPlan(FaultSpec(seed=42))
        sites = [("device", "read", i) for i in range(200)]
        assert [p1.uniform(*s) for s in sites] == [p2.uniform(*s) for s in sites]

    def test_uniform_in_unit_interval(self):
        plan = FaultPlan(FaultSpec(seed=3))
        draws = [plan.uniform("x", i) for i in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # sanity: roughly uniform, not constant
        assert 0.3 < sum(draws) / len(draws) < 0.7

    def test_different_seeds_differ(self):
        a = FaultPlan(FaultSpec(seed=1))
        b = FaultPlan(FaultSpec(seed=2))
        assert [a.uniform(i) for i in range(64)] != [b.uniform(i) for i in range(64)]

    def test_occurs_edge_rates(self):
        plan = FaultPlan(FaultSpec(seed=5))
        assert not any(plan.occurs(0.0, "s", i) for i in range(100))
        assert all(plan.occurs(1.0, "s", i) for i in range(100))

    def test_call_order_is_irrelevant(self):
        plan = FaultPlan(FaultSpec(seed=9))
        forward = [plan.occurs(0.5, "site", i) for i in range(50)]
        backward = [plan.occurs(0.5, "site", i) for i in reversed(range(50))]
        assert forward == list(reversed(backward))

    def test_plan_survives_pickling(self):
        import pickle

        plan = FaultPlan(FaultSpec(seed=11, read_fault_rate=0.2))
        clone = pickle.loads(pickle.dumps(plan))
        assert [plan.uniform(i) for i in range(32)] == [
            clone.uniform(i) for i in range(32)
        ]


class TestWorkerChaos:
    def test_strikes_only_first_attempt(self):
        plan = FaultPlan(FaultSpec(seed=0, worker_crash_rate=1.0))
        assert plan.worker_chaos("L", "SLC", 0) == "crash"
        for attempt in (1, 2, 3):
            assert plan.worker_chaos("L", "SLC", attempt) is None

    def test_hang_verdict(self):
        plan = FaultPlan(FaultSpec(seed=0, worker_hang_rate=1.0))
        assert plan.worker_chaos("L", "SLC", 0) == "hang"


class TestCacheKeyIsolation:
    def test_fault_free_key_unchanged_by_none(self):
        base = Cell("CNL-EXT4", "SLC", TINY, 1013, True).key()
        assert base == Cell("CNL-EXT4", "SLC", TINY, 1013, True, None).key()

    def test_faulty_key_differs_from_healthy_and_other_seeds(self):
        base = Cell("CNL-EXT4", "SLC", TINY, 1013, True).key()
        f1 = Cell("CNL-EXT4", "SLC", TINY, 1013, True,
                  FaultSpec(seed=1, read_fault_rate=0.1)).key()
        f2 = Cell("CNL-EXT4", "SLC", TINY, 1013, True,
                  FaultSpec(seed=2, read_fault_rate=0.1)).key()
        assert base != f1 and base != f2 and f1 != f2
