"""Sweep plumbing: result cache, metrics export, report, service job."""

from __future__ import annotations

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import MatrixEngine
from repro.experiments.runner import Cell, Workload, run_cell
from repro.lifetime import LifetimeCellResult, WearPolicy, lifetime_sweep
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.service.executor import result_to_payload
from repro.service.jobs import LifetimeJob, ServiceError, job_from_dict

KiB = 1024
TINY = Workload(panels=2, panel_bytes=256 * KiB)
SEED = 1013


def aged(age=0.5, policy="dynamic", label="CNL-UFS", kind="TLC", seed=SEED):
    return Cell(
        label, kind, TINY, seed, age=age, policy=WearPolicy(kind=policy)
    )


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_cell(aged())
        cache.put_cell(aged(), result)
        hit = cache.get_cell(aged())
        assert hit == result
        assert isinstance(hit, LifetimeCellResult)
        # a different age, policy or seed is a different entry
        assert cache.get_cell(aged(age=0.9)) is None
        assert cache.get_cell(aged(policy="static")) is None

    def test_disk_entries_survive_reopen(self, tmp_path):
        result = run_cell(aged())
        ResultCache(tmp_path).put_cell(aged(), result)
        reopened = ResultCache(tmp_path)
        assert reopened.get_cell(aged()) == result

    def test_key_distinguishes_all_axes(self):
        base = aged().key()
        assert base == aged().key()
        variants = [
            aged(label="ION-GPFS").key(),
            aged(kind="MLC").key(),
            aged(seed=7).key(),
            aged(age=0.9).key(),
            aged(policy="static").key(),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_sweep_uses_cache(self, tmp_path):
        engine = MatrixEngine(workers=1, cache=ResultCache(tmp_path))
        kwargs = dict(
            kinds=("TLC",), ages=(0.0, 0.5), policy=WearPolicy(kind="dynamic"),
            workload=TINY, seed=SEED, engine=engine,
        )
        first = lifetime_sweep(("CNL-UFS",), **kwargs)
        second = lifetime_sweep(("CNL-UFS",), **kwargs)
        assert first.results == second.results
        assert sum(t.cached for t in engine.timings) == len(second.results)


class TestReportAndMetrics:
    @pytest.fixture(scope="class")
    def report(self):
        return lifetime_sweep(
            ("CNL-UFS",), kinds=("TLC",), ages=(0.0, 0.9),
            policy=WearPolicy(kind="dynamic"), workload=TINY, seed=SEED,
        )

    def test_text_has_all_cells(self, report):
        text = report.text
        assert "Device lifetime sweep" in text
        assert "CNL-UFS" in text
        assert " 0%" in text and "90%" in text

    def test_publish_exports_gauge_families(self, report):
        registry = MetricsRegistry()
        report.publish(registry)
        text = prometheus_text(registry)
        for family in (
            "repro_lifetime_bandwidth_mb",
            "repro_lifetime_p99_latency_ms",
            "repro_lifetime_waf",
            "repro_lifetime_wear_spread",
            "repro_lifetime_retired_blocks",
            "repro_lifetime_read_fault_p",
            "repro_lifetime_faults_injected",
        ):
            assert family in text
        assert 'age="0.90"' in text and 'policy="dynamic"' in text

    def test_result_to_dict_is_json_safe(self, report):
        import json

        for res in report.results.values():
            payload = result_to_payload(res)
            assert json.loads(json.dumps(payload)) == payload


class TestLifetimeJob:
    def good(self, **kw):
        args = dict(
            labels=("CNL-UFS",), kinds=("TLC",), ages=(0.0, 0.5),
            wear_policy="dynamic", workload=TINY, seed=SEED,
        )
        args.update(kw)
        return LifetimeJob(**args)

    def test_validate_accepts_good_spec(self):
        self.good().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"labels": ()},
            {"kinds": ()},
            {"ages": ()},
            {"labels": ("NOPE",)},
            {"kinds": ("QLC",)},
            {"ages": (1.0,)},
            {"ages": (-0.5,)},
            {"wear_policy": "aggressive"},
        ],
    )
    def test_validate_rejects(self, kw):
        with pytest.raises(ServiceError):
            self.good(**kw).validate()

    def test_dict_round_trip(self):
        spec = self.good()
        parsed = job_from_dict(spec.to_dict())
        assert isinstance(parsed, LifetimeJob)
        assert parsed.labels == spec.labels
        assert parsed.kinds == spec.kinds
        assert parsed.ages == spec.ages
        assert parsed.wear_policy == spec.wear_policy
        assert parsed.key() == spec.key()

    def test_key_depends_on_axes(self):
        assert self.good().key() != self.good(wear_policy="static").key()
        assert self.good().key() != self.good(ages=(0.0, 0.9)).key()

    def test_describe(self):
        assert "lifetime" in self.good().describe()
