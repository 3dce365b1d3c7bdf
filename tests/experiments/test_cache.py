"""ResultCache: key schema, round-trips, fallbacks, invalidation."""

from __future__ import annotations

import pytest

from repro.experiments import Cell, ResultCache, Workload, run_config

KiB = 1024
TINY = Workload(panels=2, panel_bytes=256 * KiB)
OTHER = Workload(panels=3, panel_bytes=256 * KiB)
SEED = 1013


def cell_key(label, kind, workload, seed, with_remaining):
    return Cell(label, kind, workload, seed, with_remaining).key()


def cell(label, kind, with_remaining=True):
    return Cell(label, kind, TINY, SEED, with_remaining)


class TestKeys:
    def test_deterministic(self):
        assert cell_key("CNL-UFS", "SLC", TINY, SEED, True) == cell_key(
            "CNL-UFS", "SLC", TINY, SEED, True
        )

    def test_every_component_matters(self):
        base = cell_key("CNL-UFS", "SLC", TINY, SEED, True)
        assert cell_key("CNL-EXT2", "SLC", TINY, SEED, True) != base
        assert cell_key("CNL-UFS", "TLC", TINY, SEED, True) != base
        assert cell_key("CNL-UFS", "SLC", OTHER, SEED, True) != base
        assert cell_key("CNL-UFS", "SLC", TINY, SEED + 1, True) != base
        assert cell_key("CNL-UFS", "SLC", TINY, SEED, False) != base

    def test_schema_version_invalidates(self, monkeypatch):
        from repro.experiments import cache as cache_mod

        base = cell_key("CNL-UFS", "SLC", TINY, SEED, True)
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", 999)
        assert cell_key("CNL-UFS", "SLC", TINY, SEED, True) != base

    def test_peak_key_distinct_from_cell_key(self):
        plain = cell("CNL-UFS", "SLC")
        assert plain.key("peak") != plain.key()


class TestRoundTrip:
    def test_memory_cell_roundtrip(self):
        cache = ResultCache()
        result = run_config("CNL-EXT4", "TLC", TINY, SEED)
        cache.put_cell(cell("CNL-EXT4", "TLC"), result)
        hit = cache.get_cell(cell("CNL-EXT4", "TLC"))
        assert hit is not None
        assert hit.bandwidth_mb == result.bandwidth_mb
        assert hit.remaining_mb == result.remaining_mb
        assert hit.breakdown == result.breakdown
        assert hit.parallelism == result.parallelism
        assert hit.metrics is None

    def test_miss_returns_none_and_counts(self):
        cache = ResultCache()
        assert cache.get_cell(cell("CNL-EXT4", "TLC")) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_disk_persistence(self, tmp_path):
        result = run_config("CNL-UFS", "SLC", TINY, SEED)
        ResultCache(tmp_path).put_cell(cell("CNL-UFS", "SLC"), result)
        fresh = ResultCache(tmp_path)
        hit = fresh.get_cell(cell("CNL-UFS", "SLC"))
        assert hit is not None and hit.bandwidth_mb == result.bandwidth_mb
        assert len(fresh) == 1

    def test_peak_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_peak(cell("CNL-UFS", "SLC"), 1234.5)
        assert ResultCache(tmp_path).get_peak(
            cell("CNL-UFS", "SLC")
        ) == pytest.approx(1234.5)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_config("CNL-UFS", "SLC", TINY, SEED)
        cache.put_cell(cell("CNL-UFS", "SLC"), result)
        for f in tmp_path.glob("*.json"):
            f.write_text("{not json")
        assert ResultCache(tmp_path).get_cell(cell("CNL-UFS", "SLC")) is None


class TestRemainingFallbacks:
    def test_true_entry_serves_false_request_with_zero_remaining(self):
        cache = ResultCache()
        result = run_config("CNL-EXT2", "SLC", TINY, SEED, with_remaining=True)
        assert result.remaining_mb > 0
        cache.put_cell(cell("CNL-EXT2", "SLC"), result)
        hit = cache.get_cell(cell("CNL-EXT2", "SLC", with_remaining=False))
        assert hit is not None
        assert hit.remaining_mb == 0.0
        assert hit.bandwidth_mb == result.bandwidth_mb

    def test_false_entry_plus_peak_serves_true_request(self):
        cache = ResultCache()
        full = run_config("CNL-EXT2", "SLC", TINY, SEED, cache=cache)
        # seed the cache with only the False cell + the peak
        cheap = run_config("CNL-EXT2", "SLC", TINY, SEED, with_remaining=False)
        cache.put_cell(cell("CNL-EXT2", "SLC", with_remaining=False), cheap)
        hit = cache.get_cell(cell("CNL-EXT2", "SLC"))
        assert hit is not None
        assert hit.remaining_mb == pytest.approx(full.remaining_mb)

    def test_run_config_reuses_cached_peak(self):
        cache = ResultCache()
        run_config("CNL-EXT2", "SLC", TINY, SEED, cache=cache)
        hits_before = cache.hits
        # fresh cell request with metrics kept: cell cache bypassed, but
        # the peak replay must still be served from the cache
        r = run_config(
            "CNL-EXT2", "SLC", TINY, SEED, cache=cache, keep_metrics=True
        )
        assert r.metrics is not None
        assert cache.hits == hits_before + 1


class TestStats:
    def test_counters_track_traffic(self):
        cache = ResultCache()
        assert cache.get_peak(cell("CNL-UFS", "SLC")) is None  # miss
        cache.put_peak(cell("CNL-UFS", "SLC"), 1.0)  # put
        assert cache.get_peak(cell("CNL-UFS", "SLC")) == 1.0  # hit
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["memory_hits"] == 1 and stats["disk_hits"] == 0
        assert stats["hit_ratio"] == 0.5
        assert stats["memory_entries"] == 1
        assert stats["disk_entries"] == 0 and not stats["persistent"]

    def test_disk_hits_distinguished_from_memory(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put_peak(cell("CNL-UFS", "SLC"), 1.0)
        fresh = ResultCache(tmp_path)  # cold memory, warm disk
        assert fresh.get_peak(cell("CNL-UFS", "SLC")) == 1.0
        assert fresh.get_peak(cell("CNL-UFS", "SLC")) == 1.0
        stats = fresh.stats()
        assert stats["disk_hits"] == 1  # first read promoted the entry
        assert stats["memory_hits"] == 1  # second was served from memory
        assert stats["disk_entries"] == 1 and stats["persistent"]

    def test_empty_cache_reports_zero_ratio(self):
        stats = ResultCache().stats()
        assert stats["hit_ratio"] == 0.0
        assert stats["hits"] == stats["misses"] == stats["puts"] == 0


class TestMaintenance:
    def test_clear_memory_and_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_peak(cell("CNL-UFS", "SLC"), 1.0)
        cache.put_peak(cell("CNL-UFS", "TLC"), 2.0)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get_peak(cell("CNL-UFS", "SLC")) is None
