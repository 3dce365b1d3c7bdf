"""Cache schema v4 -> v5 upgrade path.

v5 grew ``Workload.stream`` and the netfault job family.  Entries keyed
under v4 must silently miss (forcing a recompute), never be served, and
never be mistaken for corruption — the upgrade is a cold start, not an
error."""

from __future__ import annotations

import dataclasses

from repro.experiments import Cell, ResultCache, Workload, run_config
from repro.experiments import cache as cache_mod

KiB = 1024
TINY = Workload(panels=2, panel_bytes=64 * KiB)


def _v4_key(label, kind, workload, seed, with_remaining, monkeypatch):
    """The key this cell had under the previous schema: version 4 and a
    Workload without the ``stream`` field."""
    with monkeypatch.context() as m:
        m.setattr(cache_mod, "SCHEMA_VERSION", 4)
        old_asdict = dataclasses.asdict

        def v4_asdict(obj):
            d = old_asdict(obj)
            d.pop("stream", None)
            return d

        m.setattr(cache_mod.dataclasses, "asdict", v4_asdict)
        return Cell(label, kind, workload, seed, with_remaining).key()


class TestSchemaUpgrade:
    def test_version_is_five(self):
        assert cache_mod.SCHEMA_VERSION == 5

    def test_v4_entry_misses_under_v5(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        result = run_config("CNL-UFS", "SLC", TINY, with_remaining=False)
        # plant the result under its v4 key, as an old cache dir would
        old_key = _v4_key("CNL-UFS", "SLC", TINY, 1013, False, monkeypatch)
        payload = {f: getattr(result, f) for f in cache_mod._CELL_FIELDS}
        cache._store(old_key, payload)
        cache._mem.clear()  # simulate a fresh process over the old dir

        hit = cache.get_cell(Cell("CNL-UFS", "SLC", TINY, 1013, False))
        assert hit is None  # old entry invisible, not served
        assert cache.corrupt_entries == 0  # ...and not quarantined

    def test_recompute_lands_beside_the_stale_entry(self, tmp_path,
                                                    monkeypatch):
        cache = ResultCache(tmp_path)
        old_key = _v4_key("CNL-UFS", "SLC", TINY, 1013, False, monkeypatch)
        cache._store(old_key, {"stale": True})
        cache._mem.clear()

        from repro.experiments import MatrixEngine

        engine = MatrixEngine(workers=1, cache=cache)
        fresh = engine.run_cells(
            [("CNL-UFS", "SLC")], TINY, with_remaining=False
        )[("CNL-UFS", "SLC")]
        assert cache.get_cell(
            Cell("CNL-UFS", "SLC", TINY, 1013, False)
        ).bandwidth_mb == fresh.bandwidth_mb
        # both files coexist on disk; the stale one is inert
        assert cache._path(old_key).exists()

    def test_stream_field_participates_in_the_key(self):
        eigen = Workload(panels=2, panel_bytes=64 * KiB)
        ckpt = Workload(panels=2, panel_bytes=64 * KiB, iterations=1,
                        stream="checkpoint")
        assert Cell("CNL-UFS", "SLC", eigen, 1013, False).key() != Cell(
            "CNL-UFS", "SLC", ckpt, 1013, False
        ).key()
