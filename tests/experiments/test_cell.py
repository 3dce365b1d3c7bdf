"""The scenario cell: identity, normalisation, cache entries, routing."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import Cell, ConfigResult, MatrixEngine, ResultCache, Workload
from repro.experiments.cache import _CELL_FIELDS, _persisted
from repro.experiments.runner import run_cell
from repro.faults import FaultSpec
from repro.lifetime import LifetimeCellResult, WearPolicy
from repro.netfault import netfault_exhibit

KiB = 1024
TINY = Workload(panels=2, panel_bytes=256 * KiB)
SEED = 1013
FAULTS = FaultSpec(seed=3, read_fault_rate=0.1)


def plain(**kw) -> Cell:
    return Cell("CNL-UFS", "SLC", TINY, SEED, **kw)


class TestKeyStability:
    """Plain and fault-only keys are the pre-``Cell`` cache keys, so
    existing disk caches and service coalescing keys stay valid."""

    def test_plain_digest_is_pinned(self):
        assert plain().key() == (
            "60042f12514787e1bf399884f8b79741752a714d0c604d2df36dcbd610b4da8a"
        )

    def test_fault_only_digest_is_pinned(self):
        assert plain(faults=FAULTS).key() == (
            "fb85fbf5ac9f943515ee9babc0af7e9e83605545dee853968c13b66bde432545"
        )

    def test_peak_digest_is_pinned(self):
        assert plain().key("peak") == (
            "90225fa56f54d77a26885402fd78c743b520a5492bf9ec3c9a63c9f0905d010b"
        )

    def test_overlays_share_the_plain_peak(self):
        ion = Cell("ION-GPFS", "SLC", TINY, SEED)
        assert ion.key("peak") == dataclasses.replace(ion, derate=0.5).key("peak")
        assert plain().key("peak") == plain(faults=FAULTS).key("peak")
        assert plain().key("peak") == plain(age=0.5).key("peak")


class TestKeyDistinctness:
    def test_every_overlay_field_moves_the_key(self):
        ion = Cell("ION-GPFS", "SLC", TINY, SEED)
        cells = [
            plain(),
            plain(with_remaining=False),
            plain(faults=FAULTS),
            plain(faults=FaultSpec(seed=4, read_fault_rate=0.1)),
            plain(age=0.0),
            plain(age=0.5),
            plain(age=0.5, policy=WearPolicy(kind="static")),
            plain(age=0.5, faults=FAULTS),
            ion,
            dataclasses.replace(ion, derate=0.5),
            dataclasses.replace(ion, derate=0.25),
            dataclasses.replace(ion, derate=0.0),
        ]
        keys = {c.key() for c in cells}
        assert len(keys) == len(cells)

    def test_plain_sites_match_the_label_kind_pair(self):
        assert plain().site() == ("CNL-UFS", "SLC")
        assert plain().tag == "CNL-UFS|SLC"
        aged = plain(age=0.5)
        assert aged.site() == ("CNL-UFS", "SLC", aged.key())
        assert aged.tag == "CNL-UFS|SLC|age=0.50/none"


class TestNormalisation:
    def test_non_injecting_faults_are_the_plain_cell(self):
        chaos_only = FaultSpec(seed=9, worker_crash_rate=0.5)
        assert plain(faults=chaos_only) == plain()
        assert plain(faults=chaos_only).key() == plain().key()
        assert not plain(faults=chaos_only).overlaid

    def test_derate_one_is_the_plain_cell(self):
        ion = Cell("ION-GPFS", "TLC", TINY, SEED)
        same = dataclasses.replace(ion, derate=1.0)
        assert same == ion and same.key() == ion.key()
        assert not same.overlaid

    def test_aged_cell_never_replays_the_peak(self):
        aged = plain(age=0.5)
        assert aged.with_remaining is False
        assert aged.policy == WearPolicy()

    def test_aged_fault_regime_is_derived_once(self):
        aged = plain(age=0.5)
        assert aged.faults is None
        assert aged.device_faults == FaultSpec(seed=SEED).aged(0.5)
        # the base regime a non-injecting spec would seed is kept
        seeded = plain(age=0.5, faults=FaultSpec(seed=7))
        assert seeded.device_faults == FaultSpec(seed=7).aged(0.5)
        # replace() re-derives from the base, never ages twice
        assert dataclasses.replace(aged, label="CNL-EXT4").device_faults == (
            aged.device_faults
        )

    def test_kind_names_are_canonical(self):
        assert Cell("CNL-UFS", "slc", TINY, SEED) == plain()

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(label="NOPE"), KeyError),
            (dict(kind="QLC"), KeyError),
            (dict(derate=0.5), ValueError),  # CNL never crosses the fabric
            (dict(label="ION-GPFS", derate=-0.1), ValueError),
            (dict(policy=WearPolicy(kind="static")), ValueError),
            (dict(age=1.0), ValueError),
            (dict(label="ION-GPFS", age=0.5, derate=0.5), ValueError),
        ],
    )
    def test_invalid_cells_raise(self, kwargs, error):
        args = dict(label="CNL-UFS", kind="SLC", workload=TINY, seed=SEED)
        args.update(kwargs)
        with pytest.raises(error):
            Cell(**args)


class TestResults:
    def test_persisted_cell_fields_derive_from_the_dataclass(self):
        assert _persisted(ConfigResult) == _CELL_FIELDS

    def test_unreachable_fabric_is_zero_without_a_replay(self):
        cell = Cell("ION-GPFS", "MLC", TINY, SEED, derate=0.0)
        result = run_cell(cell)
        assert result.bandwidth_mb == 0.0 and result.aggregate_mb == 0.0
        assert result.breakdown == {} and result.backend == "scalar"

    def test_derating_slows_only_the_fabric(self):
        ion = Cell("ION-GPFS", "MLC", TINY, SEED, with_remaining=False)
        healthy = run_cell(ion)
        slowed = run_cell(dataclasses.replace(ion, derate=0.5))
        assert 0.0 < slowed.bandwidth_mb < healthy.bandwidth_mb

    def test_disk_round_trip_of_both_result_types(self, tmp_path):
        derated = Cell("ION-GPFS", "MLC", TINY, SEED, derate=0.5)
        aged = plain(age=0.5, policy=WearPolicy(kind="dynamic"))
        cache = ResultCache(tmp_path)
        computed = {cell: run_cell(cell) for cell in (derated, aged)}
        for cell, result in computed.items():
            cache.put_cell(cell, result)
        reopened = ResultCache(tmp_path)
        for cell, result in computed.items():
            hit = reopened.get_cell(cell)
            assert type(hit) is type(result)
            for name in _persisted(type(result)):
                assert getattr(hit, name) == getattr(result, name)
        assert isinstance(reopened.get_cell(aged), LifetimeCellResult)
        assert reopened.stats()["disk_hits"] == 2


class TestEngineRouting:
    def test_overlay_cells_skip_the_batch_kernel(self):
        engine = MatrixEngine(workers=1, backend="batch")
        cells = [
            plain(),
            plain(faults=FAULTS),
            plain(age=0.5),
            Cell("ION-GPFS", "SLC", TINY, SEED, derate=0.5),
        ]
        results = engine.run_cells(cells)
        assert engine.batch_stats["batch_cells"] == 1
        assert engine.batch_stats["fallback_cells"] == 0
        assert results[cells[0]].backend == "batch"
        assert all(results[c].backend == "scalar" for c in cells[1:])
        assert isinstance(results[cells[2]], LifetimeCellResult)

    def test_tuples_and_cells_agree(self):
        engine = MatrixEngine(workers=1, backend="scalar")
        by_tuple = engine.run_cells([("CNL-UFS", "SLC")], TINY, SEED)
        by_cell = engine.run_cells([plain()])
        assert by_tuple[("CNL-UFS", "SLC")] == by_cell[plain()]

    def test_progress_reports_the_label_kind_pair(self):
        events = []
        engine = MatrixEngine(
            workers=1, progress=lambda *args: events.append(args[2])
        )
        engine.run_cells([plain(age=0.5)])
        assert events == [("CNL-UFS", "SLC")]

    def test_second_netfault_exhibit_serves_derated_cells_from_cache(self):
        cache = ResultCache()
        kwargs = dict(
            loss_rates=(0.0, 0.05), labels=("ION-GPFS", "CNL-UFS"),
            kinds=("SLC",), seed=SEED,
        )
        first_engine = MatrixEngine(workers=1, cache=cache)
        first = netfault_exhibit(TINY, first_engine, **kwargs)
        engine = MatrixEngine(workers=1, cache=cache)
        second = netfault_exhibit(TINY, engine, **kwargs)
        assert second.results == first.results
        # 3 distinct cells: two healthy, one derated ION; all cache hits
        assert len(engine.timings) == 3
        assert all(t.cached for t in engine.timings)
        assert second.results[(0.05, "ION-GPFS", "SLC")].bandwidth_mb < (
            second.results[(0.0, "ION-GPFS", "SLC")].bandwidth_mb
        )
