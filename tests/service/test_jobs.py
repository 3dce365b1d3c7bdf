"""JobSpec validation, identity keys, wire-format round trips."""

from __future__ import annotations

import pytest

from repro.experiments import Cell, Workload
from repro.service import (
    CellJob,
    FigureJob,
    HeadlineJob,
    JobValidationError,
    MatrixJob,
    job_from_dict,
)

KiB = 1024
TINY = Workload(panels=2, panel_bytes=256 * KiB)


class TestValidation:
    def test_valid_cell(self):
        CellJob(label="CNL-UFS", kind="SLC").validate()

    def test_unknown_label(self):
        with pytest.raises(JobValidationError) as exc:
            CellJob(label="CNL-NOPE", kind="SLC").validate()
        assert exc.value.code == "invalid_job"
        assert "CNL-NOPE" in exc.value.detail

    def test_unknown_kind(self):
        with pytest.raises(JobValidationError):
            CellJob(label="CNL-UFS", kind="QLC").validate()

    def test_unknown_figure(self):
        with pytest.raises(JobValidationError):
            FigureJob(figure="figure99").validate()

    def test_empty_matrix(self):
        with pytest.raises(JobValidationError):
            MatrixJob(labels=(), kinds=("SLC",)).validate()

    def test_bad_deadline(self):
        with pytest.raises(JobValidationError):
            CellJob(label="CNL-UFS", kind="SLC", deadline_s=0).validate()

    def test_bad_workload(self):
        with pytest.raises(JobValidationError):
            CellJob(
                label="CNL-UFS", kind="SLC", workload=Workload(panels=0)
            ).validate()


class TestKeys:
    def test_cell_key_matches_result_cache(self):
        """Coalescing identity == cache identity for cell jobs."""
        spec = CellJob(label="CNL-UFS", kind="SLC", workload=TINY, seed=7)
        assert spec.key() == Cell("CNL-UFS", "SLC", TINY, 7, True).key()

    def test_scheduling_attrs_do_not_change_key(self):
        a = CellJob(label="CNL-UFS", kind="SLC", workload=TINY, priority=5)
        b = CellJob(label="CNL-UFS", kind="SLC", workload=TINY, deadline_s=9.0)
        assert a.key() == b.key()

    def test_work_attrs_change_key(self):
        base = MatrixJob(labels=("CNL-UFS",), kinds=("SLC",), workload=TINY)
        assert base.key() != MatrixJob(
            labels=("CNL-UFS",), kinds=("TLC",), workload=TINY
        ).key()
        assert base.key() != MatrixJob(
            labels=("CNL-UFS",), kinds=("SLC",), workload=TINY, seed=2
        ).key()

    def test_job_types_never_collide(self):
        keys = {
            CellJob(label="CNL-UFS", kind="SLC", workload=TINY).key(),
            MatrixJob(labels=("CNL-UFS",), kinds=("SLC",), workload=TINY).key(),
            FigureJob(figure="figure7", workload=TINY).key(),
            HeadlineJob(workload=TINY).key(),
        }
        assert len(keys) == 4


class TestWireFormat:
    def test_cell_round_trip(self):
        spec = CellJob(
            label="CNL-UFS", kind="SLC", workload=TINY,
            seed=7, priority=2, deadline_s=5.0,
        )
        parsed = job_from_dict(spec.to_dict())
        assert parsed == spec
        assert parsed.key() == spec.key()

    def test_all_types_round_trip(self):
        specs = [
            MatrixJob(labels=("CNL-UFS", "CNL-EXT4"), kinds=("SLC", "TLC"),
                      workload=TINY),
            FigureJob(figure="figure8", workload=TINY),
            HeadlineJob(workload=TINY, priority=-1),
        ]
        for spec in specs:
            assert job_from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_job_type(self):
        with pytest.raises(JobValidationError) as exc:
            job_from_dict({"job": "banana"})
        assert "banana" in exc.value.detail

    def test_rejects_non_mapping(self):
        with pytest.raises(JobValidationError):
            job_from_dict(["cell"])

    def test_rejects_unknown_workload_field(self):
        with pytest.raises(JobValidationError):
            job_from_dict(
                {"job": "cell", "label": "CNL-UFS", "kind": "SLC",
                 "workload": {"panles": 2}}
            )

    def test_rejects_malformed_field_types(self):
        with pytest.raises(JobValidationError):
            job_from_dict({"job": "headline", "workload": "big"})
