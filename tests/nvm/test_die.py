"""The die oracle: erase-before-write discipline, wear, timing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm import MLC, SLC, TLC
from tests.oracles.media import Die, MediaError, OpKind


@pytest.fixture
def die():
    return Die(kind=SLC, planes=2, blocks_per_plane=8)


class TestProgramDiscipline:
    def test_sequential_program_ok(self, die):
        for p in range(4):
            die.program(0, 0, p)
        assert die.written[0, 0] == 4

    def test_out_of_order_program_rejected(self, die):
        die.program(0, 0, 0)
        with pytest.raises(MediaError, match="out-of-order"):
            die.program(0, 0, 2)

    def test_program_before_erase_rejected(self, die):
        die.program(0, 0, 0)
        with pytest.raises(MediaError, match="program-before-erase"):
            die.program(0, 0, 0)

    def test_erase_resets_frontier(self, die):
        die.program(0, 0, 0)
        die.erase(0, 0)
        die.program(0, 0, 0)  # legal again
        assert die.written[0, 0] == 1

    def test_planes_independent(self, die):
        die.program(0, 0, 0)
        die.program(1, 0, 0)
        assert die.written[0, 0] == die.written[1, 0] == 1

    def test_is_programmed(self, die):
        die.program(0, 2, 0)
        assert die.is_programmed(0, 2, 0)
        assert not die.is_programmed(0, 2, 1)

    def test_read_erased_page_allowed(self, die):
        die.read(0, 0, 5)  # no exception

    def test_address_validation(self, die):
        with pytest.raises(MediaError):
            die.program(2, 0, 0)
        with pytest.raises(MediaError):
            die.program(0, 8, 0)
        with pytest.raises(MediaError):
            die.program(0, 0, SLC.pages_per_block)


class TestWear:
    def test_erase_counts(self, die):
        for _ in range(3):
            die.erase(0, 1)
        assert die.erase_count[0, 1] == 3
        assert die.max_wear == 3
        assert die.total_erases == 3


class TestTiming:
    def test_read_time(self, die):
        assert die.cell_ns(OpKind.READ) == SLC.read_ns

    def test_write_ladder_via_position(self):
        d = Die(kind=TLC, planes=2, blocks_per_plane=4)
        assert d.cell_ns(OpKind.WRITE, page_in_block=0) == 440_000
        assert d.cell_ns(OpKind.WRITE, page_in_block=2) == 6_000_000

    def test_erase_time(self, die):
        assert die.cell_ns(OpKind.ERASE) == SLC.erase_ns

    def test_bad_nplanes(self, die):
        with pytest.raises(ValueError):
            die.cell_ns(OpKind.READ, nplanes=3)

    def test_unknown_op(self, die):
        with pytest.raises(ValueError):
            die.cell_ns("format")

    def test_capacity(self):
        d = Die(kind=MLC, planes=2, blocks_per_plane=10)
        assert d.capacity_bytes == 2 * 10 * MLC.pages_per_block * MLC.page_bytes


@st.composite
def op_sequences(draw):
    """Random program/erase sequences on a single block."""
    ops = draw(
        st.lists(
            st.sampled_from(["program", "erase"]), min_size=1, max_size=40
        )
    )
    return ops


class TestDisciplineProperty:
    @given(op_sequences())
    @settings(max_examples=60, deadline=None)
    def test_frontier_invariant(self, ops):
        """Programming at the frontier never errors; the frontier always
        stays within [0, pages_per_block]."""
        die = Die(kind=SLC, planes=1, blocks_per_plane=1)
        ppb = die.pages_per_block
        for op in ops:
            frontier = int(die.written[0, 0])
            if op == "program":
                if frontier < ppb:
                    die.program(0, 0, frontier)
                    assert die.written[0, 0] == frontier + 1
                else:
                    with pytest.raises(MediaError):
                        die.program(0, 0, frontier)
            else:
                die.erase(0, 0)
                assert die.written[0, 0] == 0
            assert 0 <= die.written[0, 0] <= ppb
