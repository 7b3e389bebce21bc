"""SortBuffer semantics: occupancy, dedup-by-replace, drain order."""

import pytest

from repro.store import SortBuffer


class TestBasics:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SortBuffer(0)

    def test_add_and_contains(self):
        buf = SortBuffer(4)
        buf.add(10, 1)
        assert 10 in buf
        assert 11 not in buf
        assert len(buf) == 1
        assert buf.used_units == 1

    def test_fits_respects_capacity(self):
        buf = SortBuffer(3)
        buf.add(1, 2)
        assert buf.fits(1)
        assert not buf.fits(2)

    def test_drain_returns_insertion_order_and_empties(self):
        buf = SortBuffer(8)
        for pid in (5, 3, 9):
            buf.add(pid, 1)
        assert buf.drain().tolist() == [5, 3, 9]
        assert len(buf) == 0
        assert buf.used_units == 0
        assert 5 not in buf


class TestReplace:
    def test_replace_keeps_single_copy(self):
        buf = SortBuffer(8)
        buf.add(1, 1)
        buf.replace(1, 1)
        assert len(buf) == 1
        assert buf.used_units == 1

    def test_replace_adjusts_occupancy_for_new_size(self):
        buf = SortBuffer(8)
        buf.add(1, 2)
        buf.replace(1, 5)
        assert buf.used_units == 5
        buf.replace(1, 1)
        assert buf.used_units == 1

    def test_drain_after_replace_has_one_entry(self):
        buf = SortBuffer(8)
        buf.add(1, 1)
        buf.add(2, 1)
        buf.replace(1, 2)
        assert buf.drain().tolist() == [1, 2]
