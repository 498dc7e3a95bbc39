"""Unit and property tests for half-open extent arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.intervals import Extent, ExtentMap


class TestExtent:
    def test_length(self):
        assert Extent(2, 10).length == 8

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Extent(5, 2)
        with pytest.raises(ValueError):
            Extent(-1, 2)


class TestExtentMapBasics:
    def test_empty_map(self):
        m = ExtentMap()
        assert len(m) == 0
        assert not m
        assert m.total() == 0
        assert m.max_end() == 0

    def test_single_add(self):
        m = ExtentMap()
        m.add(10, 20)
        assert list(m) == [Extent(10, 20)]
        assert m.total() == 10
        assert m.max_end() == 20

    def test_zero_length_add_is_noop(self):
        m = ExtentMap()
        m.add(5, 5)
        assert not m

    def test_merge_adjacent(self):
        m = ExtentMap([(0, 4), (4, 8)])
        assert list(m) == [Extent(0, 8)]

    def test_merge_overlapping(self):
        m = ExtentMap([(0, 6), (4, 10)])
        assert list(m) == [Extent(0, 10)]

    def test_disjoint_stay_separate(self):
        m = ExtentMap([(0, 4), (6, 8)])
        assert list(m) == [Extent(0, 4), Extent(6, 8)]

    def test_add_bridging_gap(self):
        m = ExtentMap([(0, 4), (8, 12)])
        m.add(4, 8)
        assert list(m) == [Extent(0, 12)]

    def test_add_swallowing_many(self):
        m = ExtentMap([(0, 1), (2, 3), (4, 5), (6, 7)])
        m.add(0, 10)
        assert list(m) == [Extent(0, 10)]

    def test_remove_middle_splits(self):
        m = ExtentMap([(0, 10)])
        m.remove(3, 7)
        assert list(m) == [Extent(0, 3), Extent(7, 10)]

    def test_remove_edges(self):
        m = ExtentMap([(0, 10)])
        m.remove(0, 3)
        m.remove(8, 10)
        assert list(m) == [Extent(3, 8)]

    def test_remove_spanning_many(self):
        m = ExtentMap([(0, 2), (4, 6), (8, 10)])
        m.remove(1, 9)
        assert list(m) == [Extent(0, 1), Extent(9, 10)]

    def test_remove_nothing(self):
        m = ExtentMap([(0, 2)])
        m.remove(4, 8)
        assert list(m) == [Extent(0, 2)]

    def test_remove_exact_boundary_noop(self):
        # removing [2,4) from [0,2) must not touch it (half-open).
        m = ExtentMap([(0, 2)])
        m.remove(2, 4)
        assert list(m) == [Extent(0, 2)]

    def test_invalid_ranges_rejected(self):
        m = ExtentMap()
        with pytest.raises(ValueError):
            m.add(5, 3)
        with pytest.raises(ValueError):
            m.remove(5, 3)


class TestExtentMapQueries:
    def test_contains_full_cover(self):
        m = ExtentMap([(0, 10)])
        assert m.contains(0, 10)
        assert m.contains(3, 7)
        assert not m.contains(5, 11)

    def test_contains_empty_range_always_true(self):
        assert ExtentMap().contains(5, 5)

    def test_contains_across_gap_false(self):
        m = ExtentMap([(0, 4), (6, 10)])
        assert not m.contains(2, 8)

    def test_overlap_clips(self):
        m = ExtentMap([(0, 4), (6, 10)])
        assert m.overlap(2, 8) == [Extent(2, 4), Extent(6, 8)]

    def test_overlap_none(self):
        m = ExtentMap([(0, 4)])
        assert m.overlap(4, 8) == []

    def test_gaps(self):
        m = ExtentMap([(2, 4), (6, 8)])
        assert m.gaps(0, 10) == [Extent(0, 2), Extent(4, 6), Extent(8, 10)]

    def test_gaps_fully_covered(self):
        m = ExtentMap([(0, 10)])
        assert m.gaps(2, 8) == []

    def test_gaps_fully_uncovered(self):
        assert ExtentMap().gaps(3, 9) == [Extent(3, 9)]

    def test_copy_is_independent(self):
        m = ExtentMap([(0, 4)])
        c = m.copy()
        c.add(10, 12)
        assert list(m) == [Extent(0, 4)]
        assert m == ExtentMap([(0, 4)])
        assert c != m


class TestIteratorVariants:
    """The tuple-yielding hot-path iterators must agree with the
    Extent-returning public API."""

    def test_iter_tuples_matches_iter(self):
        m = ExtentMap([(0, 4), (6, 10), (20, 25)])
        assert list(m.iter_tuples()) == [
            (e.start, e.end) for e in m]

    def test_overlap_iter_matches_overlap(self):
        m = ExtentMap([(0, 4), (6, 10), (20, 25)])
        for lo, hi in [(0, 30), (2, 8), (4, 6), (10, 20), (23, 40)]:
            assert list(m.overlap_iter(lo, hi)) == [
                (e.start, e.end) for e in m.overlap(lo, hi)]

    def test_gaps_iter_matches_gaps(self):
        m = ExtentMap([(2, 4), (6, 8)])
        for lo, hi in [(0, 10), (2, 8), (3, 7), (8, 12), (0, 2)]:
            assert list(m.gaps_iter(lo, hi)) == [
                (e.start, e.end) for e in m.gaps(lo, hi)]

    def test_overlap_len(self):
        m = ExtentMap([(0, 4), (6, 10)])
        assert m.overlap_len(2, 8) == 4
        assert m.overlap_len(4, 6) == 0
        assert m.overlap_len(0, 10) == 8

    def test_empty_map_iterators(self):
        m = ExtentMap()
        assert list(m.iter_tuples()) == []
        assert list(m.overlap_iter(0, 10)) == []
        assert list(m.gaps_iter(3, 9)) == [(3, 9)]
        assert m.overlap_len(0, 10) == 0


# ---------------------------------------------------------------------------
# Property-based: ExtentMap must behave exactly like a set of integers.
# ---------------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_extent_map_matches_reference_set(operations):
    m = ExtentMap()
    ref: set[int] = set()
    for op, a, b in operations:
        lo, hi = min(a, b), max(a, b)
        if op == "add":
            m.add(lo, hi)
            ref.update(range(lo, hi))
        else:
            m.remove(lo, hi)
            ref.difference_update(range(lo, hi))
    covered = {i for ext in m for i in range(ext.start, ext.end)}
    assert covered == ref
    assert m.total() == len(ref)
    # Intervals are sorted, disjoint, non-adjacent (fully merged).
    exts = list(m)
    for left, right in zip(exts, exts[1:]):
        assert left.end < right.start


@settings(max_examples=100, deadline=None)
@given(ops, st.integers(0, 64), st.integers(0, 64))
def test_overlap_and_gaps_partition_query_range(operations, qa, qb):
    lo, hi = min(qa, qb), max(qa, qb)
    m = ExtentMap()
    for op, a, b in operations:
        s, e = min(a, b), max(a, b)
        (m.add if op == "add" else m.remove)(s, e)
    pieces = sorted(m.overlap(lo, hi) + m.gaps(lo, hi))
    # The pieces tile [lo, hi) exactly.
    cursor = lo
    for piece in pieces:
        assert piece.start == cursor
        cursor = piece.end
    assert cursor == hi or (not pieces and lo == hi)


@settings(max_examples=100, deadline=None)
@given(ops, st.integers(0, 64), st.integers(0, 64))
def test_iterator_variants_match_list_api(operations, qa, qb):
    lo, hi = min(qa, qb), max(qa, qb)
    m = ExtentMap()
    for op, a, b in operations:
        s, e = min(a, b), max(a, b)
        (m.add if op == "add" else m.remove)(s, e)
    assert list(m.overlap_iter(lo, hi)) == [
        (e.start, e.end) for e in m.overlap(lo, hi)]
    assert list(m.gaps_iter(lo, hi)) == [
        (e.start, e.end) for e in m.gaps(lo, hi)]
    assert m.overlap_len(lo, hi) == sum(
        e.length for e in m.overlap(lo, hi))
