"""Tests for the block-granular Hybrid overflow table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.redundancy.overflow import OverflowTable
from repro.util.intervals import Extent

BS = 16  # stripe-unit block size for these tests


class TestAppendResolve:
    def test_empty_table(self):
        t = OverflowTable(BS)
        data, reads = t.resolve(0, 100)
        assert data == [Extent(0, 100)]
        assert reads == []

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            OverflowTable(0)

    def test_single_entry(self):
        t = OverflowTable(BS)
        pieces = t.append(2, 10)
        assert len(pieces) == 1
        assert pieces[0].ovf_offset == 2   # intra offset inside slot 0
        data, reads = t.resolve(0, BS)
        assert data == [Extent(0, 2), Extent(10, BS)]
        assert len(reads) == 1
        assert (reads[0].ovf_offset, reads[0].length,
                reads[0].local_start) == (2, 8, 2)

    def test_slot_allocation_is_block_granular(self):
        t = OverflowTable(BS)
        t.append(0, 4)
        assert t.allocated_bytes == BS  # a whole slot for 4 bytes
        assert t.live_bytes == 4

    def test_disjoint_updates_share_a_slot(self):
        # Sequential sub-block writes accumulate in one slot — this is
        # what keeps Hartree-Fock's Hybrid storage at exactly 2.0x.
        t = OverflowTable(BS)
        t.append(0, 4)
        t.append(4, 8)
        t.append(8, 16)
        assert t.allocated_bytes == BS
        assert t.live_bytes == BS

    def test_rewrite_burns_a_new_slot(self):
        # Overflow data is never overwritten: rewriting bytes the newest
        # slot already holds allocates afresh (FLASH's 64K fragmentation).
        t = OverflowTable(BS)
        t.append(0, 8)
        t.append(0, 8)
        assert t.allocated_bytes == 2 * BS
        assert t.live_bytes == 8

    def test_latest_version_wins(self):
        t = OverflowTable(BS)
        t.append(0, 8)      # slot at 0
        t.append(0, 8)      # slot at BS
        _data, reads = t.resolve(0, 8)
        assert len(reads) == 1
        assert reads[0].ovf_offset == BS

    def test_partial_supersede_merges_versions(self):
        t = OverflowTable(BS)
        t.append(0, 10)     # slot 0 holds [0,10)
        t.append(4, 6)      # overlaps -> slot at BS holds [4,6)
        _data, reads = t.resolve(0, 10)
        got = sorted((r.local_start, r.length, r.ovf_offset) for r in reads)
        assert got == [(0, 4, 0), (4, 2, BS + 4), (6, 4, 6)]

    def test_multi_block_append(self):
        t = OverflowTable(BS)
        pieces = t.append(BS - 4, 2 * BS + 4)
        # Touches blocks 0, 1, 2 -> three slots.
        assert len(pieces) == 3
        assert t.allocated_bytes == 3 * BS
        assert t.live_bytes == BS + 8
        data, reads = t.resolve(BS - 4, 2 * BS + 4)
        assert data == []
        assert sum(r.length for r in reads) == BS + 8

    def test_empty_append_rejected(self):
        t = OverflowTable(BS)
        with pytest.raises(ValueError):
            t.append(5, 5)

    def test_resolve_empty_range(self):
        t = OverflowTable(BS)
        t.append(0, 10)
        assert t.resolve(5, 5) == ([], [])


class TestInvalidation:
    def test_invalidate_full(self):
        t = OverflowTable(BS)
        t.append(0, 10)
        t.invalidate(0, 10)
        data, reads = t.resolve(0, 10)
        assert data == [Extent(0, 10)]
        assert reads == []
        assert t.live_bytes == 0
        assert t.allocated_bytes == BS  # garbage remains until compaction

    def test_invalidate_partial(self):
        t = OverflowTable(BS)
        t.append(0, 10)
        t.invalidate(0, 4)
        data, reads = t.resolve(0, 10)
        assert data == [Extent(0, 4)]
        assert len(reads) == 1
        assert reads[0].local_start == 4

    def test_reappend_after_invalidate_uses_fresh_slot(self):
        t = OverflowTable(BS)
        t.append(0, 10)
        t.invalidate(0, 10)
        t.append(0, 5)
        data, reads = t.resolve(0, 10)
        assert data == [Extent(5, 10)]
        assert reads[0].ovf_offset == BS  # conservative: new slot


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["append", "invalidate"]),
                          st.integers(0, 64), st.integers(1, 32)),
                max_size=24))
def test_resolve_matches_reference_model(ops):
    """Latest-version-per-byte semantics against a naive model."""
    t = OverflowTable(BS)
    ref: dict[int, bytes] = {}
    stamp = 0
    written: dict[int, int] = {}  # byte -> stamp of latest append
    for op, start, size in ops:
        end = start + size
        if op == "append":
            stamp += 1
            t.append(start, end)
            for b in range(start, end):
                written[b] = stamp
        else:
            t.invalidate(start, end)
            for b in range(start, end):
                written.pop(b, None)
    data, reads = t.resolve(0, 96)
    data_bytes = {b for ext in data for b in range(ext.start, ext.end)}
    assert data_bytes == {b for b in range(96) if b not in written}
    covered_by_reads = set()
    for r in reads:
        for i in range(r.length):
            byte = r.local_start + i
            assert byte in written
            assert byte not in covered_by_reads  # no double provision
            covered_by_reads.add(byte)
    assert covered_by_reads == set(written) & set(range(96))
    # Accounting invariants.
    assert t.live_bytes == len(written)
    assert t.allocated_bytes % BS == 0
    assert t.allocated_bytes >= 0
