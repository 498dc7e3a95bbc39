"""Tests for sparse block files."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.blockfile import BlockFile
from repro.storage.payload import Payload, SegmentedPayload


class TestContentMode:
    def test_write_read_roundtrip(self):
        f = BlockFile("d")
        f.write(100, Payload.from_bytes(b"hello"))
        assert f.read(100, 5).to_bytes() == b"hello"

    def test_holes_read_zero(self):
        f = BlockFile("d")
        f.write(10, Payload.from_bytes(b"xy"))
        assert f.read(0, 14).to_bytes() == b"\x00" * 10 + b"xy\x00\x00"

    def test_read_past_eof_zero(self):
        f = BlockFile("d")
        f.write(0, Payload.from_bytes(b"ab"))
        assert f.read(0, 6).to_bytes() == b"ab" + b"\x00" * 4

    def test_overwrite(self):
        f = BlockFile("d")
        f.write(0, Payload.from_bytes(b"aaaa"))
        f.write(1, Payload.from_bytes(b"BB"))
        assert f.read(0, 4).to_bytes() == b"aBBa"

    def test_size_is_max_end(self):
        f = BlockFile("d")
        f.write(1000, Payload.from_bytes(b"x"))
        assert f.size == 1001
        assert f.allocated_bytes == 1

    def test_zero_length_write_noop(self):
        f = BlockFile("d")
        f.write(50, Payload.from_bytes(b""))
        assert f.size == 0

    def test_negative_offset_rejected(self):
        f = BlockFile("d")
        with pytest.raises(ValueError):
            f.write(-1, Payload.from_bytes(b"x"))
        with pytest.raises(ValueError):
            f.read(-1, 2)

    def test_virtual_payload_rejected_in_content_mode(self):
        f = BlockFile("d")
        with pytest.raises(ValueError):
            f.write(0, Payload.virtual(4))

    def test_truncate(self):
        f = BlockFile("d")
        f.write(0, Payload.from_bytes(b"abc"))
        f.truncate()
        assert f.size == 0
        assert f.read(0, 3).to_bytes() == b"\x00\x00\x00"

    def test_multi_megabyte_write_roundtrip(self):
        f = BlockFile("d")
        big = Payload.pattern(3 << 20, seed=1)
        f.write(0, big)
        assert f.read(0, big.length) == big
        assert f.read(1 << 20, 1 << 20) == big.slice(1 << 20, 2 << 20)

    def test_overwritten_and_punched_ranges_never_read_old_bytes(self):
        f = BlockFile("d")
        f.write(0, Payload.from_bytes(b"AAAAAAAAAA"))
        # The gap of a scattered payload is zero content, not a window
        # onto what was there before.
        f.write(1, Payload.assemble(8, [(0, Payload.from_bytes(b"BB")),
                                        (6, Payload.from_bytes(b"CC"))]))
        assert f.read(0, 10).to_bytes() == b"ABB\x00\x00\x00\x00CCA"
        f.write(0, Payload.sparse(2))
        assert f.read(0, 3).to_bytes() == b"\x00\x00B"
        # A sparse write punches a hole into the stored rope.
        f.write(7, Payload.sparse(2))
        f.write(8, Payload.from_bytes(b"D"))
        assert f.read(0, 10).to_bytes() == b"\x00\x00B" + b"\x00" * 5 + b"DA"

    @pytest.mark.parametrize("drop", [
        lambda f, n: f.write(0, Payload.zeros(n)),
        lambda f, n: f.truncate(),
    ], ids=["overwrite", "truncate"])
    def test_dead_generation_is_released(self, drop):
        # Stored views keep their source buffer alive; once no byte of
        # it is live the buffer goes, by refcount alone.
        f = BlockFile("d")
        buf = np.arange(4096, dtype=np.uint8)
        source = weakref.ref(buf)
        f.write(0, Payload(buf.size, buf))
        del buf
        f.write(1000, Payload.from_bytes(b"split the first generation"))
        assert source() is not None
        drop(f, 4096)
        assert source() is None

    def test_reads_return_the_stored_arrays_themselves(self):
        # What BufSan's at-rest check rests on: the store keeps the
        # array the payload captured and hands that object back.
        f = BlockFile("d")
        first, second = Payload.from_bytes(b"abcd"), Payload.from_bytes(b"efgh")
        f.write(0, first)
        f.write(4, second)  # an adjacent append must not re-slice `first`
        assert f.read(0, 4).data is first.data
        stored = [seg for _at, seg in f.read(0, 8).iter_segments()]
        assert len(stored) == 2
        assert stored[0] is first.data and stored[1] is second.data
        f.write(2, SegmentedPayload(
            4, [(1, np.empty(0, dtype=np.uint8)), (3, second.data[:1])]))
        assert f.read(0, 8).to_bytes() == b"ab\x00\x00\x00egh"
        _check_store_invariants(f)

    def test_fragmented_file_reads_back_flat(self):
        f = BlockFile("d")
        ref = bytearray(4 * 300)
        for i in range(300):
            piece = bytes([i % 251 + 1, i % 7 + 1, i % 13 + 1])
            f.write(4 * i, Payload.from_bytes(piece))
            ref[4 * i: 4 * i + 3] = piece
        assert len(f._starts) > 256
        out = f.read(0, len(ref))
        assert out.to_bytes() == bytes(ref)
        assert f.read(5, 1100).to_bytes() == bytes(ref[5:1105])


class TestExtentMode:
    def test_reads_are_virtual(self):
        f = BlockFile("d", content_mode=False)
        f.write(0, Payload.virtual(100))
        out = f.read(0, 50)
        assert out.is_virtual and len(out) == 50

    def test_accepts_real_payload_but_keeps_extents_only(self):
        f = BlockFile("d", content_mode=False)
        f.write(0, Payload.from_bytes(b"abcd"))
        assert f.size == 4
        assert f.read(0, 4).is_virtual

    def test_accounting_matches_content_mode(self):
        fc = BlockFile("c", content_mode=True)
        fe = BlockFile("e", content_mode=False)
        for off, n in [(0, 10), (100, 20), (5, 10)]:
            fc.write(off, Payload.zeros(n))
            fe.write(off, Payload.virtual(n))
        assert fc.size == fe.size
        assert fc.allocated_bytes == fe.allocated_bytes


SPAN = 300

_offsets = st.integers(0, 200)
_flat = st.binary(min_size=1, max_size=50)
#: A scattered payload: ``(gap before, bytes)`` parts, so every part but
#: (possibly) the first sits behind an interior gap.
_rope = st.lists(st.tuples(st.integers(0, 9), st.binary(min_size=1, max_size=12)),
                 min_size=1, max_size=5)
_op = st.one_of(
    st.tuples(st.just("write"), _offsets, _flat),
    st.tuples(st.just("rope"), _offsets, _rope),
    st.tuples(st.just("sparse"), _offsets, st.integers(1, 50)),
    st.tuples(st.just("truncate"), st.just(0), st.just(0)),
    st.tuples(st.just("read"), st.integers(0, SPAN + 20), st.integers(0, SPAN)),
)


def _scattered(parts):
    """``Payload.assemble`` over disjoint parts, and its flat bytes."""
    placed, cursor = [], 0
    for gap, data in parts:
        placed.append((cursor + gap, Payload.from_bytes(data)))
        cursor += gap + len(data)
    length = cursor + 3  # a trailing gap too
    flat = bytearray(length)
    for at, piece in placed:
        flat[at: at + piece.length] = piece.to_bytes()
    return Payload.assemble(length, placed), bytes(flat)


def _check_store_invariants(f):
    assert len(f._starts) == len(f._views)
    prev_start, prev_end = -1, 0
    for at, view in zip(f._starts, f._views):
        assert view.size > 0
        assert at > prev_start and at >= prev_end
        assert view.flags.writeable is False
        assert f.allocated.contains(at, at + view.size)
        prev_start, prev_end = at, at + view.size


@settings(max_examples=200, deadline=None)
@given(st.lists(_op, max_size=16))
def test_blockfile_matches_reference_bytearray(ops):
    f = BlockFile("d")
    ref = bytearray(2 * SPAN + 20)
    allocated = set()
    for op, off, arg in ops:
        if op == "read":
            assert f.read(off, arg).to_bytes() == bytes(ref[off: off + arg])
            continue
        if op == "truncate":
            f.truncate()
            lo, hi, content = 0, len(ref), None
        else:
            if op == "write":
                payload, content = Payload.from_bytes(arg), arg
            elif op == "rope":
                payload, content = _scattered(arg)
            else:
                payload, content = Payload.sparse(arg), bytes(arg)
            f.write(off, payload)
            lo, hi = off, off + len(content)
        if content is None:
            ref[lo:hi] = bytes(hi - lo)
            allocated.difference_update(range(lo, hi))
        else:
            ref[lo:hi] = content
            allocated.update(range(lo, hi))
        _check_store_invariants(f)
        assert f.size == max(allocated, default=-1) + 1
        assert f.allocated_bytes == len(allocated)
    assert f.read(0, len(ref)).to_bytes() == bytes(ref)
