"""SegmentedPayload ≡ flat Payload: the rope must be observationally
identical to the copying representation it replaced.

The reference model is plain ``bytes`` built with the same semantics the
pre-rope Payload had (eager flat copies).  Every operation sequence the
data path performs — slice, assemble, overlay, xor — must give
byte-identical results whether the intermediate values are flat arrays
or lazy segment ropes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.payload import (
    _MAX_SEGMENTS, Payload, SegmentedPayload, segments_equal)

binary = st.binary(min_size=0, max_size=96)


def _cat(a: Payload, b: Payload) -> Payload:
    """``a`` then ``b``, as one payload."""
    return Payload.assemble(a.length + b.length, [(0, a), (a.length, b)])


def _chunks(draw, data, max_cuts=4):
    """Split ``data`` into a rope of random slices."""
    if not data:
        return Payload.from_bytes(data)
    cuts = sorted(draw.draw(st.lists(
        st.integers(0, len(data)), min_size=0, max_size=max_cuts)))
    flat = Payload.from_bytes(data)
    bounds = [0] + cuts + [len(data)]
    return Payload.assemble(len(data), [
        (lo, flat.slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])])


@settings(max_examples=100, deadline=None)
@given(binary, st.data())
def test_rope_round_trips_bytes(data, draw):
    rope = _chunks(draw, data)
    assert rope.to_bytes() == data
    assert rope.length == len(data)


@settings(max_examples=100, deadline=None)
@given(binary, st.data())
def test_rope_slice_matches_bytes_slice(data, draw):
    rope = _chunks(draw, data)
    lo = draw.draw(st.integers(0, len(data)))
    hi = draw.draw(st.integers(lo, len(data)))
    assert rope.slice(lo, hi).to_bytes() == data[lo:hi]


@settings(max_examples=100, deadline=None)
@given(binary, binary, st.data())
def test_rope_concat_matches_bytes_concat(a, b, draw):
    rope = _cat(_chunks(draw, a), _chunks(draw, b))
    assert rope.to_bytes() == a + b


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 80), binary), max_size=5),
       st.data())
def test_assemble_of_ropes_matches_reference(parts, draw):
    length = 128
    ref = bytearray(length)
    rope_parts = []
    for at, data in parts:
        data = data[: max(0, length - at)]
        if not data:
            continue
        ref[at: at + len(data)] = data
        rope_parts.append((at, _chunks(draw, data)))
    assert Payload.assemble(length, rope_parts).to_bytes() == bytes(ref)


@settings(max_examples=100, deadline=None)
@given(binary, binary, st.integers(0, 64), st.data())
def test_rope_overlay_matches_flat_overlay(base, patch, at, draw):
    rope = _chunks(draw, base).overlay(at, _chunks(draw, patch))
    flat = Payload.from_bytes(base).overlay(at, Payload.from_bytes(patch))
    assert rope.to_bytes() == flat.to_bytes()


@settings(max_examples=100, deadline=None)
@given(binary, binary, st.data())
def test_rope_xor_at_matches_flat(base, delta, draw):
    if len(delta) > len(base):
        delta = delta[: len(base)]
    rope = _chunks(draw, base).xor_at_many([(0, _chunks(draw, delta))])
    flat = Payload.from_bytes(base).xor_at_many(
        [(0, Payload.from_bytes(delta))])
    assert rope.to_bytes() == flat.to_bytes()


# ---------------------------------------------------------------------------
# Structural guarantees the data path relies on.

def test_slice_is_view_not_copy():
    p = Payload.from_bytes(bytes(range(64)))
    view = p.slice(8, 24)
    assert view.data.base is not None  # numpy view, not a fresh buffer
    assert np.shares_memory(view.data, p.data)


def test_payload_buffers_are_frozen():
    p = Payload.from_bytes(b"abcd")
    with pytest.raises(ValueError):
        p.data[0] = 0
    with pytest.raises(ValueError):
        p.slice(1, 3).data[0] = 0


def test_source_mutation_cannot_leak_in():
    src = bytearray(b"aaaa")
    p = Payload.from_bytes(src)
    src[0] = ord("z")
    assert p.to_bytes() == b"aaaa"


def test_concat_builds_rope_lazily():
    a = Payload.from_bytes(b"aa")
    b = Payload.from_bytes(b"bb")
    rope = _cat(a, b)
    assert isinstance(rope, SegmentedPayload)
    # Segments are the original frozen buffers, not copies.
    segs = list(rope.iter_segments())
    assert [at for at, _ in segs] == [0, 2]
    assert np.shares_memory(segs[0][1], a.data)
    assert np.shares_memory(segs[1][1], b.data)


def test_materialization_is_cached():
    rope = _cat(Payload.from_bytes(b"aa"), Payload.from_bytes(b"bb"))
    first = rope.data
    assert rope.data is first  # second access reuses the flat buffer


def test_materialized_cache_is_frozen_before_it_escapes():
    # The cache is frozen *before* being stored, so no reader of .data
    # ever sees (or can create) a writable alias of it.
    rope = _cat(Payload.from_bytes(b"ab"), Payload.from_bytes(b"cd"))
    cache = rope.data
    assert not cache.flags.writeable
    with pytest.raises(ValueError):
        cache[0] = 0
    assert rope.to_bytes() == b"abcd"


def test_writable_copy_cannot_perturb_the_cache():
    # _writable_copy is the sanctioned mutation path; it must hand back
    # fresh bytes, never an alias of the cached materialization.
    rope = _cat(Payload.from_bytes(b"ab"), Payload.from_bytes(b"cd"))
    cache = rope.data
    dup = rope._writable_copy()
    assert not np.shares_memory(dup, cache)
    dup[:] = 0xFF
    assert rope.to_bytes() == b"abcd"
    assert rope.data is cache


def test_sparse_is_free_and_reads_zero():
    p = Payload.sparse(1 << 20)
    assert not p.is_virtual
    assert list(p.iter_segments()) == []
    assert p.slice(12345, 12349).to_bytes() == b"\x00" * 4


def test_virtual_contagion_through_rope_ops():
    v = Payload.virtual(8)
    r = Payload.from_bytes(b"x" * 8)
    assert _cat(v, r).is_virtual
    assert _cat(r, v).is_virtual
    assert Payload.assemble(16, [(0, r), (8, v)]).is_virtual
    assert v.slice(2, 6).is_virtual


def test_deep_concat_chain_collapses():
    # A pathological 4x-_MAX_SEGMENTS chain must still round-trip (the
    # rope flattens rather than growing without bound).
    rope = Payload.from_bytes(b"")
    for i in range(_MAX_SEGMENTS * 4):
        rope = _cat(rope, Payload.from_bytes(bytes([i & 0xFF])))
    assert rope.length == _MAX_SEGMENTS * 4
    assert rope.to_bytes() == bytes(i & 0xFF for i in range(_MAX_SEGMENTS * 4))
    assert len(list(rope.iter_segments())) <= _MAX_SEGMENTS


# ---------------------------------------------------------------------------
# Equality walks the ropes: segments_equal ≡ np.array_equal on the bytes.

#: mostly zeros, so holes, equal pairs and one-byte differences are common
_sparse_bytes = st.lists(st.sampled_from([0, 0, 0, 1, 255]), min_size=1,
                         max_size=48).map(bytes)


def _rope(draw, view):
    """Segments holding ``view``'s bytes: cut at random points, each
    piece a view of ``view``'s buffer, an all-zero piece either stored
    as explicit zeros or left as a hole."""
    cuts = sorted(draw.draw(st.lists(st.integers(0, view.size),
                                     max_size=5)))
    bounds = [0] + cuts + [view.size]
    return [(lo, view[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            if hi > lo and (view[lo:hi].any() or draw.draw(st.booleans()))]


@settings(max_examples=300, deadline=None)
@given(_sparse_bytes, st.data())
def test_segments_equal_agrees_with_array_equal(raw, draw):
    buf = np.frombuffer(raw, dtype=np.uint8)
    other = buf
    if draw.draw(st.booleans()):
        # A second buffer that differs from ``buf`` in at most one byte.
        other = buf.copy()
        other[draw.draw(st.integers(0, buf.size - 1))] ^= 1
    n = draw.draw(st.integers(0, buf.size))
    # Two windows of one or two buffers, at (possibly) shifted offsets.
    sa = draw.draw(st.integers(0, buf.size - n))
    sb = draw.draw(st.integers(0, buf.size - n))
    a_bytes, b_bytes = buf[sa: sa + n], other[sb: sb + n]
    expect = bool(np.array_equal(a_bytes, b_bytes))
    a, b = _rope(draw, a_bytes), _rope(draw, b_bytes)
    assert segments_equal(a, b, n) is expect
    assert segments_equal(b, a, n) is expect
    rope_a, rope_b = Payload.from_segments(n, a), Payload.from_segments(n, b)
    assert (rope_a == rope_b) is expect
    # A rope against the flat copy of the other side's bytes.
    assert (rope_a == Payload(n, b_bytes.copy())) is expect
    # Comparing materialized nothing.
    for rope in (rope_a, rope_b):
        if isinstance(rope, SegmentedPayload):
            assert rope._data is None


def test_holes_equal_explicit_zeros():
    hole = Payload.sparse(8)
    zeros = Payload.zeros(8)
    assert hole == zeros and zeros == hole
    assert hole != Payload.from_bytes(b"\x00" * 7 + b"\x01")


def test_virtual_payloads_compare_by_length_only():
    assert Payload.virtual(4) == Payload.virtual(4)
    assert Payload.virtual(4) != Payload.virtual(5)
    assert Payload.virtual(4) != Payload.sparse(4)
    assert Payload.zeros(4) != Payload.virtual(4)
