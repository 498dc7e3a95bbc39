"""Tests for real/virtual payloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.payload import Payload


class TestConstruction:
    def test_from_bytes_roundtrip(self):
        p = Payload.from_bytes(b"hello")
        assert len(p) == 5
        assert p.to_bytes() == b"hello"
        assert not p.is_virtual

    def test_zeros(self):
        assert Payload.zeros(4).to_bytes() == b"\x00" * 4

    def test_virtual(self):
        v = Payload.virtual(10)
        assert v.is_virtual
        assert len(v) == 10
        with pytest.raises(ValueError):
            v.to_bytes()

    def test_pattern_deterministic(self):
        assert Payload.pattern(64, 3) == Payload.pattern(64, 3)
        assert Payload.pattern(64, 3) != Payload.pattern(64, 4)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 1023, 4097, 102403])
    def test_pattern_is_the_uint8_draw(self, length, seed):
        # Pattern bytes feed the pinned chaos and bench digests: they
        # must stay the bytes of a plain uint8 draw, whatever the
        # word size the draw is taken in.
        reference = np.random.default_rng(seed).integers(
            0, 256, length, dtype=np.uint8)
        assert Payload.pattern(length, seed).to_bytes() == reference.tobytes()

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Payload.virtual(-1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Payload(3, np.zeros(4, dtype=np.uint8))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            Payload(4, np.zeros(4, dtype=np.int32))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Payload.zeros(1))


class TestOperations:
    def test_slice(self):
        p = Payload.from_bytes(b"abcdef")
        assert p.slice(1, 4).to_bytes() == b"bcd"

    def test_slice_bounds_checked(self):
        with pytest.raises(ValueError):
            Payload.zeros(4).slice(2, 6)

    def test_slice_is_an_immutable_view(self):
        # Slices are zero-copy views, and immutability is preserved by
        # freezing the buffers: neither the slice nor its source can be
        # mutated through .data.
        p = Payload.from_bytes(b"abc")
        s = p.slice(0, 2)
        assert not s.data.flags.writeable
        assert not p.data.flags.writeable
        with pytest.raises(ValueError):
            s.data[0] = 0
        assert p.to_bytes() == b"abc"
        assert s.to_bytes() == b"ab"

    def test_source_mutation_cannot_corrupt_slices(self):
        # A buffer handed to a Payload is frozen at construction, so the
        # "mutate the source after slicing" hazard of views cannot occur.
        buf = np.frombuffer(b"abc", dtype=np.uint8).copy()
        p = Payload(3, buf)
        s = p.slice(1, 3)
        with pytest.raises(ValueError):
            buf[1] = 0
        assert s.to_bytes() == b"bc"

    def test_virtual_slice(self):
        assert Payload.virtual(10).slice(2, 7).is_virtual

    def test_concat(self):
        p = _cat(Payload.from_bytes(b"ab"), Payload.from_bytes(b"cd"))
        assert p.to_bytes() == b"abcd"

    def test_concat_virtual_poisons(self):
        p = _cat(Payload.from_bytes(b"ab"), Payload.virtual(2))
        assert p.is_virtual and len(p) == 4

    def test_xor_real(self):
        a = Payload.from_bytes(b"\xff\x00")
        b = Payload.from_bytes(b"\x0f\x0f")
        assert Payload.xor([a, b], 2).to_bytes() == b"\xf0\x0f"

    def test_xor_pads_to_length(self):
        a = Payload.from_bytes(b"\xff")
        assert Payload.xor([a], 3).to_bytes() == b"\xff\x00\x00"

    def test_xor_virtual_poisons(self):
        out = Payload.xor([Payload.zeros(2), Payload.virtual(2)], 2)
        assert out.is_virtual

    def test_overlay(self):
        base = Payload.from_bytes(b"aaaa")
        out = base.overlay(1, Payload.from_bytes(b"BB"))
        assert out.to_bytes() == b"aBBa"

    def test_overlay_grows(self):
        out = Payload.from_bytes(b"ab").overlay(3, Payload.from_bytes(b"c"))
        assert out.to_bytes() == b"ab\x00c"

    def test_equality_virtual_vs_real(self):
        assert Payload.virtual(2) != Payload.zeros(2)
        assert Payload.virtual(2) == Payload.virtual(2)


def _cat(a: Payload, b: Payload) -> Payload:
    """``a`` then ``b``, as one payload."""
    return Payload.assemble(a.length + b.length, [(0, a), (a.length, b)])


def _xored(base: bytes, at: int, patch: bytes) -> bytes:
    out = bytearray(base)
    for i, byte in enumerate(patch):
        out[at + i] ^= byte
    return bytes(out)


class TestPatchEdgeGeometry:
    """overlay/xor_at_many at the degenerate offsets the RMW path produces:
    empty deltas, the final byte of a piece, and patches whose region
    spans a rope segment boundary."""

    def test_zero_length_overlay_is_identity(self):
        base = Payload.from_bytes(b"abcd")
        for at in (0, 2, 4):
            out = base.overlay(at, Payload.from_bytes(b""))
            assert out.to_bytes() == b"abcd"
            assert out.length == 4

    def test_zero_length_xor_is_identity(self):
        base = Payload.from_bytes(b"abcd")
        for at in (0, 2, 4):
            out = base.xor_at_many([(at, Payload.from_bytes(b""))])
            assert out.to_bytes() == b"abcd"

    def test_final_byte_overlay(self):
        base = Payload.from_bytes(b"abcd")
        assert base.overlay(3, Payload.from_bytes(b"Z")).to_bytes() \
            == b"abcZ"

    def test_final_byte_xor(self):
        base = Payload.from_bytes(b"abcd")
        out = base.xor_at_many([(3, Payload.from_bytes(b"\x01"))])
        assert out.to_bytes() == _xored(b"abcd", 3, b"\x01")

    def test_xor_past_the_end_rejected(self):
        base = Payload.from_bytes(b"abcd")
        with pytest.raises(ValueError):
            base.xor_at_many([(4, Payload.from_bytes(b"\x01"))])
        with pytest.raises(ValueError):
            base.xor_at_many([(-1, Payload.from_bytes(b"\x01"))])

    def test_overlay_spanning_a_rope_boundary(self):
        # The base is a two-segment rope cut at offset 4; the patch
        # covers [2, 6) so it straddles the seam.
        base = _cat(Payload.from_bytes(b"abcd"), Payload.from_bytes(b"efgh"))
        out = base.overlay(2, Payload.from_bytes(b"WXYZ"))
        assert out.to_bytes() == b"abWXYZgh"

    def test_xor_spanning_a_rope_boundary(self):
        base = _cat(Payload.from_bytes(b"abcd"), Payload.from_bytes(b"efgh"))
        delta = Payload.from_bytes(b"\x01\x02\x03\x04")
        out = base.xor_at_many([(2, delta)])
        assert out.to_bytes() == _xored(b"abcdefgh", 2, b"\x01\x02\x03\x04")

    def test_xor_with_a_rope_patch(self):
        # The patch itself is segmented: its internal seam must land
        # at the right absolute offsets of the base.
        base = Payload.from_bytes(b"abcdefgh")
        patch = _cat(Payload.from_bytes(b"\x01\x02"),
                     Payload.from_bytes(b"\x03\x04"))
        out = base.xor_at_many([(3, patch)])
        assert out.to_bytes() == _xored(b"abcdefgh", 3, b"\x01\x02\x03\x04")

    def test_xor_at_many_folds_every_patch(self):
        base = Payload.from_bytes(b"abcdefgh")
        out = base.xor_at_many([(0, Payload.from_bytes(b"\x01")),
                                (7, Payload.from_bytes(b"\x02")),
                                (3, Payload.from_bytes(b""))])
        expected = _xored(_xored(b"abcdefgh", 0, b"\x01"), 7, b"\x02")
        assert out.to_bytes() == expected


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=100), st.binary(max_size=100))
def test_xor_is_self_inverse(a, b):
    length = max(len(a), len(b))
    pa, pb = Payload.from_bytes(a), Payload.from_bytes(b)
    parity = Payload.xor([pa, pb], length)
    back = Payload.xor([parity, pb], length)
    assert back.to_bytes()[: len(a)] == a
