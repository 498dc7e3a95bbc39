"""Property-based tests for payload algebra (the RAID arithmetic)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.payload import Payload

binary = st.binary(min_size=0, max_size=128)


@settings(max_examples=80, deadline=None)
@given(binary, binary, st.integers(0, 64))
def test_overlay_matches_bytearray_semantics(base, patch, at):
    p = Payload.from_bytes(base).overlay(at, Payload.from_bytes(patch))
    ref = bytearray(max(len(base), at + len(patch)))
    ref[: len(base)] = base
    ref[at: at + len(patch)] = patch
    assert p.to_bytes() == bytes(ref)


@settings(max_examples=80, deadline=None)
@given(binary, binary)
def test_xor_at_is_involution(base, delta):
    if len(delta) > len(base):
        delta = delta[: len(base)]
    p = Payload.from_bytes(base)
    d = Payload.from_bytes(delta)
    twice = p.xor_at_many([(0, d)]).xor_at_many([(0, d)])
    assert twice == p


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 100), binary), max_size=6))
def test_assemble_equivalent_to_sequential_overlays(parts):
    clipped = []
    length = 128
    for at, data in parts:
        data = data[: max(0, length - at)]
        if data:
            clipped.append((at, Payload.from_bytes(data)))
    assembled = Payload.assemble(length, clipped)
    manual = Payload.zeros(length)
    for at, piece in clipped:
        manual = manual.overlay(at, piece)
    # Overlapping parts differ only when later parts overwrite earlier
    # ones in overlay order; assemble also applies in list order.
    assert assembled == manual.slice(0, length)


@settings(max_examples=60, deadline=None)
@given(binary, st.data())
def test_slice_concat_identity(data, draw):
    p = Payload.from_bytes(data)
    if not data:
        return
    cut = draw.draw(st.integers(0, len(data)))
    rejoined = Payload.assemble(len(data), [(0, p.slice(0, cut)),
                                            (cut, p.slice(cut, len(data)))])
    assert rejoined == p


@settings(max_examples=60, deadline=None)
@given(st.lists(binary, min_size=1, max_size=5), st.integers(1, 128))
def test_xor_order_independent(blocks, length):
    import random

    parts = [Payload.from_bytes(b) for b in blocks]
    forward = Payload.xor(parts, length)
    rng = random.Random(42)
    shuffled = parts[:]
    rng.shuffle(shuffled)
    assert Payload.xor(shuffled, length) == forward


@settings(max_examples=40, deadline=None)
@given(binary)
def test_virtual_mirrors_real_lengths(data):
    real = Payload.from_bytes(data)
    virt = Payload.virtual(len(data))
    assert len(real) == len(virt)
    if data:
        assert len(real.slice(0, len(data) // 2)) \
            == len(virt.slice(0, len(data) // 2))
    doubled = [Payload.assemble(2 * len(data), [(0, p), (len(data), p)])
               for p in (real, virt)]
    assert len(doubled[0]) == len(doubled[1])
    assert real.overlay(3, real).length == virt.overlay(3, virt).length
