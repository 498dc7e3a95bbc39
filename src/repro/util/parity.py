"""XOR parity kernels.

The Swift/RAID paper (and Section 3 of the CSAR paper) report that computing
parity one machine word at a time instead of one byte at a time was a large
win; CSAR inherited that lesson.  We provide both kernels:

* :func:`xor_bytes` — word-at-a-time, implemented as a vectorized numpy XOR
  over a ``uint64`` view when alignment permits (the production kernel);
* :func:`xor_bytes_bytewise` — a deliberately naive pure-Python byte loop,
  kept for the ablation benchmark that reproduces the Swift observation.

Both operate on ``bytes``-like inputs and return ``bytes``.  Inputs of
unequal length are XOR-ed as if the shorter ones were zero-padded, which is
exactly the semantics RAID5 needs when the trailing blocks of a stripe are
shorter than the stripe unit (end of file).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def _as_u8(buf: bytes | bytearray | memoryview | np.ndarray) -> np.ndarray:
    if isinstance(buf, np.ndarray):
        if buf.dtype != np.uint8:
            raise TypeError("ndarray payloads must be uint8")
        return buf
    return np.frombuffer(buf, dtype=np.uint8)


def xor_into(acc: np.ndarray, buf: bytes | bytearray | memoryview | np.ndarray) -> None:
    """XOR ``buf`` into the first ``len(buf)`` bytes of ``acc`` in place.

    ``acc`` must be a writable uint8 array at least as long as ``buf``.
    The in-place update avoids one copy per block, which matters when
    computing parity over wide stripes (see the hpc guide on in-place ops).
    """
    other = _as_u8(buf)
    if other.size > acc.size:
        raise ValueError("accumulator shorter than operand")
    np.bitwise_xor(acc[: other.size], other, out=acc[: other.size])


def xor_into_at(acc: np.ndarray, at: int,
                buf: bytes | bytearray | memoryview | np.ndarray) -> None:
    """XOR ``buf`` into ``acc[at : at+len(buf)]`` in place.

    The strided companion of :func:`xor_into`: segment lists from a
    scatter-gather payload fold straight into one accumulator, so RMW
    parity deltas and stripe parity never build intermediate buffers.
    """
    other = _as_u8(buf)
    if at < 0 or at + other.size > acc.size:
        raise ValueError(
            f"xor region [{at}, +{other.size}) outside accumulator "
            f"of {acc.size}")
    np.bitwise_xor(acc[at: at + other.size], other,
                   out=acc[at: at + other.size])


def xor_segments(parts: Iterable[Iterable[tuple[int, np.ndarray]]],
                 length: int) -> np.ndarray:
    """Fold ``(offset, uint8-array)`` segment lists into fresh parity.

    Each element of ``parts`` is one operand's segment list (uncovered
    gaps are zeros, contributing nothing to the XOR); segments past
    ``length`` are clipped, shorter operands are zero-padded — the same
    end-of-stripe semantics as :func:`xor_bytes`, without flattening any
    operand first.  The first XOR of two segments that each span the
    whole ``length`` writes the result, so a full stripe of whole units
    (the common case) costs no zero-fill pass.
    """
    whole = None
    acc = None
    rest = []
    for segments in parts:
        for at, seg in segments:
            if at >= length:
                continue
            if at + seg.size > length:
                seg = seg[: length - at]
            if acc is None and at == 0 and seg.size == length:
                if whole is None:
                    whole = seg
                else:
                    acc = np.bitwise_xor(whole, seg)
            else:
                rest.append((at, seg))
    if acc is None:
        acc = (np.zeros(length, dtype=np.uint8) if whole is None
               else whole.copy())
    for at, seg in rest:
        view = acc[at: at + seg.size]  # clipped above: inside ``acc``
        np.bitwise_xor(view, seg, out=view)
    return acc


def xor_bytes(blocks: Iterable[bytes | bytearray | memoryview | np.ndarray],
              length: int | None = None) -> bytes:
    """Word-at-a-time XOR of all ``blocks``; result length is the maximum
    block length (or ``length`` when given, zero-padding shorter blocks).

    An empty iterable with no explicit ``length`` yields ``b""``.
    """
    blocks = list(blocks)
    if length is None:
        length = max((len(_as_u8(b)) for b in blocks), default=0)
    acc = np.zeros(length, dtype=np.uint8)
    for block in blocks:
        arr = _as_u8(block)
        if arr.size > length:
            arr = arr[:length]
        xor_into(acc, arr)
    return acc.tobytes()


def xor_bytes_bytewise(blocks: Sequence[bytes], length: int | None = None) -> bytes:
    """Byte-at-a-time XOR — the slow kernel Swift/RAID warned about.

    Only used by the parity-kernel ablation benchmark; semantics are
    identical to :func:`xor_bytes`.
    """
    blocks = list(blocks)
    if length is None:
        length = max((len(b) for b in blocks), default=0)
    acc = bytearray(length)
    for block in blocks:
        for i, byte in enumerate(block[:length]):
            acc[i] ^= byte
    return bytes(acc)


def parity_of_stripe(data_blocks: Sequence[bytes], stripe_unit: int) -> bytes:
    """Parity block for one RAID5 stripe.

    ``data_blocks`` are the (up to ``n-1``) data blocks of the stripe, each
    at most ``stripe_unit`` bytes; the parity block is always a full
    ``stripe_unit`` long so a later partial update can XOR against it
    without length bookkeeping.
    """
    for b in data_blocks:
        if len(b) > stripe_unit:
            raise ValueError("data block longer than stripe unit")
    return xor_bytes(data_blocks, length=stripe_unit)
