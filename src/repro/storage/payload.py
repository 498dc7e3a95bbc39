"""Data payloads that may or may not carry real bytes.

The whole CSAR stack moves :class:`Payload` objects.  In *content mode*
payloads hold numpy ``uint8`` arrays and every parity/mirror/reconstruction
operation is computed for real — this is what the correctness tests and
failure-injection tests exercise.  In *extent mode* payloads are virtual
(length only), which lets the benchmark harness run paper-scale data volumes
(Class C writes 6.6 GB) without materializing them; the simulated timing is
identical because the hardware models only ever look at lengths.

Mixing is handled conservatively: any operation involving a virtual operand
yields a virtual result.

Content-mode payloads are **zero-copy**: ``slice()`` returns a read-only
numpy *view* of the source buffer, and ``assemble``/``overlay`` build a
:class:`SegmentedPayload` — a rope of ``(offset, array)`` segments over
the original buffers — instead of allocating, and ``place()`` clips the
segments to a list of runs in one pass (a striped write's gather and a
striped read's scatter).  Buffers are frozen (``writeable=False``) when a
payload captures them, so immutability is preserved even though views
alias their sources.  The bytes are only materialized into one
contiguous buffer when a caller asks for them as one: ``data``/
``to_bytes`` (and a defensive cap on segment-count growth).  Equality
does not: :func:`segments_equal` walks both ropes, which is also how
the offline scrub compares stored ranges without building a payload.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.parity import xor_into_at, xor_segments

#: A rope with more segments than this is materialized into one buffer;
#: deep overlay chains would otherwise degrade every later operation.
_MAX_SEGMENTS = 256

#: One ``(offset, uint8-array)`` fragment of a payload's content.
Segment = Tuple[int, np.ndarray]

#: One ``(start, length, dest)`` run: the payload's bytes
#: ``[start, start + length)`` moved to offset ``dest`` (:meth:`Payload.place`).
Run = Tuple[int, int, int]

#: Optional observer invoked as ``hook(payload, array, kind)`` at the
#: moment a payload captures a buffer (``kind`` is ``"payload"`` for a
#: contiguous capture, ``"segment"`` per rope segment, and
#: ``"materialized"`` for a rope's cached flattening).  Set by
#: :func:`repro.analysis.sanitizer_scope` while BufSan is on.  The one
#: module-level hook left in the data path, not a probe: a ``Payload`` is
#: built by clients, servers, workloads and tests alike and belongs to no
#: :class:`~repro.sim.engine.Environment` whose probe table it could
#: emit on.  Costs one ``None``-check per capture when disabled.
_capture_hook: Optional[Callable[["Payload", np.ndarray, str], None]] = None


def set_capture_hook(
        hook: Optional[Callable[["Payload", np.ndarray, str], None]],
) -> None:
    """Install (or, with ``None``, remove) the buffer-capture observer."""
    global _capture_hook
    _capture_hook = hook


def _freeze(arr: np.ndarray) -> np.ndarray:
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr


def segments_equal(a: Sequence[Segment], b: Sequence[Segment],
                   length: int) -> bool:
    """Whether two segment lists of ``length`` bytes hold the same content.

    Both lists are ascending and disjoint, and an uncovered gap reads as
    zeros (:meth:`Payload.iter_segments`).  Where both sides have bytes
    the slices are compared; where only one side does, its bytes must be
    zero.  Nothing is copied or materialized.
    """
    i = j = pos = 0
    count_a, count_b = len(a), len(b)
    while pos < length:
        while i < count_a and a[i][0] + a[i][1].size <= pos:
            i += 1
        while j < count_b and b[j][0] + b[j][1].size <= pos:
            j += 1
        a_at, a_seg = a[i] if i < count_a else (length, None)
        b_at, b_seg = b[j] if j < count_b else (length, None)
        in_a, in_b = a_at <= pos, b_at <= pos
        end = min(a_at + a_seg.size if in_a else a_at,
                  b_at + b_seg.size if in_b else b_at, length)
        if in_a and in_b:
            if not np.array_equal(a_seg[pos - a_at: end - a_at],
                                  b_seg[pos - b_at: end - b_at]):
                return False
        elif in_a:
            if a_seg[pos - a_at: end - a_at].any():
                return False
        elif in_b and b_seg[pos - b_at: end - b_at].any():
            return False
        pos = end
    return True


class Payload:
    """An immutable byte string of known length, possibly virtual."""

    __slots__ = ("length", "_data")

    def __init__(self, length: int, data: Optional[np.ndarray]) -> None:
        if length < 0:
            raise ValueError(f"negative payload length {length}")
        if data is not None:
            if data.dtype != np.uint8:
                raise TypeError("payload data must be uint8")
            if data.size != length:
                raise ValueError(
                    f"payload length {length} != data size {data.size}")
            # Freeze the buffer: payloads are immutable, and slices are
            # views, so the backing store must never change underneath a
            # previously taken slice.
            _freeze(data)
            if _capture_hook is not None:
                _capture_hook(self, data, "payload")
        self.length = length
        self._data = data

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_bytes(cls, raw: bytes | bytearray | memoryview) -> "Payload":
        arr = np.frombuffer(bytes(raw), dtype=np.uint8)
        return cls(arr.size, arr)

    @classmethod
    def zeros(cls, length: int) -> "Payload":
        return cls(length, np.zeros(length, dtype=np.uint8))

    @classmethod
    def sparse(cls, length: int) -> "Payload":
        """All-zero content without allocating: an empty rope.

        Observably identical to :meth:`zeros` but free to build and free
        to overlay onto — the I/O daemons use it as the base for
        overflow-resolution reads.
        """
        return SegmentedPayload(length, ())

    @classmethod
    def virtual(cls, length: int) -> "Payload":
        return cls(length, None)

    @staticmethod
    def from_segments(length: int, segments: Sequence[Segment]) -> "Payload":
        """The cheapest payload of ``length`` over ``segments``.

        ``segments`` are ascending, disjoint ``(offset, uint8-array)``
        pieces (validated); uncovered gaps are zeros.  One segment that
        covers everything is a plain view, more than ``_MAX_SEGMENTS``
        are flattened into one buffer, anything else is a rope.
        """
        if len(segments) == 1:
            at, seg = segments[0]
            if at == 0 and seg.size == length:
                return Payload(length, seg)
        rope = SegmentedPayload(length, segments)
        if len(segments) > _MAX_SEGMENTS:
            return Payload(length, rope._writable_copy())
        return rope

    @classmethod
    def pattern(cls, length: int, seed: int) -> "Payload":
        """Deterministic pseudo-random content, for end-to-end data checks
        (a uint8 draw's bytes, drawn as a quarter as many 32-bit words)."""
        words = np.random.default_rng(seed).integers(
            0, 1 << 32, -(-length // 4), dtype=np.uint32)
        raw = words.astype("<u4", copy=False).view(np.uint8)
        return cls(length, raw[:length])

    # -- predicates --------------------------------------------------------
    @property
    def data(self) -> Optional[np.ndarray]:
        """The content as one read-only array (``None`` when virtual)."""
        return self._data

    @property
    def is_virtual(self) -> bool:
        return self._data is None

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        if self.length != other.length:
            return False
        if self.is_virtual or other.is_virtual:
            return self.is_virtual and other.is_virtual
        return segments_equal(self.iter_segments(), other.iter_segments(),
                              self.length)

    def __hash__(self) -> int:  # payloads are not meant as dict keys
        raise TypeError("Payload is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "virtual" if self.is_virtual else "real"
        return f"<Payload {kind} len={self.length}>"

    # -- scatter-gather protocol -------------------------------------------
    def iter_segments(self) -> Sequence[Segment]:
        """The content as ascending, disjoint ``(offset, array)`` pieces.

        Uncovered gaps are zeros.  Virtual payloads have none — callers
        must check :attr:`is_virtual` first, exactly as with :attr:`data`.
        """
        if self._data is not None and self.length:
            return ((0, self._data),)
        return ()

    def _writable_copy(self) -> np.ndarray:
        """Materialize the content into a fresh writable buffer."""
        buf = np.zeros(self.length, dtype=np.uint8)
        for at, seg in self.iter_segments():
            buf[at: at + seg.size] = seg
        return buf

    def place(self, runs: Sequence[Run]) -> List[Segment]:
        """The content of each ``(start, length, dest)`` run, moved to ``dest``.

        The scatter-gather primitive: a striped write gathers a server's
        share and a striped read scatters it back with one call each, the
        runs being the share's unit-grain pieces.  ``runs`` ascend and
        are disjoint in this payload; the segments are clipped to them in
        one merged pass, so a rope is never materialized and nothing is
        copied.  Gaps yield nothing, and so does a virtual payload.
        """
        if runs:
            first, last = runs[0], runs[-1]
            if first[0] < 0 or last[0] + last[1] > self.length:
                raise ValueError(
                    f"runs [{first[0]}, {last[0] + last[1]}) outside "
                    f"payload of {self.length}")
        segments = self.iter_segments()
        out: List[Segment] = []
        i, count = 0, len(segments)
        for start, length, dest in runs:
            if not length:
                continue
            end = start + length
            while i < count:
                seg_at, seg = segments[i]
                if seg_at >= end:
                    break
                seg_end = seg_at + seg.size
                if seg_end > start:
                    lo, hi = max(seg_at, start), min(seg_end, end)
                    out.append((dest + lo - start,
                                seg[lo - seg_at: hi - seg_at]))
                if seg_end > end:
                    break  # the segment continues into the next run
                i += 1
        return out

    # -- operations ---------------------------------------------------------
    def to_bytes(self) -> bytes:
        if self.is_virtual:
            raise ValueError("virtual payload has no content")
        return self.data.tobytes()

    def slice(self, start: int, end: int) -> "Payload":
        """A read-only zero-copy view of ``[start, end)``."""
        if not (0 <= start <= end <= self.length):
            raise ValueError(
                f"slice [{start},{end}) outside payload of {self.length}")
        if self.is_virtual:
            return Payload.virtual(end - start)
        return Payload(end - start, self._data[start:end])

    @staticmethod
    def xor(parts: Sequence["Payload"], length: int) -> "Payload":
        """Parity of ``parts``, zero-padded/truncated to ``length``."""
        if any(p.is_virtual for p in parts):
            return Payload.virtual(length)
        acc = xor_segments((p.iter_segments() for p in parts), length)
        return Payload(length, acc)

    @classmethod
    def assemble(cls, length: int,
                 parts: Sequence[tuple[int, "Payload"]]) -> "Payload":
        """Build a payload of ``length`` from ``(offset, piece)`` parts.

        Unfilled gaps are zeros; any virtual part makes the result virtual.
        Disjoint parts (the scatter-gather common case) are chained as
        segments without copying; overlapping parts fall back to
        materializing, with later parts overwriting earlier ones.
        """
        if any(piece.is_virtual for _at, piece in parts):
            return cls.virtual(length)
        for at, piece in parts:
            if at < 0 or at + piece.length > length:
                raise ValueError(
                    f"part [{at}, +{piece.length}) outside payload of {length}")
        placed = sorted((at, i, piece) for i, (at, piece) in enumerate(parts)
                        if piece.length)
        segments: List[Segment] = []
        prev_end = 0
        for at, _i, piece in placed:
            if at < prev_end:
                # Overlap: list order decides who wins — materialize.
                buf = np.zeros(length, dtype=np.uint8)
                for p_at, p in parts:
                    buf[p_at: p_at + p.length] = p.data
                return Payload(length, buf)
            segments.extend((at + s_at, seg)
                            for s_at, seg in piece.iter_segments())
            prev_end = at + piece.length
        return Payload.from_segments(length, segments)

    def xor_at_many(self, patches: Sequence[tuple[int, "Payload"]],
                    ) -> "Payload":
        """A copy with every ``(at, payload)`` patch XOR-ed in.

        One materialization for the whole fold — the RMW delta loop used
        to copy the parity buffer once per piece.
        """
        for at, other in patches:
            if at < 0 or at + other.length > self.length:
                raise ValueError(
                    f"xor region [{at}, +{other.length}) outside payload "
                    f"of {self.length}")
        if self.is_virtual or any(p.is_virtual for _at, p in patches):
            return Payload.virtual(self.length)
        buf = self._writable_copy()
        for at, other in patches:
            for s_at, seg in other.iter_segments():
                xor_into_at(buf, at + s_at, seg)
        return Payload(self.length, buf)

    def overlay(self, at: int, patch: "Payload") -> "Payload":
        """A copy with ``patch`` written at offset ``at`` (grows if needed)."""
        end = at + patch.length
        new_len = max(self.length, end)
        if self.is_virtual or patch.is_virtual:
            return Payload.virtual(new_len)
        segments = self.place([(0, min(at, self.length), 0)])
        segments.extend((at + s_at, seg) for s_at, seg in
                        patch.iter_segments())
        if end < self.length:
            segments += self.place([(end, self.length - end, end)])
        return Payload.from_segments(new_len, segments)


class SegmentedPayload(Payload):
    """A rope: content stored as disjoint segments over shared buffers.

    Built by ``assemble``/``overlay`` so the scatter-gather path never
    copies; materializes (once, cached) when something needs the content
    as a single contiguous array.
    """

    __slots__ = ("_segments",)

    def __init__(self, length: int,
                 segments: Sequence[Segment]) -> None:
        super().__init__(length, None)
        prev_end = 0
        for at, seg in segments:
            if seg.dtype != np.uint8:
                raise TypeError("payload data must be uint8")
            if at < prev_end or at + seg.size > length:
                raise ValueError(
                    f"segment [{at}, +{seg.size}) invalid in payload "
                    f"of {length}")
            _freeze(seg)
            if _capture_hook is not None:
                _capture_hook(self, seg, "segment")
            prev_end = at + seg.size
        self._segments = tuple(segments)

    @property
    def data(self) -> np.ndarray:
        buf = self._data
        if buf is None:
            buf = self._writable_copy()
            # Freeze the materialization *before* it becomes reachable
            # through the cache: every later read aliases this buffer,
            # so a writable (or unfrozen overridden-copy) cache would
            # let one caller perturb what everyone else sees.
            buf.flags.writeable = False
            assert not buf.flags.writeable, (
                "SegmentedPayload cache must be frozen before caching")
            if _capture_hook is not None:
                _capture_hook(self, buf, "materialized")
            self._data = buf
        return buf

    @property
    def is_virtual(self) -> bool:
        return False

    def iter_segments(self) -> Sequence[Segment]:
        if self._data is not None:
            # Already materialized: one contiguous segment is cheaper for
            # consumers than re-walking the rope.
            return Payload.iter_segments(self)
        return self._segments

    def slice(self, start: int, end: int) -> "Payload":
        if not (0 <= start <= end <= self.length):
            raise ValueError(
                f"slice [{start},{end}) outside payload of {self.length}")
        if self._data is not None:
            return Payload(end - start, self._data[start:end])
        return Payload.from_segments(end - start,
                                     self.place([(start, end - start, 0)]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SegmentedPayload len={self.length} "
                f"segments={len(self._segments)}>")

