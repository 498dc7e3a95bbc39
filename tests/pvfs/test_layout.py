"""Tests for striping and parity-group geometry (encodes Figure 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pvfs.layout import ServerRange, StripeLayout
from repro.redundancy.base import make_scheme
from repro.storage.payload import Payload

UNIT = 64


class TestStriping:
    def test_round_robin_servers(self):
        lay = StripeLayout(UNIT, 3)
        assert [lay.server_of_block(b) for b in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_local_offsets_pack_densely(self):
        lay = StripeLayout(UNIT, 3)
        assert lay.local_offset_of_block(0) == 0
        assert lay.local_offset_of_block(3) == UNIT
        assert lay.local_offset_of_block(7) == 2 * UNIT

    def test_successor_and_predecessor_are_inverse(self):
        lay = StripeLayout(UNIT, 5)
        assert [lay.successor(s) for s in range(5)] == [1, 2, 3, 4, 0]
        for s in range(5):
            assert lay.predecessor(lay.successor(s)) == s

    def test_logical_of_local_inverse(self):
        lay = StripeLayout(UNIT, 5)
        for logical in [0, 1, UNIT - 1, UNIT, 7 * UNIT + 13, 29 * UNIT]:
            block = lay.block_of(logical)
            server = lay.server_of_block(block)
            local = lay.local_offset_of_block(block) + logical % UNIT
            assert lay.logical_of_local(server, local) == logical

    def test_pieces_cover_range_exactly(self):
        lay = StripeLayout(UNIT, 4)
        pieces = lay.pieces(100, 500)
        assert sum(p.length for p in pieces) == 500
        assert pieces[0].logical_offset == 100
        cursor = 100
        for p in pieces:
            assert p.logical_offset == cursor
            cursor += p.length

    def test_single_server_all_local(self):
        lay = StripeLayout(UNIT, 1)
        ranges = lay.map_range(0, 10 * UNIT)
        assert len(ranges) == 1
        assert ranges[0].server == 0
        assert ranges[0].local_start == 0
        assert ranges[0].local_end == 10 * UNIT

    def test_map_range_one_contiguous_share_per_server(self):
        lay = StripeLayout(UNIT, 4)
        ranges = lay.map_range(UNIT // 2, 10 * UNIT)
        assert len(ranges) == 4
        total = sum(r.length for r in ranges)
        assert total == 10 * UNIT
        for r in ranges:
            assert r.length == sum(p.length for p in r.pieces)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            StripeLayout(0, 3)
        with pytest.raises(ConfigError):
            StripeLayout(UNIT, 0)


class TestParityGeometry:
    def test_figure2_placement(self):
        # Figure 2: 3 servers; parity of D0 (srv0) and D1 (srv1) sits on
        # server 2, as the first block of its redundancy file.
        lay = StripeLayout(UNIT, 3)
        assert list(lay.blocks_of_group(0)) == [0, 1]
        assert lay.parity_server(0) == 2
        assert lay.parity_local_offset(0) == 0
        # Rotation: next groups' parity on servers 1, 0, then 2 again.
        assert lay.parity_server(1) == 1
        assert lay.parity_server(2) == 0
        assert lay.parity_server(3) == 2
        assert lay.parity_local_offset(3) == UNIT

    def test_parity_server_holds_no_group_data(self):
        for n in range(2, 9):
            lay = StripeLayout(UNIT, n)
            for g in range(40):
                data_servers = {lay.server_of_block(b)
                                for b in lay.blocks_of_group(g)}
                assert len(data_servers) == n - 1
                assert lay.parity_server(g) not in data_servers

    def test_parity_blocks_pack_densely_per_server(self):
        lay = StripeLayout(UNIT, 5)
        per_server: dict[int, list[int]] = {}
        for g in range(50):
            per_server.setdefault(lay.parity_server(g), []).append(
                lay.parity_local_offset(g))
        for offsets in per_server.values():
            assert offsets == [i * UNIT for i in range(len(offsets))]

    def test_six_servers_five_data_blocks(self):
        # Section 5.1: "there are 5 data blocks in one RAID5 stripe".
        lay = StripeLayout(UNIT, 6)
        assert lay.group_width == 5
        assert lay.group_span == 5 * UNIT

    def test_group_width_needs_two_servers(self):
        with pytest.raises(ConfigError):
            _ = StripeLayout(UNIT, 1).group_width

    def test_split_by_groups_aligned(self):
        lay = StripeLayout(UNIT, 3)  # span = 128
        head, full, tail = lay.split_by_groups(0, 4 * lay.group_span)
        assert head == (0, 0)
        assert full == (0, 4 * lay.group_span)
        assert tail == (4 * lay.group_span, 4 * lay.group_span)

    def test_split_by_groups_unaligned(self):
        lay = StripeLayout(UNIT, 3)
        span = lay.group_span
        start = span // 2
        end = 3 * span + span // 4
        head, full, tail = lay.split_by_groups(start, end - start)
        assert head == (start, span)
        assert full == (span, 3 * span)
        assert tail == (3 * span, end)

    def test_split_by_groups_all_partial(self):
        lay = StripeLayout(UNIT, 3)
        span = lay.group_span
        head, full, tail = lay.split_by_groups(10, span // 2)
        assert head == (10, 10 + span // 2)
        assert full[0] == full[1]
        assert tail[0] == tail[1]

    def test_split_spanning_boundary_without_full_group(self):
        # Crosses one boundary but covers no complete group: the paper's
        # "at most 2 partial stripes" case — head and tail, no full part.
        lay = StripeLayout(UNIT, 3)
        span = lay.group_span
        head, full, tail = lay.split_by_groups(span - 10, 20)
        assert head == (span - 10, span)
        assert full[0] == full[1]
        assert tail == (span, span + 10)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 128), st.integers(0, 4096),
       st.integers(0, 2048))
def test_map_range_partitions_bytes(n, unit, offset, length):
    lay = StripeLayout(unit, n)
    ranges = lay.map_range(offset, length)
    assert sum(r.length for r in ranges) == length
    logical_cover = sorted(
        (p.logical_offset, p.logical_offset + p.length)
        for r in ranges for p in r.pieces)
    cursor = offset
    for lo, hi in logical_cover:
        assert lo == cursor
        cursor = hi
    assert cursor == offset + length or length == 0


def reference_pieces(unit, n, offset, length):
    """Byte-at-a-time striping: ``(server, logical, local, length)``
    fragments, merged while they stay inside one stripe unit."""
    out = []
    for logical in range(offset, offset + length):
        block, intra = divmod(logical, unit)
        server, local = block % n, (block // n) * unit + intra
        if out and intra:
            out[-1] = (*out[-1][:3], out[-1][3] + 1)
        else:
            out.append((server, logical, local, 1))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(1, 128), st.integers(0, 4096),
       st.integers(0, 2048))
def test_map_range_and_pieces_match_the_per_byte_reference(n, unit, offset,
                                                           length):
    lay = StripeLayout(unit, n)
    reference = reference_pieces(unit, n, offset, length)
    assert [tuple(p) for p in lay.pieces(offset, length)] == reference

    ranges = lay.map_range(offset, length)
    assert [r.server for r in ranges] == sorted({p[0] for p in reference})
    for r in ranges:
        mine = [p for p in reference if p[0] == r.server]
        # built on demand, in logical order, and cached
        assert [tuple(p) for p in r.pieces] == mine
        assert r.pieces is r.pieces
        # one contiguous local interval
        assert r.local_start == mine[0][2]
        assert r.local_end == mine[-1][2] + mine[-1][3]
        assert r.length == sum(p[3] for p in mine)
        assert r.logical_bounds() == (mine[0][1], mine[-1][1] + mine[-1][3])


class TestGather:
    """``RedundancyScheme._gather``: one server's bytes of a write."""

    lay = StripeLayout(UNIT, 4)
    scheme = make_scheme("raid0", config=None)

    def test_virtual_payload_keeps_only_the_length(self):
        for sr in self.lay.map_range(100, 700):
            out = self.scheme._gather(Payload.virtual(700), 100, sr)
            assert out.is_virtual and out.length == sr.length

    @pytest.mark.parametrize("payload", [Payload.virtual(699),
                                         Payload.pattern(699, seed=3)])
    def test_share_outside_the_payload_is_rejected(self, payload):
        # 700 bytes mapped, 699 supplied: the share holding the last byte
        # reaches past the payload, real bytes or not.
        shares = self.lay.map_range(100, 700)
        with pytest.raises(ValueError):
            for sr in shares:
                self.scheme._gather(payload, 100, sr)
        # and a share that starts before the payload's base offset
        with pytest.raises(ValueError):
            self.scheme._gather(payload, 100 + UNIT,
                                ServerRange(1, 0, UNIT, self.lay))

    def test_content_matches_the_logical_bytes(self):
        payload = Payload.pattern(700, seed=5)
        for sr in self.lay.map_range(100, 700):
            expected = b"".join(
                payload.to_bytes()[p.logical_offset - 100:
                                   p.logical_offset - 100 + p.length]
                for p in sr.pieces)
            assert self.scheme._gather(payload, 100, sr).to_bytes() == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(1, 64), st.integers(0, 4096),
       st.integers(1, 2048))
def test_split_by_groups_partitions(n, unit, offset, length):
    lay = StripeLayout(unit, n)
    head, full, tail = lay.split_by_groups(offset, length)
    assert head[0] == offset
    assert head[1] <= full[0] or full[0] == full[1]
    assert tail[1] == offset + length
    # Reassemble exactly.
    parts = [p for p in (head, full, tail) if p[1] > p[0]]
    cursor = offset
    for lo, hi in parts:
        assert lo == cursor
        cursor = hi
    assert cursor == offset + length
    # Full part is group-aligned.
    if full[1] > full[0]:
        assert full[0] % lay.group_span == 0
        assert full[1] % lay.group_span == 0
    # Head and tail each stay within one parity group.
    for lo, hi in (head, tail):
        if hi > lo:
            assert lay.group_of(lo) == lay.group_of(hi - 1)
