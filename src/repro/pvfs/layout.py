"""Striping and parity-placement arithmetic.

PVFS stripes a file round-robin over ``n`` I/O servers in units of
``stripe_unit`` bytes: logical block ``b`` lives on server ``b % n`` at
local-file offset ``(b // n) * stripe_unit``.  Consecutive blocks held by
one server are therefore consecutive in its local file, so any contiguous
logical range maps to exactly one contiguous local range per server.

RAID5 parity groups (Figure 2 of the paper): group ``g`` covers the
``n - 1`` consecutive data blocks ``[g*(n-1), (g+1)*(n-1))``; those blocks
occupy ``n - 1`` distinct servers, and the parity block is stored on the
one server holding none of them — ``(n - 1 - g) mod n`` — in that server's
redundancy file, packed densely (the ``j``-th parity block a server holds
sits at local offset ``j * stripe_unit``, with ``j = g // n``).

With the paper's 6 I/O servers this gives 5 data blocks per stripe
(Section 5.1's microbenchmark) and a 20% parity overhead (Table 2's
RAID5 = 1.2x RAID0).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.errors import ConfigError


class Piece(NamedTuple):
    """One stripe-unit-contained fragment of a logical range."""

    server: int
    logical_offset: int
    local_offset: int
    length: int


class ServerRange:
    """A server's single contiguous share of a logical range.

    A local byte maps back to exactly one logical byte, so the share is
    fully described by its local interval; the unit-grain :attr:`pieces`
    are derived from it on first use (extent-mode writes never ask).
    """

    __slots__ = ("server", "local_start", "local_end", "_layout", "_pieces")

    def __init__(self, server: int, local_start: int, local_end: int,
                 layout: "StripeLayout") -> None:
        self.server = server
        self.local_start = local_start
        self.local_end = local_end
        self._layout = layout
        self._pieces: Optional[Tuple[Piece, ...]] = None

    @property
    def length(self) -> int:
        return self.local_end - self.local_start

    def logical_bounds(self) -> Tuple[int, int]:
        """Logical offset of the share's first byte, and one past its last."""
        to_logical = self._layout.logical_of_local
        return (to_logical(self.server, self.local_start),
                to_logical(self.server, self.local_end - 1) + 1)

    @property
    def pieces(self) -> Tuple[Piece, ...]:
        """The share's unit-grain fragments in ascending logical order."""
        pieces = self._pieces
        if pieces is None:
            unit, server, end = self._layout.unit, self.server, self.local_end
            # Row r of a server's file holds logical block r * n + server.
            stride = self._layout.n * unit
            row, intra = divmod(self.local_start, unit)
            logical = row * stride + server * unit + intra
            out = []
            cursor = self.local_start
            while cursor < end:
                take = min(unit - intra, end - cursor)
                out.append(Piece(server, logical, cursor, take))
                cursor += take
                logical += stride - intra
                intra = 0
            pieces = self._pieces = tuple(out)
        return pieces


class StripeLayout:
    """Round-robin striping plus RAID5 group geometry."""

    def __init__(self, stripe_unit: int, num_servers: int) -> None:
        if stripe_unit <= 0:
            raise ConfigError(f"stripe unit must be positive, got {stripe_unit}")
        if num_servers < 1:
            raise ConfigError(f"need at least one server, got {num_servers}")
        self.unit = stripe_unit
        self.n = num_servers

    # ------------------------------------------------------------------
    # plain striping
    # ------------------------------------------------------------------
    def block_of(self, offset: int) -> int:
        return offset // self.unit

    def server_of_block(self, block: int) -> int:
        return block % self.n

    def local_offset_of_block(self, block: int) -> int:
        return (block // self.n) * self.unit

    def logical_of_local(self, server: int, local_offset: int) -> int:
        """Inverse map: a server-local byte back to its logical offset."""
        row, intra = divmod(local_offset, self.unit)
        return (row * self.n + server) * self.unit + intra

    def successor(self, server: int) -> int:
        """The server holding ``server``'s mirror copies: RAID1's
        redundancy file and Hybrid's overflow mirror."""
        return (server + 1) % self.n

    def predecessor(self, server: int) -> int:
        """The server whose mirror copies ``server`` holds (the inverse
        of :meth:`successor`)."""
        return (server - 1) % self.n

    def pieces(self, offset: int, length: int) -> List[Piece]:
        """Unit-grain fragments of ``[offset, offset+length)``."""
        return sorted((p for sr in self.map_range(offset, length)
                       for p in sr.pieces), key=lambda p: p.logical_offset)

    def map_range(self, offset: int, length: int) -> List[ServerRange]:
        """Per-server contiguous shares of a logical range.

        Sorted by server id; each server appears at most once because its
        fragments are consecutive in its local file.  Computed per server
        from the first and last block it holds, not per stripe unit.
        """
        if length <= 0:
            return []
        unit, n = self.unit, self.n
        end = offset + length
        first, head = divmod(offset, unit)
        last, tail = divmod(end - 1, unit)
        out: List[ServerRange] = []
        covered = 0
        for server in range(n):
            lo_block = first + (server - first) % n
            if lo_block > last:
                continue
            hi_block = last - (last - server) % n
            local_start = (lo_block // n) * unit
            if lo_block == first:
                local_start += head
            local_end = (hi_block // n) * unit + (
                tail + 1 if hi_block == last else unit)
            covered += local_end - local_start
            out.append(ServerRange(server, local_start, local_end, self))
        if covered != length:
            raise AssertionError(
                "per-server fragments not contiguous — layout bug")
        return out

    # ------------------------------------------------------------------
    # RAID5 parity-group geometry
    # ------------------------------------------------------------------
    @property
    def group_width(self) -> int:
        """Data blocks per parity group (``n - 1``)."""
        if self.n < 2:
            raise ConfigError("RAID5 geometry needs at least 2 servers")
        return self.n - 1

    @property
    def group_span(self) -> int:
        """Logical bytes per parity group."""
        return self.group_width * self.unit

    def group_of(self, offset: int) -> int:
        return offset // self.group_span

    def group_range(self, group: int) -> tuple[int, int]:
        return group * self.group_span, (group + 1) * self.group_span

    def blocks_of_group(self, group: int) -> range:
        return range(group * self.group_width, (group + 1) * self.group_width)

    def parity_server(self, group: int) -> int:
        return (self.n - 1 - group) % self.n

    def parity_local_offset(self, group: int) -> int:
        return (group // self.n) * self.unit

    def split_by_groups(self, offset: int, length: int,
                        ) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """Split a range into (head partial, full groups, tail partial).

        Each part is a half-open ``(start, end)``; empty parts have
        ``start == end``.  This is the Hybrid scheme's three-way write
        decomposition from Section 4; head and tail each lie within a
        single group (a contiguous write touches at most two partial
        stripes, Section 5.1).
        """
        end = offset + length
        span = self.group_span
        first_full = -(-offset // span) * span   # round up
        last_full = (end // span) * span          # round down
        if first_full < last_full:
            return ((offset, first_full),
                    (first_full, last_full),
                    (last_full, end))
        if offset < first_full < end:
            # Crosses exactly one group boundary with no full group:
            # two partial stripes, no full part.
            return (offset, first_full), (first_full, first_full), (first_full, end)
        # Entirely within one group.
        return (offset, end), (end, end), (end, end)
