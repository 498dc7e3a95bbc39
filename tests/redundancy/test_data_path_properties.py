"""Property tests of the striped data path: gather, scatter and parity.

A write gathers each server's share as views of the source's arrays, a
read scatters the shares back, and a full-stripe write computes each
group's parity block.  Each is checked against a numpy reference over
random layouts, ranges and three kinds of source: one array, a rope of
random segments with gaps, and a virtual payload.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CSARConfig, System
from repro.pvfs.client import PVFSClient
from repro.pvfs.layout import StripeLayout
from repro.redundancy.base import make_scheme
from repro.sim import engine
from repro.storage.payload import Payload, SegmentedPayload
from repro.units import KiB
from repro.util.parity import parity_of_stripe

UNITS = [512, 1 * KiB, 4 * KiB, 64 * KiB]
KINDS = ["array", "rope", "virtual"]


def _source(data, kind: str, length: int):
    """A payload of ``kind`` and its reference bytes (zeros where the
    rope has gaps; ``None`` for a virtual source)."""
    if kind == "virtual":
        return Payload.virtual(length), None
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ref = rng.integers(0, 256, length, dtype=np.uint8)
    if kind == "array":
        return Payload(length, ref.copy()), ref
    cuts = sorted(set(data.draw(st.lists(st.integers(0, length),
                                         max_size=12))) | {0, length})
    segments, keep = [], data.draw(st.booleans())
    for lo, hi in zip(cuts, cuts[1:]):
        if keep:
            segments.append((lo, ref[lo:hi].copy()))
        else:
            ref[lo:hi] = 0
        keep = not keep
    return SegmentedPayload(length, segments), ref


def _local_reference(lay: StripeLayout, sr, offset: int,
                     ref: np.ndarray) -> np.ndarray:
    """One server's local bytes ``[local_start, local_end)`` by index
    arithmetic, independent of the layout's pieces."""
    row, intra = np.divmod(np.arange(sr.local_start, sr.local_end),
                           lay.unit)
    logical = (row * lay.n + sr.server) * lay.unit + intra
    return ref[logical - offset]


def _scheme():
    return make_scheme("raid5", SimpleNamespace(compute_parity=True))


@st.composite
def _striped_write(draw):
    data = draw(st.data())
    unit = draw(st.sampled_from(UNITS))
    lay = StripeLayout(unit, draw(st.integers(2, 7)))
    offset = draw(st.integers(0, 3 * lay.group_span))
    length = draw(st.integers(1, min(3 * lay.group_span, 256 * KiB)))
    kind = draw(st.sampled_from(KINDS))
    payload, ref = _source(data, kind, length)
    return lay, offset, payload, ref


@settings(max_examples=60, deadline=None)
@given(_striped_write())
def test_gather_then_scatter_round_trips(case):
    lay, offset, payload, ref = case
    ranges = lay.map_range(offset, payload.length)
    shares = [_scheme()._gather(payload, offset, sr) for sr in ranges]
    for sr, share in zip(ranges, shares):
        assert share.length == sr.length
        assert share.is_virtual == payload.is_virtual
        if ref is not None:
            assert np.array_equal(share.data,
                                  _local_reference(lay, sr, offset, ref))
    back = PVFSClient.assemble(offset, payload.length, ranges, shares)
    assert back.is_virtual == payload.is_virtual
    if ref is not None:
        assert np.array_equal(back.data, ref)
    if isinstance(payload, SegmentedPayload):
        assert payload._data is None, "the rope source was materialized"


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(UNITS), st.integers(2, 7),
       st.integers(0, 9), st.integers(1, 3), st.sampled_from(KINDS))
def test_full_stripe_parity_matches_reference(data, unit, servers, first,
                                              groups, kind):
    lay = StripeLayout(unit, servers)
    start = first * lay.group_span
    end = start + groups * lay.group_span
    payload, ref = _source(data, kind, end - start)
    client = SimpleNamespace(next_xid=iter(range(1, 1000)).__next__)
    meta = SimpleNamespace(name="f", layout=lay)
    requests = _scheme()._parity_write_requests(client, meta, start, end,
                                                payload, start)
    for group in range(first, first + groups):
        request = requests[lay.parity_server(group)]
        at = lay.parity_local_offset(group) - request.offset
        block = request.payload.slice(at, at + unit)
        if ref is None:
            assert block.is_virtual
            continue
        lo = group * lay.group_span - start
        units = [ref[lo + i * unit: lo + (i + 1) * unit].tobytes()
                 for i in range(lay.group_width)]
        assert block.to_bytes() == parity_of_stripe(units, unit)
    if isinstance(payload, SegmentedPayload):
        assert payload._data is None, "the rope source was materialized"


@settings(max_examples=40, deadline=None)
@given(_striped_write())
def test_share_outside_the_payload_raises(case):
    lay, offset, payload, _ref = case
    ranges = lay.map_range(offset, payload.length)
    (last,) = [sr for sr in ranges
               if sr.logical_bounds()[1] == offset + payload.length]
    with pytest.raises(ValueError):
        _scheme()._gather(payload.slice(0, payload.length - 1), offset,
                          last)
    shares = [_scheme()._gather(payload, offset, sr) for sr in ranges]
    shares[-1] = shares[-1].slice(0, shares[-1].length - 1)
    with pytest.raises(ValueError):
        PVFSClient.assemble(offset, payload.length, ranges, shares)


#: Payload objects a stripe-aligned 12-group raid5 content write on six
#: servers builds, client and servers together: the portion's slice, one
#: share per server and one parity payload per server.  A Payload per
#: stripe unit or per parity block would add 60 or 12.
WRITE_PAYLOADS = 13


def test_full_stripe_write_builds_no_payload_per_unit(monkeypatch):
    # No sanitizer, also under CSAR_*SAN=1: ParitySan reads payloads of
    # its own.
    monkeypatch.setattr(engine, "_attached", {})
    system = System(CSARConfig(scheme="raid5", num_servers=6,
                               num_clients=1, stripe_unit=64 * KiB,
                               content_mode=True))
    data = Payload.pattern(12 * system.layout.group_span, seed=3)
    client = system.client(0)
    system.run(client.create("f"))
    built = []
    original = Payload.__init__

    def counting(self, length, data_):
        built.append(type(self).__name__)
        original(self, length, data_)

    monkeypatch.setattr(Payload, "__init__", counting)
    system.run(client.write("f", 0, data))
    monkeypatch.undo()
    assert len(built) <= WRITE_PAYLOADS, built
    assert system.run(client.read("f", 0, data.length)) == data
