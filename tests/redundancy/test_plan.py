"""The write plan (repro.redundancy.plan): one pure description of what
each scheme's write does."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pvfs.layout import StripeLayout
from repro.redundancy.plan import (FullStripe, Mirrored, Rmw, Stripe,
                                   plan_write)

SCHEMES = ("raid0", "raid1", "raid5", "hybrid")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SCHEMES), st.integers(2, 8), st.integers(1, 64),
       st.integers(0, 4096), st.integers(1, 2048))
def test_portions_partition_the_write(scheme, n, unit, offset, length):
    lay = StripeLayout(unit, n)
    plan = plan_write(lay, scheme, offset, length)
    spans = sorted((p.lo, p.hi) for p in plan.portions)
    cursor = offset
    for lo, hi in spans:
        assert lo == cursor < hi
        cursor = hi
    assert cursor == offset + length
    for p in plan.portions:
        if type(p) is FullStripe:
            assert p.lo % lay.group_span == p.hi % lay.group_span == 0
        elif type(p) is Rmw or (type(p) is Mirrored and p.overflow):
            assert lay.group_of(p.lo) == lay.group_of(p.hi - 1)


def test_each_scheme_decides_its_portions():
    lay = StripeLayout(64, 5)        # group span 256
    head_full_tail = (100, 600 - 100)  # [100,256) [256,512) [512,600)
    assert plan_write(lay, "raid0", *head_full_tail).portions \
        == (Stripe(100, 600),)
    assert plan_write(lay, "raid1", *head_full_tail).portions \
        == (Mirrored(100, 600, False),)
    assert plan_write(lay, "raid5", *head_full_tail).portions == (
        FullStripe(256, 512, False), Rmw(100, 256), Rmw(512, 600))
    assert plan_write(lay, "hybrid", *head_full_tail).portions == (
        FullStripe(256, 512, True), Mirrored(100, 256, True),
        Mirrored(512, 600, True))


def test_unknown_scheme_has_no_plan():
    with pytest.raises(ConfigError):
        plan_write(StripeLayout(64, 5), "raid6", 0, 64)
