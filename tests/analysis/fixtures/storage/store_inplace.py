"""csar-lint fixture: CSAR013 at rest (buffer provenance in ``storage/``).

The block store keeps the very arrays a written payload captured, so
code under a ``storage/`` path is on the zero-copy data path: an array
taken from ``payload.iter_segments()`` is a frozen, shared view on its
way into the store exactly as it is in flight.
"""


class ExtentStore:
    def masks_the_segment_it_stores(self, offset, payload):
        for at, seg in payload.iter_segments():
            seg[:1] = 0  # expect: CSAR013
            self._starts.append(offset + at)
            self._views.append(seg)

    def ok_stores_the_view_untouched(self, offset, payload):
        for at, seg in payload.iter_segments():
            self._starts.append(offset + at)
            self._views.append(seg)
