"""csar-lint fixture: CSAR013/CSAR014 (buffer provenance).

Every violation here is visible to the *intra*-procedural bufflow pass:
the provenance (a frozen ``.data`` / ``.slice()`` view, a private
``np.zeros`` allocation) and the offence happen inside one function
body.
"""

import numpy as np


class MutatesFrozenViews:
    def augments_materialized_bytes(self, payload, other):
        arr = payload.data
        arr ^= other  # expect: CSAR013

    def stores_into_a_slice(self, payload):
        view = payload.slice(0, 16)
        view[0] = 255  # expect: CSAR013

    def folds_with_out_kwarg(self, payload, other):
        dst = payload.data
        np.bitwise_xor(dst, other, out=dst)  # expect: CSAR013

    def thaws_shared_bytes(self, payload):
        arr = payload.data
        arr.flags.writeable = True  # expect: CSAR013

    def ok_mutates_a_private_copy(self, payload, other):
        buf = payload._writable_copy()
        buf ^= other
        return buf


class LeaksWritableBuffers:
    def caches_raw_allocation(self, length):
        buf = np.zeros(length, dtype=np.uint8)
        self._cache = buf  # expect: CSAR014

    def queues_raw_allocation(self, length, queue):
        buf = np.empty(length, dtype=np.uint8)
        queue.append(buf)  # expect: CSAR014

    def ok_freezes_before_sharing(self, length):
        buf = np.zeros(length, dtype=np.uint8)
        buf.flags.writeable = False
        self._cache = buf
        return buf

