"""Whole-program fixture: CSAR013/CSAR014/CSAR015 across call chains.

Every violation here needs buffer summaries: the provenance lives in
one function and the offence in another, so each function is clean in
isolation and only the summaries carried along the call graph see it.
"""

import numpy as np


class FrozenFoldsThroughHelpers:
    def folds_via_callee(self, payload, other):
        view = payload.slice(0, 64)
        self._xor_into(view, other)  # expect: CSAR013
        return view

    def _xor_into(self, dst, src):
        dst ^= src

    def thaws_via_callee(self, payload):
        arr = payload.data
        self._soften(arr)  # expect: CSAR013
        return arr

    def _soften(self, arr):
        arr.flags.writeable = True


class PrivateEscapesThroughHelpers:
    def caches_helper_allocation(self, length):
        buf = self._alloc(length)
        self._pool = buf  # expect: CSAR014

    def _alloc(self, length):
        return np.zeros(length, dtype=np.uint8)

    def retains_via_callee(self, length):
        buf = np.full(length, 0xAA, dtype=np.uint8)
        self._keep(buf)  # expect: CSAR014

    def _keep(self, arr):
        self._backlog = arr


class ScratchSpansThroughHelpers:
    def pumps_leased_scratch(self, env):
        buf = self._lease()
        yield env.timeout(1.0)  # expect: CSAR015
        return buf

    def _lease(self):
        buf = self._scratch
        return buf
