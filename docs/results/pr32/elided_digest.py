"""Dispatch digests of the golden scenarios with elided process ends
filtered out.

Runs every scenario of ``tests/test_golden_bitidentity.py`` from the
tree given as the argument, hashing the dispatch sequence as that test
does but skipping each ``Process`` end that succeeded with nobody
subscribed but an iod's ``_inflight.discard``: the ends the kernel no
longer schedules (an iod handler now leaves ``_inflight`` itself).  On a tree that
no longer schedules them nothing is skipped, so the digests printed
for the parent and the change must agree.

    python docs/results/pr32/elided_digest.py TREE
"""

import hashlib
import os
import sys

tree = os.path.abspath(sys.argv[1])
sys.path[:0] = [tree, os.path.join(tree, "src")]

from repro.sim.engine import Environment, Process  # noqa: E402
from tests import test_golden_bitidentity as golden  # noqa: E402

label = getattr(golden, "entry_kind", lambda entry: type(entry).__name__)


def enter(self):
    digest = self._hash

    def run(env, until=None):
        done = []
        until.callbacks.append(done.append)
        heap = env._heap
        while heap and not done:
            when, _prio, _seq, entry = heap[0]
            if not (type(entry) is Process and entry._ok
                    and all(getattr(cb, "__name__", None) == "discard"
                            for cb in entry.callbacks)):
                digest.update(f"{when!r} {label(entry)}\n".encode())
            env.step()
        return until._value

    Environment.run = run
    return self


golden.DispatchDigest.__enter__ = enter
for name in sorted(golden.SCENARIOS):
    print(name, golden.SCENARIOS[name]()["dispatch_sha256"])
