"""Whole-program lint fixtures (interprocedural mode).

Unlike ``fixtures/`` (one function per finding), these modules only
misbehave *across* function boundaries: the acquire and the release of
a lock live in different helpers, or the lock-order inversion is only
visible on the global acquires-while-holding graph.  The round-trip
test lints this tree and asserts the ``# expect: CSAR###`` comments
exactly.
"""
