"""The probe registry: every named point production code announces.

Production code says *that* something happened —
``env.emit("recovery.done", index)`` — and never *to whom*; tools
(the sanitizers, the fault injector) call
``env.subscribe(name, fn)`` when they are built.  This module is the
one list of names, with the arguments each is emitted with; it imports
nothing, so the engine and every tool can depend on it.
:meth:`Environment.subscribe` rejects a name that is not here, and
``tests/sim/test_probes.py`` checks that every name is emitted
somewhere and that nothing emits an unregistered one.
"""

from __future__ import annotations

PROBES = {
    # -- kernel ---------------------------------------------------------
    "run.complete": "(): Environment.run drained the event heap (also "
                    "just before a run(until=event) deadlock error)",
    # -- locks ----------------------------------------------------------
    "lock.request": "(lock, request): a FifoLock slot was requested "
                    "(granted already iff request.triggered)",
    "lock.release": "(lock, request): a FifoLock request is being "
                    "released, cancelled, or forgotten by a crash",
    "parity_lock.new": "(lock, file, group): a parity group got its lock",
    "parity_lock.wait": "(file, group, xid): xid queued behind the holder",
    "parity_lock.cancel": "(file, group, xid): a queued acquire was "
                          "interrupted and withdrawn",
    "parity_lock.acquired": "(file, group, xid): xid now holds the lock",
    "parity_lock.released": "(file, group, xid): xid gave the lock up",
    "parity_lock.double_release": "(file, group, xid): xid released a "
                                  "lock it does not hold",
    # -- cluster --------------------------------------------------------
    "system.built": "(system): System.__init__ finished",
    "system.quiescent": "(): System.run's awaited processes finished",
    "recovery.done": "(server): rebuild_server finished",
    "scrub.done": "(file, issues): one offline scrub pass finished",
    # -- protocol steps: (server or None).  The names a fault plan's
    # ``step`` trigger may address (``faults.plan.STEP_NAMES``); the
    # write executor's portion handlers (``_rmw``, ``_full_stripe``,
    # ``_mirrored``) announce the client-side ones, and the ``iod.*`` ones
    # fire server-side, between a home overflow append and its mirror.
    "raid5.rmw.before_parity_read": "(parity server)",
    "raid5.rmw.after_parity_read": "(parity server)",
    "raid5.rmw.before_writeback": "(parity server)",
    "raid5.rmw.after_writeback": "(parity server)",
    "raid5.full_stripe.before_write": "(None)",
    "hybrid.overflow.before_write": "(None)",
    "hybrid.overflow.after_write": "(None)",
    "iod.overflow.before_append": "(serving daemon)",
    "iod.overflow.after_append": "(serving daemon)",
}
