"""Verify the verifier: a bug class only the fault matrix can see.

:class:`~repro.analysis.seeded_bugs.CompensatingWritebackRaid5` rolls a
failed RMW data write's delta back out of parity.  The corrupted state
is *internally consistent* — parity XORs to the reconstructible data, so
ParitySan, the scrubber, and byte-for-byte reads all stay green — which
is exactly why none of the pre-existing tests can catch it:

* fault-free, the compensation path is never taken (no write fails);
* with a server failed *between* operations (the idiom of every
  pre-existing failure test, e.g. ``tests/redundancy/test_chaos.py``'s
  ``fail`` steps), the victim's **old-data read** fails too, and the
  compensation is gated on "old read succeeded AND writeback failed";

only a crash *inside* the RMW window — after the old reads, before the
writeback — arms the gate, and only step-triggered fault injection can
place a crash there.  The crash matrix does, and the acked write's bytes
come back wrong after recovery.
"""

import numpy as np

from repro.analysis.seeded_bugs import CompensatingWritebackRaid5, inject
from repro.csar.config import CSARConfig
from repro.csar.system import System
from repro.faults.matrix import run_cell
from repro.redundancy.recovery import rebuild_server
from repro.storage.payload import Payload

UNIT = 512


def buggy_scenario(fail_between_ops):
    """The seeded scheme under the *pre-existing* test idioms."""
    cfg = CSARConfig(scheme="raid5", num_servers=5, num_clients=1,
                     stripe_unit=UNIT, content_mode=True)
    system = System(cfg)
    inject(system, CompensatingWritebackRaid5(cfg))
    client = system.client()
    size = 2 * system.layout.group_span
    out = {}

    def driver():
        yield from client.create("f")
        yield from client.write("f", 0, Payload.pattern(size, seed=11))
        if fail_between_ops:
            system.fail_server(0)  # between ops: the existing-suite idiom
        yield from client.write("f", 128, Payload.pattern(256, seed=22))
        if fail_between_ops:
            yield from rebuild_server(system, 0)
        data = yield from client.read("f", 0, size)
        out["got"] = np.frombuffer(data.to_bytes(), dtype=np.uint8)

    system.run(driver())
    ref = np.frombuffer(Payload.pattern(size, seed=11).to_bytes(),
                        dtype=np.uint8).copy()
    ref[128:384] = np.frombuffer(Payload.pattern(256, seed=22).to_bytes(),
                                 dtype=np.uint8)
    return np.array_equal(out["got"], ref)


def test_the_bug_is_invisible_fault_free():
    assert buggy_scenario(fail_between_ops=False)


def test_the_bug_is_dormant_under_between_ops_failures():
    # The strongest pre-existing failure idiom cannot arm the gate: the
    # victim's old-data read fails along with its write, so the
    # compensation never runs and every byte verifies.
    assert buggy_scenario(fail_between_ops=True)


def test_the_real_scheme_passes_the_killing_cell():
    cell = run_cell("raid5", "raid5.rmw.before_writeback", 1, 0)
    assert cell.ok, cell.format()


def test_the_crash_matrix_catches_the_bug():
    cell = run_cell("raid5", "raid5.rmw.before_writeback", 1, 0,
                    make_scheme=CompensatingWritebackRaid5)
    assert not cell.ok
    assert "acked byte" in cell.failure


def test_paritysan_is_blind_to_the_corruption():
    # The bug's whole point: the post-recovery state is parity-consistent
    # (the old bytes are what parity implies), so the redundancy
    # sanitizer has nothing to report — only the differential oracle
    # sees the loss.  A cell runs under all three sanitizers, and any
    # report would take the attribution from the oracle.
    cell = run_cell("raid5", "raid5.rmw.before_writeback", 1, 0,
                    make_scheme=CompensatingWritebackRaid5)
    assert cell.failure_kind == "differential", cell.failure
