"""Injector behaviour: triggers fire, hooks act, plans are validated."""

import numpy as np
import pytest

from repro.csar.config import CSARConfig
from repro.csar.system import System
from repro.errors import FaultPlanError, ServerFailed
from repro.faults import injector as inj
from repro.faults.plan import FaultPlan, FaultSpec, Trigger
from repro.storage.payload import Payload

UNIT = 1024


def make_system(plan, scheme="raid1", **over):
    cfg = dict(scheme=scheme, num_servers=5, num_clients=1,
               stripe_unit=UNIT, content_mode=True,
               rpc_timeout=0.25, rpc_retries=2, rpc_jitter_seed=3)
    cfg.update(over)
    inj.install(plan)
    return System(CSARConfig(**cfg))


def plan_of(*faults):
    plan = FaultPlan(seed=0, scheme="raid1", num_servers=5, num_ops=4,
                     faults=list(faults))
    plan.validate()
    return plan


@pytest.fixture(autouse=True)
def _uninstall():
    yield
    inj.uninstall()


def run_write_read(system, name="f", size=4 * UNIT, seed=9, fsync=False):
    client = system.client()
    out = {}

    def driver():
        yield from client.create(name)
        yield from client.write(name, 0, Payload.pattern(size, seed=seed))
        if fsync:
            try:
                yield from client.fsync(name)
            except ServerFailed:
                pass  # a faulted server may reject its flush
        data = yield from client.read(name, 0, size)
        out["data"] = data.to_bytes()

    system.run(driver())
    assert out["data"] == Payload.pattern(size, seed=seed).to_bytes()
    return system


def test_time_trigger_fires_at_the_armed_sim_time():
    system = make_system(plan_of(
        FaultSpec("crash", 3, Trigger("time", 0.001))))
    run_write_read(system)
    fired = system.env.faults.fired
    assert [(k, s) for _t, k, s in fired] == [("crash", 3)]
    assert fired[0][0] == pytest.approx(0.001)
    assert system.iods[3].failed


def test_op_trigger_fires_before_the_named_op():
    system = make_system(plan_of(
        FaultSpec("crash", 2, Trigger("op", 1))))
    client = system.client()

    def driver():
        yield from client.create("f")
        system.env.faults.note_op(0)
        yield from client.write("f", 0, Payload.pattern(UNIT, seed=1))
        assert not system.iods[2].failed
        system.env.faults.note_op(1)
        assert system.iods[2].failed
        yield from client.write("f", 0, Payload.pattern(UNIT, seed=2))

    system.run(driver())


def test_step_trigger_counts_occurrences():
    spec = FaultSpec("crash", 0,
                     Trigger("step", "raid5.rmw.before_writeback", nth=2))
    plan = FaultPlan(seed=0, scheme="raid5", num_servers=5, num_ops=4,
                     faults=[spec])
    plan.validate()
    system = make_system(plan, scheme="raid5")
    client = system.client()

    def driver():
        yield from client.create("f")
        # Two partial-stripe RMWs: the first passes the step untouched,
        # the second fires the crash at its writeback.
        yield from client.write("f", 128, Payload.pattern(256, seed=1))
        assert not system.iods[0].failed
        yield from client.write("f", 128, Payload.pattern(256, seed=2))
        assert system.iods[0].failed

    system.run(driver())


def test_link_drop_times_out_retries_and_recovers():
    system = make_system(plan_of(
        FaultSpec("link_drop", 1, Trigger("time", 0.0),
                  count=1, direction="req")))
    run_write_read(system)
    # The dropped request cost one timeout; the retry delivered it.
    assert system.metrics.get("client.rpc_timeouts") >= 1
    assert not system.iods[1].failed


def test_link_drop_plans_require_rpc_timeouts():
    plan = plan_of(FaultSpec("link_drop", 1, Trigger("time", 0.0),
                             count=1, direction="req"))
    with pytest.raises(FaultPlanError, match="rpc_timeout"):
        make_system(plan, rpc_timeout=None)


def test_link_delay_and_dup_preserve_correctness():
    system = make_system(plan_of(
        FaultSpec("link_delay", 0, Trigger("time", 0.0), count=4,
                  delay=0.01, direction="any"),
        FaultSpec("link_dup", 2, Trigger("time", 0.0), count=4,
                  direction="req")))
    run_write_read(system)
    kinds = {k for _t, k, _s in system.env.faults.fired}
    assert "link_delay" in kinds and "link_dup" in kinds


def test_disk_slow_stretches_io_without_corruption():
    # fsync forces the cached writes down to the (slowed) spindle.
    fast = run_write_read(make_system(plan_of()), fsync=True)
    slow = run_write_read(make_system(plan_of(
        FaultSpec("disk_slow", 0, Trigger("time", 0.0),
                  count=8, factor=16.0))), fsync=True)
    assert slow.env.now > fast.env.now
    assert len(slow.env.faults.fired) > 1  # armed + consumed I/Os


def test_disk_error_crashes_the_owning_server():
    system = make_system(plan_of(
        FaultSpec("disk_error", 1, Trigger("time", 0.0), count=1)))
    # raid1 tolerates the loss; the write lands degraded and reads
    # reconstruct from the mirror.  fsync drives the I/O that faults.
    run_write_read(system, fsync=True)
    assert system.iods[1].failed
    assert ("disk_error", 1) in {(k, s)
                                 for _t, k, s in system.env.faults.fired}


def test_torn_write_persists_a_prefix_and_crashes():
    system = make_system(plan_of(
        FaultSpec("torn_write", 0, Trigger("time", 0.0), frac=0.5)))
    client = system.client()
    size = 4 * UNIT
    out = {}

    def driver():
        yield from client.create("f")
        yield from client.write("f", 0, Payload.pattern(size, seed=5))
        data = yield from client.read("f", 0, size)
        out["data"] = data.to_bytes()

    system.run(driver())
    # The write itself survives: raid1 tolerates the crashed server and
    # the read reconstructs every byte from the mirror.
    assert out["data"] == Payload.pattern(size, seed=5).to_bytes()
    assert system.iods[0].failed
    # The victim's own disk holds only a prefix of the torn block.
    local = system.iods[0].fs.files.get("f.data")
    if local is not None:
        got = np.frombuffer(local.read(0, UNIT).to_bytes(), dtype=np.uint8)
        want = np.frombuffer(
            Payload.pattern(size, seed=5).slice(0, UNIT).to_bytes(),
            dtype=np.uint8)
        assert not np.array_equal(got, want)


# The restarted server's stale disk breaks the mirror until a rebuild —
# which is the point of the quarantine, and a ParitySan report.
@pytest.mark.paritysan_expected
def test_restart_crash_restarts_but_stays_suspected():
    system = make_system(plan_of(
        FaultSpec("restart_crash", 1, Trigger("time", 0.0005),
                  restart_after=0.01)))
    client = system.client()
    size = 4 * UNIT
    out = {}

    def driver():
        yield from client.create("f")
        yield from client.write("f", 0, Payload.pattern(size, seed=7))
        yield system.env.timeout(0.1)  # let the restarter run
        data = yield from client.read("f", 0, size)
        out["data"] = data.to_bytes()

    system.run(driver())
    assert out["data"] == Payload.pattern(size, seed=7).to_bytes()
    iod = system.iods[1]
    assert not iod.failed          # it restarted...
    assert 1 in system.env.faults.restarted
    assert 1 in system.client().suspected  # ...but is quarantined


def test_rebuild_clears_suspicion_after_restart():
    from repro.redundancy.recovery import rebuild_server

    system = make_system(plan_of(
        FaultSpec("restart_crash", 1, Trigger("time", 0.0005),
                  restart_after=0.01)))
    client = system.client()
    size = 4 * UNIT

    def driver():
        yield from client.create("f")
        yield from client.write("f", 0, Payload.pattern(size, seed=7))
        yield system.env.timeout(0.1)
        if not system.iods[1].failed:
            system.iods[1].fail()
        yield from rebuild_server(system, 1)
        data = yield from client.read("f", 0, size)
        assert data.to_bytes() == Payload.pattern(size, seed=7).to_bytes()

    system.run(driver())
    assert 1 not in system.client().suspected
    assert not system.iods[1].failed


def test_attach_rejects_plans_for_a_different_cluster_size():
    plan = FaultPlan(seed=0, scheme="raid1", num_servers=4, num_ops=1,
                     faults=[FaultSpec("crash", 0, Trigger("time", 1.0))])
    plan.validate()
    with pytest.raises(FaultPlanError, match="servers"):
        make_system(plan)


def test_install_is_inert_without_a_system():
    assert not inj.installed()
    inj.install(plan_of())
    assert inj.installed()
    inj.uninstall()
    assert not inj.installed()
    # Fault-free systems run identically with no factory installed.
    run_write_read(System(CSARConfig(
        scheme="raid1", num_servers=5, num_clients=1, stripe_unit=UNIT,
        content_mode=True)))


@pytest.mark.parametrize("victim", ["built_first", "built_last"])
def test_torn_write_tears_in_its_own_system(victim):
    """Each system's injector tears that system's writes, whichever
    other System is alive: the consult goes through ``node.env.faults``,
    not through "the injector of the most recently built System"."""
    plan = plan_of(FaultSpec("torn_write", 1, Trigger("op", 0), frac=0.5))
    unit = 64 * UNIT
    config = dict(scheme="raid0", stripe_unit=unit)
    first, last = make_system(plan, **config), make_system(plan, **config)
    system, bystander = (first, last) if victim == "built_first" \
        else (last, first)
    client = system.client()
    data = Payload.pattern(4 * unit, seed=5)  # 256 KiB: a unit on iod0..3

    def driver():
        yield from client.create("f")
        system.env.faults.note_op(0)
        with pytest.raises(ServerFailed):
            yield from client.write("f", 0, data)

    system.run(driver())
    # Armed, then consumed by the write it tore.
    assert [k for _t, k, _s in system.env.faults.fired] == \
        ["torn_write", "torn_write"]
    assert bystander.env.faults.fired == []
    assert system.iods[1].failed and not bystander.iods[1].failed
    # iod1 was sent one unit and persisted exactly ``frac`` of it.
    local = system.iods[1].fs.files["f.data"]
    assert local.size == int(unit * 0.5)
    assert local.read(0, local.size).to_bytes() == \
        data.slice(unit, unit + local.size).to_bytes()
