"""The probe table on the Environment, and the registry as the truth.

``repro.probes`` is the one list of named points; production code
announces them with ``env.emit`` and names no tool.  These tests keep
the list, the emitting code and the layering honest.
"""

import ast
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.faults.plan import STEP_NAMES
from repro.probes import PROBES
from repro.redundancy.locks import ParityLockTable
from repro.sim import Environment, FifoLock, Resource, engine

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: packages that run the model: they announce, and import no tool
PRODUCTION = ("sim", "hw", "storage", "pvfs", "redundancy", "csar", "util")


@pytest.fixture
def env(monkeypatch):
    """An environment no tool is attached to, also when the suite runs
    under ``CSAR_*SAN=1``."""
    monkeypatch.setattr(engine, "_attached", {})
    return Environment()


def _modules(*packages):
    roots = [SRC / p for p in packages] if packages else [SRC]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _announced():
    """``(path, name)`` of every string literal passed first to a call
    of ``emit`` / ``probe`` (as a method or a bound local)."""
    out = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else \
                func.id if isinstance(func, ast.Name) else None
            first = node.args[0]
            if called in ("emit", "probe") \
                    and isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                out.append((path, first.value))
    return out


class TestRegistryIsTheTruth:
    def test_every_announced_name_is_registered(self):
        unknown = [(str(p), n) for p, n in _announced() if n not in PROBES]
        assert unknown == []

    def test_every_registered_name_is_announced(self):
        assert set(PROBES) - {n for _p, n in _announced()} == set()

    def test_every_name_says_what_it_means(self):
        assert all(isinstance(v, str) and v for v in PROBES.values())

    def test_subscribe_rejects_an_unknown_name(self, env):
        with pytest.raises(ReproError, match="no.such.probe"):
            env.subscribe("no.such.probe", lambda *a: None)
        with pytest.raises(ReproError):
            env.probe("no.such.probe")

    def test_step_names_are_the_protocol_step_probes(self):
        assert STEP_NAMES == {
            "raid5.rmw.before_parity_read",
            "raid5.rmw.after_parity_read",
            "raid5.rmw.before_writeback",
            "raid5.rmw.after_writeback",
            "raid5.full_stripe.before_write",
            "hybrid.overflow.before_write",
            "hybrid.overflow.after_write",
            "iod.overflow.before_append",
            "iod.overflow.after_append",
        }


class TestProbeTable:
    def test_emit_calls_subscribers_in_order_with_the_arguments(self, env):
        heard = []
        env.subscribe("recovery.done", lambda i: heard.append(("a", i)))
        env.subscribe("recovery.done", lambda i: heard.append(("b", i)))
        env.emit("recovery.done", 3)
        env.emit("scrub.done", "f", [])  # nobody listens: nothing happens
        assert heard == [("a", 3), ("b", 3)]

    def test_unheard_emit_calls_nothing_and_keeps_no_state(self, env):
        env.emit("system.quiescent")
        env.emit("raid5.rmw.before_writeback", 2)
        assert env._probes == {}

    def test_environments_do_not_share_subscribers(self, env):
        a, b = env, Environment()
        heard = []
        a.subscribe("system.quiescent", lambda: heard.append("a"))
        b.emit("system.quiescent")
        assert heard == []

    def test_run_complete_fires_when_the_heap_drains(self, env):
        heard = []
        env.subscribe("run.complete", lambda: heard.append(env.now))
        env.timeout(2.0)
        env.run(until=1.0)
        assert heard == []  # an event is still pending
        env.run()
        assert heard == [2.0]


class TestCachedListsAreLive:
    def test_unheard_fifolock_is_a_plain_resource(self, env):
        lock, plain = FifoLock(env), Resource(env)
        first, queued = lock.request(), lock.request()
        assert (type(first), first.triggered, queued.triggered) == \
            (type(plain.request()), True, False)
        # granted on the spot: born processed, nothing subscribed to either
        assert first.processed and queued.callbacks == []
        lock.release(first)
        assert queued.triggered and lock.users == [queued]

    def test_late_subscriber_hears_an_existing_fifolock(self, env):
        lock = FifoLock(env)  # binds its subscriber lists now
        heard = []
        env.subscribe("lock.request",
                      lambda lk, _req: heard.append(("req", lk)))
        env.subscribe("lock.release",
                      lambda lk, _req: heard.append(("rel", lk)))
        request = lock.request()
        lock.release(request)
        assert heard == [("req", lock), ("rel", lock)]

    def test_late_subscriber_hears_an_existing_lock_table(self, env):
        table = ParityLockTable(env)
        heard = []
        for name in ("parity_lock.new", "parity_lock.acquired",
                     "parity_lock.released"):
            env.subscribe(name, lambda *a, name=name: heard.append(name))

        def proc():
            yield from table.acquire("f", 0, xid=1)
            table.release("f", 0, xid=1)

        env.process(proc())
        env.run()
        assert heard == ["parity_lock.new", "parity_lock.acquired",
                         "parity_lock.released"]


def test_production_packages_import_no_tool():
    """Nothing that runs the model imports the fault harness or the
    analysis package: tools subscribe, production code only announces."""
    offenders = []
    for path, tree in _modules(*PRODUCTION):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}"
                                    for alias in node.names]
            else:
                continue
            offenders += [(str(path.relative_to(SRC)), name)
                          for name in names
                          if name.startswith(("repro.faults",
                                              "repro.analysis"))]
    assert offenders == []
