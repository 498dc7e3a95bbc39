"""Test-suite plumbing: optional LockSan / ParitySan / BufSan sanitization.

Run any part of the suite with ``CSAR_LOCKSAN=1`` to attach the LockSan
lock-protocol sanitizer (:mod:`repro.analysis.locksan`) to every
:class:`Environment` the tests create, ``CSAR_PARITYSAN=1`` to attach
the ParitySan redundancy-invariant sanitizer
(:mod:`repro.analysis.paritysan`), and/or ``CSAR_BUFSAN=1`` to attach
the BufSan buffer-immutability sanitizer (:mod:`repro.analysis.bufsan`).
Autouse fixtures then fail any test whose simulations produced sanitizer
reports — except tests marked ``locksan_expected`` /
``paritysan_expected`` / ``bufsan_expected``, which intentionally
violate the respective invariants.

The plumbing below is generic over :data:`repro.analysis.SANITIZER_MODULES`;
adding a fourth sanitizer means adding one ``_SanitizerHarness`` row.
"""

import os

import pytest


class _SanitizerHarness:
    """One sanitizer's env-var gate, marker name, and module handle."""

    def __init__(self, mode: str, env_var: str, display: str) -> None:
        self.mode = mode
        self.env_var = env_var
        self.display = display
        self.marker = f"{mode}san_expected"

    def requested(self) -> bool:
        return os.environ.get(self.env_var, "") not in ("", "0")

    def module(self):
        from repro.analysis import sanitizer_module

        return sanitizer_module(self.mode)


_HARNESSES = (
    _SanitizerHarness("lock", "CSAR_LOCKSAN", "LockSan"),
    _SanitizerHarness("parity", "CSAR_PARITYSAN", "ParitySan"),
    _SanitizerHarness("buf", "CSAR_BUFSAN", "BufSan"),
)


def pytest_configure(config):
    for harness in _HARNESSES:
        config.addinivalue_line(
            "markers",
            f"{harness.marker}: the test intentionally triggers "
            f"{harness.display} reports; the zero-report check is skipped")
        if harness.requested():
            harness.module().install()


def pytest_unconfigure(config):
    for harness in _HARNESSES:
        if harness.requested():
            harness.module().uninstall()


def _zero_reports_fixture(harness):
    @pytest.fixture(autouse=True)
    def _zero_reports(request):
        if not harness.requested():
            yield
            return
        module = harness.module()
        module.drain_reports()  # isolate from previous test
        yield
        reports = module.drain_reports()
        if reports and request.node.get_closest_marker(
                harness.marker) is None:
            lines = "\n".join(r.format() for r in reports)
            pytest.fail(f"{harness.display} reports:\n{lines}")

    _zero_reports.__name__ = f"_{harness.mode}san_zero_reports"
    return _zero_reports


_locksan_zero_reports = _zero_reports_fixture(_HARNESSES[0])
_paritysan_zero_reports = _zero_reports_fixture(_HARNESSES[1])
_bufsan_zero_reports = _zero_reports_fixture(_HARNESSES[2])


@pytest.fixture
def tx_claims(monkeypatch):
    """``tx_claims()`` lists every NIC built during the test whose TX
    side is still held or queued for once each of their environments has
    run on for a simulated second (in-flight messages land in
    milliseconds; only a leaked slot or a dead claim is left by then)."""
    from repro.hw.link import NIC

    built = []
    init = NIC.__init__

    def recording_init(nic, *args, **kwargs):
        init(nic, *args, **kwargs)
        built.append(nic)

    monkeypatch.setattr(NIC, "__init__", recording_init)

    def claims(settle: float = 1.0):
        for env in {id(nic.env): nic.env for nic in built}.values():
            env.run(until=env.now + settle)
        return [(nic.node_name, nic.tx.count, len(nic.tx.queue))
                for nic in built if nic.tx.count or nic.tx.queue]

    return claims
