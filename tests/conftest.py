"""Test-suite plumbing: optional LockSan / ParitySan / BufSan sanitization.

Run any part of the suite with ``CSAR_LOCKSAN=1`` to attach the LockSan
lock-protocol sanitizer (:mod:`repro.analysis.locksan`) to every
:class:`Environment` the tests create, ``CSAR_PARITYSAN=1`` to attach
the ParitySan redundancy-invariant sanitizer
(:mod:`repro.analysis.paritysan`), and/or ``CSAR_BUFSAN=1`` to attach
the BufSan buffer-immutability sanitizer (:mod:`repro.analysis.bufsan`).
One :func:`repro.analysis.sanitizer_scope` over the requested modes
spans the session, and an autouse fixture fails any test whose
simulations produced sanitizer reports — except, per tool, tests marked
``locksan_expected`` / ``paritysan_expected`` / ``bufsan_expected``
(registered in ``pyproject.toml``), which intentionally violate the
respective invariants.
"""

import os

import pytest

#: sanitizer mode -> the environment variable that turns it on
_MODES = {"lock": "CSAR_LOCKSAN", "parity": "CSAR_PARITYSAN",
          "buf": "CSAR_BUFSAN"}


@pytest.fixture(scope="session")
def _sanitizers():
    from repro.analysis import sanitizer_scope

    modes = [mode for mode, env_var in _MODES.items()
             if os.environ.get(env_var, "") not in ("", "0")]
    with sanitizer_scope(modes) as drain:
        yield drain


@pytest.fixture(autouse=True)
def _zero_reports(request, _sanitizers):
    _sanitizers()  # isolate from previous test
    yield
    unexpected = [report for tool, report in _sanitizers()
                  if request.node.get_closest_marker(f"{tool}_expected")
                  is None]
    if unexpected:
        lines = "\n".join(report.format() for report in unexpected)
        pytest.fail(f"sanitizer reports:\n{lines}")


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
