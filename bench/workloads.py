"""The five workloads.

Every workload is closed-loop: each simulated client issues its next op
when the previous one completes.  Sizes are the constants below, not
options; ``seed`` is the only thing that changes the inputs, and the
program under test receives only the generated offsets, lengths and
payloads.  ``full`` is what the benchmark measures; ``tiny`` is the same
code path at a size for the warm-up, the smoke tests and the oracle
negative control.

A workload runs one repeat into a :class:`~bench.harness.Recorder`:
building systems, generating inputs and populating files is set-up
(``setup_s``); the phases named in ``harness.TIMED_PHASES`` are the
timed part (``wall_s``/``cpu_s``).
"""

from __future__ import annotations

import hashlib
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import CSARConfig, Payload, System
from repro.errors import ReproError
from repro.units import KiB, MiB

from bench.harness import SCHEMES, Recorder, Run, cumulative

SERVERS = 6
UNIT = 64 * KiB
SPAN = (SERVERS - 1) * UNIT          # one parity group of user data
CHUNK = 12 * SPAN                    # 3.75 MiB: a stripe-aligned 12-group op
REDUNDANT = ("raid1", "raid5", "hybrid")
SMALL_SIZES = (512, 2 * KiB, 7 * KiB, 16 * KiB, 64 * KiB, 100 * KiB)

SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "btio_extent": dict(ranks=(4, 16), scale=0.05),
        "stream_content": dict(chunks=16, passes=5, pool=4),
        "smallwrite_shared": dict(ops_per_client=400, groups=8,
                                  private=4 * MiB),
        "degraded_rebuild": dict(chunks=13, partials=48, degraded_writes=48),
        "chaos_hardened": dict(plans=32, num_ops=10),
    },
    "tiny": {
        "btio_extent": dict(ranks=(2,), scale=0.025),
        "stream_content": dict(chunks=2, passes=2, pool=2),
        "smallwrite_shared": dict(ops_per_client=40, groups=2,
                                  private=1 * MiB),
        "degraded_rebuild": dict(chunks=2, partials=8, degraded_writes=4),
        "chaos_hardened": dict(plans=1, num_ops=6),
    },
}


def _content_system(scheme: str, clients: int) -> System:
    return System(CSARConfig(scheme=scheme, num_servers=SERVERS,
                             num_clients=clients, stripe_unit=UNIT,
                             content_mode=True))


def _small_pool(seed: int) -> Dict[int, List[Payload]]:
    """Four pattern payloads of each small size, to draw writes from."""
    return {size: [Payload.pattern(size, seed=seed * 1000 + size + j)
                   for j in range(4)] for size in SMALL_SIZES}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, (bytes, memoryview))
                 else repr(part).encode())
    return h.hexdigest()


def _check_stored(rec: Recorder, run: Run, name: str, size: int) -> None:
    """The file must have the size written, and at least that stored."""
    run.note_storage(name)
    meta_size = run.system.manager.files[name].size
    stored = run.system.storage_report(name)["total"]
    if meta_size != size or stored < size:
        rec.fail(None, f"{run.label}: {name} has size {meta_size} with "
                 f"{stored} bytes stored, expected {size}")


# ----------------------------------------------------------------------
def btio_extent(rec: Recorder, seed: int, p: dict) -> None:
    """BTIO Class C in extent mode: initial write, then cold overwrite.

    BTIO's access pattern has no random element, so every seed gives
    the same input.
    """
    from repro.experiments.common import build
    from repro.workloads.btio import BTIO_STEPS, btio_benchmark

    rec.input_digest = _sha("btio", p)
    steps = max(1, round(BTIO_STEPS * p["scale"]))
    for ranks in p["ranks"]:
        for scheme in SCHEMES:
            with rec.setup():
                run = Run(rec, scheme,
                          build(scheme=scheme, servers=SERVERS, clients=ranks,
                                profile="osc", scale=p["scale"]),
                          f"{scheme}/{ranks}ranks")
            written = 0
            for case in ("initial", "overwrite"):
                if case == "overwrite":
                    with run.phase("populate"):
                        run.system.drop_all_caches()
                with run.phase("write"):
                    try:
                        result = btio_benchmark(run.system, "C",
                                                scale=p["scale"])
                    except ReproError as exc:
                        rec.fail(None, f"{run.label}: {case} raised {exc!r}",
                                 ops=steps * ranks)
                    else:
                        written = result.bytes_written
                    rec.count_ops(steps * ranks)
            _check_stored(rec, run, "btio", written)
            run.close()


# ----------------------------------------------------------------------
def stream_content(rec: Recorder, seed: int, p: dict) -> None:
    """One client streams stripe-aligned 3.75 MiB writes of real bytes."""
    chunks, passes = p["chunks"], p["passes"]
    with rec.setup():
        pool = [Payload.pattern(CHUNK, seed=seed * 1000 + i)
                for i in range(p["pool"])]
        rec.input_digest = _sha(*(b.data.data for b in pool))

        def payload_of(pass_no: int, chunk: int) -> Payload:
            return pool[(pass_no * chunks + chunk + seed) % len(pool)]

        ref = np.concatenate([payload_of(passes - 1, c).data
                              for c in range(chunks)])

    for scheme in SCHEMES:
        with rec.setup():
            run = Run(rec, scheme, _content_system(scheme, 1))

        def writer():
            yield from run.system.client(0).create("stream")
            for pass_no in range(passes):
                for c in range(chunks):
                    yield from run.write(0, "stream", c * CHUNK,
                                         payload_of(pass_no, c))

        def reader():
            for c in range(chunks):
                yield from run.read(0, "stream", c * CHUNK, CHUNK, ref)

        with run.phase("write"):
            run.system.run(writer())
        with run.phase("read"):
            run.system.run(reader())
        _check_stored(rec, run, "stream", chunks * CHUNK)
        run.close()


# ----------------------------------------------------------------------
def _small_ops(seed: int, client: int, p: dict) -> List[tuple]:
    """One client's op stream: ``(kind, offset, size, pool_index)``.

    The mix is a fixed multiset -- 80% writes, 20% reads, half of each
    in the client's own block of the shared stripes and half at
    unaligned offsets of its private region, sizes taken in turn from
    ``SMALL_SIZES`` -- so that seeds differ in order and placement, not
    in the amount of work.
    """
    rng = Random(seed * 7919 + client)
    private_base = p["groups"] * SPAN + client * p["private"]
    shared = private = 0
    ops = []
    for i in range(p["ops_per_client"]):
        kind = "read" if i % 5 == 4 else "write"
        if (i // 5 if kind == "read" else i % 5) % 2 == 0:
            # own block of a shared stripe: sizes up to one stripe unit
            size = SMALL_SIZES[shared % (len(SMALL_SIZES) - 1)]
            shared += 1
            offset = rng.randrange(p["groups"]) * SPAN + client * UNIT
        else:
            size = SMALL_SIZES[private % len(SMALL_SIZES)]
            private += 1
            offset = private_base + rng.randrange(p["private"] - size)
        ops.append((kind, offset, size, rng.randrange(4)))
    rng.shuffle(ops)
    return ops


def smallwrite_shared(rec: Recorder, seed: int, p: dict) -> None:
    """Five clients, partial-stripe writes: the paper's central case."""
    clients = 5
    total = p["groups"] * SPAN + clients * p["private"]
    with rec.setup():
        streams = [_small_ops(seed, k, p) for k in range(clients)]
        rec.input_digest = _sha(streams)
        pool = _small_pool(seed)
        fill = Payload.pattern(total, seed=seed)

    for scheme in SCHEMES:
        with rec.setup():
            run = Run(rec, scheme, _content_system(scheme, clients))
            ref = fill.data.copy()

        def populate():
            yield from run.system.client(0).create("small")
            for start in range(0, total, CHUNK):
                yield from run.system.client(0).write(
                    "small", start, fill.slice(start, min(start + CHUNK,
                                                          total)))

        def client_proc(k: int):
            for kind, offset, size, j in streams[k]:
                if kind == "write":
                    yield from run.write(k, "small", offset, pool[size][j],
                                         ref)
                else:
                    yield from run.read(k, "small", offset, size, ref)

        with run.phase("populate"):
            run.system.run(populate())
        with run.phase("write"):
            run.system.run(*[client_proc(k) for k in range(clients)])
        _check_stored(rec, run, "small", total)
        run.close()


# ----------------------------------------------------------------------
def degraded_rebuild(rec: Recorder, seed: int, p: dict,
                     schemes: Tuple[str, ...] = REDUNDANT,
                     inject: Optional[Callable[[System], None]] = None,
                     ) -> None:
    """Fail, read and write degraded, rebuild, scrub -- for two victims.

    ``inject`` receives each built system before it is used; the oracle
    negative control uses it to swap in a seeded bug.
    """
    from repro.redundancy.recovery import rebuild_server
    from repro.redundancy.scrub import scrub

    clients = 2
    chunks = p["chunks"]
    total = chunks * CHUNK
    with rec.setup():
        rng = Random(seed * 104729)
        victims = rng.sample(range(SERVERS), 2)

        def partials(count: int, lo: int, hi: int) -> List[tuple]:
            out = []
            for i in range(count):
                size = SMALL_SIZES[i % len(SMALL_SIZES)]
                out.append((rng.randrange(lo, hi - size), size,
                            rng.randrange(4)))
            return out

        overwrites = partials(p["partials"], 0, total)
        # each client writes inside its own half, so no two race
        half = total // clients
        degraded = [[partials(p["degraded_writes"] // clients,
                              k * half, (k + 1) * half)
                     for k in range(clients)] for _ in victims]
        rec.input_digest = _sha(victims, overwrites, degraded)
        pool = _small_pool(seed)
        fill = Payload.pattern(total, seed=seed)

    for scheme in schemes:
        with rec.setup():
            run = Run(rec, scheme, _content_system(scheme, clients))
            system = run.system
            if inject is not None:
                inject(system)
            ref = fill.data.copy()

        def populate():
            yield from system.client(0).create("file")
            for start in range(0, total, CHUNK):
                yield from system.client(0).write(
                    "file", start, fill.slice(start, start + CHUNK))
            for offset, size, j in overwrites:
                yield from system.client(0).write("file", offset,
                                                  pool[size][j])
                ref[offset:offset + size] = pool[size][j].data

        def read_all(k: int):
            for c in range(k, chunks, clients):
                yield from run.read(k, "file", c * CHUNK, CHUNK, ref)

        def write_partials(k: int, ops: List[tuple]):
            for offset, size, j in ops:
                yield from run.write(k, "file", offset, pool[size][j], ref)

        def both(make, *args):
            system.run(*[make(k, *(a[k] for a in args))
                         for k in range(clients)])

        with run.phase("populate"):
            system.run(populate())
        for victim, writes in zip(victims, degraded):
            system.fail_server(victim)
            with run.phase("degraded_read"):
                both(read_all)
            with run.phase("degraded_write"):
                both(write_partials, writes)
            system.replace_server(victim)
            with run.phase("rebuild"):
                try:
                    system.run(rebuild_server(system, victim))
                except ReproError as exc:
                    rec.fail(None, f"{run.label}: rebuild raised {exc!r}")
                rec.count_ops(1)
            rec.extra["redundancy.rebuilt_bytes"] += sum(
                system.iods[victim].storage_of("file").values())
            with run.phase("scrub"):
                issues = scrub(system, "file")
                rec.count_ops(1)
            rec.extra["redundancy.scrub_errors"] += len(issues)
            if issues:
                rec.fail(None, f"{run.label}: scrub after rebuilding iod"
                         f"{victim} reported {len(issues)} issue(s), first: "
                         f"{issues[0]}")
            with run.phase("read"):
                both(read_all)
        _check_stored(rec, run, "file", total)
        run.close()


# ----------------------------------------------------------------------
CHAOS_SERVERS = 5   # the campaign's own geometry: 1 KiB units, two files
_LETHAL = frozenset(("crash", "restart_crash", "torn_write", "disk_error"))


def in_fault_model(plan) -> bool:
    """Does the sampled plan stay inside CSAR's single-failure model?

    The sampler treats ``link_drop`` as a nuisance fault, but the
    hardened client turns a dropped request into a *suspected* server.
    Next to a lethal fault that makes two unavailable servers, which the
    schemes answer with a typed error, not a recovery: about 1% of the
    sampled plans end ``ok == False`` that way at the commit that
    defined this benchmark.  A workload must not contain failing ops,
    so those plans are left out.
    """
    kinds = {fault.kind for fault in plan.faults}
    return not ("link_drop" in kinds and kinds & _LETHAL)


def chaos_plan_seeds(seed: int, scheme: str, p: dict) -> List[int]:
    """The first ``plans`` in-model plan seeds from ``1000 * seed``."""
    from repro.faults.plan import sample_plan

    out: List[int] = []
    plan_seed = 1000 * seed
    while len(out) < p["plans"]:
        if in_fault_model(sample_plan(plan_seed, scheme, CHAOS_SERVERS,
                                      p["num_ops"])):
            out.append(plan_seed)
        plan_seed += 1
    return out


def _absorb_plan(rec: Recorder, scheme: str, envs: list) -> None:
    """Take the finished plan's simulated counters, then free it.

    A finished plan's sanitizers stay registered until the cycle
    collector frees them, and BufSan fingerprints every new capture once
    per registered instance; ``Run.close`` collecting here, outside the
    timed phase, keeps ``wall_s`` from depending on when the collector
    happens to run.
    """
    for env in envs:
        system = env.faults.system
        run = Run(rec, scheme, system)
        run.absorb(None, cumulative(system), env.now)
        run.close()
    envs.clear()


def chaos_hardened(rec: Recorder, seed: int, p: dict) -> None:
    """The chaos campaign: faults, sanitizers and RPC hardening all on."""
    from repro.faults.runner import run_campaign

    with rec.setup():
        plan_seeds = {scheme: chaos_plan_seeds(seed, scheme, p)
                      for scheme in SCHEMES}
        rec.input_digest = _sha(plan_seeds)
    rec.keep_envs = envs = []
    for scheme in SCHEMES:
        for plan_seed in plan_seeds[scheme]:
            span = rec.open_span("chaos", None)
            span["scheme"] = scheme
            with rec.host_phase("chaos", span):
                result, = run_campaign([plan_seed], (scheme,),
                                       num_servers=CHAOS_SERVERS,
                                       num_ops=p["num_ops"])
            _absorb_plan(rec, scheme, envs)
            rec.count_ops(1)
            rec.extra["faults.plans_run"] += 1
            rec.extra["faults.faults_fired"] += len(result.fired)
            rec.extra["faults.ops_unacked"] += result.ops_failed
            kind = result.failure_kind or ""
            if kind.split(":")[0] in ("locksan", "bufsan", "paritysan"):
                rec.extra["analysis.sanitizer_reports"] += 1
            if not result.ok:
                rec.fail(span, f"chaos seed {plan_seed} {scheme}: "
                         f"{result.failure_kind}: {result.failure}")


WORKLOADS: Dict[str, Callable[[Recorder, int, dict], None]] = {
    "btio_extent": btio_extent,
    "stream_content": stream_content,
    "smallwrite_shared": smallwrite_shared,
    "degraded_rebuild": degraded_rebuild,
    "chaos_hardened": chaos_hardened,
}
