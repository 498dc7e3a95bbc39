"""The CSAR client library.

Mirrors the PVFS client library's role: open files through the manager,
then move data directly between the application and the I/O daemons.  All
redundancy intelligence — which servers get which bytes, parity
read-modify-write, overflow placement — lives in the pluggable
:class:`~repro.redundancy.base.RedundancyScheme` the client delegates to,
exactly as CSAR added redundancy "by adding new routines" around intact
PVFS code.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import ReproError, RpcTimeout, ServerFailed
from repro.hw.link import stream, transfer
from repro.hw.node import Node
from repro.metrics import Metrics
from repro.pvfs import messages as msg
from repro.pvfs.manager import FileMeta, Manager
from repro.sim.engine import Environment, Event
from repro.storage.payload import Payload


class PVFSClient:
    """One application process's file-system endpoint."""

    def __init__(self, env: Environment, index: int, node: Node,
                 iods: Sequence, manager: Manager, metrics: Metrics,
                 scheme) -> None:
        self.env = env
        self.index = index
        self.node = node
        self.iods = list(iods)
        self.manager = manager
        self.metrics = metrics
        self.scheme = scheme
        self._xids = itertools.count(index << 32)
        self._handles: Dict[str, FileMeta] = {}
        #: route operations through the mounted kernel module (Section 6.6)
        self.via_kernel_module = False
        #: servers this client has seen fail — reads skip them and go
        #: straight to reconstruction (fail-fast); cleared on rebuild
        self.suspected: set = set()
        self._scheme_cache: Dict[str, object] = {}
        #: seeded jitter source for retry backoff — sim-deterministic,
        #: de-phased across clients by mixing in the client index
        self._retry_rng = Random(
            getattr(scheme.config, "rpc_jitter_seed", 0) * 1000003 + index)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def next_xid(self) -> int:
        return next(self._xids)

    def rpc(self, target, request) -> Generator[Event, Any, Any]:
        """Send ``request`` to an iod or the manager; return its response.

        Payload-bearing requests stream: the server's per-byte data
        handling overlaps the transfer, as over a real socket.  Raises the
        server-reported error, so callers see
        :class:`~repro.errors.ServerFailed` and friends as exceptions.
        """
        config = self.scheme.config
        if getattr(config, "rpc_timeout", None) is not None \
                and hasattr(target, "failed"):
            return (yield from self._rpc_hardened(target, request, config))
        wire = request.wire_size()
        if wire > msg.HEADER and hasattr(target, "failed") and not target.failed:
            yield from stream(self.env, self.node.nic, target.node.nic,
                              wire, self.metrics, cpu=target.node.cpu,
                              cpu_at="dst")
        else:
            yield from transfer(self.env, self.node.nic, target.node.nic,
                                wire, self.metrics)
        done = self.env.event()
        target.inbox.put((request, self.node.nic, done))
        response = yield done
        error = getattr(response, "error", None)
        if error is not None:
            from repro.errors import ServerFailed

            if isinstance(error, ServerFailed) and hasattr(target, "index"):
                self.suspected.add(target.index)
            raise error
        return response

    # ------------------------------------------------------------------
    # hardened RPC: deadlines, bounded backoff, failover
    # ------------------------------------------------------------------
    @staticmethod
    def _idempotent(request) -> bool:
        """May this request be safely delivered more than once?

        Plain reads and in-place writes are idempotent (same bytes to
        the same place); so are mirror resolves and fsyncs.  Parity
        reads are idempotent only when they do not carry a lock
        acquisition, and everything that mutates protocol state (lock
        messages, parity writes with their release, overflow appends —
        a second append would allocate a second slot) must never be
        retried blind.
        """
        if type(request) in (msg.ReadReq, msg.WriteReq,
                             msg.MirrorResolveReq, msg.FsyncReq):
            return True
        if type(request) is msg.ParityReadReq:
            return not request.lock
        return False

    def _rpc_attempt(self, target, request,
                     ) -> Generator[Event, Any,
                                    Tuple[Any, Optional[Exception]]]:
        """One send + reply wait as a spawnable process.

        Never raises: the hardened path races this against a deadline,
        and an abandoned attempt that fails later must not poison the
        run with an unobserved event failure.
        """
        try:
            wire = request.wire_size()
            if wire > msg.HEADER and not target.failed:
                yield from stream(self.env, self.node.nic, target.node.nic,
                                  wire, self.metrics, cpu=target.node.cpu,
                                  cpu_at="dst")
            else:
                yield from transfer(self.env, self.node.nic, target.node.nic,
                                    wire, self.metrics)
            done = self.env.event()
            target.inbox.put((request, self.node.nic, done))
            response = yield done
        except ReproError as exc:
            return (None, exc)
        error = getattr(response, "error", None)
        if error is not None:
            return (None, error)
        return (response, None)

    def _rpc_hardened(self, target, request, config,
                      ) -> Generator[Event, Any, Any]:
        """RPC with a per-request deadline and bounded retry.

        Timeouts surface as :class:`~repro.errors.RpcTimeout` — a
        :class:`ServerFailed` — so an unresponsive server rides the
        same failover machinery as a crashed one: it joins
        ``self.suspected``, reads reconstruct around it through the
        scheme's degraded path, and tolerant writes record a degraded
        write instead of blocking forever.  Suspected servers fail
        fast without touching the wire; the suspicion is cleared only
        by a rebuild, so a restarted-but-stale server is quarantined
        until recovery has made it consistent.
        """
        if target.index in self.suspected:
            self.metrics.add("client.failfast_rpcs")
            raise ServerFailed(f"iod{target.index} suspected")
        retries = config.rpc_retries if self._idempotent(request) else 0
        attempt = 0
        while True:
            proc = self.env.process(self._rpc_attempt(target, request),
                                    name=f"client{self.index}.rpc")
            deadline = self.env.timeout(config.rpc_timeout)
            yield self.env.any_of([proc, deadline])
            if proc.triggered:
                response, error = proc.value
                if error is None:
                    return response
                if isinstance(error, ServerFailed):
                    self.suspected.add(target.index)
                raise error
            # Deadline hit: the attempt is abandoned (a late reply is
            # consumed by the guarded process and discarded).
            self.metrics.add("client.rpc_timeouts")
            if attempt >= retries:
                self.suspected.add(target.index)
                raise RpcTimeout(
                    f"iod{target.index} did not answer "
                    f"{type(request).__name__} within "
                    f"{config.rpc_timeout:g}s "
                    f"({attempt + 1} attempt(s))")
            backoff = min(config.rpc_backoff_cap,
                          config.rpc_backoff_base * (2 ** attempt))
            yield self.env.timeout(
                backoff + self._retry_rng.uniform(0.0, backoff))
            attempt += 1

    def parallel(self, gens: List) -> Generator[Event, Any, List[Any]]:
        """Run generators concurrently; fail fast on the first error."""
        procs = [self.env.process(g) for g in gens]
        values = yield self.env.all_of(procs)
        return values

    def try_parallel(self, gens: List,
                     ) -> Generator[Event, Any, List[Tuple[Any, Optional[Exception]]]]:
        """Run generators concurrently, collecting per-item outcomes.

        Returns ``(value, None)`` or ``(None, error)`` per generator, in
        order.  Needed by degraded reads, which must learn *which* server
        failed rather than aborting wholesale.
        """

        def guard(gen):
            try:
                value = yield from gen
            except ReproError as exc:
                return (None, exc)
            return (value, None)

        procs = [self.env.process(guard(g)) for g in gens]
        outcomes = yield self.env.all_of(procs)
        return outcomes

    # ------------------------------------------------------------------
    # per-server request coalescing
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_key(target, request) -> Optional[tuple]:
        """Coalescing identity of a request, or ``None`` if unmergeable.

        Only plain data/redundancy reads and writes merge; parity
        messages carry lock protocol and overflow appends carry range
        tables, so both always travel alone.
        """
        if type(request) is msg.ReadReq:
            return (id(target), msg.ReadReq, request.file, request.kind)
        if type(request) is msg.WriteReq:
            return (id(target), msg.WriteReq, request.file, request.kind,
                    request.invalidate)
        return None

    def _coalesce(self, pairs: Sequence[Tuple[Any, Any]],
                  ) -> List[Tuple[Any, Any, List[int]]]:
        """Plan vectored messages for ``(target, request)`` pairs.

        Adjacent fragments (``prev.offset + prev.length == next.offset``)
        of the same server/file/kind are merged into one request with one
        header and one payload stream.  Returns ``(target, request,
        fragment_indices)`` triples in first-fragment order; a run of one
        keeps its original request untouched.
        """
        runs: List[List[int]] = []
        open_runs: Dict[tuple, int] = {}  # merge key -> index into runs
        ends: Dict[tuple, int] = {}       # merge key -> current end offset
        for i, (target, request) in enumerate(pairs):
            key = self._merge_key(target, request)
            if key is not None and open_runs.get(key) is not None \
                    and ends[key] == request.offset:
                runs[open_runs[key]].append(i)
            else:
                if key is not None:
                    open_runs[key] = len(runs)
                runs.append([i])
            if key is not None:
                length = (request.length if type(request) is msg.ReadReq
                          else request.payload.length)
                ends[key] = request.offset + length
        plan: List[Tuple[Any, Any, List[int]]] = []
        for indices in runs:
            target, first = pairs[indices[0]]
            if len(indices) == 1:
                plan.append((target, first, indices))
                continue
            fragments = [pairs[i][1] for i in indices]
            if type(first) is msg.ReadReq:
                merged = msg.ReadReq(
                    first.file, kind=first.kind, offset=first.offset,
                    length=sum(f.length for f in fragments), xid=first.xid)
            else:
                total = sum(f.payload.length for f in fragments)
                # One merged wire message per run: the flattening here IS
                # the coalescing win (k fragments -> one header).
                payload = Payload.assemble(total, [  # csar-lint: disable=CSAR012
                    (f.offset - first.offset, f.payload) for f in fragments])
                mirror_invalidate: tuple = ()
                for f in fragments:
                    mirror_invalidate += f.mirror_invalidate
                merged = msg.WriteReq(
                    first.file, kind=first.kind, offset=first.offset,
                    payload=payload, invalidate=first.invalidate,
                    mirror_invalidate=mirror_invalidate, xid=first.xid)
            plan.append((target, merged, indices))
        return plan

    def rpc_coalesced(self, pairs: Sequence[Tuple[Any, Any]],
                      ) -> Generator[Event, Any,
                                     List[Tuple[Any, Optional[Exception]]]]:
        """Issue ``(target, request)`` pairs, merging adjacent fragments.

        The vectored companion of :meth:`try_parallel`: per-server runs of
        adjacent same-kind fragments travel as one message (saving a
        header and a round-trip each), and the merged reply is split back
        into per-fragment responses with zero-copy slices.  Returns
        ``(response, error)`` per input pair, in order.  With
        ``config.coalescing`` off every request travels alone.
        """
        if not getattr(self.scheme.config, "coalescing", True) \
                or len(pairs) < 2:
            plan = [(t, r, [i]) for i, (t, r) in enumerate(pairs)]
        else:
            plan = self._coalesce(pairs)
            saved = len(pairs) - len(plan)
            if saved:
                self.metrics.add("client.coalesced_fragments", saved)
                self.metrics.add("client.coalesced_header_bytes",
                                 saved * msg.HEADER)
        merged_outcomes = yield from self.try_parallel(
            [self.rpc(target, request) for target, request, _ in plan])
        outcomes: List[Any] = [None] * len(pairs)
        for (target, request, indices), (response, error) in zip(
                plan, merged_outcomes):
            if error is not None:
                for i in indices:
                    outcomes[i] = (None, error)
            elif len(indices) == 1:
                outcomes[indices[0]] = (response, None)
            elif type(request) is msg.ReadReq:
                # Split the merged reply; overflow accounting (a
                # whole-message property) rides on the first fragment.
                cursor = 0
                for slot, i in enumerate(indices):
                    length = pairs[i][1].length
                    outcomes[i] = (msg.Response(
                        payload=response.payload.slice(cursor,
                                                       cursor + length),
                        overflow_bytes=(response.overflow_bytes
                                        if slot == 0 else 0)), None)
                    cursor += length
            else:
                for i in indices:
                    outcomes[i] = (msg.Response(), None)
        return outcomes

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------
    def create(self, name: str,
               scheme: Optional[str] = None) -> Generator[Event, Any, FileMeta]:
        """Create a file, optionally overriding the deployment's
        redundancy scheme for it (e.g. raid0 scratch next to hybrid
        checkpoints)."""
        response = yield from self.rpc(self.manager,
                                       msg.MgrCreate(name, scheme=scheme))
        self._handles[name] = response.meta
        return response.meta

    def scheme_for(self, meta: FileMeta):
        """The strategy object serving this file's scheme."""
        if meta.scheme == self.scheme.name:
            return self.scheme
        cached = self._scheme_cache.get(meta.scheme)
        if cached is None:
            from repro.redundancy.base import make_scheme

            cached = make_scheme(meta.scheme, self.scheme.config)
            self._scheme_cache[meta.scheme] = cached
        return cached

    def open(self, name: str) -> Generator[Event, Any, FileMeta]:
        meta = self._handles.get(name)
        if meta is None:
            response = yield from self.rpc(self.manager, msg.MgrOpen(name))
            meta = self._handles[name] = response.meta
        return meta

    def _open_guarded(self, name: str,
                      ) -> Generator[Event, Any,
                                     Tuple[Optional[FileMeta],
                                           Optional[Exception]]]:
        """:meth:`open` as a spawnable process: returns ``(meta, error)``
        instead of raising, so a pipelined open can run concurrently with
        work that must not be torn down by its failure."""
        try:
            meta = yield from self.open(name)
        except ReproError as exc:
            return (None, exc)
        return (meta, None)

    def unlink(self, name: str) -> Generator[Event, Any, None]:
        yield from self.rpc(self.manager, msg.MgrUnlink(name))
        self._handles.pop(name, None)

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------
    def write(self, name: str, offset: int,
              payload: Payload) -> Generator[Event, Any, None]:
        # First touch: the manager open overlaps the client-side entry
        # costs (trace record, kernel-module crossing).  The write itself
        # cannot speculate past the open — placement depends on the
        # file's scheme, which only the open reveals.
        meta = self._handles.get(name)
        open_proc = None if meta is not None else self.env.process(
            self._open_guarded(name))
        self.env.emit("client.op", self.index, "write", name, offset,
                      payload.length)
        if self.via_kernel_module:
            yield from self.node.cpu.kernel_module_crossing()
        if open_proc is not None:
            meta, error = yield open_proc
            if error is not None:
                raise error
        # Register with the cluster write ledger so an online rebuild
        # sees this write: re-copy the file after it settles, and hold
        # the rebuilt server offline until in-flight writes drain.
        token = self.manager.write_ledger.begin(name)
        try:
            yield from self.scheme_for(meta).write(self, meta, offset,
                                                   payload)
        finally:
            self.manager.write_ledger.end(token)
        end = offset + payload.length
        if end > meta.size:
            meta.size = end
        self.metrics.add("client.bytes_written", payload.length)

    def read(self, name: str, offset: int,
             length: int) -> Generator[Event, Any, Payload]:
        self.env.emit("client.op", self.index, "read", name, offset, length)
        if self.via_kernel_module:
            yield from self.node.cpu.kernel_module_crossing()
        meta = self._handles.get(name)
        if meta is None:
            payload = yield from self._speculative_read(name, offset, length)
        else:
            payload = yield from self.scheme_for(meta).read(self, meta,
                                                            offset, length)
        self.metrics.add("client.bytes_read", length)
        return payload

    def _speculative_read(self, name: str, offset: int, length: int,
                          ) -> Generator[Event, Any, Payload]:
        """First-touch read: pipeline the manager open with the data RPCs.

        Normal-operation reads are scheme-independent — redundancy is
        never read (Section 4) and striping geometry is deployment-global
        — so the striped fetches may race the open.  Server-side reads
        leave no state behind (:meth:`LocalFS.read` never creates files),
        so a failed open leaks nothing.  On any fetch failure the real
        meta is awaited and the read retried through the scheme, which
        knows how to reconstruct.
        """
        open_proc = self.env.process(self._open_guarded(name))
        ranges = self.manager.layout.map_range(offset, length)

        def fetch(sr):
            if sr.server in self.suspected:
                self.metrics.add("client.failfast_reads")
                raise ServerFailed(f"iod{sr.server} suspected")
            response = yield from self.rpc(
                self.iods[sr.server],
                msg.ReadReq(name, kind="data", offset=sr.local_start,
                            length=sr.length, xid=self.next_xid()))
            return response

        outcomes = yield from self.try_parallel([fetch(sr) for sr in ranges])
        meta, open_error = yield open_proc
        if open_error is not None:
            raise open_error
        parts: List[Tuple[int, Payload]] = []
        for sr, (response, error) in zip(ranges, outcomes):
            if error is not None:
                if not isinstance(error, ServerFailed):
                    raise error
                return (yield from self.scheme_for(meta).read(
                    self, meta, offset, length))
            for p in sr.pieces:
                local = p.local_offset - sr.local_start
                parts.append((p.logical_offset - offset,
                              response.payload.slice(local,
                                                     local + p.length)))
        return Payload.assemble(length, parts)

    def fsync(self, name: str) -> Generator[Event, Any, None]:
        """Flush the file's local files on every I/O server."""
        meta = yield from self.open(name)
        del meta
        yield from self.parallel([
            self.rpc(iod, msg.FsyncReq(name)) for iod in self.iods])
