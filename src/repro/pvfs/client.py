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
from functools import partial
from operator import itemgetter
from random import Random
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import ReproError, RpcTimeout, ServerFailed
from repro.hw.link import send
from repro.hw.node import Node
from repro.pvfs import messages as msg
from repro.pvfs.manager import FileMeta, Manager
from repro.sim.engine import Environment, Event, Process
from repro.storage.payload import Payload, Segment

#: exponential-backoff base delay between RPC retries (sim seconds):
#: retry ``k`` waits ``RPC_BACKOFF_BASE * 2**(k-1)`` capped at
#: ``RPC_BACKOFF_CAP``, plus seeded jitter in [0, backoff) to break
#: retry lockstep
RPC_BACKOFF_BASE = 0.002
RPC_BACKOFF_CAP = 0.1


class PVFSClient:
    """One application process's file-system endpoint."""

    def __init__(self, index: int, node: Node, iods: Sequence,
                 manager: Manager, scheme) -> None:
        self.env = node.env
        self.index = index
        self.node = node
        self.iods = list(iods)
        self.manager = manager
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
            scheme.config.rpc_jitter_seed * 1000003 + index)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def next_xid(self) -> int:
        return next(self._xids)

    def rpc(self, target: msg.Server, request) -> "_Call":
        """Send ``request`` to an iod or the manager: ``yield from`` the
        call for its response, or hand it to :meth:`parallel` /
        :meth:`try_parallel` as one item.

        Payload-bearing requests stream: the server's per-byte data
        handling overlaps the transfer, as over a real socket.  The
        server-reported error is raised; a ``ServerFailed`` makes the
        client suspect the server.  With ``config.rpc_timeout`` set every
        attempt has a deadline, and a timeout is an
        :class:`~repro.errors.RpcTimeout` — a ``ServerFailed`` — so an
        unresponsive server rides the failover of a crashed one (reads
        reconstruct, tolerant writes go degraded).  Only idempotent
        requests are retried, after a bounded, jittered backoff, and a
        suspected server fails fast without touching the wire until a
        rebuild clears the suspicion.
        """
        config = self.scheme.config
        return _Call(self, target, request, config.rpc_timeout,
                     config.rpc_retries if self._idempotent(request) else 0)

    @staticmethod
    def _idempotent(request) -> bool:
        """May this request be safely delivered more than once?

        Plain reads and in-place writes are idempotent (same bytes to
        the same place); so are mirror resolves and fsyncs.  Everything
        that mutates protocol state (parity reads with their lock
        acquisition, parity writes with their release, overflow appends
        — a second append would allocate a second slot) must never be
        retried blind.
        """
        return type(request) in (msg.ReadReq, msg.WriteReq,
                                 msg.MirrorResolveReq, msg.FsyncReq)

    def parallel(self, items: List) -> Generator[Event, Any, List[Any]]:
        """Run RPCs and generators concurrently; fail fast on the first
        error."""
        return (yield _Join(self.env, items, collect=False).done)

    def try_parallel(self, items: List,
                     ) -> Generator[Event, Any, List[Tuple[Any, Optional[Exception]]]]:
        """Run RPCs and generators concurrently, collecting per-item
        outcomes.

        Returns ``(value, None)`` or ``(None, error)`` per item, in
        order.  Needed by degraded reads, which must learn *which* server
        failed rather than aborting wholesale.
        """
        return (yield _Join(self.env, items, collect=True).done)

    # ------------------------------------------------------------------
    # merging a server's adjacent reads
    # ------------------------------------------------------------------
    def rpc_coalesced(self, pairs: Sequence[Tuple[Any, msg.ReadReq]],
                      ) -> Generator[Event, Any,
                                     List[Tuple[Any, Optional[Exception]]]]:
        """Issue ``(target, ReadReq)`` pairs, merging adjacent fragments.

        The vectored companion of :meth:`try_parallel`: a run of reads
        of one server, file and kind in which each fragment starts where
        the previous one ended travels as one message (saving a header
        and a round-trip each), in first-fragment order, and the merged
        reply is split back into per-fragment responses with zero-copy
        slices.  Returns ``(response, error)`` per input pair, in order.
        """
        runs: List[List[int]] = []
        open_runs: Dict[tuple, Tuple[List[int], int]] = {}  # key -> run, end
        for i, (target, request) in enumerate(pairs):
            key = (id(target), request.file, request.kind)
            run, end = open_runs.get(key, (None, None))
            if end != request.offset:
                run = []
                runs.append(run)
            run.append(i)
            open_runs[key] = run, request.offset + request.length
        plan = []
        for run in runs:
            target, first = pairs[run[0]]
            if len(run) > 1:
                first = msg.ReadReq(
                    first.file, kind=first.kind, offset=first.offset,
                    length=sum(pairs[i][1].length for i in run))
            plan.append((target, first, run))
        saved = len(pairs) - len(plan)
        if saved:
            self.env.metrics.add("client.coalesced_fragments", saved)
            self.env.metrics.add("client.coalesced_header_bytes",
                                 saved * msg.HEADER)
        merged_outcomes = yield from self.try_parallel(
            [self.rpc(target, request) for target, request, _ in plan])
        outcomes: List[Any] = [None] * len(pairs)
        for (_target, _request, run), (response, error) in zip(
                plan, merged_outcomes):
            if error is not None or len(run) == 1:
                for i in run:
                    outcomes[i] = (response, error)
                continue
            cursor = 0
            for i in run:
                length = pairs[i][1].length
                outcomes[i] = (msg.Response(payload=response.payload.slice(
                    cursor, cursor + length)), None)
                cursor += length
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

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------
    def write(self, name: str, offset: int,
              payload: Payload) -> Generator[Event, Any, None]:
        # First touch: the manager open overlaps the client-side entry
        # cost (the kernel-module crossing).  The write itself cannot
        # speculate past the open — placement depends on the file's
        # scheme, which only the open reveals.
        meta = self._handles.get(name)
        if meta is None:
            opening = self.rpc(self.manager, msg.MgrOpen(name))
            opened = opening.start()
        if self.via_kernel_module:
            yield from self.node.cpu.kernel_module_crossing()
        if meta is None:
            meta = self._handles[name] = opening.settle((yield opened)).meta
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
        self.env.metrics.add("client.bytes_written", payload.length)

    def read(self, name: str, offset: int,
             length: int) -> Generator[Event, Any, Payload]:
        if self.via_kernel_module:
            yield from self.node.cpu.kernel_module_crossing()
        meta = self._handles.get(name)
        if meta is None:
            payload = yield from self._speculative_read(name, offset, length)
        else:
            payload = yield from self.scheme_for(meta).read(self, meta,
                                                            offset, length)
        self.env.metrics.add("client.bytes_read", length)
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
        opening = self.rpc(self.manager, msg.MgrOpen(name))
        opened = opening.start()
        ranges = self.manager.layout.map_range(offset, length)
        outcomes = yield from self.read_shares(name, ranges)
        meta = self._handles[name] = opening.settle((yield opened)).meta
        for _response, error in outcomes:
            if error is not None:
                if not isinstance(error, ServerFailed):
                    raise error
                return (yield from self.scheme_for(meta).read(
                    self, meta, offset, length))
        return self.assemble(offset, length, ranges,
                             [response.payload for response, _ in outcomes])

    def read_shares(self, name: str, ranges: Sequence,
                    ) -> Generator[Event, Any,
                                   List[Tuple[Any, Optional[Exception]]]]:
        """Read each server's share of a striped range concurrently.

        Returns ``(response, error)`` per :class:`ServerRange`, in order.
        A server this client suspects fails fast: its share is a
        ``ServerFailed`` at once, and no message is sent.
        """
        skip = [sr.server in self.suspected for sr in ranges]
        if any(skip):
            self.env.metrics.add("client.failfast_reads", sum(skip))
        outcomes = iter((yield from self.try_parallel([
            self.rpc(self.iods[sr.server], msg.ReadReq(
                name, kind="data", offset=sr.local_start, length=sr.length))
            for sr, failed in zip(ranges, skip) if not failed])))
        return [(None, ServerFailed(f"iod{sr.server} suspected")) if failed
                else next(outcomes) for sr, failed in zip(ranges, skip)]

    @staticmethod
    def assemble(offset: int, length: int, ranges: Sequence,
                 shares: Sequence[Payload]) -> Payload:
        """The logical bytes ``[offset, offset + length)`` from each
        server's share (a payload over its ``ServerRange``): the shares'
        views placed at their logical offsets (:meth:`Payload.place`),
        sorted once."""
        segments: List[Segment] = []
        virtual = False
        for sr, share in zip(ranges, shares):
            if share.length < sr.length:
                raise ValueError(
                    f"share of {share.length} bytes shorter than its "
                    f"range of {sr.length}")
            virtual = virtual or share.is_virtual
            if not virtual:
                start = sr.local_start
                segments += share.place([
                    (p.local_offset - start, p.length,
                     p.logical_offset - offset) for p in sr.pieces])
        if virtual:
            return Payload.virtual(length)
        segments.sort(key=itemgetter(0))
        return Payload.from_segments(length, segments)

    def fsync(self, name: str) -> Generator[Event, Any, None]:
        """Flush the file's local files on every I/O server."""
        yield from self.open(name)
        yield from self.parallel([
            self.rpc(iod, msg.FsyncReq(name)) for iod in self.iods])


class _Call:
    """One RPC: a chain of continuations from request to reply.

    :meth:`start` sends the request (:func:`~repro.hw.link.send`), whose
    arrival hands it to the target's ``deliver``; the server's reply
    completes the returned event, which always succeeds — with the
    response, or one carrying the client-side error that :meth:`settle`
    raises.  Under a deadline a bare continuation abandons an attempt
    (still delivered and handled; its late reply is discarded) and
    retries an idempotent request after backoff.
    """

    __slots__ = ("client", "target", "request", "timeout", "retries",
                 "done", "attempt")

    def __init__(self, client: PVFSClient, target: msg.Server, request,
                 timeout: Optional[float], retries: int) -> None:
        self.client = client
        self.target = target
        self.request = request
        self.timeout = timeout
        self.retries = retries

    def __iter__(self) -> Generator[Event, Any, Any]:
        return self.settle((yield self.start()))

    def start(self) -> Event:
        """Send the first attempt; raises ``ServerFailed`` instead when
        the target is suspected under a deadline."""
        client = self.client
        if self.timeout is not None and self.target.index in client.suspected:
            client.env.metrics.add("client.failfast_rpcs")
            raise ServerFailed(f"{self.target.node.name} suspected")
        self.done = Event(client.env)
        self.attempt = 0
        self._send()
        return self.done

    def settle(self, response) -> Any:
        """The response, or its error raised (suspecting the server on a
        ``ServerFailed``)."""
        error = response.error
        if error is None:
            return response
        if isinstance(error, ServerFailed) and self.target.index is not None:
            self.client.suspected.add(self.target.index)
        raise error

    def _send(self) -> None:
        client, target, request = self.client, self.target, self.request
        wire = request.wire_size()
        envelope = (request, client.node.nic,
                    partial(self._replied, self.attempt))
        send(client.env, client.node.nic, target.node.nic, wire,
             partial(target.deliver, envelope),
             cpu=(target.node.cpu if wire > msg.HEADER and not target.failed
                  else None))
        if self.timeout is not None:
            client.env.call_later(self.timeout,
                                  partial(self._expired, self.attempt))

    def _replied(self, attempt: int, response) -> None:
        if attempt == self.attempt:  # else abandoned: discard the reply
            self.done.succeed(response)

    def _expired(self, attempt: int) -> None:
        if attempt != self.attempt or self.done.triggered:
            return  # answered in time
        client = self.client
        client.env.metrics.add("client.rpc_timeouts")
        self.attempt = attempt = attempt + 1  # abandon this attempt
        if attempt > self.retries:
            self.done.succeed(msg.Response(error=RpcTimeout(
                f"{self.target.node.name} did not answer "
                f"{type(self.request).__name__} within {self.timeout:g}s "
                f"({attempt} attempt(s))")))
            return
        backoff = min(RPC_BACKOFF_CAP,
                      RPC_BACKOFF_BASE * (2 ** (attempt - 1)))
        client.env.call_later(backoff + client._retry_rng.uniform(
            0.0, backoff), self._send)


class _Join:
    """Concurrent items joined by a count of outcomes still to come.

    An RPC (:class:`_Call`) is started as a chain and its reply counted
    in; any other generator runs as a process.  With ``collect``,
    ``done`` carries ``(value, error)`` per item, in order — a
    :class:`~repro.errors.ReproError` is an outcome, anything else fails
    the join.  Without, ``done`` carries the values and fails on the
    first error, as ``AllOf`` does; later failures are defused.
    """

    __slots__ = ("done", "outcomes", "left", "collect")

    def __init__(self, env: Environment, items: List, collect: bool) -> None:
        self.done = Event(env)
        self.outcomes: List[Any] = [None] * len(items)
        self.left = len(items)
        self.collect = collect
        if not items:
            self.done.succeed([])
        for i, item in enumerate(items):
            if type(item) is _Call:
                try:
                    item.start().callbacks.append(
                        partial(self._replied, i, item))
                except ServerFailed as exc:
                    self._count(i, None, exc)
            else:
                Process(env, item).callbacks.append(partial(self._ended, i))

    def _replied(self, i: int, call: _Call, reply: Event) -> None:
        try:
            value = call.settle(reply.value)
        except Exception as exc:
            self._count(i, None, exc)
        else:
            self._count(i, value, None)

    def _ended(self, i: int, proc: Process) -> None:
        if proc.ok:
            self._count(i, proc.value, None)
        else:
            proc.defused()
            self._count(i, None, proc.value)

    def _count(self, i: int, value: Any, error: Optional[BaseException],
               ) -> None:
        if self.done.triggered:
            return  # the join has failed already
        if error is not None and not (self.collect
                                      and isinstance(error, ReproError)):
            self.done.fail(error)
            return
        self.outcomes[i] = (value, error) if self.collect else value
        self.left -= 1
        if not self.left:
            self.done.succeed(self.outcomes)
