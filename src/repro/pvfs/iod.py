"""The I/O daemon (iod): one storage server of the CSAR file system.

Per PVFS file ``f`` an iod keeps up to four local files:

* ``f.data`` — the PVFS-identical striped data;
* ``f.red``  — redundancy: the mirror copy (RAID1) or parity blocks (RAID5
  and Hybrid);
* ``f.ovf``  — Hybrid overflow region (appended partial-stripe data);
* ``f.ovfm`` — Hybrid overflow *mirror*, holding copies of the previous
  server's overflow appends.

Every request a client delivers is handled in its own simulation process,
so independent requests proceed concurrently while the parity-lock table
serializes conflicting read-modify-writes (Section 5.1).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import DiskFault, ProtocolError, ServerFailed
from repro.hw.link import send
from repro.hw.node import Node
from repro.pvfs import messages as msg
from repro.redundancy.locks import ParityLockTable
from repro.redundancy.overflow import OverflowRead, OverflowTable
from repro.sim.engine import Event, Interrupt, Process
from repro.storage.localfs import LocalFS
from repro.storage.payload import Payload
from repro.util.intervals import Extent


def data_file(name: str) -> str:
    return f"{name}.data"


def red_file(name: str) -> str:
    return f"{name}.red"


def ovf_file(name: str) -> str:
    return f"{name}.ovf"


def ovfm_file(name: str, origin: int) -> str:
    # One mirror file per origin server: two origins' slot offsets would
    # otherwise collide in a shared file.
    return f"{name}.ovfm{origin}"


class IOD(msg.Server):
    """One I/O daemon bound to one cluster node."""

    def __init__(self, index: int, node: Node, stripe_unit: int,
                 content_mode: bool = True,
                 write_buffering: bool = True, locking: bool = True) -> None:
        self.env = node.env
        self.index = index
        self.node = node
        self.stripe_unit = stripe_unit
        self.fs = LocalFS(node, content_mode=content_mode,
                          write_buffering=write_buffering)
        self.fs.owner = index
        self.locks = ParityLockTable(node.env, enabled=locking)
        #: handler processes serving requests, then their replies on the
        #: wire, in arrival order; a crash must error these out rather
        #: than let them run to a success reply
        self._inflight: Dict[Any, None] = {}
        #: Hybrid overflow tables: file -> table
        self.overflow: Dict[str, OverflowTable] = {}
        #: overflow mirror tables: (file, origin server) -> table
        self.overflow_mirror: Dict[Tuple[str, int], OverflowTable] = {}
        self.failed = False
        #: an online rebuild is staging this server's state; an injected
        #: restart must not flip ``failed`` back mid-rebuild
        self.rebuilding = False

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Fail-stop this server; requests are rejected until repair.

        A crash must not wedge the cluster: every in-flight handler or
        reply is errored out (its client sees the connection drop as
        :class:`ServerFailed` instead of waiting forever), and the
        parity-lock table is crashed — held locks are forgotten with
        the sanitizer notified, queued waiters are woken by their
        handler's interrupt and cancel themselves — so no other
        client's read-modify-write can stay stuck in the FIFO queue
        behind a dead lock holder.
        """
        self.failed = True
        active = self.env.active_process
        for proc in list(self._inflight):
            # The crash may be triggered synchronously from inside one
            # of our own handlers (disk error, torn write, an injected
            # protocol-step fault): that handler aborts itself by
            # raising, and a process cannot interrupt itself anyway.
            if proc is not active and proc.is_alive:
                proc.interrupt(ServerFailed(f"iod{self.index} crashed"))
        self.locks.crash()

    def wipe(self) -> None:
        """Forget the disk: every local file and overflow table."""
        self.fs.files.clear()
        self.overflow.clear()
        self.overflow_mirror.clear()

    def repair(self, wipe: bool = True) -> None:
        """Bring the server back, optionally with a fresh (empty) disk."""
        if wipe:
            self.wipe()
        self.failed = False

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def deliver(self, envelope: msg.Envelope) -> None:
        """Take one request off the wire: a handler process serves it, so
        independent requests proceed concurrently."""
        self._inflight[Process(self.env, self._handle(envelope),
                           name=f"iod{self.index}.handler")] = None

    def _handle(self, envelope: msg.Envelope) -> Generator[Event, Any, None]:
        request, reply_nic, reply = envelope
        proc = self.env.active_process
        try:
            if self.failed:
                response = msg.Response(error=ServerFailed(
                    f"iod{self.index} is failed"))
            else:
                yield from self.node.cpu.request_processing()
                try:
                    response = yield from self._dispatch(request)
                except (ProtocolError, ValueError, ServerFailed) as exc:
                    response = msg.Response(error=exc)
                except DiskFault as exc:
                    # EIO is fatal (the injector panicked us already);
                    # the request that hit it reports the crash.
                    response = msg.Response(error=ServerFailed(str(exc)))
        except Interrupt:
            response = None
        finally:
            del self._inflight[proc]
        if response is None:
            # The daemon crashed under this request: the client sees the
            # connection drop immediately rather than waiting forever.
            reply(msg.Response(error=ServerFailed(
                f"iod{self.index} crashed mid-request")))
            return
        nbytes = (request.reply_size() if response.error is None
                  else msg.HEADER)
        self._inflight[_Reply(self, reply_nic, reply, response, nbytes)] = None

    def _dispatch(self, request: msg.Request,
                  ) -> Generator[Event, Any, msg.Response]:
        if isinstance(request, msg.ReadReq):
            return (yield from self._read(request))
        if isinstance(request, msg.WriteReq):
            return (yield from self._write(request))
        if isinstance(request, msg.ParityReadReq):
            # The group lock _parity_read takes outlives this handler: a
            # later ParityWriteReq(unlock=True) releases it.
            return (yield from self._parity_read(request))
        if isinstance(request, msg.ParityWriteReq):
            return (yield from self._parity_write(request))
        if isinstance(request, msg.OverflowWriteReq):
            return (yield from self._overflow_write(request))
        if isinstance(request, msg.MirrorResolveReq):
            return (yield from self._mirror_resolve(request))
        if isinstance(request, msg.FsyncReq):
            return (yield from self._fsync(request))
        if isinstance(request, msg.CompactOverflowReq):
            return (yield from self._compact_overflow(request))
        raise ProtocolError(f"iod{self.index}: unknown request {request!r}")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    _KIND_FILES = {
        "data": data_file, "red": red_file, "ovf": ovf_file,
    }

    def _local_name(self, request: msg.Request, kind: str) -> str:
        try:
            return self._KIND_FILES[kind](request.file)
        except KeyError:
            raise ProtocolError(f"unknown file kind {kind!r}") from None

    def _read(self, request: msg.ReadReq,
              ) -> Generator[Event, Any, msg.Response]:
        kind = "data" if request.kind == "inplace" else request.kind
        name = self._local_name(request, kind)
        start, end = request.offset, request.offset + request.length
        table = self.overflow.get(request.file)
        # "inplace" bypasses overflow resolution: parity always covers the
        # in-place data, so reconstruction must read it raw.
        if request.kind != "data" or table is None \
                or not table.covered.overlap(start, end):
            payload = yield from self.fs.read(name, start, request.length)
            return msg.Response(payload=payload)
        payload, reads = yield from self.read_latest(
            table, ovf_file(request.file), start, end, data=name)
        self.env.metrics.add("hybrid.overflow_read_bytes",
                             sum(item.length for item in reads))
        return msg.Response(payload=payload)

    def _write(self, request: msg.WriteReq,
               ) -> Generator[Event, Any, msg.Response]:
        name = self._local_name(request, request.kind)
        yield from self.fs.write(name, request.offset, request.payload)
        if request.invalidate and request.kind == "data":
            table = self.overflow.get(request.file)
            if table is not None:
                table.invalidate(request.offset,
                                 request.offset + request.payload.length)
        for origin, start, end in request.mirror_invalidate:
            mtable = self.overflow_mirror.get((request.file, origin))
            if mtable is not None:
                mtable.invalidate(start, end)
        return msg.Response()

    def _parity_read(self, request: msg.ParityReadReq,
                     ) -> Generator[Event, Any, msg.Response]:
        # Section 5.1: the parity *read* acquires and the matching parity
        # *write* (a later message) releases — the lock rides the data
        # path across handler processes by design.
        yield from self.locks.acquire(
            request.file, request.group, request.xid)
        lo, hi = request.intra
        payload = yield from self.fs.read(red_file(request.file),
                                          request.local_offset + lo, hi - lo)
        return msg.Response(payload=payload)

    def _parity_write(self, request: msg.ParityWriteReq,
                      ) -> Generator[Event, Any, msg.Response]:
        lo, hi = request.intra
        if request.payload.length != hi - lo:
            raise ProtocolError("parity payload does not match intra range")
        yield from self.fs.write(red_file(request.file),
                                 request.local_offset + lo, request.payload)
        if request.unlock:
            self.locks.release(request.file, request.group, request.xid)
        return msg.Response()

    def _overflow_write(self, request: msg.OverflowWriteReq,
                        ) -> Generator[Event, Any, msg.Response]:
        expected = sum(end - start for start, end in request.ranges)
        if expected != request.payload.length:
            raise ProtocolError("overflow ranges do not match payload size")
        table, name = self.overflow_region(
            request.file, request.origin if request.mirror else None)
        # Named crash points for the fault matrix: a failure here leaves
        # the overflow append torn between the table and its mirror.
        self.env.emit("iod.overflow.before_append", self.index)
        if self.failed:
            raise ServerFailed(f"iod{self.index} crashed")
        cursor = 0
        parts = []
        for start, end in request.ranges:
            for piece in table.append(start, end):
                parts.append((piece.ovf_offset, request.payload.slice(
                    cursor + piece.local_start - start,
                    cursor + piece.local_end - start)))
            cursor += end - start
        table.inflight += 1
        try:
            # One vectored local write: the scattered append slots charge
            # the cache in a single pass and the slices land without
            # flattening.
            yield from self.fs.write_gather(name, parts)
        finally:
            self._settle(table)
        self.env.emit("iod.overflow.after_append", self.index)
        if self.failed:
            raise ServerFailed(f"iod{self.index} crashed")
        self.env.metrics.add("hybrid.overflow_write_bytes", cursor)
        return msg.Response()

    def _mirror_resolve(self, request: msg.MirrorResolveReq,
                        ) -> Generator[Event, Any, msg.Response]:
        start = request.offset
        payload, reads = yield from self.read_latest(
            self.overflow_mirror.get((request.file, request.origin)),
            ovfm_file(request.file, request.origin),
            start, start + request.length)
        return msg.Response(payload=payload, ranges=tuple(
            (item.local_start, item.local_start + item.length)
            for item in reads))

    def _fsync(self, request: msg.FsyncReq,
               ) -> Generator[Event, Any, msg.Response]:
        for name in self._local_files(request.file):
            yield from self.fs.fsync(name)
        return msg.Response()

    def _local_files(self, file: str) -> list:
        """Every existing local file backing one PVFS file."""
        prefixes = (data_file(file), red_file(file), ovf_file(file),
                    f"{file}.ovfm")
        return [name for name in self.fs.files
                if name in prefixes[:3] or name.startswith(prefixes[3])]

    def _compact_overflow(self, request: msg.CompactOverflowReq,
                          ) -> Generator[Event, Any, msg.Response]:
        origins = [None] if request.file in self.overflow else []
        # A snapshot: a first mirror append for another file may add a
        # table while a cold read here waits on the disk.
        origins += [origin for fname, origin in list(self.overflow_mirror)
                    if fname == request.file]
        for origin in origins:
            yield from self._compact_one(request.file, origin)
        return msg.Response()

    def _compact_one(self, file: str, origin: Optional[int],
                     ) -> Generator[Event, Any, None]:
        """Rewrite one overflow region keeping only the live (latest)
        bytes.

        The rewrite is built off to the side, a fresh table and local
        file, and swapped in only once its writes have landed: until
        then every read resolves the old table against the old file.
        The live bytes are read when no append is in flight, so none
        has slots whose bytes have not landed yet; the swap waits until
        no read or append is in flight, and the rewrite starts over when
        an append or an invalidation changed the table meanwhile.
        """
        tables, key, name = self._region(file, origin)
        side = f"{name}.tmp"
        while True:
            table = tables[key]
            yield from self._quiesce(table)
            version = table.version
            live = []
            for ext in list(table.covered):
                content, _reads = yield from self.read_latest(
                    table, name, ext.start, ext.end)
                live.append((ext.start, content))
            self.fs.files.pop(side, None)
            rewrite = OverflowTable(table.block_size)
            for start, content in live:
                yield from self.replay(rewrite, side, start, content)
            yield from self._quiesce(table)
            if tables[key] is table and table.version == version:
                break
        tables[key] = rewrite
        compacted = self.fs.files.pop(side, None)
        if compacted is None:
            self.fs.files.pop(name, None)
        else:
            compacted.name = name
            self.fs.files[name] = compacted
        self.env.metrics.add("hybrid.compactions")

    def _quiesce(self, table: OverflowTable) -> Generator[Event, Any, None]:
        """Wait until no read or append is in flight on ``table``."""
        while table.inflight:
            if table.idle is None:
                table.idle = self.env.event()
            yield table.idle

    @staticmethod
    def _settle(table: OverflowTable) -> None:
        """One read or append on ``table`` is done."""
        table.inflight -= 1
        if not table.inflight and table.idle is not None:
            table.idle.succeed()
            table.idle = None

    # ------------------------------------------------------------------
    # the overflow region (Section 4): its tables, reads and rewrites
    # ------------------------------------------------------------------
    def overflow_region(self, file: str, origin: Optional[int] = None,
                        ) -> Tuple[OverflowTable, str]:
        """The table and local file of ``file``'s own overflow region, or
        of the mirror this server holds for server ``origin``; the table
        is created on first use."""
        tables, key, name = self._region(file, origin)
        table = tables.get(key)
        if table is None:
            table = tables[key] = OverflowTable(self.stripe_unit)
        return table, name

    def _region(self, file: str, origin: Optional[int],
                ) -> Tuple[Dict[Any, OverflowTable], Any, str]:
        """Where an overflow region's table is kept, under which key, and
        its local file."""
        if origin is None:
            return self.overflow, file, ovf_file(file)
        return self.overflow_mirror, (file, origin), ovfm_file(file, origin)

    def read_latest(self, table: Optional[OverflowTable], name: str,
                    start: int, end: int, data: Optional[str] = None,
                    ) -> Generator[Event, Any,
                                   Tuple[Payload, List[OverflowRead]]]:
        """The latest copy of ``[start, end)`` (Section 4).

        A byte ``table`` covers comes from its newest version in overflow
        file ``name``; any other byte (every byte, with no table) comes
        from the in-place file ``data``, or reads as zero with no
        ``data``.  Timed: the in-place gaps are read first, then the
        overflow pieces in data-file order, and the payload is assembled
        once (virtual in extent mode).  Returns it with the overflow
        pieces read.
        """
        if table is None:
            gaps, reads = [Extent(start, end)], []
        else:
            gaps, reads = table.resolve(start, end)
            table.inflight += 1
        parts = []
        try:
            if data is not None:
                for gap in gaps:
                    piece = yield from self.fs.read(data, gap.start,
                                                    gap.length)
                    parts.append((gap.start - start, piece))
            for item in reads:
                piece = yield from self.fs.read(name, item.ovf_offset,
                                                item.length)
                parts.append((item.local_start - start, piece))
        finally:
            if table is not None:
                self._settle(table)
        if not self.fs.content_mode:
            return Payload.virtual(end - start), reads
        return Payload.assemble(end - start, parts), reads

    def replay(self, table: OverflowTable, name: str, start: int,
               payload: Payload) -> Generator[Event, Any, None]:
        """Append ``payload`` to ``table`` as the newest version of its
        range from ``start``, and write each slot piece to overflow file
        ``name`` (one timed write per piece)."""
        pieces = table.append(start, start + payload.length)
        table.inflight += 1
        try:
            for piece in pieces:
                yield from self.fs.write(
                    name, piece.ovf_offset, payload.slice(
                        piece.local_start - start, piece.local_end - start))
        finally:
            self._settle(table)

    # ------------------------------------------------------------------
    # storage accounting (Table 2)
    # ------------------------------------------------------------------
    def storage_of(self, file: str) -> Dict[str, int]:
        """Local file sizes for one PVFS file."""
        out = {}
        for kind, maker in self._KIND_FILES.items():
            name = maker(file)
            out[kind] = self.fs.files[name].size if self.fs.exists(name) else 0
        out["ovfm"] = sum(
            f.size for name, f in self.fs.files.items()
            if name.startswith(f"{file}.ovfm"))
        return out


class _Reply:
    """A handler's answer on the wire, in ``IOD._inflight`` in the
    handler's place until the client has it.  A crash interrupts it as
    it would the handler: the client sees :class:`ServerFailed` at once
    and a header-only reply is cancelled (DESIGN.md §6, interrupt rule).
    """

    __slots__ = ("iod", "reply", "response", "message", "is_alive")

    def __init__(self, iod: IOD, reply_nic, reply, response,
                 nbytes: int) -> None:
        self.iod, self.reply, self.response = iod, reply, response
        self.is_alive = True
        env, node = iod.env, iod.node
        if nbytes > msg.HEADER:
            # streamed, its per-byte send cost overlapping the wire; the
            # answer follows one heap entry after the last segment
            self.message = send(env, node.nic, reply_nic, nbytes,
                                partial(env.call_later, 0, self._answer),
                                cpu=node.cpu, cpu_at="src")
        else:
            self.message = send(env, node.nic, reply_nic, nbytes,
                                self._answer, woken=True)

    def _answer(self) -> None:
        if self.is_alive:
            self.is_alive = False
            self.message = None  # the stream refers back to this reply
            del self.iod._inflight[self]
            self.reply(self.response)

    def interrupt(self, _cause: object) -> None:
        self.iod.env.call_soon(self._crash)

    def _crash(self) -> None:
        if self.is_alive:
            if self.message.cpu is None:
                self.message.cancel()
            self.response = msg.Response(error=ServerFailed(
                f"iod{self.iod.index} crashed mid-request"))
            self._answer()
