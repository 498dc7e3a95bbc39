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

from typing import Any, Dict, Generator, Tuple

from repro.errors import DiskFault, ProtocolError, ServerFailed
from repro.hw.link import stream, transfer
from repro.hw.node import Node
from repro.metrics import Metrics
from repro.pvfs import messages as msg
from repro.redundancy.locks import ParityLockTable
from repro.redundancy.overflow import OverflowTable
from repro.sim.engine import Environment, Event, Interrupt, Process
from repro.storage.localfs import LocalFS
from repro.storage.payload import Payload


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

    def __init__(self, env: Environment, index: int, node: Node,
                 metrics: Metrics, stripe_unit: int,
                 content_mode: bool = True,
                 write_buffering: bool = True, locking: bool = True) -> None:
        self.env = env
        self.index = index
        self.node = node
        self.metrics = metrics
        self.stripe_unit = stripe_unit
        self.fs = LocalFS(node, content_mode=content_mode,
                          write_buffering=write_buffering)
        self.fs.owner = index
        self.locks = ParityLockTable(env, enabled=locking)
        #: handler processes currently serving requests; a crash must
        #: error these out rather than let them run to a success reply
        self._inflight: set = set()
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

        A crash must not wedge the cluster: every in-flight handler is
        errored out (its client sees the connection drop as
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
        proc = Process(self.env, self._handle(envelope),
                       name=f"iod{self.index}.handler")
        self._inflight.add(proc)
        proc.callbacks.append(self._inflight.discard)

    def _handle(self, envelope: msg.Envelope) -> Generator[Event, Any, None]:
        request, reply_nic, reply = envelope
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
            reply_bytes = (request.reply_size() if response.error is None
                           else msg.HEADER)
            # The handler owns its reply: a crash interrupts it inside
            # the transfer (a data-bearing reply streams, its per-byte
            # send cost overlapping the wire).
            if reply_bytes > msg.HEADER:
                yield from stream(self.env, self.node.nic, reply_nic,
                                  reply_bytes, self.metrics,
                                  cpu=self.node.cpu, cpu_at="src")
            else:
                yield from transfer(self.env, self.node.nic, reply_nic,
                                    reply_bytes, self.metrics)
        except Interrupt:
            # The daemon crashed under this request: the client sees the
            # connection drop immediately rather than waiting forever.
            response = msg.Response(error=ServerFailed(
                f"iod{self.index} crashed mid-request"))
        reply(response)

    def _dispatch(self, request: msg.Request,
                  ) -> Generator[Event, Any, msg.Response]:
        if isinstance(request, msg.ReadReq):
            return (yield from self._read(request))
        if isinstance(request, msg.WriteReq):
            return (yield from self._write(request))
        if isinstance(request, msg.ParityReadReq):
            return (yield from self._parity_read(request))
        if isinstance(request, msg.GroupLockReq):
            # The release arrives as a separate GroupUnlockReq message;
            # the lock is protocol-carried, not scoped to this handler.
            yield from self.locks.acquire(  # csar-lint: disable=CSAR001,CSAR008
                request.file, request.group, request.xid)
            return msg.Response()
        if isinstance(request, msg.GroupUnlockReq):
            self.locks.release(request.file, request.group, request.xid)
            return msg.Response()
        if isinstance(request, msg.ParityWriteReq):
            return (yield from self._parity_write(request))
        if isinstance(request, msg.OverflowWriteReq):
            return (yield from self._overflow_write(request))
        if isinstance(request, msg.MirrorResolveReq):
            return (yield from self._mirror_resolve(request))
        if isinstance(request, msg.FsyncReq):
            return (yield from self._fsync(request))
        if isinstance(request, msg.TruncateOverflowReq):
            return self._truncate_overflow(request)
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
        start, length = request.offset, request.length
        table = self.overflow.get(request.file)
        # "inplace" bypasses overflow resolution: parity always covers the
        # in-place data, so reconstruction must read it raw.
        if request.kind != "data" or table is None \
                or not table.covered.overlap(start, start + length):
            payload = yield from self.fs.read(name, start, length)
            return msg.Response(payload=payload)
        # Hybrid resolution: latest copy may live in the overflow region.
        data_parts, ovf_reads = table.resolve(start, start + length)
        base = Payload.sparse(length) if self.fs.content_mode \
            else Payload.virtual(length)
        for part in data_parts:
            piece = yield from self.fs.read(name, part.start, part.length)
            base = base.overlay(part.start - start, piece)
        ovf_bytes = 0
        oname = ovf_file(request.file)
        for item in ovf_reads:
            piece = yield from self.fs.read(oname, item.ovf_offset,
                                            item.length)
            base = base.overlay(item.local_start - start, piece)
            ovf_bytes += item.length
        self.metrics.add("hybrid.overflow_read_bytes", ovf_bytes)
        return msg.Response(payload=base.slice(0, length),
                            overflow_bytes=ovf_bytes)

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
        if request.lock:
            # Section 5.1: the parity *read* acquires and the matching
            # parity *write* (a later message) releases — the lock rides
            # the data path across handler processes by design.
            yield from self.locks.acquire(  # csar-lint: disable=CSAR001
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
        if request.mirror:
            key = (request.file, request.origin)
            table = self.overflow_mirror.get(key)
            if table is None:
                table = self.overflow_mirror[key] = \
                    OverflowTable(self.stripe_unit)
            name = ovfm_file(request.file, request.origin)
        else:
            table = self.overflow.get(request.file)
            if table is None:
                table = self.overflow[request.file] = \
                    OverflowTable(self.stripe_unit)
            name = ovf_file(request.file)
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
        # One vectored local write: the scattered append slots charge the
        # cache in a single pass and the slices land without flattening.
        yield from self.fs.write_gather(name, parts)
        self.env.emit("iod.overflow.after_append", self.index)
        if self.failed:
            raise ServerFailed(f"iod{self.index} crashed")
        self.metrics.add("hybrid.overflow_write_bytes", cursor)
        return msg.Response()

    def _mirror_resolve(self, request: msg.MirrorResolveReq,
                        ) -> Generator[Event, Any, msg.Response]:
        start, end = request.offset, request.offset + request.length
        table = self.overflow_mirror.get((request.file, request.origin))
        reads = () if table is None else table.resolve(start, end)[1]
        base = (Payload.sparse(request.length) if self.fs.content_mode
                else Payload.virtual(request.length))
        name = ovfm_file(request.file, request.origin)
        covered = []
        for item in reads:
            piece = yield from self.fs.read(name, item.ovf_offset, item.length)
            base = base.overlay(item.local_start - start, piece)
            covered.append((item.local_start, item.local_start + item.length))
        return msg.Response(payload=base.slice(0, request.length),
                            ranges=tuple(sorted(covered)))

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
        table = self.overflow.get(request.file)
        if table is not None:
            yield from self._compact_one(table, ovf_file(request.file))
        for (fname, origin), mtable in self.overflow_mirror.items():
            if fname == request.file:
                yield from self._compact_one(
                    mtable, ovfm_file(request.file, origin))
        return msg.Response()

    def _compact_one(self, table: OverflowTable,
                     name: str) -> Generator[Event, Any, None]:
        """Rewrite one overflow file keeping only the live (latest) bytes."""
        live = []
        for ext in table.covered:
            _gaps, reads = table.resolve(ext.start, ext.end)
            content = (Payload.sparse(ext.length) if self.fs.content_mode
                       else Payload.virtual(ext.length))
            for item in reads:
                piece = yield from self.fs.read(name, item.ovf_offset,
                                                item.length)
                content = content.overlay(item.local_start - ext.start, piece)
            live.append((ext.start, ext.end, content))
        table.truncate()
        if self.fs.exists(name):
            self.fs.files[name].truncate()
        for start, end, content in live:
            for piece in table.append(start, end):
                yield from self.fs.write(
                    name, piece.ovf_offset,
                    content.slice(piece.local_start - start,
                                  piece.local_end - start))
        self.metrics.add("hybrid.compactions")

    def _truncate_overflow(self, request: msg.TruncateOverflowReq,
                           ) -> msg.Response:
        table = self.overflow.get(request.file)
        if table is not None:
            table.truncate()
        names = [ovf_file(request.file)]
        for (fname, origin), mtable in self.overflow_mirror.items():
            if fname == request.file:
                mtable.truncate()
                names.append(ovfm_file(request.file, origin))
        for name in names:
            if self.fs.exists(name):
                self.fs.files[name].truncate()
        return msg.Response()

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
