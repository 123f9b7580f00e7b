"""Node-to-node byte transports: in-process loopback and framed TCP.

Both transports move opaque frames (the serialized envelopes of
:mod:`repro.cluster.message`) and share one tiny contract:

* ``send(dest, frame) -> bool`` — best-effort, non-blocking; False means
  the destination is unknown/unreachable *right now* (the reliability
  layer above decides whether to retry or dead-letter);
* ``start(on_frame)`` — install the receive callback (called with raw
  frame bytes, possibly from transport-owned threads);
* ``close()`` — release sockets/threads.

:class:`LoopbackTransport` keeps tier-1 tests deterministic and
socket-free: frames hop between in-process nodes through per-node
drain queues (no recursion, sender-thread delivery), and the shared
:class:`LoopbackHub` doubles as the fault injector — count-limited
frame drops, frame duplication, and node/link partitions, which is how
the fault suite forces retry, dedup and failure-detector paths without
ever touching a socket.

:class:`SocketTransport` is the real thing: length-prefixed frames
(4-byte big-endian size, :func:`encode_frame` / :class:`FrameDecoder`)
over TCP with ``TCP_NODELAY``, one writer thread per peer draining a
queue so bursts coalesce into single ``sendall`` calls (the batching
that lets two processes beat the single-process actor runtime), and a
HELLO handshake so a connection learns its peer's node name whichever
side dialed.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from collections import deque
from typing import Callable, Optional

__all__ = ["encode_frame", "FrameDecoder", "LoopbackHub",
           "LoopbackTransport", "SocketTransport", "MAX_FRAME"]

#: refuse frames beyond this size — a corrupt length prefix otherwise
#: asks the decoder to buffer gigabytes
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


def encode_frame(data: bytes) -> bytes:
    """Length-prefix one frame: 4-byte big-endian size + payload."""
    if len(data) > MAX_FRAME:
        raise ValueError(f"frame of {len(data)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(data)) + data


class FrameDecoder:
    """Incremental decoder: feed stream chunks, get back whole frames.

    TCP gives arbitrary chunk boundaries; ``push`` buffers and returns
    every complete frame the new bytes finish.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def push(self, chunk: bytes) -> list[bytes]:
        self._buf.extend(chunk)
        frames: list[bytes] = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            (size,) = _LEN.unpack_from(self._buf)
            if size > MAX_FRAME:
                raise ValueError(f"frame length {size} exceeds {MAX_FRAME}")
            end = _LEN.size + size
            if len(self._buf) < end:
                return frames
            frames.append(bytes(self._buf[_LEN.size:end]))
            del self._buf[:end]


# ===========================================================================
# loopback
# ===========================================================================

class LoopbackHub:
    """In-process wiring + fault injection between loopback transports.

    Fault API (all thread-safe):

    * ``drop(src, dst, count=1)`` — silently discard the next ``count``
      frames on that link;
    * ``dup(src, dst, count=1)`` — deliver the next ``count`` frames
      twice (exercises receiver dedup);
    * ``partition(a, b)`` / ``heal(a, b)`` — drop everything both ways;
    * ``cut(node)`` / ``restore(node)`` — isolate a node entirely (the
      loopback spelling of "the process died");
    * ``chaos(src, dst, drop=p, dup=q)`` — probabilistic per-frame
      faults on a link (``None`` wildcards either end), drawn from the
      hub's own seeded RNG so a failing chaos run replays exactly from
      its seed (``repro sim replay --seed``).

    Every random decision the hub ever makes comes from ``Random(seed)``
    — a hub with no chaos rules draws nothing, so seedless use stays
    bit-for-bit identical to the pre-chaos behavior.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._nodes: dict[str, LoopbackTransport] = {}
        self._lock = threading.Lock()
        self._drops: dict[tuple[str, str], int] = {}
        self._dups: dict[tuple[str, str], int] = {}
        self._partitions: set[frozenset] = set()
        self._cut: set[str] = set()
        #: seed of the fault RNG — surfaced in failure output so a
        #: chaos run is replayable
        self.seed = seed
        self._rng = random.Random(seed)
        # (src|None, dst|None) -> (drop_rate, dup_rate)
        self._chaos: dict[tuple[Optional[str], Optional[str]],
                          tuple[float, float]] = {}
        #: delivered frame count per (src, dst) link
        self.delivered: dict[tuple[str, str], int] = {}
        #: dropped frame count per (src, dst) link (faults only)
        self.dropped: dict[tuple[str, str], int] = {}

    def join(self, name: str) -> "LoopbackTransport":
        with self._lock:
            if name in self._nodes:
                raise ValueError(f"node {name!r} already joined this hub")
            transport = LoopbackTransport(name, self)
            self._nodes[name] = transport
            return transport

    # -- fault injection -----------------------------------------------------
    def drop(self, src: str, dst: str, count: int = 1) -> None:
        with self._lock:
            self._drops[(src, dst)] = self._drops.get((src, dst), 0) + count

    def dup(self, src: str, dst: str, count: int = 1) -> None:
        with self._lock:
            self._dups[(src, dst)] = self._dups.get((src, dst), 0) + count

    def partition(self, a: str, b: str) -> None:
        with self._lock:
            self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        with self._lock:
            self._partitions.discard(frozenset((a, b)))

    def cut(self, node: str) -> None:
        with self._lock:
            self._cut.add(node)

    def restore(self, node: str) -> None:
        with self._lock:
            self._cut.discard(node)

    def chaos(self, src: Optional[str] = None, dst: Optional[str] = None,
              drop: float = 0.0, dup: float = 0.0) -> None:
        """Probabilistic per-frame faults on a link (seeded RNG).

        ``None`` on either end wildcards it; the most specific rule
        wins — ``(src, dst)`` over ``(src, None)`` over ``(None, dst)``
        over ``(None, None)``.  Rates of 0/0 clear the rule.
        """
        with self._lock:
            if drop <= 0.0 and dup <= 0.0:
                self._chaos.pop((src, dst), None)
            else:
                self._chaos[(src, dst)] = (drop, dup)

    # -- routing -------------------------------------------------------------
    def _admit(self, src: str, dst: str, frame: bytes) -> int:
        """Fault bookkeeping for one frame, under the hub lock.

        Returns the number of copies to deliver: 0 when a fault ate the
        frame, -1 when the destination is unknown.  Shared between the
        live ``_route`` below and the simulator's deferred-delivery
        hub, so both see identical fault semantics.
        """
        with self._lock:
            if dst not in self._nodes:
                return -1
            # armed faults only: no frozenset per frame on a clean hub
            if (self._cut or self._partitions) and (
                    src in self._cut or dst in self._cut
                    or frozenset((src, dst)) in self._partitions):
                self.dropped[(src, dst)] = \
                    self.dropped.get((src, dst), 0) + 1
                return 0         # link exists; the frame just vanishes
            pending_drops = self._drops.get((src, dst), 0)
            if pending_drops > 0:
                self._drops[(src, dst)] = pending_drops - 1
                self.dropped[(src, dst)] = \
                    self.dropped.get((src, dst), 0) + 1
                return 0
            copies = 1
            pending_dups = self._dups.get((src, dst), 0)
            if pending_dups > 0:
                self._dups[(src, dst)] = pending_dups - 1
                copies = 2
            if self._chaos:
                rates = (self._chaos.get((src, dst))
                         or self._chaos.get((src, None))
                         or self._chaos.get((None, dst))
                         or self._chaos.get((None, None)))
                if rates is not None:
                    drop_rate, dup_rate = rates
                    if drop_rate > 0.0 \
                            and self._rng.random() < drop_rate:
                        self.dropped[(src, dst)] = \
                            self.dropped.get((src, dst), 0) + 1
                        return 0
                    if dup_rate > 0.0 and self._rng.random() < dup_rate:
                        copies += 1
            self.delivered[(src, dst)] = \
                self.delivered.get((src, dst), 0) + copies
            return copies

    def _route(self, src: str, dst: str, frame: bytes) -> bool:
        copies = self._admit(src, dst, frame)
        if copies < 0:
            return False
        target = self._nodes[dst]
        for _ in range(copies):
            target._deliver(frame)
        return True


class LoopbackTransport:
    """One node's endpoint on a :class:`LoopbackHub`.

    Delivery runs on the *sending* thread, but through a per-receiver
    drain queue guarded by a reentrancy flag: a receive callback that
    sends again enqueues rather than recurses, so deep message chains
    can't blow the stack and frame order per receiver stays FIFO.
    """

    def __init__(self, name: str, hub: LoopbackHub):
        self.name = name
        self.hub = hub
        self._on_frame: Optional[Callable[[bytes], None]] = None
        self._queue: deque[bytes] = deque()
        self._lock = threading.Lock()
        self._draining = False
        self.closed = False

    def start(self, on_frame: Callable[[bytes], None]) -> None:
        self._on_frame = on_frame

    def send(self, dest: str, frame: bytes) -> bool:
        if self.closed:
            return False
        return self.hub._route(self.name, dest, frame)

    def _deliver(self, frame: bytes) -> None:
        with self._lock:
            if self.closed:
                return
            self._queue.append(frame)
            if self._draining:
                return
            self._draining = True
        try:
            while True:
                with self._lock:
                    if not self._queue:
                        self._draining = False
                        return
                    item = self._queue.popleft()
                if self._on_frame is not None:
                    self._on_frame(item)
        except BaseException:
            with self._lock:
                self._draining = False
            raise

    def close(self) -> None:
        self.closed = True


# ===========================================================================
# sockets
# ===========================================================================

class _PeerConn:
    """One live TCP connection to a peer, with a batching writer thread."""

    def __init__(self, sock: socket.socket, owner: "SocketTransport"):
        self.sock = sock
        self.owner = owner
        self.peer: Optional[str] = None        # learned from HELLO
        self._out: deque[bytes] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._writer = threading.Thread(target=self._write_loop,
                                        name="cluster-writer", daemon=True)
        self._reader = threading.Thread(target=self._read_loop,
                                        name="cluster-reader", daemon=True)

    def start(self) -> None:
        self._writer.start()
        self._reader.start()

    def enqueue(self, frame: bytes) -> None:
        with self._cond:
            self._out.append(frame)
            self._cond.notify()

    def _write_loop(self) -> None:
        while True:
            with self._cond:
                while not self._out and not self._closed:
                    self._cond.wait()
                if self._closed and not self._out:
                    return
            # brief coalescing window: concurrent senders (and the
            # peer's pipelined replies) pile on while we yield, so the
            # whole burst becomes one sendall — the syscall batching
            # the bench throughput rides on
            delay = self.owner.batch_delay
            if delay > 0:
                time.sleep(delay)
            with self._cond:
                batch = b"".join(self._out)
                self._out.clear()
            if not batch:
                continue
            try:
                self.sock.sendall(batch)
            except OSError:
                self.close()
                return

    def _read_loop(self) -> None:
        decoder = FrameDecoder()
        while True:
            try:
                chunk = self.sock.recv(256 * 1024)
            except OSError:
                chunk = b""
            if not chunk:
                self.close()
                return
            try:
                frames = decoder.push(chunk)
            except ValueError:
                self.close()
                return
            for frame in frames:
                self.owner._on_conn_frame(self, frame)

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self.owner._forget_conn(self)


class SocketTransport:
    """Framed TCP transport; optionally listens for inbound peers.

    ``listen=True`` binds ``host:port`` (port 0 = ephemeral; read the
    actual one from :attr:`port`).  Either side may dial with
    :meth:`connect`; the HELLO handshake names the connection, after
    which ``send(peer_name, ...)`` routes over whichever socket knows
    that peer — so an ephemeral client (a CLI verb, the bench driver)
    needs no listening port of its own.
    """

    def __init__(self, name: str, host: str = "127.0.0.1", port: int = 0,
                 listen: bool = True, batch_delay: float = 0.0):
        self.name = name
        self.host = host
        #: optional writer coalescing window in seconds.  0 (default)
        #: sends as soon as the writer wakes — bursts still coalesce
        #: naturally because everything enqueued while a sendall was in
        #: flight drains as one batch; a positive delay forces larger
        #: batches at the cost of per-hop latency (measured: it does
        #: not pay off on localhost, where sleep() GIL handoffs cost
        #: more than the saved syscalls)
        self.batch_delay = batch_delay
        self._on_frame: Optional[Callable[[bytes], None]] = None
        self._conns: dict[str, _PeerConn] = {}
        self._anon: list[_PeerConn] = []
        self._lock = threading.Lock()
        self.closed = False
        self._server: Optional[socket.socket] = None
        self.port = 0
        if listen:
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((host, port))
            server.listen(32)
            self._server = server
            self.port = server.getsockname()[1]
            self._acceptor = threading.Thread(target=self._accept_loop,
                                              name="cluster-accept",
                                              daemon=True)

    # -- transport contract --------------------------------------------------
    def start(self, on_frame: Callable[[bytes], None]) -> None:
        self._on_frame = on_frame
        if self._server is not None:
            self._acceptor.start()

    def send(self, dest: str, frame: bytes) -> bool:
        with self._lock:
            conn = self._conns.get(dest)
        if conn is None:
            return False
        conn.enqueue(encode_frame(frame))
        return True

    def close(self) -> None:
        self.closed = True
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns.values()) + list(self._anon)
        for conn in conns:
            conn.close()

    # -- connection management -----------------------------------------------
    def connect(self, peer: str, address: tuple[str, int],
                timeout: float = 5.0) -> None:
        """Dial a peer and register the connection under its name."""
        sock = socket.create_connection(address, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        conn = _PeerConn(sock, self)
        conn.peer = peer
        with self._lock:
            self._conns[peer] = conn
        conn.start()
        conn.enqueue(encode_frame(self._hello()))

    def peers(self) -> list[str]:
        with self._lock:
            return sorted(self._conns)

    def _hello(self) -> bytes:
        # deliberately serializer-independent: the receiving side peeks
        # for this prefix before handing frames to the codec
        return b"HELLO " + self.name.encode("utf-8")

    def _accept_loop(self) -> None:
        while not self.closed:
            try:
                sock, _ = self._server.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _PeerConn(sock, self)
            with self._lock:
                self._anon.append(conn)
            conn.start()
            conn.enqueue(encode_frame(self._hello()))

    def _on_conn_frame(self, conn: _PeerConn, frame: bytes) -> None:
        if frame.startswith(b"HELLO "):
            peer = frame[6:].decode("utf-8")
            with self._lock:
                conn.peer = peer
                if conn in self._anon:
                    self._anon.remove(conn)
                self._conns.setdefault(peer, conn)
            return
        if self._on_frame is not None:
            self._on_frame(frame)

    def _forget_conn(self, conn: _PeerConn) -> None:
        with self._lock:
            if conn.peer is not None \
                    and self._conns.get(conn.peer) is conn:
                del self._conns[conn.peer]
            if conn in self._anon:
                self._anon.remove(conn)
