"""Transport layer: how parameter-server messages cross process boundaries.

Every runtime in the repo moves the same two kinds of traffic:

* **control messages** — small tagged dictionaries (joins, pushes headers,
  OK signals, reports, heartbeats); and
* **shard payloads** — the per-shard packed flat buffers of
  :mod:`repro.ps.flatbuffer`, possibly codec-encoded
  (:mod:`repro.ps.compression`).

This module gives both a uniform :class:`Connection` shape so the runtimes
stop open-coding their plumbing:

* :class:`PipeConnection` — a thin adapter over a ``multiprocessing`` pipe
  end.  Control dictionaries and payloads travel pickled, which is fine on
  one machine between trusted processes; :mod:`repro.ps.process_runtime`
  uses the pipe for control only and moves gradients through shared
  memory.
* :class:`TcpConnection` — a length-prefixed binary protocol over a socket.
  Control messages are a JSON envelope; shard payloads are framed with the
  *same self-describing format the shared-memory mailboxes already use*
  (:func:`repro.ps.compression.write_encoded`), with **no pickle and no
  staging copy on the hot path**.

Wire format of one TCP message (all integers little-endian)::

    [u64 body_len] body
    body  := [u64 header_len][header: UTF-8 JSON][pad to 8]  frame*
    frame := [u64 shard][u64 region_len][region: write_encoded bytes]

``region_len`` is always a multiple of 8 (``write_encoded`` pads its
payload arrays to 8-byte boundaries) and every frame starts 8-byte aligned
within the body, so the receiver parses frames as zero-copy NumPy views of
the received buffer (:func:`repro.ps.compression.read_encoded`).

Copies per message, user space: **none on send** — the message is a list
of buffers (prefix + envelope, frame heads, then views of the payload
arrays themselves, :func:`repro.ps.compression.encoded_parts`) handed to
``sendmsg``; **none on receive** — the body is ``recv_into``'d one reusable
per-connection buffer and decoded in place.  The receive side's price is
an ownership rule: *frames are valid until the next receive on the same
connection*.  The tcp runtime's worker (``load_reply`` copies into the
replica) and server (``_handle_push`` applies or stages a copy; codec state
is ``np.array``-copied) both consume a message before asking for the next,
and :meth:`TcpConnection.read_ready` returns at most one message per call
so a selector loop cannot be handed two messages sharing one buffer.
"""

from __future__ import annotations

import json
import random
import select
import socket
import struct
import threading
import time

import numpy as np

from repro.ps.compression import EncodedShard, encoded_parts, read_encoded

__all__ = [
    "ConnectionClosed",
    "PipeConnection",
    "TcpConnection",
    "connect_tcp",
    "parse_address",
    "format_address",
]


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (EOF, reset, or mid-frame death)."""


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
def parse_address(address: str) -> tuple[str, int]:
    """Parse ``"host:port"`` into ``(host, port)``; port 0 means ephemeral."""
    if not isinstance(address, str) or ":" not in address:
        raise ValueError(
            f"address must look like 'host:port', got {address!r}"
        )
    host, _, port_text = address.rpartition(":")
    host = host.strip() or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"address port {port_text!r} is not an integer") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"address port {port} out of range [0, 65535]")
    return host, port


def format_address(host: str, port: int) -> str:
    """Inverse of :func:`parse_address`."""
    return f"{host}:{int(port)}"


# ----------------------------------------------------------------------
# Pipe transport
# ----------------------------------------------------------------------
class PipeConnection:
    """A :class:`Connection` over one end of a ``multiprocessing`` pipe.

    Messages are ``(header, frames)`` pairs exactly like the TCP transport's,
    but travel pickled — acceptable between trusted processes on one box,
    and what keeps the process runtime's control plane simple.  ``frames``
    may hold any picklable payload (:class:`EncodedShard` tuples, packed
    gradient dicts, ``None``).
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, header: dict, frames=None) -> None:
        """Ship one ``(header, frames)`` message."""
        self._conn.send((header, frames))

    def recv(self):
        """Receive one ``(header, frames)`` message; EOF raises :class:`ConnectionClosed`."""
        try:
            return self._conn.recv()
        except (EOFError, OSError) as error:
            raise ConnectionClosed(str(error) or "pipe closed") from error

    def fileno(self) -> int:
        """Underlying file descriptor (selector-compatible)."""
        return self._conn.fileno()

    def close(self) -> None:
        """Close this end of the pipe."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
_LEN = struct.Struct("<Q")
_FRAME_HEAD = struct.Struct("<QQ")
#: Buffers handed to one ``sendmsg`` call (IOV_MAX is 1024 on Linux/BSD).
_IOV_BATCH = 512


class TcpConnection:
    """Length-prefixed message framing over one TCP socket.

    One connection is owned by one logical peer (a worker, a coordinator
    watching for results, or the server's view of either).  Sending is
    thread-safe and atomic per message (a worker's heartbeat thread shares
    the socket with its training loop); receiving must stay on a single
    thread.

    The socket runs non-blocking and every wait is an explicit ``poll``
    against a monotonic deadline, so a timeout bounds a *whole message* in
    either direction however slowly the peer dribbles, and the two
    directions never share (or race on) a socket-level timeout.

    Two receive styles serve the two sides of the protocol:

    * :meth:`recv` — blocking, for workers and watchers ("wait for my OK").
    * :meth:`read_ready` — for the server's selector loop: called when
      ``select`` reports readability, it drains the kernel without blocking
      and returns the message it completed, if any.  A worker dying
      mid-frame therefore surfaces as :class:`ConnectionClosed`, never as a
      torn message.

    **Frame lifetime.**  Received frames are views of this connection's one
    receive buffer: they are valid until the next :meth:`recv` or
    :meth:`read_ready` call on the same connection.  Consume (apply, load,
    or copy) them before receiving again.
    """

    def __init__(self, sock: socket.socket) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (e.g. a socketpair in tests)
        self._sock = sock
        self._timeout = sock.gettimeout()  # whole-message send deadline
        sock.setblocking(False)
        # One poller per direction: the heartbeat thread may wait to send
        # while the training loop waits to receive.
        self._readable, self._writable = select.poll(), select.poll()
        self._readable.register(sock, select.POLLIN)
        self._writable.register(sock, select.POLLOUT)
        self._send_lock = threading.Lock()
        # [u64 body_len][body] of the message in flight: ``_have`` bytes of
        # it are in, ``_end`` is 8 until the prefix is, then 8 + body_len.
        self._inbox = np.empty(_LEN.size, dtype=np.uint8)
        self._have, self._end = 0, _LEN.size
        self._bytes_sent = 0
        self._bytes_received = 0
        #: Set by whoever tracks this connection (the server: a worker id).
        self.owner: str | None = None

    # -- framing -------------------------------------------------------
    @staticmethod
    def _parts(header: dict, shards) -> list:
        """One message as the buffers that make it up — payloads uncopied."""
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        frames: list = []
        for shard in shards:
            region = encoded_parts(shard)
            frames.append(_FRAME_HEAD.pack(shard.shard, sum(map(len, region))))
            frames += region
        envelope = _LEN.pack(len(header_bytes)) + header_bytes
        envelope += bytes(-len(envelope) % 8)
        body_len = len(envelope) + sum(map(len, frames))
        return [_LEN.pack(body_len) + envelope, *frames]

    @staticmethod
    def _decode(body: np.ndarray) -> tuple[dict, tuple[EncodedShard, ...]]:
        (header_len,) = _LEN.unpack_from(body, 0)
        header = json.loads(body[8 : 8 + header_len].tobytes())
        offset = 8 + header_len + -header_len % 8
        shards = []
        while offset < len(body):
            shard, region = _FRAME_HEAD.unpack_from(body, offset)
            offset += _FRAME_HEAD.size
            shards.append(read_encoded(body[offset : offset + region], int(shard)))
            offset += region
        return header, tuple(shards)

    def _wait(self, poller, deadline: float | None) -> None:
        """Block until ``poller``'s event; ``TimeoutError`` past ``deadline``."""
        if deadline is None:
            poller.poll()
        elif not poller.poll(max(deadline - time.monotonic(), 0.0) * 1000.0):
            raise TimeoutError("timed out")

    # -- sending -------------------------------------------------------
    def send(self, header: dict, shards: tuple[EncodedShard, ...] = ()) -> int:
        """Ship one message; returns its size in bytes on the wire.

        Gather-sends the envelope, the frame headers and the payload
        arrays' own memory with ``sendmsg`` — no staging copy.  A peer
        that died, or that does not take the whole message within the
        :meth:`settimeout` budget, raises :class:`ConnectionClosed`.
        """
        return self._ship(self._parts(header, shards))

    def encode(self, header: dict, shards: tuple[EncodedShard, ...] = ()) -> bytes:
        """Frame a message without sending it (chaos injection, tests)."""
        return b"".join(self._parts(header, shards))

    def send_raw(self, message) -> int:
        """Ship pre-framed bytes as-is; the chaos layer uses this to put a
        deliberately truncated message on the wire before tearing the
        socket, so the peer sees a genuine mid-frame EOF."""
        return self._ship([message])

    def _ship(self, pending: list) -> int:
        """``sendmsg`` until every buffer is out: one lock, one deadline."""
        total = sum(map(len, pending))
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        try:
            with self._send_lock:
                while pending:
                    try:
                        sent = self._sock.sendmsg(pending[:_IOV_BATCH])
                    except BlockingIOError:
                        self._wait(self._writable, deadline)
                        continue
                    done = 0  # buffers fully out; a short write splits the next
                    while done < len(pending) and sent >= len(pending[done]):
                        sent -= len(pending[done])
                        done += 1
                    del pending[:done]
                    if sent:
                        pending[0] = pending[0][sent:]
                self._bytes_sent += total
        except OSError as error:
            raise ConnectionClosed(str(error) or "send failed") from error
        return total

    # -- receiving -----------------------------------------------------
    def recv(self, timeout: float | None = None):
        """Block until one complete message arrives and return it.

        Raises :class:`ConnectionClosed` on EOF (including EOF in the middle
        of a frame — a crashed peer) and ``socket.timeout`` when ``timeout``
        elapses with no complete message, however many bytes trickled in.
        """
        return self._receive(True, None if timeout is None else time.monotonic() + timeout)

    def read_ready(self) -> list:
        """Drain the kernel without blocking; return ``[message]`` or ``[]``.

        For use after ``select``/``selectors`` reported this socket
        readable.  At most one message per call — the frames alias the
        receive buffer, so the caller must consume them before the next
        one is read; level-triggered ``select`` re-fires for what is left.
        """
        message = self._receive(False, None)
        return [] if message is None else [message]

    def _receive(self, wait: bool, deadline: float | None):
        while True:
            if self._have == self._end:
                if self._end > _LEN.size:  # body complete: hand out views
                    body = self._inbox[_LEN.size : self._end]
                    self._have, self._end = 0, _LEN.size
                    return self._decode(body)
                (body_len,) = _LEN.unpack_from(self._inbox)
                if body_len < _LEN.size:
                    raise ConnectionClosed(f"corrupt message length {body_len}")
                self._end += body_len
                if self._end > len(self._inbox):  # grows to the largest message
                    self._inbox = np.empty(self._end, dtype=np.uint8)
            try:
                count = self._sock.recv_into(self._inbox[self._have : self._end])
            except BlockingIOError:
                if not wait:
                    return None
                self._wait(self._readable, deadline)
                continue
            except OSError as error:
                # A hard-killed peer surfaces as ECONNRESET here, not EOF;
                # normalize so callers only handle ConnectionClosed.
                raise ConnectionClosed(str(error) or "recv failed") from error
            if not count:
                raise ConnectionClosed("peer closed the connection")
            self._have += count
            self._bytes_received += count

    def settimeout(self, timeout: float | None) -> None:
        """Bound every later send (guards server-side sends from hanging)."""
        self._timeout = timeout

    # -- bookkeeping ---------------------------------------------------
    @property
    def bytes_sent(self) -> int:
        """Total message bytes shipped through this connection."""
        return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        """Total bytes received (including a still-partial message)."""
        return self._bytes_received

    def fileno(self) -> int:
        """Underlying socket descriptor (selector-compatible)."""
        return self._sock.fileno()

    def peername(self) -> str:
        """Peer address for logs, or ``"?"`` once the socket is gone."""
        try:
            host, port = self._sock.getpeername()[:2]
            return format_address(host, port)
        except OSError:
            return "?"

    def close(self) -> None:
        """Shut down and close the socket (idempotent)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


def connect_tcp(
    address: str,
    timeout: float = 30.0,
    retry_interval: float = 0.1,
) -> TcpConnection:
    """Connect to ``address`` with retry/backoff until ``timeout`` elapses.

    Workers use this both at startup (the server may not be listening yet)
    and when reconnecting after a server restart; the interval doubles up
    to one second between attempts, and every sleep is scaled by a uniform
    ``[0.5, 1.5)`` jitter so a herd of workers orphaned by one ``restart``
    broadcast does not redial the new server in lockstep.  Raises
    ``ConnectionError`` with the last underlying error once the budget is
    exhausted.
    """
    host, port = parse_address(address)
    deadline = time.monotonic() + timeout
    interval = retry_interval
    last_error: Exception | None = None
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            return TcpConnection(sock)
        except OSError as error:
            last_error = error
            if time.monotonic() >= deadline:
                raise ConnectionError(
                    f"could not connect to {address} within {timeout:.0f}s: {error}"
                ) from error
            time.sleep(interval * (0.5 + random.random()))
            interval = min(interval * 2, 1.0)
