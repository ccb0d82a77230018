"""Socket transport: length-prefixed framed messages with heartbeats.

The wire format is deliberately tiny — one fixed header per frame::

    >4sBQ  =  magic b"RPRO" | frame type (u8) | payload length (u64)

followed by ``length`` payload bytes.  MSG frames carry a pickled Python
object (protocol 5, so numpy arrays ship their buffers without copies on
the pickle side); PING/PONG are empty heartbeat frames; BYE announces an
orderly shutdown.  Length-prefixing makes message boundaries explicit on
a byte stream, and the magic + a configurable ``max_frame`` reject
garbage or runaway frames before a single payload byte is read.

:class:`Channel` wraps a connected socket with this framing plus
per-peer byte metering through a :class:`~repro.cluster.comm.CommMeter`,
so networked runs report communication volumes per peer under the
counter names ``comm.bytes_sent{peer=...}`` / ``comm.bytes_recv{peer=...}``.
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
import threading

from .comm import CommMeter

__all__ = [
    "BYE",
    "Channel",
    "connect",
    "FrameError",
    "MSG",
    "PING",
    "PONG",
    "recv_exactly",
    "recv_frame",
    "send_frame",
]

MAGIC = b"RPRO"
_HEADER = struct.Struct(">4sBQ")
HEADER_SIZE = _HEADER.size

# Frame types.
MSG = 1    # pickled object payload
PING = 2   # heartbeat request (empty payload)
PONG = 3   # heartbeat reply (empty payload)
BYE = 4    # orderly shutdown (empty payload)

_TYPES = frozenset({MSG, PING, PONG, BYE})

#: Default ceiling on a single frame's payload.  Large enough for any
#: tile batch the schedulers ship, small enough that a corrupt length
#: field cannot make the receiver try to allocate terabytes.
DEFAULT_MAX_FRAME = 256 * 1024 * 1024


class FrameError(ConnectionError):
    """The byte stream is not a valid frame sequence.

    Raised on bad magic, unknown frame type, or a payload length above
    the receiver's ``max_frame`` — all conditions where the stream can no
    longer be trusted and the connection should be dropped.
    """


def recv_exactly(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes, looping over partial reads.

    TCP delivers a byte *stream*: one ``recv`` may return any prefix of
    what the peer sent.  EOF mid-read raises :class:`ConnectionError`
    (peer died or closed between frames' bytes).
    """
    if n == 0:
        return b""
    parts = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            got = n - remaining
            raise ConnectionError(
                f"connection closed mid-read: wanted {n} bytes, got {got}")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts) if len(parts) > 1 else parts[0]


def send_frame(sock: socket.socket, ftype: int, payload: bytes = b"") -> int:
    """Write one frame; returns total bytes put on the wire."""
    header = _HEADER.pack(MAGIC, ftype, len(payload))
    sock.sendall(header + payload)
    return HEADER_SIZE + len(payload)


def recv_frame(sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME):
    """Read one frame; returns ``(ftype, payload, wire_bytes)``.

    Raises :class:`FrameError` on bad magic, unknown type, or a payload
    longer than ``max_frame`` (rejected *before* reading the payload, so
    a hostile or corrupt length cannot force the allocation).
    """
    header = recv_exactly(sock, HEADER_SIZE)
    magic, ftype, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if ftype not in _TYPES:
        raise FrameError(f"unknown frame type {ftype}")
    if length > max_frame:
        raise FrameError(
            f"frame of {length} bytes exceeds max_frame={max_frame}")
    payload = recv_exactly(sock, length)
    return ftype, payload, HEADER_SIZE + length


def _dumps(obj) -> bytes:
    buf = io.BytesIO()
    pickle.Pickler(buf, protocol=5).dump(obj)
    return buf.getvalue()


class Channel:
    """A framed, metered, heartbeat-aware message channel over one socket.

    ``send``/``recv`` move whole Python objects; framing and pickling are
    internal.  Every frame in either direction is charged to ``meter``
    under the peer's name, so coordinator traces show per-worker network
    volumes with the same accounting as the in-process communicator.

    ``recv`` answers PING frames with PONG transparently (the caller
    never sees heartbeats) and returns ``None`` on an orderly BYE.
    Sends are serialized by a lock so heartbeat replies can't interleave
    bytes into an in-flight data frame.
    """

    def __init__(
        self,
        sock: socket.socket,
        peer: str,
        meter: "CommMeter | None" = None,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.sock = sock
        self.peer = peer
        self.meter = meter if meter is not None else CommMeter()
        self.max_frame = max_frame
        self._send_lock = threading.Lock()
        self._closed = False
        #: Optional ``callback()`` fired on every received frame (data or
        #: heartbeat) — the coordinator's liveness tracking hook.
        self.on_frame: "object | None" = None

    # -- sending ---------------------------------------------------------
    def send(self, obj) -> int:
        """Pickle and send one object; returns wire bytes."""
        payload = _dumps(obj)
        if len(payload) > self.max_frame:
            raise FrameError(
                f"refusing to send {len(payload)}-byte frame to {self.peer} "
                f"(max_frame={self.max_frame})")
        with self._send_lock:
            n = send_frame(self.sock, MSG, payload)
        self.meter.record_send(self.peer, float(n))
        return n

    def ping(self) -> None:
        with self._send_lock:
            n = send_frame(self.sock, PING)
        self.meter.record_send(self.peer, float(n), op="ping")

    def bye(self) -> None:
        """Announce orderly shutdown; swallow errors from a dead peer."""
        try:
            with self._send_lock:
                send_frame(self.sock, BYE)
        except OSError:
            pass

    # -- receiving -------------------------------------------------------
    def recv(self, timeout: "float | None" = None):
        """Receive the next object; ``None`` means orderly BYE.

        Heartbeats are handled inline: a PING gets an immediate PONG and
        the read continues; PONGs update nothing here (liveness is the
        reader loop's concern) and are skipped.  ``timeout`` applies per
        underlying socket read and raises :class:`socket.timeout`.
        """
        if timeout is not None:
            self.sock.settimeout(timeout)
        try:
            while True:
                ftype, payload, n = recv_frame(self.sock, self.max_frame)
                self.meter.record_recv(self.peer, float(n))
                if self.on_frame is not None:
                    self.on_frame()
                if ftype == MSG:
                    return pickle.loads(payload)
                if ftype == PING:
                    with self._send_lock:
                        sent = send_frame(self.sock, PONG)
                    self.meter.record_send(self.peer, float(sent), op="pong")
                    continue
                if ftype == PONG:
                    continue
                if ftype == BYE:
                    return None
        finally:
            if timeout is not None:
                self.sock.settimeout(None)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(host: str, port: int, peer: str, meter: "CommMeter | None" = None,
            timeout: float = 30.0, max_frame: int = DEFAULT_MAX_FRAME) -> Channel:
    """Dial ``host:port`` and wrap the connection in a :class:`Channel`."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Channel(sock, peer, meter=meter, max_frame=max_frame)
