"""Live RFB client session: connection lifecycle, frame capture, input.

A :class:`Session` owns one TCP connection and is single-owner: every call
runs on the caller's thread, and writes hit the wire in call order. No
receive starts once a call's deadline has passed, the handshake's
included, so a peer that drips or floods bytes holds a call for about its
timeout. :func:`connect` enters its connection in ``_IN_PROCESS_CLIENTS``
during the handshake, so that a lockstep :class:`~fbenv.server.MockServer`
in this process can hand the session its end of the connection: each later
write is a call of that end, which returns the replies as bytes, and no
socket call is made until close.

Capture runs one loop in two styles, fixed-rate (paced by :class:`Pacer`,
fbenv's only absolute-deadline scheduler) and unrestricted; it converts no
pixels, handing each callback the live framebuffer.
"""

from __future__ import annotations

import enum
import math
import select
import socket
import struct
import time
from dataclasses import dataclass

from .errors import (
    ConnectionLostError,
    ConnectTimeoutError,
    IncompleteMessageError,
    InvalidStateError,
)
from .framebuffer import Framebuffer, GrayFrame, apply_update, to_grayscale
from .wire import (
    ENCODING_RAW,
    MSG_SERVER_CUT_TEXT,
    RGBX32,
    FramebufferUpdate,
    FramebufferUpdateRequest,
    KeyEvent,
    PixelFormat,
    PointerEvent,
    Rectangle,
    ServerInit,
    SetEncodings,
    SetPixelFormat,
    decode_server_message,
    drop_cut_text,
    encode_client_message,
    perform_handshake,
)

DEFAULT_CONNECT_TIMEOUT = 5.0

#: How long poll waits for an update before the cached frame stands;
#: bounds worst-case capture and timed-mode step latency. A lockstep Env
#: waits DEFAULT_CONNECT_TIMEOUT instead and raises, never reusing a frame.
POLL_DEADLINE = 0.1

#: Connections :func:`connect` is handshaking, by (client address, server
#: address); a lockstep server in this process appends its end of one,
#: to which the session then hands its writes.
_IN_PROCESS_CLIENTS: dict[tuple, list] = {}


class SessionState(enum.Enum):
    CONNECTING = "connecting"
    READY = "ready"
    CLOSED = "closed"


@dataclass
class CaptureStats:
    """Outcome of a capture run. ``error`` is the exception that stopped
    the loop early, None for a clean run; ``frames_stale`` counts the
    frames whose poll applied no update."""

    frames_delivered: int
    wall_time: float
    achieved_fps: float
    latency_p50_ms: float
    latency_p99_ms: float
    error: Exception | None = None
    frames_stale: int = 0


class Pacer:
    """Absolute-deadline scheduler for a fixed-rate loop.

    Ticks fall on the grid ``start + k * period``, the first at ``start``.
    The next tick is the one whose grid point is nearest to when the loop
    waits for it, and at least the one after the last; the ticks between
    are skipped. A tick fires at its grid point, but no sooner than half a
    period after the previous tick. So a loop that falls behind loses
    ticks, a sleep that wakes late costs none, and ticks never bunch.
    Given a ``stop`` ``threading.Event``, :meth:`wait` ends when it is set.
    """

    def __init__(self, period: float, stop=None):
        self.period = period
        self.start = time.monotonic()
        self._stop = stop
        self._tick = 0
        self._fired_at: float | None = None

    def wait(self, end: float = math.inf) -> bool:
        """Block until the next tick and fire it; False, without firing,
        when its grid point is at or after ``end`` or stop is set."""
        deadline = self.start
        if self._fired_at is not None:
            nearest = math.floor((time.monotonic() - self.start) / self.period + 0.5)
            self._tick = max(self._tick + 1, nearest)
            deadline = max(self.start + self._tick * self.period, self._fired_at + self.period / 2.0)
        if self.start + self._tick * self.period >= end:
            return False
        delay = deadline - time.monotonic()
        if self._stop is not None:
            if self._stop.wait(max(delay, 0.0)):
                return False
        elif delay > 0:
            time.sleep(delay)
        self._fired_at = time.monotonic()
        return True


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


class Session:
    """One live connection to an RFB server. Not thread-safe."""

    def __init__(self, sock: socket.socket, server_init: ServerInit, fmt: PixelFormat):
        sock.settimeout(None)  # receives wait on their deadline in _recv_into_buffer
        timeval = struct.pack("ll", int(DEFAULT_CONNECT_TIMEOUT), 0)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
        self._sock = sock
        self._readable = select.poll()
        self._readable.register(sock, select.POLLIN)
        self._server_end = None  # a lockstep server's end in this process, which each write calls
        self.server_init = server_init
        self.format = fmt
        self._screen = (server_init.width, server_init.height)
        self.framebuffer = Framebuffer.blank(server_init.width, server_init.height, fmt)
        self.state = SessionState.CONNECTING
        self._buffer = bytearray()
        self._queued = bytearray()  # encoded input events not yet written
        self._key_events: dict[tuple[int, bool], bytes] = {}  # encoded KeyEvent, by (keysym, down)
        region = Rectangle(0, 0, server_init.width, server_init.height)
        self._requests = {  # the whole-screen update request, by incremental
            incremental: encode_client_message(FramebufferUpdateRequest(incremental, region))
            for incremental in (False, True)
        }

    @property
    def width(self) -> int:
        return self.server_init.width

    @property
    def height(self) -> int:
        return self.server_init.height

    @property
    def frame_counter(self) -> int:
        return self.framebuffer.generation

    def close(self) -> None:
        if self.state is not SessionState.CLOSED:
            self.state = SessionState.CLOSED
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- wire helpers ---------------------------------------------------

    def _require_ready(self) -> None:
        if self.state is not SessionState.READY:
            raise InvalidStateError(f"session is {self.state.value}, not ready")

    def _send(self, payload: bytes) -> None:
        """Write the queued input events, then ``payload``, in one write: a
        sendall, or a hand-over to the server's end in this process, whose
        replies go into the buffer whole."""
        self._queued += payload
        data, self._queued = self._queued, bytearray()
        if self._server_end is not None:
            replies = self._server_end.serve(data)
            if replies is None:
                self.close()
                raise ConnectionLostError("the server ended the connection")
            self._buffer += replies
            return
        try:
            self._sock.sendall(data)
        except OSError as exc:
            self.close()
            raise ConnectionLostError(f"send failed: {exc}") from exc

    def _recv_into_buffer(self, deadline: float) -> bool:
        """Pull one chunk off the socket, waiting until ``deadline`` (on
        the ``time.monotonic`` clock) only while nothing has arrived;
        False if nothing did."""
        while True:
            if not self._readable.poll(max(deadline - time.monotonic(), 0.0) * 1000.0):
                return False
            try:
                chunk = self._sock.recv(65536, socket.MSG_DONTWAIT)
                break
            except BlockingIOError:  # woken with nothing to read
                if time.monotonic() >= deadline:
                    return False
            except OSError as exc:
                self.close()
                raise ConnectionLostError(f"receive failed: {exc}") from exc
        if not chunk:
            self.close()
            raise ConnectionLostError("server closed the connection")
        self._buffer.extend(chunk)
        return True

    def _decode_buffered(self):
        """Decode one message from the buffer, or None if it is incomplete;
        a ServerCutText is dropped as its bytes arrive."""
        buffer = self._buffer
        try:
            while buffer and buffer[0] == MSG_SERVER_CUT_TEXT:
                drop_cut_text(buffer)  # the session ignores it
            if not buffer:
                return None
            message, consumed = decode_server_message(buffer, self.format, self._screen)
        except IncompleteMessageError:
            return None
        except Exception:
            self.close()
            raise
        del buffer[:consumed]
        return message

    # -- capture --------------------------------------------------------

    def _request(self, incremental: bool, timeout: float) -> bool:
        """Request an update of the whole screen and apply each
        FramebufferUpdate that arrives; Bell and ServerCutText are dropped.
        Receives for up to ``timeout`` seconds until one update is applied,
        then reads only what has already arrived; a server's end in this
        process has replied in full once the write returns. True once an
        update is applied."""
        self._require_ready()
        self._send(self._requests[incremental])
        deadline = time.monotonic() + timeout
        applied = received = False
        while True:
            message = self._decode_buffered()
            if message is None:
                if self._server_end is not None:
                    return applied  # the whole in-process reply is applied
                if received and time.monotonic() >= deadline:
                    return applied
                if not self._recv_into_buffer(0.0 if applied else deadline):
                    return applied
                received = True
            elif isinstance(message, FramebufferUpdate):
                apply_update(self.framebuffer, message)
                applied = True

    def refresh(self, timeout: float = DEFAULT_CONNECT_TIMEOUT) -> None:
        """Request a full (non-incremental) update and apply it to
        :attr:`framebuffer`; :meth:`snapshot` reads it as gray pixels."""
        if not self._request(False, timeout):
            raise ConnectionLostError(f"no update for the refresh (waited at most {timeout:g} s)")

    def poll(self, deadline: float = POLL_DEADLINE) -> bool:
        """Incremental update request; applies whatever the server sends.

        Queued key events go out in the same write, ahead of the request.
        True when at least one update was applied within ``deadline``
        seconds; False means the cached frame is still current.
        """
        return self._request(True, deadline)

    def snapshot(self) -> GrayFrame:
        """Grayscale copy of the current framebuffer."""
        return to_grayscale(self.framebuffer)

    def run_fixed_rate(self, fps: float, callback, duration: float | None = None, stop=None) -> CaptureStats:
        """Capture method 1: invoke ``callback(framebuffer, index)`` at a fixed rate.

        ``framebuffer`` is the session's live mirror, valid until the
        callback returns. Ticks follow the :class:`Pacer` rule at ``1/fps``.
        Runs until ``duration`` elapses or ``stop`` (a threading.Event) is
        set; a callback exception or lost connection ends the run and is
        returned in the stats.
        """
        self._require_ready()
        if not (isinstance(fps, (int, float)) and 1.0 <= fps <= 1000.0):
            raise ValueError(f"fps must be within 1..1000, got {fps}")
        return self._capture(callback, duration, stop, Pacer(1.0 / fps, stop))

    def run_unrestricted(self, callback, duration: float, stop=None) -> CaptureStats:
        """Capture method 2: poll as fast as the server round-trips."""
        self._require_ready()
        return self._capture(callback, duration, stop, None)

    def _capture(self, callback, duration: float | None, stop, pacer: Pacer | None) -> CaptureStats:
        """Poll and hand the live :attr:`framebuffer` to ``callback`` until
        ``duration`` ends, ``stop`` is set or a step raises; each frame
        waits for ``pacer``'s next tick when one is given."""
        if duration is not None and duration < 0:
            raise ValueError("duration must be non-negative")
        start = time.monotonic() if pacer is None else pacer.start
        end = math.inf if duration is None else start + duration
        frames = stale = 0
        latencies: list[float] = []
        error: Exception | None = None
        while not (stop is not None and stop.is_set()):
            if pacer is None:
                if time.monotonic() >= end:
                    break
            elif not pacer.wait(end):
                break
            try:
                poll_started = time.monotonic()
                fresh = self.poll()
                latencies.append(time.monotonic() - poll_started)
                callback(self.framebuffer, frames)
            except Exception as exc:  # surfaced in stats, not raised
                error = exc
                break
            frames += 1
            stale += not fresh
        wall = time.monotonic() - start
        latencies.sort()
        return CaptureStats(
            frames_delivered=frames,
            wall_time=wall,
            achieved_fps=frames / wall if wall > 0 else 0.0,
            latency_p50_ms=_percentile(latencies, 0.50) * 1000.0,
            latency_p99_ms=_percentile(latencies, 0.99) * 1000.0,
            error=error,
            frames_stale=stale,
        )

    # -- input ----------------------------------------------------------

    def send_key(self, keysym: int, down: bool) -> None:
        """Write one key event now, after any queued ones."""
        self.queue_key(keysym, down)
        self.flush()

    def queue_key(self, keysym: int, down: bool) -> None:
        """Queue one key event for the session's next write."""
        self._require_ready()
        event = self._key_events.get((keysym, down))
        if event is None:
            event = self._key_events[keysym, down] = encode_client_message(KeyEvent(down, keysym))
        self._queued += event

    def flush(self) -> None:
        """Write the queued key events now."""
        self._require_ready()
        if self._queued:
            self._send(b"")

    def send_pointer(self, x: int, y: int, button_mask: int = 0) -> None:
        self._require_ready()
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"pointer ({x},{y}) outside {self.width}x{self.height}")
        self._send(encode_client_message(PointerEvent(button_mask, x, y)))


def connect(
    host: str,
    port: int,
    requested_format: PixelFormat = RGBX32,
    timeout: float = DEFAULT_CONNECT_TIMEOUT,
) -> Session:
    """Open, handshake and prime a session against an RFB server.

    On return the session is Ready: the pixel format and raw encoding are
    negotiated and one full framebuffer update has been applied
    (generation 1). A handshake longer than ``timeout`` raises
    ConnectTimeoutError; a connection refused or lost, ConnectionLostError.
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except TimeoutError as exc:
        raise ConnectTimeoutError(f"connect to {host}:{port} timed out") from exc
    except OSError as exc:
        raise ConnectionLostError(f"connect to {host}:{port} failed: {exc}") from exc
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        key = (sock.getsockname(), sock.getpeername())
        server_ends = _IN_PROCESS_CLIENTS[key] = []
        try:
            server_init = perform_handshake(sock, time.monotonic() + timeout)
        finally:
            _IN_PROCESS_CLIENTS.pop(key, None)
        session = Session(sock, server_init, requested_format)
        if server_ends:
            session._server_end = server_ends[0]
        session._send(
            encode_client_message(SetPixelFormat(requested_format))
            + encode_client_message(SetEncodings((ENCODING_RAW,)))
        )
        session.state = SessionState.READY
        session.refresh(timeout)
    except BaseException as exc:
        sock.close()
        if isinstance(exc, TimeoutError):
            raise ConnectTimeoutError(f"handshake with {host}:{port} timed out") from exc
        if isinstance(exc, OSError):
            raise ConnectionLostError(f"connection to {host}:{port} lost: {exc}") from exc
        raise
    return session
