"""Live RFB client session: connection lifecycle, frame capture, input.

A session owns one TCP connection and is strictly single-owner: all
operations run on the caller's thread, and writes hit the wire in call
order. Two capture styles share one loop: a fixed-rate callback loop
paced by :class:`Pacer` and an unrestricted tight poll loop that captures
as fast as the server round-trips.

:class:`Pacer` is fbenv's only absolute-deadline scheduler; the timed
environment and the server's wall-clock ticker use it too.
"""

from __future__ import annotations

import enum
import math
import select
import socket
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
    encode_client_message,
    perform_handshake,
)

DEFAULT_CONNECT_TIMEOUT = 5.0

#: How long poll_frame waits for the server before returning the cached
#: frame; bounds worst-case step latency in timed mode. A lockstep Env
#: waits DEFAULT_CONNECT_TIMEOUT instead and raises, never reusing a frame.
POLL_DEADLINE = 0.1


class SessionState(enum.Enum):
    CONNECTING = "connecting"
    READY = "ready"
    CLOSED = "closed"


@dataclass
class CaptureStats:
    """Outcome of a capture run.

    ``error`` carries the exception that stopped the loop early (callback
    failure or lost connection); None for a clean run.
    """

    frames_delivered: int
    wall_time: float
    achieved_fps: float
    latency_p50_ms: float
    latency_p99_ms: float
    error: Exception | None = None


class Pacer:
    """Absolute-deadline scheduler for a fixed-rate loop.

    The pacing rule: ticks fall on the grid ``start + k * period``, the
    first at ``start``. The next tick is the one whose grid point is
    nearest to when the loop waits for it, and at least the one after the
    last; the ticks between are skipped. A tick fires at its grid point,
    but no sooner than half a period after the previous tick. So a loop
    that falls behind loses ticks, a sleep that wakes late costs none, and
    ticks never bunch.

    :meth:`wait` sleeps with this module's ``time.sleep``; given a ``stop``
    event, it waits on that event instead, so setting it ends the wait.
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
        self._sock = sock
        self.server_init = server_init
        self.format = fmt
        self.framebuffer = Framebuffer.blank(server_init.width, server_init.height, fmt)
        self.state = SessionState.CONNECTING
        self._buffer = bytearray()

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
        try:
            self._sock.sendall(payload)
        except OSError as exc:
            self.close()
            raise ConnectionLostError(f"send failed: {exc}") from exc

    def _recv_into_buffer(self, timeout: float) -> bool:
        """Pull one chunk off the socket; False if nothing arrived in time."""
        try:
            self._sock.settimeout(max(timeout, 0.0))
            chunk = self._sock.recv(65536)
        except (TimeoutError, socket.timeout):
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
        """Decode one message from the buffer, or None if it is incomplete."""
        if not self._buffer:
            return None
        try:
            message, consumed = decode_server_message(
                self._buffer, self.format, (self.width, self.height)
            )
        except IncompleteMessageError:
            return None
        except Exception:
            self.close()
            raise
        del self._buffer[:consumed]
        return message

    def _handle(self, message) -> bool:
        """Apply a framebuffer update and return True; side messages
        (Bell, ServerCutText) are dropped."""
        if isinstance(message, FramebufferUpdate):
            apply_update(self.framebuffer, message)
            return True
        return False

    def _pump_until_update(self, deadline: float) -> bool:
        """Process messages until one update is applied or the deadline hits."""
        while True:
            message = self._decode_buffered()
            if message is not None:
                if self._handle(message):
                    return True
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            if not self._recv_into_buffer(remaining):
                return False

    def _drain_pending(self) -> None:
        """Apply whatever complete messages have already arrived."""
        while True:
            message = self._decode_buffered()
            if message is not None:
                self._handle(message)
                continue
            readable, _, _ = select.select([self._sock], [], [], 0)
            if not readable:
                return
            self._recv_into_buffer(0.0)

    def _full_region(self) -> Rectangle:
        return Rectangle(0, 0, self.width, self.height)

    # -- capture --------------------------------------------------------

    def refresh(self, timeout: float = DEFAULT_CONNECT_TIMEOUT) -> None:
        """Request a full (non-incremental) update and apply it to
        :attr:`framebuffer`; :meth:`snapshot` reads it as gray pixels."""
        self._require_ready()
        self._send(encode_client_message(FramebufferUpdateRequest(False, self._full_region())))
        if not self._pump_until_update(time.monotonic() + timeout):
            raise ConnectionLostError("no framebuffer update within refresh timeout")
        self._drain_pending()

    def poll(self, deadline: float = POLL_DEADLINE) -> bool:
        """Incremental update request; applies whatever the server sends.

        True when at least one update was applied within ``deadline``
        seconds; False means the cached frame is still current.
        """
        self._require_ready()
        self._send(encode_client_message(FramebufferUpdateRequest(True, self._full_region())))
        if self._pump_until_update(time.monotonic() + deadline):
            self._drain_pending()
            return True
        return False

    def poll_frame(self, deadline: float = POLL_DEADLINE) -> GrayFrame:
        """Incremental update request; returns the freshest observation.

        Falls back to the current cached frame when the server sends
        nothing within ``deadline`` seconds.
        """
        self.poll(deadline)
        return self.snapshot()

    def snapshot(self) -> GrayFrame:
        """Grayscale copy of the current framebuffer."""
        return to_grayscale(self.framebuffer)

    def run_fixed_rate(self, fps: float, callback, duration: float | None = None, stop=None) -> CaptureStats:
        """Capture method 1: invoke ``callback(frame, index)`` at a fixed rate.

        Ticks follow the :class:`Pacer` rule at ``1/fps``: ticks the loop
        falls behind are skipped, never bunched. Runs until ``duration``
        elapses or ``stop`` (a threading.Event) is set. A callback exception
        or lost connection ends the run and is surfaced in the stats. Callbacks run on the
        caller's thread and should finish within one frame period or ticks
        will be skipped.
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
        """Poll, time the poll and hand the frame to ``callback`` until
        ``duration`` ends, ``stop`` is set or a step raises; each frame
        waits for ``pacer``'s next tick when one is given."""
        if duration is not None and duration < 0:
            raise ValueError("duration must be non-negative")
        start = time.monotonic() if pacer is None else pacer.start
        end = math.inf if duration is None else start + duration
        frames = 0
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
                frame = self.poll_frame()
                latencies.append(time.monotonic() - poll_started)
                callback(frame, frames)
            except Exception as exc:  # surfaced in stats, not raised
                error = exc
                break
            frames += 1
        wall = time.monotonic() - start
        latencies.sort()
        return CaptureStats(
            frames_delivered=frames,
            wall_time=wall,
            achieved_fps=frames / wall if wall > 0 else 0.0,
            latency_p50_ms=_percentile(latencies, 0.50) * 1000.0,
            latency_p99_ms=_percentile(latencies, 0.99) * 1000.0,
            error=error,
        )

    # -- input ----------------------------------------------------------

    def send_key(self, keysym: int, down: bool) -> None:
        self._require_ready()
        self._send(encode_client_message(KeyEvent(down, keysym)))

    def press_key(self, keysym: int) -> None:
        """Key tap: down then up, written back-to-back."""
        self._require_ready()
        self._send(
            encode_client_message(KeyEvent(True, keysym))
            + encode_client_message(KeyEvent(False, keysym))
        )

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
    (generation 1).
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except (TimeoutError, socket.timeout) as exc:
        raise ConnectTimeoutError(f"connect to {host}:{port} timed out") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(timeout)
    try:
        server_init = perform_handshake(sock)
        session = Session(sock, server_init, requested_format)
        session._send(
            encode_client_message(SetPixelFormat(requested_format))
            + encode_client_message(SetEncodings((ENCODING_RAW,)))
        )
        session.state = SessionState.READY
        session.refresh(timeout)
    except (TimeoutError, socket.timeout) as exc:
        sock.close()
        raise ConnectTimeoutError(f"handshake with {host}:{port} timed out") from exc
    except BaseException:
        sock.close()
        raise
    return session
