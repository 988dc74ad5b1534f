"""In-repo RFB 3.8 server hosting the paddle-balance game.

Every framebuffer update request is answered at once: a full request with
the whole frame, an incremental one with the bounding box of what changed
since the last update, or an empty update. Held arrow keys steer the
paddle, and a space press starts a fresh episode. In lockstep mode each
incremental request runs one tick. A timed server runs tick k at
k / tick_rate seconds after ``start()``, on demand: the ticks due run
before each key event and update and in :meth:`MockServer.game_state` and
:attr:`MockServer.episode`, at most MAX_CATCH_UP seconds of them at once.

One RFB client is served at a time. After the handshake,
:meth:`MockServer._replies` turns received bytes into replies without
blocking. A ``recv`` loop on the connection's thread feeds it, except for
a client that :func:`fbenv.client.connect` opened in this process to a
lockstep server: that client hands each write to a :class:`_ServerEnd` on
its own thread and takes the replies back as bytes, and the connection
only carries the handshake and the hang-up that frees the server.
A side channel on a second port answers "HASH" with the FNV-1a hash of
the frame last sent and the update count. A protocol violation, a
handshake not done within STALL_TIMEOUT or a peer stalled that long drops
that client, counted in :attr:`MockServer.drops`. :meth:`MockServer.stop`
shuts every socket down, which wakes every thread; no tick runs and no
message is applied after it.
"""

from __future__ import annotations

import math
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import game
from .client import _IN_PROCESS_CLIENTS
from .fnv import fnv1a64
from .framebuffer import word_dtype
from .keys import KEY_LEFT, KEY_RIGHT, KEY_SPACE
from .wire import (
    ENCODING_RAW,
    MSG_CLIENT_CUT_TEXT,
    PROTOCOL_VERSION,
    RGBX32,
    FramebufferUpdateRequest,
    KeyEvent,
    PixelFormat,
    Rectangle,
    SetEncodings,
    SetPixelFormat,
    decode_client_message,
    drop_cut_text,
    encode_framebuffer_update,
    read_exact,
)
from .errors import FbenvError, IncompleteMessageError, ProtocolError

SERVER_NAME = "multitask-lite"
STALL_TIMEOUT = 10  # seconds a stalled peer may hold a connection
MAX_SIDE_CHANNEL_LINE = 64  # bytes in one side-channel line; a longer one drops the client
MAX_SIDE_CHANNEL_CLIENTS = 4  # side-channel connections served at once; one more is dropped
MAX_CATCH_UP = 1.0  # seconds of ticks a timed server runs at once; older ticks due are skipped


@dataclass
class ServerConfig:
    port: int = 5900
    side_channel_port: int = 0  # 0 picks a free port
    host: str = "127.0.0.1"
    tick_rate: float = 30.0
    lockstep: bool = False
    auto_reset: bool = False
    seed: int = 0

    def __post_init__(self):
        if not self.lockstep and not 1.0 <= self.tick_rate <= 10000.0:
            raise ValueError(f"tick rate {self.tick_rate} outside 1..10000")


def _true_span(mask: np.ndarray) -> tuple[int, int] | None:
    """Rows ``[first, last + 1)`` of a boolean mask (elements, if 1-D) that
    hold a True, or None; a byte scan costs a fraction of numpy's reductions."""
    flags = mask.tobytes()  # one 0 or 1 byte per value, row by row
    first = flags.find(1)
    if first < 0:
        return None
    row_size = mask.size // len(mask)
    return first // row_size, flags.rfind(1) // row_size + 1


class MockServer:
    """Running server handle; use :func:`serve` or as a context manager."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._side_threads: list[threading.Thread] = []  # one per side-channel client, under the lock
        self._listener: socket.socket | None = None
        self._side_listener: socket.socket | None = None
        self._conns: set[socket.socket] = set()  # open connections, under the lock
        self._drops = 0  # clients dropped on an error, under the lock
        self._last_drop: str | None = None  # "ExceptionType: message", under the lock
        self._episode = 0
        self._game = game.new_game(game.episode_seed(self.config.seed, 0))
        self._started: float | None = None  # when a timed server's tick 0 fell, set by start()
        self._ticks = 0  # ticks a timed server has run or skipped since then
        self._held: set[int] = set()
        self._start_over(RGBX32)
        self._generation = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "MockServer":
        self._listener = self._bind(self.config.port)
        self._side_listener = self._bind(self.config.side_channel_port)
        self._spawn(self._serve_rfb_port, "fbenv-server-accept")
        self._spawn(self._serve_side_port, "fbenv-server-hash")
        if not self.config.lockstep:
            self._started = time.monotonic()
        return self

    def stop(self) -> None:
        """Wake every blocked socket by shutting it down, then join the
        threads and close the listeners."""
        self._stop.set()
        with self._lock:
            sockets = [self._listener, self._side_listener, *self._conns]
        for sock in sockets:
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already closed
        for thread in self._threads:
            thread.join(timeout=5.0)
        with self._lock:  # the accept loops have returned, so no side thread starts now
            side_threads = list(self._side_threads)
        for thread in side_threads:
            thread.join(timeout=5.0)
        for listener in (self._listener, self._side_listener):
            if listener is not None:
                listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def side_channel_port(self) -> int:
        return self._side_listener.getsockname()[1]

    def _bind(self, port: int) -> socket.socket:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, port))
        listener.listen(1)
        return listener

    def _spawn(self, target, name: str, *args) -> None:
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _serve_rfb_port(self) -> None:
        """Serve one RFB client at a time until stop()."""
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._serve_connection(conn, self._serve_client)

    def _serve_side_port(self) -> None:
        """Serve each side-channel connection on its own thread; one beyond
        MAX_SIDE_CHANNEL_CLIENTS is closed at once and counted in drops."""
        while True:
            try:
                conn, _ = self._side_listener.accept()
            except OSError:
                return
            with self._lock:
                self._side_threads = [thread for thread in self._side_threads if thread.is_alive()]
                full = len(self._side_threads) >= MAX_SIDE_CHANNEL_CLIENTS
                if not full:
                    thread = threading.Thread(
                        target=self._serve_connection,
                        args=(conn, self._serve_side_channel),
                        name="fbenv-server-hash-client",
                        daemon=True,
                    )
                    thread.start()
                    self._side_threads.append(thread)
            if full:  # counted before the close, so the client sees the count once it is closed
                self._count_drop(ProtocolError(f"over {MAX_SIDE_CHANNEL_CLIENTS} side-channel connections"))
                conn.close()

    def _serve_connection(self, conn: socket.socket, handler) -> None:
        """Run ``handler`` on one accepted connection, then close it; an
        error drops only that connection."""
        # registered before the stop check, so stop() either shuts this
        # connection down or has already set the flag checked here
        with self._lock:
            self._conns.add(conn)
        try:
            if not self._stop.is_set():
                timeval = struct.pack("ll", STALL_TIMEOUT, 0)
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
                handler(conn)
        except (OSError, FbenvError, ValueError) as exc:  # drop this client, keep listening
            self._count_drop(exc)
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _count_drop(self, exc: Exception) -> None:
        with self._lock:
            self._drops += 1
            self._last_drop = f"{type(exc).__name__}: {exc}"

    # -- game state (all callers hold the lock) -------------------------

    def _start_over(self, fmt: PixelFormat) -> None:
        """Serve ``fmt`` to a client that holds nothing yet (a new client or
        a SetPixelFormat): a blank frame, with no state shown in it."""
        self._format = fmt
        self._frame = np.zeros((game.SCREEN_HEIGHT, game.SCREEN_WIDTH), dtype=word_dtype(fmt))
        self._shown: game.GameState | None = None  # state rendered in the frame

    def _reset_episode(self) -> None:
        self._episode += 1
        self._game = game.new_game(game.episode_seed(self.config.seed, self._episode))

    def _tilt(self) -> int:
        return (-1 if KEY_LEFT in self._held else 0) + (1 if KEY_RIGHT in self._held else 0)

    def _advance_tick(self) -> None:
        if self._game.terminal:
            if self.config.auto_reset:
                self._reset_episode()
            return
        self._game = game.step_game(self._game, self._tilt())

    def _catch_up(self) -> None:
        """Run the ticks a timed server has due: tick k falls k / tick_rate
        seconds after start(). One call runs at most MAX_CATCH_UP seconds of
        them and skips older ones; a stopped server runs none."""
        if self._started is None or self._stop.is_set():
            return
        due = math.floor((time.monotonic() - self._started) * self.config.tick_rate)
        self._ticks = max(self._ticks, due - math.floor(MAX_CATCH_UP * self.config.tick_rate))
        while self._ticks < due:
            self._ticks += 1
            self._advance_tick()

    def game_state(self) -> game.GameState:
        """Snapshot of the current game state (diagnostics and tests)."""
        with self._lock:
            self._catch_up()
            return self._game

    @property
    def episode(self) -> int:
        with self._lock:
            self._catch_up()
            return self._episode

    @property
    def drops(self) -> tuple[int, str | None]:
        """Connections dropped on an error so far, and the last one's
        reason as "ExceptionType: message" (None before the first)."""
        with self._lock:
            return self._drops, self._last_drop

    # -- RFB connection handling -----------------------------------------

    def _serve_client(self, conn: socket.socket) -> None:
        """Handshake, then serve the client with a ``recv`` loop; while a
        client in this process calls its :class:`_ServerEnd` instead, this
        thread parks until conn hangs up."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        end = self._handshake(conn)
        if end is not None:
            hangup = select.poll()  # POLLHUP and POLLERR are always reported
            hangup.register(conn, select.POLLRDHUP)
            hangup.poll()
            with end.guard:  # the client's thread is out of serve()
                end.live = False
            return
        buffer = bytearray()
        while chunk := conn.recv(65536):
            for reply in self._replies(buffer, chunk):
                conn.sendall(reply)

    def _handshake(self, conn: socket.socket) -> _ServerEnd | None:
        """Run the server side of the 3.8 handshake within STALL_TIMEOUT
        and start the client on a fresh frame; a refusal raises
        ProtocolError. Returns the end handed to a client that entered its
        connection in ``_IN_PROCESS_CLIENTS``."""
        deadline = time.monotonic() + STALL_TIMEOUT
        conn.sendall(PROTOCOL_VERSION)
        client_version = read_exact(conn, 12, deadline)
        if client_version != PROTOCOL_VERSION:
            reason = b"only RFB 3.8 is served"
            conn.sendall(struct.pack(">BI", 0, len(reason)) + reason)
            raise ProtocolError(f"refused client version {client_version!r}")
        conn.sendall(struct.pack(">BB", 1, 1))  # one security type: None
        (chosen,) = read_exact(conn, 1, deadline)
        if chosen != 1:
            reason = b"security type None required"
            conn.sendall(struct.pack(">II", 1, len(reason)) + reason)
            raise ProtocolError(f"refused security type {chosen}")
        conn.sendall(struct.pack(">I", 0))  # SecurityResult OK
        read_exact(conn, 1, deadline)  # ClientInit; shared flag ignored, one client anyway
        # the end is handed over before ServerInit goes out: the client
        # may write to it as soon as its handshake returns
        conn.settimeout(None)  # an idle client is kept; SO_SNDTIMEO bounds sends
        with self._lock:
            self._start_over(RGBX32)
            self._generation = 0
        end = None
        if self.config.lockstep:
            ends = _IN_PROCESS_CLIENTS.pop((conn.getpeername(), conn.getsockname()), None)
            if ends is not None:
                end = _ServerEnd(self)
                ends.append(end)
        name = SERVER_NAME.encode("ascii")
        conn.sendall(
            struct.pack(">HH", game.SCREEN_WIDTH, game.SCREEN_HEIGHT)
            + RGBX32.pack()
            + struct.pack(">I", len(name))
            + name
        )
        return end

    def _replies(self, buffer: bytearray, chunk: bytes):
        """Append ``chunk`` to ``buffer`` and apply each complete client
        message in it, yielding each reply; the rest stays in ``buffer``,
        whose applied bytes are deleted once. Never blocks, and applies
        nothing once the server is stopped."""
        buffer.extend(chunk)
        offset = 0
        try:
            while offset < len(buffer) and not self._stop.is_set():
                try:
                    if buffer[offset] == MSG_CLIENT_CUT_TEXT:
                        del buffer[:offset]
                        offset = 0
                        drop_cut_text(buffer)  # the game has no clipboard
                        continue
                    message, consumed = decode_client_message(buffer, offset)
                except IncompleteMessageError:
                    return  # the rest of the message is still in flight
                offset += consumed
                reply = self._dispatch(message)
                if reply is not None:
                    yield reply
        finally:
            del buffer[:offset]

    def _dispatch(self, message) -> bytes | None:
        """Apply one client message and return its reply, if it has one;
        one the server will not serve raises ProtocolError. A PointerEvent
        is ignored: the game has no pointer controls."""
        if isinstance(message, FramebufferUpdateRequest):
            return self._update_payload(message.incremental)
        if isinstance(message, KeyEvent):
            self._on_key(message)
        elif isinstance(message, SetEncodings) and ENCODING_RAW not in message.encodings:
            raise ProtocolError(f"client does not accept raw encoding, only {message.encodings}")
        elif isinstance(message, SetPixelFormat):
            self._on_set_format(message.format)
        return None

    def _on_key(self, event: KeyEvent) -> None:
        with self._lock:
            self._catch_up()
            if event.keysym in (KEY_LEFT, KEY_RIGHT):
                if event.down:
                    self._held.add(event.keysym)
                else:
                    self._held.discard(event.keysym)
            elif event.keysym == KEY_SPACE and event.down:
                self._reset_episode()

    def _on_set_format(self, fmt: PixelFormat) -> None:
        if not fmt.true_color:
            raise ProtocolError("palette pixel formats are not served")
        with self._lock:
            self._start_over(fmt)

    def _update_payload(self, incremental: bool) -> bytes:
        with self._lock:
            self._catch_up()
            if incremental and self.config.lockstep:
                self._advance_tick()
            rectangles = self._draw_game()
            if not incremental:
                full = Rectangle(0, 0, game.SCREEN_WIDTH, game.SCREEN_HEIGHT)
                rectangles = [(full, self._frame.tobytes())]
            self._generation += 1
            return encode_framebuffer_update(rectangles)

    def _draw_game(self) -> list[tuple[Rectangle, bytes]]:
        """Draw the current state over the shown one and return the
        bounding box of the words that changed, found within the drawn rows
        of the two states, outside which both renders are background."""
        if self._shown is self._game:
            return []
        top, bottom = game.drawn_rows(self._game)
        if self._shown is not None:
            shown_top, shown_bottom = game.drawn_rows(self._shown)
            top, bottom = min(top, shown_top), max(bottom, shown_bottom)
        before = self._frame[top:bottom].copy()
        game.draw(self._frame, self._game, self._format, self._shown)
        self._shown = self._game
        changed = self._frame[top:bottom] != before
        rows = _true_span(changed)
        if rows is None:
            return []
        y0, y1 = top + rows[0], top + rows[1]
        x0, x1 = _true_span(changed.any(axis=0))
        return [(Rectangle(x0, y0, x1 - x0, y1 - y0), self._frame[y0:y1, x0:x1].tobytes())]

    # -- diagnostic side channel ------------------------------------------

    def _serve_side_channel(self, conn: socket.socket) -> None:
        pending = b""
        while chunk := conn.recv(4096):
            *lines, pending = (pending + chunk).split(b"\n")
            if max(len(line) for line in (*lines, pending)) > MAX_SIDE_CHANNEL_LINE:
                raise ProtocolError(f"side-channel line over {MAX_SIDE_CHANNEL_LINE} bytes")
            for line in lines:
                if line.strip() == b"HASH":
                    with self._lock:  # hash a copy, so the game never waits on FNV
                        frame = self._frame.tobytes()
                        generation = self._generation
                    conn.sendall(f"{fnv1a64(frame):016x} {generation}\n".encode("ascii"))
                else:
                    conn.sendall(b"ERR unknown command\n")


class _ServerEnd:
    """The server's end of a connection from a client in this process,
    which hands each write to :meth:`serve` on its own thread."""

    def __init__(self, server: MockServer):
        self.guard = threading.Lock()  # held while the client's thread is in serve()
        self.live = True  # False once conn hangs up or the client is dropped, under the guard
        self._server = server
        self._buffer = bytearray()

    def serve(self, data: bytearray) -> bytes | None:
        """Apply the client's bytes, kept as this end's buffer, and return
        the replies whole; None after a hang-up, a stop or a drop."""
        with self.guard:
            if not self.live:
                return None
            self._buffer = self._buffer + data if self._buffer else data  # a burst is kept, not copied
            try:
                replies = b"".join(self._server._replies(self._buffer, b""))
            except (FbenvError, ValueError) as exc:  # drop this client; its hang-up frees the server
                self._server._count_drop(exc)
                self.live = False
                return None
        return None if self._server._stop.is_set() else replies


def serve(config: ServerConfig | None = None) -> MockServer:
    """Start a server and return its running handle."""
    return MockServer(config).start()
