"""In-repo RFB 3.8 server hosting the paddle-balance game.

The server answers every framebuffer update request immediately: changed
regions as one raw rectangle, or an empty update when nothing changed,
so clients can poll at snapshot rate. Held arrow keys steer the paddle
(LEFT -> tilt -1, RIGHT -> +1), and a space press starts a fresh episode
from any state. Two clocks are supported: a wall-clock ticker at a
configured rate, paced by :class:`fbenv.client.Pacer`, and lockstep mode
where each incremental update request advances the game exactly one tick
(non-incremental requests never tick; they just resync).

The server holds two frames: the canonical frame (the game's latest
render) and the mirror (what the client has been sent). Both are
``(height, width)`` arrays of one word per pixel in the negotiated
format (:func:`fbenv.framebuffer.word_dtype`), so an incremental update
is the bounding box of the words that differ, and its ``tobytes()`` is
the raw rectangle payload as RFC 6143 sends it.

A diagnostic side channel on a second TCP port answers the line "HASH"
with the FNV-1a hash of the framebuffer as of the last update sent plus
the update count, letting tests verify client/server pixel fidelity
without touching the RFB stream. One RFB client is served at a time; a
protocol violation drops that client and the server keeps listening.
:attr:`MockServer.drops` counts the connections dropped on an error and
keeps the last one's reason.

Sockets block, and :meth:`MockServer.stop` wakes them: it shuts down both
listeners and every open connection, which makes a blocked ``accept()``
raise and a blocked ``recv()`` return ``b""``, so every thread sees the
stop at once. The only timeouts bound a stalled peer: a handshake that
stalls for STALL_TIMEOUT seconds, or a send that does, drops the client.
A connected client that sends nothing is kept.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import game
from .client import Pacer
from .fnv import fnv1a64
from .keys import KEY_LEFT, KEY_RIGHT, KEY_SPACE
from .wire import (
    ENCODING_RAW,
    PROTOCOL_VERSION,
    RGBX32,
    FramebufferUpdateRequest,
    KeyEvent,
    PixelFormat,
    Rectangle,
    SetEncodings,
    SetPixelFormat,
    decode_client_message,
    encode_framebuffer_update,
    read_exact,
)
from .errors import FbenvError, IncompleteMessageError, ProtocolError

SERVER_NAME = "multitask-lite"
STALL_TIMEOUT = 10  # seconds a stalled peer may hold a connection


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


class MockServer:
    """Running server handle; use :func:`serve` or as a context manager."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._side_listener: socket.socket | None = None
        self._conns: set[socket.socket] = set()  # open connections, under the lock
        self._drops = 0  # clients dropped on an error, under the lock
        self._last_drop: str | None = None  # "ExceptionType: message", under the lock
        self._episode = 0
        self._game = game.new_game(game.episode_seed(self.config.seed, 0))
        self._format = RGBX32
        self._held: set[int] = set()
        self._canonical = self._render()
        self._mirror = self._canonical.copy()
        self._dirty = False  # canonical changed since the mirror was synced
        self._generation = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "MockServer":
        self._listener = self._bind(self.config.port)
        self._side_listener = self._bind(self.config.side_channel_port)
        self._spawn(self._serve_port, "fbenv-server-accept", self._listener, self._serve_client)
        self._spawn(self._serve_port, "fbenv-server-hash", self._side_listener, self._serve_side_channel)
        if not self.config.lockstep:
            self._spawn(self._ticker_loop, "fbenv-server-ticker")
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

    def _serve_port(self, listener: socket.socket, handler) -> None:
        """Serve one connection at a time with ``handler`` until stop()
        shuts ``listener`` down; an error drops only that connection."""
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
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
                with self._lock:
                    self._drops += 1
                    self._last_drop = f"{type(exc).__name__}: {exc}"
            finally:
                with self._lock:
                    self._conns.discard(conn)
                conn.close()

    # -- game state (all callers hold the lock) -------------------------

    def _render(self) -> np.ndarray:
        return game.render(self._game, self._format).as_words()

    def _reset_episode(self) -> None:
        self._episode += 1
        self._game = game.new_game(game.episode_seed(self.config.seed, self._episode))
        self._canonical = self._render()
        self._dirty = True

    def _tilt(self) -> int:
        return (-1 if KEY_LEFT in self._held else 0) + (1 if KEY_RIGHT in self._held else 0)

    def _advance_tick(self) -> None:
        if self._game.terminal:
            if self.config.auto_reset:
                self._reset_episode()
            return
        self._game = game.step_game(self._game, self._tilt())
        self._canonical = self._render()
        self._dirty = True

    def game_state(self) -> game.GameState:
        """Snapshot of the current game state (diagnostics and tests)."""
        with self._lock:
            return self._game

    @property
    def episode(self) -> int:
        with self._lock:
            return self._episode

    @property
    def drops(self) -> tuple[int, str | None]:
        """Connections dropped on an error so far, and the last one's
        reason as "ExceptionType: message" (None before the first)."""
        with self._lock:
            return self._drops, self._last_drop

    # -- ticker (timed mode) ---------------------------------------------

    def _ticker_loop(self) -> None:
        pacer = Pacer(1.0 / self.config.tick_rate, self._stop)
        pacer.wait()  # the first grid tick is the frame rendered at start-up
        while pacer.wait():
            with self._lock:
                self._advance_tick()

    # -- RFB connection handling -----------------------------------------

    def _serve_client(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(STALL_TIMEOUT)
        self._handshake(conn)
        with self._lock:
            self._format = RGBX32
            self._canonical = self._render()
            self._mirror = np.zeros_like(self._canonical)
            self._dirty = True
            self._generation = 0
        buffer = bytearray()
        conn.settimeout(None)  # an idle client is kept; SO_SNDTIMEO bounds sends
        while chunk := conn.recv(65536):
            buffer.extend(chunk)
            while buffer:
                try:
                    message, consumed = decode_client_message(buffer)
                except IncompleteMessageError:
                    break  # the rest of the message is still in flight
                del buffer[:consumed]
                self._dispatch(conn, message)

    def _handshake(self, conn: socket.socket) -> None:
        """Run the server side of the 3.8 handshake; a refusal sends its
        reason, then raises ProtocolError to drop the client."""
        conn.sendall(PROTOCOL_VERSION)
        client_version = read_exact(conn, 12)
        if client_version != PROTOCOL_VERSION:
            reason = b"only RFB 3.8 is served"
            conn.sendall(struct.pack(">BI", 0, len(reason)) + reason)
            raise ProtocolError(f"refused client version {client_version!r}")
        conn.sendall(struct.pack(">BB", 1, 1))  # one security type: None
        (chosen,) = read_exact(conn, 1)
        if chosen != 1:
            reason = b"security type None required"
            conn.sendall(struct.pack(">II", 1, len(reason)) + reason)
            raise ProtocolError(f"refused security type {chosen}")
        conn.sendall(struct.pack(">I", 0))  # SecurityResult OK
        read_exact(conn, 1)  # ClientInit; shared flag ignored, one client anyway
        name = SERVER_NAME.encode("ascii")
        conn.sendall(
            struct.pack(">HH", game.SCREEN_WIDTH, game.SCREEN_HEIGHT)
            + RGBX32.pack()
            + struct.pack(">I", len(name))
            + name
        )

    def _dispatch(self, conn: socket.socket, message) -> None:
        """Apply one client message; one the server will not serve raises
        ProtocolError, which drops the client. A PointerEvent is accepted
        and ignored: the game has no pointer controls."""
        if isinstance(message, FramebufferUpdateRequest):
            conn.sendall(self._update_payload(message.incremental))
        elif isinstance(message, KeyEvent):
            self._on_key(message)
        elif isinstance(message, SetEncodings) and ENCODING_RAW not in message.encodings:
            raise ProtocolError(f"client does not accept raw encoding, only {message.encodings}")
        elif isinstance(message, SetPixelFormat):
            self._on_set_format(message.format)

    def _on_key(self, event: KeyEvent) -> None:
        with self._lock:
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
            self._format = fmt
            self._canonical = self._render()
            self._mirror = np.zeros_like(self._canonical)
            self._dirty = True

    def _update_payload(self, incremental: bool) -> bytes:
        with self._lock:
            if self.config.lockstep and incremental:
                self._advance_tick()
            if incremental:
                rectangles = self._diff_rectangles()
            else:
                full = Rectangle(0, 0, game.SCREEN_WIDTH, game.SCREEN_HEIGHT)
                rectangles = [(full, self._canonical.tobytes())]
                self._mirror[:] = self._canonical
                self._dirty = False
            self._generation += 1
            return encode_framebuffer_update(rectangles)

    def _diff_rectangles(self) -> list[tuple[Rectangle, bytes]]:
        if not self._dirty:
            return []
        self._dirty = False
        changed = self._canonical != self._mirror
        rows = np.flatnonzero(changed.any(axis=1))
        if rows.size == 0:
            return []
        cols = np.flatnonzero(changed.any(axis=0))
        y0, y1 = int(rows[0]), int(rows[-1]) + 1
        x0, x1 = int(cols[0]), int(cols[-1]) + 1
        region = self._canonical[y0:y1, x0:x1]
        self._mirror[y0:y1, x0:x1] = region
        return [(Rectangle(x0, y0, x1 - x0, y1 - y0), region.tobytes())]

    # -- diagnostic side channel ------------------------------------------

    def _serve_side_channel(self, conn: socket.socket) -> None:
        pending = b""
        while chunk := conn.recv(4096):
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                if line.strip() == b"HASH":
                    with self._lock:  # hash a copy, so the game never waits on FNV
                        mirror = self._mirror.tobytes()
                        generation = self._generation
                    conn.sendall(f"{fnv1a64(mirror):016x} {generation}\n".encode("ascii"))
                else:
                    conn.sendall(b"ERR unknown command\n")


def serve(config: ServerConfig | None = None) -> MockServer:
    """Start a server and return its running handle."""
    return MockServer(config).start()
