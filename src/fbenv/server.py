"""In-repo RFB 3.8 server hosting the paddle-balance game.

The server answers every framebuffer update request immediately: changed
regions as one raw rectangle, or an empty update when nothing changed,
so clients can poll at snapshot rate. Held arrow keys steer the paddle
(LEFT -> tilt -1, RIGHT -> +1), and a space press starts a fresh episode
from any state. Two clocks are supported: a wall-clock ticker at a
configured rate, paced by :class:`fbenv.client.Pacer`, and lockstep mode
where each incremental update request advances the game exactly one tick
(non-incremental requests never tick; they just resync).

A diagnostic side channel on a second TCP port answers the line "HASH"
with the FNV-1a hash of the framebuffer as of the last update sent plus
the update count, letting tests verify client/server pixel fidelity
without touching the RFB stream. One RFB client is served at a time; a
protocol violation drops that client and the server keeps listening.
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
    PointerEvent,
    Rectangle,
    SetEncodings,
    SetPixelFormat,
    decode_client_message,
    encode_framebuffer_update,
    read_exact,
)
from .errors import FbenvError, IncompleteMessageError

SERVER_NAME = "multitask-lite"


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
        self._active_conn: socket.socket | None = None
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
        self._spawn(self._accept_loop, "fbenv-server-accept")
        self._spawn(self._side_channel_loop, "fbenv-server-hash")
        if not self.config.lockstep:
            self._spawn(self._ticker_loop, "fbenv-server-ticker")
        return self

    def stop(self) -> None:
        self._stop.set()
        for listener in (self._listener, self._side_listener):
            if listener is not None:
                try:
                    listener.close()
                except OSError:
                    pass
        conn = self._active_conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)

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
        listener.settimeout(0.25)  # keep accept loops responsive to stop()
        return listener

    def _accept(self, listener: socket.socket) -> socket.socket | None:
        """Next connection, or None once the server is stopping."""
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
                return conn
            except (TimeoutError, socket.timeout):
                continue
            except OSError:
                return None
        return None

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    # -- game state (all callers hold the lock) -------------------------

    def _render(self) -> np.ndarray:
        fb = game.render(self._game, self._format)
        bpp = self._format.bytes_per_pixel
        return (
            np.frombuffer(fb.pixels, dtype=np.uint8)
            .reshape(game.SCREEN_HEIGHT, game.SCREEN_WIDTH, bpp)
            .copy()
        )

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

    # -- ticker (timed mode) ---------------------------------------------

    def _ticker_loop(self) -> None:
        pacer = Pacer(1.0 / self.config.tick_rate, self._stop)
        pacer.wait()  # the first grid tick is the frame rendered at start-up
        while pacer.wait():
            with self._lock:
                self._advance_tick()

    # -- RFB connection handling -----------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            conn = self._accept(self._listener)
            if conn is None:
                return
            self._active_conn = conn
            try:
                self._serve_client(conn)
            except (OSError, FbenvError, ValueError):
                pass  # drop this client, keep listening
            finally:
                self._active_conn = None
                try:
                    conn.close()
                except OSError:
                    pass

    def _serve_client(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(10.0)
        if not self._handshake(conn):
            return
        with self._lock:
            self._format = RGBX32
            self._canonical = self._render()
            self._mirror = np.zeros_like(self._canonical)
            self._dirty = True
            self._generation = 0
        buffer = bytearray()
        conn.settimeout(0.25)
        while not self._stop.is_set():
            try:
                message, consumed = decode_client_message(buffer)
            except IncompleteMessageError:
                try:
                    chunk = conn.recv(65536)
                except (TimeoutError, socket.timeout):
                    continue
                if not chunk:
                    return
                buffer.extend(chunk)
                continue
            del buffer[:consumed]
            if not self._dispatch(conn, message):
                return

    def _handshake(self, conn: socket.socket) -> bool:
        conn.sendall(PROTOCOL_VERSION)
        client_version = read_exact(conn, 12)
        if client_version != PROTOCOL_VERSION:
            reason = b"only RFB 3.8 is served"
            conn.sendall(struct.pack(">BI", 0, len(reason)) + reason)
            return False
        conn.sendall(struct.pack(">BB", 1, 1))  # one security type: None
        (chosen,) = read_exact(conn, 1)
        if chosen != 1:
            reason = b"security type None required"
            conn.sendall(struct.pack(">II", 1, len(reason)) + reason)
            return False
        conn.sendall(struct.pack(">I", 0))  # SecurityResult OK
        read_exact(conn, 1)  # ClientInit; shared flag ignored, one client anyway
        name = SERVER_NAME.encode("ascii")
        conn.sendall(
            struct.pack(">HH", game.SCREEN_WIDTH, game.SCREEN_HEIGHT)
            + RGBX32.pack()
            + struct.pack(">I", len(name))
            + name
        )
        return True

    def _dispatch(self, conn: socket.socket, message) -> bool:
        """Apply one client message; False drops the connection."""
        if isinstance(message, FramebufferUpdateRequest):
            payload = self._update_payload(message.incremental)
            conn.sendall(payload)
            return True
        if isinstance(message, KeyEvent):
            self._on_key(message)
            return True
        if isinstance(message, PointerEvent):
            return True  # accepted; the game has no pointer controls
        if isinstance(message, SetEncodings):
            return ENCODING_RAW in message.encodings
        if isinstance(message, SetPixelFormat):
            return self._on_set_format(message.format)
        return False

    def _on_key(self, event: KeyEvent) -> None:
        with self._lock:
            if event.keysym in (KEY_LEFT, KEY_RIGHT):
                if event.down:
                    self._held.add(event.keysym)
                else:
                    self._held.discard(event.keysym)
            elif event.keysym == KEY_SPACE and event.down:
                self._reset_episode()

    def _on_set_format(self, fmt: PixelFormat) -> bool:
        if not fmt.true_color:
            return False
        with self._lock:
            self._format = fmt
            self._canonical = self._render()
            self._mirror = np.zeros_like(self._canonical)
            self._dirty = True
        return True

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
        changed = (self._canonical != self._mirror).any(axis=2)
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

    def _side_channel_loop(self) -> None:
        while not self._stop.is_set():
            conn = self._accept(self._side_listener)
            if conn is None:
                return
            try:
                self._serve_side_channel(conn)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _serve_side_channel(self, conn: socket.socket) -> None:
        conn.settimeout(0.25)
        pending = b""
        while not self._stop.is_set():
            try:
                chunk = conn.recv(4096)
            except (TimeoutError, socket.timeout):
                continue
            if not chunk:
                return
            pending += chunk
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                if line.strip() == b"HASH":
                    with self._lock:
                        digest = fnv1a64(self._mirror.tobytes())
                        generation = self._generation
                    conn.sendall(f"{digest:016x} {generation}\n".encode("ascii"))
                else:
                    conn.sendall(b"ERR unknown command\n")


def serve(config: ServerConfig | None = None) -> MockServer:
    """Start a server and return its running handle."""
    return MockServer(config).start()
