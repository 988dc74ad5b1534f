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
the raw rectangle payload as RFC 6143 sends it. Each tick redraws the
canonical frame in place with :func:`fbenv.game.draw`, clearing only
the previous state's drawn rows; a new client or a SetPixelFormat gets
a freshly rendered one. ``_shown`` records the game state whose render
the mirror holds (None for an all-background mirror). An update sends
nothing while it is the current state, and otherwise compares only the
rows :func:`fbenv.game.drawn_rows` gives for the two states, since every
other row is background in both frames.

A diagnostic side channel on a second TCP port answers the line "HASH"
with the FNV-1a hash of the framebuffer as of the last update sent plus
the update count, letting tests verify client/server pixel fidelity
without touching the RFB stream; a line over MAX_SIDE_CHANNEL_LINE
bytes drops that client. Up to MAX_SIDE_CHANNEL_CLIENTS side-channel
clients are served at once, each on its own thread, so an idle one
blocks no other; one more is closed at once. One RFB client is served
at a time; a protocol violation drops that client and the server keeps
listening.
:attr:`MockServer.drops` counts the connections dropped on an error and
keeps the last one's reason.

The connection protocol after the handshake is one routine,
:meth:`MockServer._replies`: it turns received bytes into the replies to
send and never blocks. Two callers feed it. A client in another
process, a raw socket or a client of a timed server is served by a
``recv`` loop on the connection's thread. A client that
:func:`fbenv.client.connect` opened in this process to a lockstep server
enters its connection in ``fbenv.client._IN_PROCESS_CLIENTS`` before the
handshake; the handshake takes the entry and hands the client the
server's end (:class:`_ServerEnd`), which the client's own thread serves
after each of its writes, so a lockstep step hands no work to another
thread. The connection's thread then parks until the socket hangs up:
the client closes it (or is collected), a drop or ``stop()`` shuts it
down. Every byte still crosses the socket either way.

Sockets block, and :meth:`MockServer.stop` wakes them: it shuts down both
listeners and every open connection, which makes a blocked ``accept()``
raise, a blocked ``recv()`` return ``b""`` and a parked connection thread
see the hang-up, so every thread sees the stop at once. The only
timeouts bound a stalled peer: a handshake that stalls for STALL_TIMEOUT
seconds, or a send that does, drops the client; on the client's thread,
a reply the kernel will not take at once drops it. A connected client
that sends nothing is kept.
"""

from __future__ import annotations

import math
import select
import socket
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import game
from .client import _IN_PROCESS_CLIENTS, Pacer
from .fnv import fnv1a64
from .framebuffer import true_span
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
MAX_SIDE_CHANNEL_LINE = 64  # bytes in one side-channel line; a longer one drops the client
MAX_SIDE_CHANNEL_CLIENTS = 4  # side-channel connections served at once; one more is dropped


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
        self._side_threads: list[threading.Thread] = []  # one per side-channel client, under the lock
        self._listener: socket.socket | None = None
        self._side_listener: socket.socket | None = None
        self._conns: set[socket.socket] = set()  # open connections, under the lock
        self._drops = 0  # clients dropped on an error, under the lock
        self._last_drop: str | None = None  # "ExceptionType: message", under the lock
        self._episode = 0
        self._game = game.new_game(game.episode_seed(self.config.seed, 0))
        self._format = RGBX32
        self._held: set[int] = set()
        self._render()
        self._zero_mirror()
        self._generation = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "MockServer":
        self._listener = self._bind(self.config.port)
        self._side_listener = self._bind(self.config.side_channel_port)
        self._spawn(self._serve_rfb_port, "fbenv-server-accept")
        self._spawn(self._serve_side_port, "fbenv-server-hash")
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
        """Serve one RFB client at a time until stop() shuts the listener
        down."""
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._serve_connection(conn, self._serve_client)

    def _serve_side_port(self) -> None:
        """Serve each side-channel connection on its own thread, so an idle
        one holds up no other. One beyond MAX_SIDE_CHANNEL_CLIENTS is
        closed at once and counted in :attr:`drops`."""
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

    def _render(self) -> None:
        """Draw the current state into a fresh canonical frame."""
        self._canonical = game.render(self._game, self._format).as_words()

    def _start_over(self, fmt: PixelFormat) -> None:
        """Serve ``fmt`` to a client that holds nothing yet (a new client or
        a SetPixelFormat). The in-place draws keep the canonical frame
        current, so only a new format renders it afresh."""
        if fmt != self._format:
            self._format = fmt
            self._render()
        self._zero_mirror()

    def _zero_mirror(self) -> None:
        """Forget what the client holds."""
        self._mirror = np.zeros_like(self._canonical)
        self._shown: game.GameState | None = None  # state rendered in the mirror

    def _reset_episode(self) -> None:
        self._episode += 1
        previous, self._game = self._game, game.new_game(game.episode_seed(self.config.seed, self._episode))
        game.draw(self._canonical, self._game, self._format, previous)

    def _tilt(self) -> int:
        return (-1 if KEY_LEFT in self._held else 0) + (1 if KEY_RIGHT in self._held else 0)

    def _advance_tick(self) -> None:
        if self._game.terminal:
            if self.config.auto_reset:
                self._reset_episode()
            return
        previous, self._game = self._game, game.step_game(self._game, self._tilt())
        game.draw(self._canonical, self._game, self._format, previous)

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
        """Handshake, then serve the client with a ``recv`` loop; a client
        in this process that entered its connection serves this end on its
        own thread instead, while this thread parks until conn hangs up."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(STALL_TIMEOUT)
        end = self._handshake(conn)
        if end is not None:
            hangup = select.poll()  # POLLHUP and POLLERR are always reported
            hangup.register(conn, select.POLLRDHUP)
            hangup.poll()
            with end.guard:  # the client's thread is done with conn
                end.conn = None
            return
        buffer = bytearray()
        while chunk := conn.recv(65536):
            for reply in self._replies(buffer, chunk):
                conn.sendall(reply)

    def _handshake(self, conn: socket.socket) -> _ServerEnd | None:
        """Run the server side of the 3.8 handshake and start the client
        on a fresh frame; a refusal sends its reason, then raises
        ProtocolError to drop the client. Returns the :class:`_ServerEnd`
        handed to a client that entered its connection in
        ``_IN_PROCESS_CLIENTS`` before the handshake."""
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
        # conn blocks and the end is handed over before ServerInit goes
        # out: the client may serve conn as soon as its handshake returns
        conn.settimeout(None)  # an idle client is kept; SO_SNDTIMEO bounds sends
        with self._lock:
            self._start_over(RGBX32)
            self._generation = 0
        end = None
        if self.config.lockstep:
            ends = _IN_PROCESS_CLIENTS.pop((conn.getpeername(), conn.getsockname()), None)
            if ends is not None:
                end = _ServerEnd(self, conn)
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
        message in it, yielding the bytes each one answers with; the rest
        of a message still in flight stays in ``buffer``. Never blocks."""
        buffer.extend(chunk)
        while buffer:
            try:
                message, consumed = decode_client_message(buffer)
            except IncompleteMessageError:
                return  # the rest of the message is still in flight
            del buffer[:consumed]
            reply = self._dispatch(message)
            if reply is not None:
                yield reply

    def _dispatch(self, message) -> bytes | None:
        """Apply one client message and return its reply, if it has one;
        one the server will not serve raises ProtocolError, which drops the
        client. A PointerEvent or a ClientCutText is accepted and ignored:
        the game has no pointer controls and no clipboard."""
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
            if self.config.lockstep and incremental:
                self._advance_tick()
            if incremental:
                rectangles = self._diff_rectangles()
            else:
                full = Rectangle(0, 0, game.SCREEN_WIDTH, game.SCREEN_HEIGHT)
                rectangles = [(full, self._canonical.tobytes())]
                self._mirror[:] = self._canonical
                self._shown = self._game
            self._generation += 1
            return encode_framebuffer_update(rectangles)

    def _diff_rectangles(self) -> list[tuple[Rectangle, bytes]]:
        """The bounding box of the words that differ, copied into the
        mirror. Only the rows spanning the drawn rows of the shown and
        the current state can differ."""
        if self._shown is self._game:
            return []
        top, bottom = game.drawn_rows(self._game)
        if self._shown is not None:
            shown_top, shown_bottom = game.drawn_rows(self._shown)
            top, bottom = min(top, shown_top), max(bottom, shown_bottom)
        self._shown = self._game  # once the box below is copied, mirror == canonical
        changed = self._canonical[top:bottom] != self._mirror[top:bottom]
        rows = true_span(changed)
        if rows is None:
            return []
        y0, y1 = top + rows[0], top + rows[1]
        x0, x1 = true_span(changed.any(axis=0))
        region = self._canonical[y0:y1, x0:x1]
        self._mirror[y0:y1, x0:x1] = region
        return [(Rectangle(x0, y0, x1 - x0, y1 - y0), region.tobytes())]

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
                        mirror = self._mirror.tobytes()
                        generation = self._generation
                    conn.sendall(f"{fnv1a64(mirror):016x} {generation}\n".encode("ascii"))
                else:
                    conn.sendall(b"ERR unknown command\n")


class _ServerEnd:
    """The server's end of a connection from a client in this process.

    The connection's thread runs the handshake and hands this end to the
    client, which calls :meth:`serve` on its own thread after each write.
    The connection's thread parks until :attr:`conn` hangs up, then sets
    it to None and closes it.
    """

    def __init__(self, server: MockServer, conn: socket.socket):
        self.conn: socket.socket | None = conn  # None once conn hangs up or the client is dropped
        self.guard = threading.Lock()  # held while the client's thread uses conn
        self._server = server
        self._buffer = bytearray()

    def serve(self, written: int) -> float:
        """Answer the ``written`` bytes the client has just sent, and return
        how many bytes of replies the client has to read: all of them are
        sent before this returns, or inf once conn is shut down, so the
        client reads on to the end of the stream.

        A ``recv`` finds them at once on loopback; if they are still in
        flight it waits for them, for up to STALL_TIMEOUT. Replies go out
        without blocking: one the kernel will not take in full means the
        client stopped reading, and drops it, like any other error here.
        """
        sent = 0
        with self.guard:
            if self.conn is None:
                return math.inf
            try:
                while written > 0:
                    chunk = self._receive()
                    if not chunk:  # stop() shut conn down
                        return math.inf
                    written -= len(chunk)
                    for reply in self._server._replies(self._buffer, chunk):
                        if self.conn.send(reply, socket.MSG_DONTWAIT) < len(reply):
                            raise BlockingIOError("the client stopped reading")
                        sent += len(reply)
            except (OSError, FbenvError, ValueError) as exc:  # drop this client
                self._server._count_drop(exc)
                try:
                    self.conn.shutdown(socket.SHUT_RDWR)  # the client sees the end, the parked thread wakes
                except OSError:
                    pass
                self.conn = None  # what the client sent after the fault is not served
                return math.inf
        return sent

    def _receive(self) -> bytes:
        """One chunk of what the client wrote; b"" once it has closed."""
        try:
            return self.conn.recv(65536, socket.MSG_DONTWAIT)
        except BlockingIOError:  # still in flight
            self.conn.settimeout(STALL_TIMEOUT)
            try:
                return self.conn.recv(65536)
            finally:
                self.conn.settimeout(None)


def serve(config: ServerConfig | None = None) -> MockServer:
    """Start a server and return its running handle."""
    return MockServer(config).start()
