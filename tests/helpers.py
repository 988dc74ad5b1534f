"""Independent oracles and scripted peers for the test suite.

Everything here is deliberately written from the documented contracts,
not by calling into the package's own code paths: brute-force pixel
math, a pure-Python forward simulation of the paddle dynamics, a
hand-rolled client-message parser, and small scripted servers.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import select
import socket
import struct
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path

import numpy as np

from fbenv.framebuffer import Framebuffer, GrayFrame, apply_update
from fbenv.wire import RGBX32, FramebufferUpdate, PixelFormat, Rectangle

# -- pixel formats the tests negotiate ---------------------------------------

BGRX32_BE = PixelFormat(32, 24, True, True, 255, 255, 255, 0, 8, 16)
RGB565 = PixelFormat(16, 16, False, True, 31, 63, 31, 11, 5, 0)
RGB332 = PixelFormat(8, 8, False, True, 7, 7, 3, 5, 2, 0)
TEST_FORMATS = (RGBX32, BGRX32_BE, RGB565, RGB332)


# -- paddle dynamics oracle --------------------------------------------------

CONTROL_GAIN = 0.004
DRIFT_GAIN = 0.002
SEED_STRIDE = 0x9E3779B97F4A7C15


def oracle_episode_seed(base_seed: int, episode: int) -> int:
    return (base_seed + episode * SEED_STRIDE) & 0xFFFFFFFFFFFFFFFF


def oracle_start_position(base_seed: int, episode: int) -> float:
    seed = oracle_episode_seed(base_seed, episode)
    return random.Random(seed).uniform(-0.1, 0.1)


def oracle_step(p: float, v: float, tilt: int) -> tuple[float, float]:
    v = v + CONTROL_GAIN * tilt + DRIFT_GAIN * p
    p = p + v
    return p, v


def oracle_trajectory(p0: float, v0: float, tilts) -> list[tuple[float, float]]:
    """(p, v) after each tick for a fixed tilt sequence."""
    points = []
    p, v = p0, v0
    for tilt in tilts:
        p, v = oracle_step(p, v, tilt)
        points.append((p, v))
    return points


def oracle_survival_ticks(p0: float, tilt_fn, max_ticks: int = 100000) -> int:
    """Ticks until |p| > 1 under tilt_fn(tick_index, p, v)."""
    p, v = p0, 0.0
    for tick in range(1, max_ticks + 1):
        p, v = oracle_step(p, v, tilt_fn(tick - 1, p, v))
        if abs(p) > 1.0:
            return tick
    raise AssertionError(f"no terminal within {max_ticks} ticks")


# -- pixel math oracles ------------------------------------------------------


def oracle_gray(r: int, g: int, b: int) -> int:
    """Luminance of one 0..255 RGB pixel, exact half-up rational."""
    return (299 * r + 587 * g + 114 * b + 500) // 1000


def oracle_downsample(values, in_w: int, in_h: int, out_w: int, out_h: int):
    """Brute-force box means over floor-partitioned cells (half-up)."""
    def edges(size, parts):
        return [(i * size) // parts for i in range(parts + 1)]

    row_edges = edges(in_h, out_h)
    col_edges = edges(in_w, out_w)
    out = []
    for i in range(out_h):
        row = []
        for j in range(out_w):
            total = 0
            count = 0
            for y in range(row_edges[i], row_edges[i + 1]):
                for x in range(col_edges[j], col_edges[j + 1]):
                    total += values[y][x]
                    count += 1
            row.append((2 * total + count) // (2 * count))
        out.append(row)
    return out


def oracle_ball_columns(position: float) -> range:
    """Lit ball columns for a position, from the documented geometry."""
    center = int((position + 1.0) / 2.0 * 151 + 0.5)
    return range(max(0, center - 4), min(160, center + 4))


# -- shorthands over the package's public calls -------------------------------


def apply_rectangle(fb: Framebuffer, rect: Rectangle, pixel_bytes: bytes) -> Framebuffer:
    """Overwrite one rectangle through ``apply_update`` (which also bumps
    the generation); a rejected one leaves the pixels untouched."""
    return apply_update(fb, FramebufferUpdate(((rect, pixel_bytes),)))


def crop(frame: GrayFrame, x: int, y: int, width: int, height: int) -> GrayFrame:
    """Copy out a rectangular region of a gray frame."""
    if width < 1 or height < 1:
        raise ValueError("crop dimensions must be positive")
    if x < 0 or y < 0 or x + width > frame.width or y + height > frame.height:
        raise ValueError(f"crop ({x},{y},{width},{height}) exceeds {frame.width}x{frame.height}")
    return GrayFrame(width, height, frame.values[y : y + height, x : x + width].copy())


def values_for(q, key: int) -> np.ndarray:
    """A Q-table's vector for a state, as a new array; zeros when unseen."""
    return np.array(q.row(key)) if key in q.keys() else np.zeros(q.n_actions)


def greedy_policy(q) -> defaultdict:
    """Argmax action of every state a Q-table holds; unseen keys read as
    action 0."""
    policy = defaultdict(int)
    for key in q.keys():
        policy[key] = q.best_action(key)
    return policy


def press_key(session, keysym: int) -> None:
    """Key tap: down then up, in one write."""
    session.queue_key(keysym, True)
    session.send_key(keysym, False)


# -- reference wire parsing --------------------------------------------------


def reference_parse_client_message(data: bytes) -> tuple[str, dict, int]:
    """Hand-rolled RFC-layout parser: (kind, fields, consumed)."""
    kind = data[0]
    if kind == 0:
        fmt = data[4:20]
        fields = {
            "bpp": fmt[0],
            "depth": fmt[1],
            "big_endian": fmt[2],
            "true_color": fmt[3],
            "red_max": (fmt[4] << 8) | fmt[5],
            "green_max": (fmt[6] << 8) | fmt[7],
            "blue_max": (fmt[8] << 8) | fmt[9],
            "red_shift": fmt[10],
            "green_shift": fmt[11],
            "blue_shift": fmt[12],
        }
        return "set_pixel_format", fields, 20
    if kind == 2:
        count = (data[2] << 8) | data[3]
        encodings = []
        for i in range(count):
            raw = int.from_bytes(data[4 + 4 * i : 8 + 4 * i], "big", signed=True)
            encodings.append(raw)
        return "set_encodings", {"encodings": encodings}, 4 + 4 * count
    if kind == 3:
        return (
            "update_request",
            {
                "incremental": data[1],
                "x": (data[2] << 8) | data[3],
                "y": (data[4] << 8) | data[5],
                "width": (data[6] << 8) | data[7],
                "height": (data[8] << 8) | data[9],
            },
            10,
        )
    if kind == 4:
        return (
            "key_event",
            {"down": data[1], "keysym": int.from_bytes(data[4:8], "big")},
            8,
        )
    if kind == 5:
        return (
            "pointer_event",
            {"mask": data[1], "x": (data[2] << 8) | data[3], "y": (data[4] << 8) | data[5]},
            6,
        )
    raise AssertionError(f"unexpected message type {kind}")


# -- encoders for messages fbenv never sends ---------------------------------


def encode_bell() -> bytes:
    return b"\x02"


def encode_server_cut_text(text: str) -> bytes:
    payload = text.encode("latin-1")
    return struct.pack(">B3xI", 3, len(payload)) + payload


def encode_client_cut_text(text: str) -> bytes:
    payload = text.encode("latin-1")
    return struct.pack(">B3xI", 6, len(payload)) + payload


# -- scripted peers ----------------------------------------------------------


class ScriptedSocket:
    """Duplex fake: serves canned bytes, records everything sent."""

    def __init__(self, script: bytes):
        self._script = bytes(script)
        self._offset = 0
        self.sent = bytearray()

    def recv(self, count: int) -> bytes:
        chunk = self._script[self._offset : self._offset + count]
        self._offset += len(chunk)
        return chunk

    def sendall(self, data: bytes) -> None:
        self.sent.extend(data)

    def settimeout(self, value):
        pass

    def close(self):
        pass


def handshake_script(
    greeting: bytes = b"RFB 003.008\n",
    security_types: bytes = b"\x01",
    security_result: int = 0,
    reason: bytes = b"",
    width: int = 160,
    height: int = 160,
    pixel_format: bytes = None,
    name: bytes = b"scripted",
) -> bytes:
    """Server-side byte stream for one handshake, built by hand."""
    if pixel_format is None:
        pixel_format = struct.pack(">BBBBHHHBBB3x", 32, 24, 0, 1, 255, 255, 255, 16, 8, 0)
    parts = [greeting]
    if not security_types:
        parts.append(struct.pack(">B", 0))
        parts.append(struct.pack(">I", len(reason)) + reason)
        return b"".join(parts)
    parts.append(struct.pack(">B", len(security_types)) + security_types)
    parts.append(struct.pack(">I", security_result))
    if security_result != 0:
        parts.append(struct.pack(">I", len(reason)) + reason)
        return b"".join(parts)
    parts.append(struct.pack(">HH", width, height))
    parts.append(pixel_format)
    parts.append(struct.pack(">I", len(name)) + name)
    return b"".join(parts)


class RecordingServer:
    """Real-socket RFB 3.8 stub: full handshake, empty updates, and a
    byte-exact record of everything the client wrote after the handshake.
    ``before_update`` is sent ahead of every update."""

    def __init__(self, width: int = 64, height: int = 48, before_update: bytes = b""):
        self.width = width
        self.height = height
        self.before_update = before_update
        self.raw = bytearray()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._stopped = threading.Event()

    def start(self) -> "RecordingServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopped.set()
        self._listener.close()
        self._thread.join(timeout=5.0)

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def _serve(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        with conn:
            conn.sendall(b"RFB 003.008\n")
            self._read_exact(conn, 12)
            conn.sendall(b"\x01\x01")
            self._read_exact(conn, 1)
            conn.sendall(struct.pack(">I", 0))
            self._read_exact(conn, 1)
            name = b"recorder"
            fmt = struct.pack(">BBBBHHHBBB3x", 32, 24, 0, 1, 255, 255, 255, 16, 8, 0)
            conn.sendall(
                struct.pack(">HH", self.width, self.height) + fmt + struct.pack(">I", len(name)) + name
            )
            conn.settimeout(0.2)
            lengths = {0: 20, 3: 10, 4: 8, 5: 6}
            while not self._stopped.is_set():
                try:
                    first = self._read_exact(conn, 1)
                except (TimeoutError, socket.timeout):
                    continue
                except (OSError, EOFError):
                    return
                kind = first[0]
                if kind == 2:
                    header = self._read_exact(conn, 3)
                    count = (header[1] << 8) | header[2]
                    body = self._read_exact(conn, 4 * count)
                    self.raw.extend(first + header + body)
                    continue
                body = self._read_exact(conn, lengths[kind] - 1)
                self.raw.extend(first + body)
                if kind == 3:
                    conn.sendall(self.before_update + struct.pack(">BxH", 0, 0))  # empty update

    @staticmethod
    def _read_exact(conn, count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = conn.recv(count - len(data))
            if not chunk:
                raise EOFError
            data += chunk
        return data


# -- the side channel --------------------------------------------------------


def side_channel_hash(port: int) -> tuple[int, int]:
    """The server's (mirror digest, update count), asked with one HASH line."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(b"HASH\n")
        line = b""
        while not line.endswith(b"\n"):
            line += sock.recv(64)
    digest, generation = line.split()
    return int(digest, 16), int(generation)


# -- a server in its own process ---------------------------------------------


@contextlib.contextmanager
def server_process(*args: str):
    """Run ``python -m fbenv.cli serve --port 0 *args`` as a child process,
    with stdout piped and ``PYTHONUNBUFFERED`` unset, and yield
    ``(process, port, side-channel port)`` as its banner gives them. The
    child is killed on exit."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    process = subprocess.Popen(
        [sys.executable, "-m", "fbenv.cli", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        ready, _, _ = select.select([process.stdout], [], [], 10.0)
        banner = process.stdout.readline() if ready else ""
        match = re.search(r":(\d+) \(.*\), hash channel on (\d+)$", banner.strip())
        assert match, f"no banner from fbenv serve within 10 s: {banner!r}"
        yield process, int(match[1]), int(match[2])
    finally:
        process.kill()
        process.wait(timeout=5.0)
        process.stdout.close()


# -- a flooding server in its own process ------------------------------------

_FLOOD_SCRIPT = """
import socket, sys, time
script, seconds = bytes.fromhex(sys.argv[1]), float(sys.argv[2])
with socket.create_server(("127.0.0.1", 0)) as listener:
    print(listener.getsockname()[1], flush=True)
    conn, _ = listener.accept()
    with conn:
        try:
            conn.sendall(script)
            flood = bytes(4) * 16384  # empty FramebufferUpdates
            end = time.monotonic() + seconds
            while time.monotonic() < end:
                conn.sendall(flood)
        except OSError:
            pass  # the client hung up
"""


@contextlib.contextmanager
def flooding_server(seconds: float):
    """Run a child process that accepts one client, sends it a whole
    handshake (a 160x160 screen) and then empty FramebufferUpdates
    without pause for ``seconds``, never reading; yield its port. A
    thread would share the GIL with the client and throttle the flood.
    The child is killed on exit."""
    process = subprocess.Popen(
        [sys.executable, "-c", _FLOOD_SCRIPT, handshake_script().hex(), str(seconds)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([process.stdout], [], [], 10.0)
        line = process.stdout.readline().strip() if ready else ""
        assert line.isdigit(), f"no port from the flooding server within 10 s: {line!r}"
        yield int(line)
    finally:
        process.kill()
        process.wait(timeout=5.0)
        process.stdout.close()
