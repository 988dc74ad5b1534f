"""Byte-exact codec for the RFB 3.8 subset this harness speaks.

Covers the 3.8 handshake with security type None, the five standard
client-to-server messages, and server-to-client messages limited to raw
(encoding 0) framebuffer updates, Bell and ServerCutText. All multi-byte
integers are big-endian on the wire.

Decoders are pure functions over byte buffers and return the number of
bytes consumed, so callers own the socket buffering. A buffer that ends
mid-message raises :class:`IncompleteMessageError`, which is retryable
once more bytes have arrived.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from .errors import (
    ConnectionLostError,
    HandshakeRefusedError,
    IncompleteMessageError,
    ProtocolError,
    UnsupportedEncodingError,
    UnsupportedSecurityError,
    UnsupportedVersionError,
)

PROTOCOL_VERSION = b"RFB 003.008\n"

SECURITY_NONE = 1

# client-to-server message types
MSG_SET_PIXEL_FORMAT = 0
MSG_SET_ENCODINGS = 2
MSG_FRAMEBUFFER_UPDATE_REQUEST = 3
MSG_KEY_EVENT = 4
MSG_POINTER_EVENT = 5

# server-to-client message types
MSG_FRAMEBUFFER_UPDATE = 0
MSG_SET_COLOUR_MAP_ENTRIES = 1
MSG_BELL = 2
MSG_SERVER_CUT_TEXT = 3

ENCODING_RAW = 0

#: Longest ServerCutText a client accepts; a longer declared length is a
#: protocol error before any of its bytes are buffered.
MAX_CUT_TEXT_LENGTH = 1 << 20

#: Most pixel bytes one FramebufferUpdate may declare, in full screens of
#: the negotiated format; a rectangle that takes the running total past it
#: is a protocol error before any of its bytes are buffered.
MAX_UPDATE_SCREENS = 2

_PIXEL_FORMAT_STRUCT = struct.Struct(">BBBBHHHBBB3x")
_VERSION_RE = re.compile(rb"^RFB (\d{3})\.(\d{3})\n$")


@dataclass(frozen=True)
class PixelFormat:
    """Negotiated pixel layout, mirroring the 16-byte wire structure."""

    bits_per_pixel: int
    depth: int
    big_endian: bool
    true_color: bool
    red_max: int
    green_max: int
    blue_max: int
    red_shift: int
    green_shift: int
    blue_shift: int

    def __post_init__(self):
        if self.bits_per_pixel not in (8, 16, 32):
            raise ValueError(f"bits-per-pixel must be 8, 16 or 32, got {self.bits_per_pixel}")
        if not 1 <= self.depth <= self.bits_per_pixel:
            raise ValueError(f"depth {self.depth} outside 1..{self.bits_per_pixel}")
        if self.true_color:
            used = 0
            for name, cmax, shift in (
                ("red", self.red_max, self.red_shift),
                ("green", self.green_max, self.green_shift),
                ("blue", self.blue_max, self.blue_shift),
            ):
                bits = cmax.bit_length()
                if cmax < 1 or cmax != (1 << bits) - 1:
                    raise ValueError(f"{name}-max {cmax} is not 2^k - 1")
                if shift < 0 or shift + bits > self.bits_per_pixel:
                    raise ValueError(f"{name} channel exceeds {self.bits_per_pixel} bits")
                mask = cmax << shift
                if used & mask:
                    raise ValueError("color channels overlap")
                used |= mask

    @property
    def bytes_per_pixel(self) -> int:
        return self.bits_per_pixel // 8

    def pack(self) -> bytes:
        return _PIXEL_FORMAT_STRUCT.pack(
            self.bits_per_pixel,
            self.depth,
            1 if self.big_endian else 0,
            1 if self.true_color else 0,
            self.red_max,
            self.green_max,
            self.blue_max,
            self.red_shift,
            self.green_shift,
            self.blue_shift,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "PixelFormat":
        bpp, depth, be, tc, rmax, gmax, bmax, rsh, gsh, bsh = _PIXEL_FORMAT_STRUCT.unpack(data)
        try:
            return cls(bpp, depth, bool(be), bool(tc), rmax, gmax, bmax, rsh, gsh, bsh)
        except ValueError as exc:
            raise ProtocolError(f"invalid pixel format: {exc}") from exc


#: Canonical client format: 32 bpp true-color, depth 24, little-endian
#: pixel bytes, channel shifts R=16 / G=8 / B=0.
RGBX32 = PixelFormat(
    bits_per_pixel=32,
    depth=24,
    big_endian=False,
    true_color=True,
    red_max=255,
    green_max=255,
    blue_max=255,
    red_shift=16,
    green_shift=8,
    blue_shift=0,
)


@dataclass(frozen=True)
class Rectangle:
    x: int
    y: int
    width: int
    height: int
    encoding: int = ENCODING_RAW

    def __post_init__(self):
        if self.width < 0 or self.height < 0:
            raise ValueError("rectangle dimensions must be non-negative")


@dataclass(frozen=True)
class SetPixelFormat:
    format: PixelFormat


@dataclass(frozen=True)
class SetEncodings:
    encodings: tuple[int, ...]


@dataclass(frozen=True)
class FramebufferUpdateRequest:
    incremental: bool
    region: Rectangle


@dataclass(frozen=True)
class KeyEvent:
    down: bool
    keysym: int


@dataclass(frozen=True)
class PointerEvent:
    button_mask: int
    x: int
    y: int


ClientMessage = SetPixelFormat | SetEncodings | FramebufferUpdateRequest | KeyEvent | PointerEvent


@dataclass(frozen=True)
class FramebufferUpdate:
    rectangles: tuple[tuple[Rectangle, bytes], ...]


@dataclass(frozen=True)
class Bell:
    pass


@dataclass(frozen=True)
class ServerCutText:
    text: str


ServerMessage = FramebufferUpdate | Bell | ServerCutText


@dataclass(frozen=True)
class ServerInit:
    width: int
    height: int
    native_format: PixelFormat
    name: str

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("screen dimensions must be positive")


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{name} {value} outside {lo}..{hi}")


def encode_client_message(msg: ClientMessage) -> bytes:
    """Serialize one client-to-server message to its exact wire bytes.

    Raises ValueError if any field falls outside its wire integer range.
    """
    if isinstance(msg, SetPixelFormat):
        return struct.pack(">B3x", MSG_SET_PIXEL_FORMAT) + msg.format.pack()
    if isinstance(msg, SetEncodings):
        _check_range("encoding count", len(msg.encodings), 0, 0xFFFF)
        for enc in msg.encodings:
            _check_range("encoding id", enc, -(1 << 31), (1 << 31) - 1)
        return struct.pack(
            f">BxH{len(msg.encodings)}i", MSG_SET_ENCODINGS, len(msg.encodings), *msg.encodings
        )
    if isinstance(msg, FramebufferUpdateRequest):
        r = msg.region
        for name, value in (("x", r.x), ("y", r.y), ("width", r.width), ("height", r.height)):
            _check_range(name, value, 0, 0xFFFF)
        return struct.pack(
            ">BBHHHH",
            MSG_FRAMEBUFFER_UPDATE_REQUEST,
            1 if msg.incremental else 0,
            r.x,
            r.y,
            r.width,
            r.height,
        )
    if isinstance(msg, KeyEvent):
        _check_range("keysym", msg.keysym, 0, 0xFFFFFFFF)
        return struct.pack(">BB2xI", MSG_KEY_EVENT, 1 if msg.down else 0, msg.keysym)
    if isinstance(msg, PointerEvent):
        _check_range("button mask", msg.button_mask, 0, 0xFF)
        _check_range("x", msg.x, 0, 0xFFFF)
        _check_range("y", msg.y, 0, 0xFFFF)
        return struct.pack(">BBHH", MSG_POINTER_EVENT, msg.button_mask, msg.x, msg.y)
    raise TypeError(f"not a client message: {msg!r}")


def _need(data, count: int) -> None:
    if len(data) < count:
        raise IncompleteMessageError(f"need {count} bytes, have {len(data)}")


def decode_client_message(data) -> tuple[ClientMessage, int]:
    """Parse one client message from the front of ``data``.

    Returns the message and the number of bytes consumed. Used by the
    in-repo server and as the decode half of round-trip checks.
    """
    _need(data, 1)
    msg_type = data[0]
    if msg_type == MSG_SET_PIXEL_FORMAT:
        _need(data, 20)
        return SetPixelFormat(PixelFormat.unpack(bytes(data[4:20]))), 20
    if msg_type == MSG_SET_ENCODINGS:
        _need(data, 4)
        (count,) = struct.unpack(">H", data[2:4])
        _need(data, 4 + 4 * count)
        encodings = struct.unpack(f">{count}i", data[4 : 4 + 4 * count])
        return SetEncodings(tuple(encodings)), 4 + 4 * count
    if msg_type == MSG_FRAMEBUFFER_UPDATE_REQUEST:
        _need(data, 10)
        incremental, x, y, w, h = struct.unpack(">BHHHH", data[1:10])
        return FramebufferUpdateRequest(bool(incremental), Rectangle(x, y, w, h)), 10
    if msg_type == MSG_KEY_EVENT:
        _need(data, 8)
        down, keysym = struct.unpack(">B2xI", data[1:8])
        return KeyEvent(bool(down), keysym), 8
    if msg_type == MSG_POINTER_EVENT:
        _need(data, 6)
        mask, x, y = struct.unpack(">BHH", data[1:6])
        return PointerEvent(mask, x, y), 6
    raise ProtocolError(f"unknown client message type {msg_type}")


def encode_framebuffer_update(rectangles) -> bytes:
    """Serialize a FramebufferUpdate carrying raw-encoded rectangles.

    ``rectangles`` is a sequence of (Rectangle, pixel-bytes) pairs; the
    payload length must already match width * height * bytes-per-pixel.
    """
    parts = [struct.pack(">BxH", MSG_FRAMEBUFFER_UPDATE, len(rectangles))]
    for rect, payload in rectangles:
        parts.append(struct.pack(">HHHHi", rect.x, rect.y, rect.width, rect.height, rect.encoding))
        parts.append(bytes(payload))
    return b"".join(parts)


def encode_server_cut_text(text: str) -> bytes:
    payload = text.encode("latin-1")
    return struct.pack(">B3xI", MSG_SERVER_CUT_TEXT, len(payload)) + payload


def encode_bell() -> bytes:
    return struct.pack(">B", MSG_BELL)


def decode_server_message(data, fmt: PixelFormat, screen: tuple[int, int]) -> tuple[ServerMessage, int]:
    """Parse one server message from the front of ``data``.

    ``fmt`` sizes raw rectangle payloads; ``screen`` is the announced
    (width, height) used to bounds-check rectangles. Returns the message
    and the bytes consumed. Never reads past a rectangle's declared
    pixel-byte length, and never waits for an update's pixels past
    ``MAX_UPDATE_SCREENS`` screens.
    """
    _need(data, 1)
    msg_type = data[0]
    if msg_type == MSG_FRAMEBUFFER_UPDATE:
        _need(data, 4)
        (count,) = struct.unpack(">H", data[2:4])
        screen_w, screen_h = screen
        payload_cap = MAX_UPDATE_SCREENS * screen_w * screen_h * fmt.bytes_per_pixel
        declared = 0
        offset = 4
        rectangles = []
        for _ in range(count):
            _need(data, offset + 12)
            x, y, w, h, encoding = struct.unpack(">HHHHi", data[offset : offset + 12])
            offset += 12
            if encoding != ENCODING_RAW:
                raise UnsupportedEncodingError(f"encoding {encoding} not supported (raw only)")
            if x + w > screen_w or y + h > screen_h:
                raise ProtocolError(
                    f"rectangle ({x},{y},{w},{h}) outside {screen_w}x{screen_h} screen"
                )
            payload_len = w * h * fmt.bytes_per_pixel
            declared += payload_len
            if declared > payload_cap:
                raise ProtocolError(
                    f"update declares over {payload_cap} pixel bytes ({MAX_UPDATE_SCREENS} screens)"
                )
            _need(data, offset + payload_len)
            rectangles.append((Rectangle(x, y, w, h), bytes(data[offset : offset + payload_len])))
            offset += payload_len
        return FramebufferUpdate(tuple(rectangles)), offset
    if msg_type == MSG_SET_COLOUR_MAP_ENTRIES:
        raise UnsupportedEncodingError(
            "SetColourMapEntries not supported (client negotiates true color)"
        )
    if msg_type == MSG_BELL:
        return Bell(), 1
    if msg_type == MSG_SERVER_CUT_TEXT:
        _need(data, 8)
        (length,) = struct.unpack(">I", data[4:8])
        if length > MAX_CUT_TEXT_LENGTH:
            raise ProtocolError(f"cut text of {length} bytes exceeds {MAX_CUT_TEXT_LENGTH}")
        _need(data, 8 + length)
        return ServerCutText(bytes(data[8 : 8 + length]).decode("latin-1")), 8 + length
    raise ProtocolError(f"unknown server message type {msg_type}")


def read_exact(sock, count: int) -> bytes:
    """Read exactly ``count`` bytes from a socket-like object."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionLostError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def perform_handshake(sock) -> ServerInit:
    """Run the client side of the RFB 3.8 handshake over ``sock``.

    Negotiates protocol 3.8 with security type None and shared access,
    then returns the parsed ServerInit. ``sock`` needs ``recv`` and
    ``sendall``; socket timeouts propagate to the caller.
    """
    greeting = read_exact(sock, 12)
    match = _VERSION_RE.match(greeting)
    if match is None:
        raise ProtocolError(f"malformed version greeting {greeting!r}")
    major, minor = int(match.group(1)), int(match.group(2))
    if (major, minor) < (3, 8):
        raise UnsupportedVersionError(f"server speaks RFB {major}.{minor}, need 3.8")
    sock.sendall(PROTOCOL_VERSION)

    (n_security,) = read_exact(sock, 1)
    if n_security == 0:
        raise HandshakeRefusedError(_read_reason(sock))
    security_types = read_exact(sock, n_security)
    if SECURITY_NONE not in security_types:
        raise UnsupportedSecurityError(
            f"server offers security types {list(security_types)}, need None (1)"
        )
    sock.sendall(struct.pack(">B", SECURITY_NONE))

    (result,) = struct.unpack(">I", read_exact(sock, 4))
    if result != 0:
        raise HandshakeRefusedError(_read_reason(sock))

    sock.sendall(struct.pack(">B", 1))  # ClientInit, shared access

    width, height = struct.unpack(">HH", read_exact(sock, 4))
    fmt = PixelFormat.unpack(read_exact(sock, 16))
    (name_len,) = struct.unpack(">I", read_exact(sock, 4))
    name = read_exact(sock, name_len).decode("latin-1")
    try:
        return ServerInit(width, height, fmt, name)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def _read_reason(sock) -> str:
    (length,) = struct.unpack(">I", read_exact(sock, 4))
    return read_exact(sock, length).decode("latin-1")
