"""Byte-exact codec for the RFB 3.8 subset this harness speaks.

Covers the 3.8 handshake with security type None, the standard
client-to-server messages and server-to-client raw (encoding 0)
framebuffer updates and Bell; integers are big-endian. A cut text, either
way, is dropped by :func:`drop_cut_text` as it arrives and never decoded.
Each fixed layout is one :class:`struct.Struct` its encoder and decoder
share, and messages are :mod:`fbenv.record` records. Decoders are pure
functions over byte buffers that return the bytes consumed; a buffer that
ends mid-message raises :class:`IncompleteMessageError`, retryable once
more bytes have arrived. Handshake reads share one deadline.
"""

from __future__ import annotations

import re
import struct
import time
from dataclasses import dataclass, fields

from .errors import (
    ConnectionLostError,
    HandshakeRefusedError,
    IncompleteMessageError,
    ProtocolError,
    UnsupportedEncodingError,
    UnsupportedSecurityError,
    UnsupportedVersionError,
)
from .record import record

PROTOCOL_VERSION = b"RFB 003.008\n"

SECURITY_NONE = 1

# client-to-server message types
MSG_SET_PIXEL_FORMAT = 0
MSG_SET_ENCODINGS = 2
MSG_FRAMEBUFFER_UPDATE_REQUEST = 3
MSG_KEY_EVENT = 4
MSG_POINTER_EVENT = 5
MSG_CLIENT_CUT_TEXT = 6

# server-to-client message types
MSG_FRAMEBUFFER_UPDATE = 0
MSG_SET_COLOUR_MAP_ENTRIES = 1
MSG_BELL = 2
MSG_SERVER_CUT_TEXT = 3

ENCODING_RAW = 0

#: Longest text a peer may declare: a ClientCutText, a ServerCutText, the
#: desktop name in ServerInit or a handshake refusal reason. A longer
#: declared length is a protocol error before any of its bytes are read.
MAX_CUT_TEXT_LENGTH = 1 << 20

#: Most pixel bytes one FramebufferUpdate may declare, in full screens of
#: the negotiated format; a rectangle that takes the running total past it
#: is a protocol error before any of its bytes are buffered.
MAX_UPDATE_SCREENS = 2

#: Largest screen, in pixels, a client accepts from ServerInit; a larger
#: one is a protocol error before its framebuffer is allocated.
MAX_SCREEN_PIXELS = 1 << 24

_PIXEL_FORMAT_STRUCT = struct.Struct(">BBBBHHHBBB3x")
# message type, pad, U16 count: the head of SetEncodings and of FramebufferUpdate
_COUNTED_HEAD = struct.Struct(">BxH")
_SET_PIXEL_FORMAT = struct.Struct(f">B3x{_PIXEL_FORMAT_STRUCT.size}s")
_UPDATE_REQUEST = struct.Struct(">BBHHHH")
_KEY_EVENT = struct.Struct(">BB2xI")
_POINTER_EVENT = struct.Struct(">BBHH")
_CUT_TEXT_HEAD = struct.Struct(">B3xI")
_RECTANGLE_HEAD = struct.Struct(">HHHHi")
_VERSION_RE = re.compile(rb"^RFB (\d{3})\.(\d{3})\n$")


@dataclass(frozen=True)
class PixelFormat:
    """Negotiated pixel layout; its fields are the 16-byte wire structure's,
    in wire order (``pack`` and ``unpack`` rely on it)."""

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
        maxes = (self.red_max, self.green_max, self.blue_max)
        shifts = (self.red_shift, self.green_shift, self.blue_shift)
        # every format, palette ones too, must fit the wire's U16 maxes and U8 shifts
        if not all(0 <= cmax <= 0xFFFF for cmax in maxes):
            raise ValueError(f"color maxes {maxes} outside the wire's 16 bits")
        if not all(0 <= shift <= 0xFF for shift in shifts):
            raise ValueError(f"color shifts {shifts} outside the wire's 8 bits")
        if self.true_color:
            used = 0
            for name, cmax, shift in zip(("red", "green", "blue"), maxes, shifts):
                bits = cmax.bit_length()
                if not cmax or cmax != (1 << bits) - 1:
                    raise ValueError(f"{name}-max {cmax} is not 2^k - 1")
                if shift + bits > self.bits_per_pixel:
                    raise ValueError(f"{name} channel exceeds {self.bits_per_pixel} bits")
                mask = cmax << shift
                if used & mask:
                    raise ValueError("color channels overlap")
                used |= mask

    @property
    def bytes_per_pixel(self) -> int:
        return self.bits_per_pixel // 8

    def pack(self) -> bytes:
        bpp, depth, be, tc, *channels = (getattr(self, field.name) for field in fields(self))
        return _PIXEL_FORMAT_STRUCT.pack(bpp, depth, 1 if be else 0, 1 if tc else 0, *channels)

    @classmethod
    def unpack(cls, data: bytes) -> "PixelFormat":
        bpp, depth, be, tc, *channels = _PIXEL_FORMAT_STRUCT.unpack(data)
        try:
            return cls(bpp, depth, bool(be), bool(tc), *channels)
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


@record
class Rectangle:
    x: int
    y: int
    width: int
    height: int

    def __new__(cls, x: int, y: int, width: int, height: int):
        if width < 0 or height < 0:
            raise ValueError("rectangle dimensions must be non-negative")
        return tuple.__new__(cls, (x, y, width, height))


@record
class SetPixelFormat:
    format: PixelFormat


@record
class SetEncodings:
    encodings: tuple[int, ...]


@record
class FramebufferUpdateRequest:
    incremental: bool
    region: Rectangle


@record
class KeyEvent:
    down: bool
    keysym: int


@record
class PointerEvent:
    button_mask: int
    x: int
    y: int


ClientMessage = SetPixelFormat | SetEncodings | FramebufferUpdateRequest | KeyEvent | PointerEvent


@record
class FramebufferUpdate:
    rectangles: tuple[tuple[Rectangle, bytes], ...]


@record
class Bell:
    pass


ServerMessage = FramebufferUpdate | Bell


@dataclass(frozen=True)
class ServerInit:
    width: int
    height: int
    native_format: PixelFormat
    name: str

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("screen dimensions must be positive")


def encode_client_message(msg: ClientMessage) -> bytes:
    """Serialize one client-to-server message to its exact wire bytes.

    Raises ValueError if any field falls outside its wire integer range.
    """
    try:
        if isinstance(msg, SetPixelFormat):
            return _SET_PIXEL_FORMAT.pack(MSG_SET_PIXEL_FORMAT, msg.format.pack())
        if isinstance(msg, SetEncodings):
            count = len(msg.encodings)
            head = _COUNTED_HEAD.pack(MSG_SET_ENCODINGS, count)
            return head + struct.pack(f">{count}i", *msg.encodings)
        if isinstance(msg, FramebufferUpdateRequest):
            incremental = 1 if msg.incremental else 0
            return _UPDATE_REQUEST.pack(MSG_FRAMEBUFFER_UPDATE_REQUEST, incremental, *msg.region)
        if isinstance(msg, KeyEvent):
            return _KEY_EVENT.pack(MSG_KEY_EVENT, 1 if msg.down else 0, msg.keysym)
        if isinstance(msg, PointerEvent):
            return _POINTER_EVENT.pack(MSG_POINTER_EVENT, msg.button_mask, msg.x, msg.y)
    except struct.error as exc:
        raise ValueError(f"{type(msg).__name__} field outside its wire range: {exc}") from exc
    raise TypeError(f"not a client message: {msg!r}")


def _unpack(layout: struct.Struct, data, offset: int = 0) -> tuple:
    """The fields of ``layout`` at ``offset`` in ``data``; raises
    IncompleteMessageError while ``data`` ends before they do."""
    try:
        return layout.unpack_from(data, offset)
    except struct.error as exc:  # the one struct.error unpack_from raises: data ends too soon
        raise IncompleteMessageError(str(exc)) from None


def _need(data, count: int) -> None:
    if len(data) < count:
        raise IncompleteMessageError(f"need {count} bytes, have {len(data)}")


def decode_client_message(data, offset: int = 0) -> tuple[ClientMessage, int]:
    """Parse one client message at ``offset`` in ``data``; returns the
    message and the number of bytes it spans."""
    _need(data, offset + 1)
    msg_type = data[offset]
    if msg_type == MSG_SET_PIXEL_FORMAT:
        _, packed = _unpack(_SET_PIXEL_FORMAT, data, offset)
        return SetPixelFormat(PixelFormat.unpack(packed)), _SET_PIXEL_FORMAT.size
    if msg_type == MSG_SET_ENCODINGS:
        _, count = _unpack(_COUNTED_HEAD, data, offset)
        size = _COUNTED_HEAD.size + 4 * count
        _need(data, offset + size)
        return SetEncodings(struct.unpack_from(f">{count}i", data, offset + _COUNTED_HEAD.size)), size
    if msg_type == MSG_FRAMEBUFFER_UPDATE_REQUEST:
        _, incremental, x, y, w, h = _unpack(_UPDATE_REQUEST, data, offset)
        return FramebufferUpdateRequest(bool(incremental), Rectangle(x, y, w, h)), _UPDATE_REQUEST.size
    if msg_type == MSG_KEY_EVENT:
        _, down, keysym = _unpack(_KEY_EVENT, data, offset)
        return KeyEvent(bool(down), keysym), _KEY_EVENT.size
    if msg_type == MSG_POINTER_EVENT:
        _, mask, x, y = _unpack(_POINTER_EVENT, data, offset)
        return PointerEvent(mask, x, y), _POINTER_EVENT.size
    raise ProtocolError(f"unknown client message type {msg_type}")


def cut_text_span(data) -> int:
    """The bytes a client or server cut-text message (type, three pad
    bytes, U32 length, text) spans, read from its 8-byte header alone; a
    length over MAX_CUT_TEXT_LENGTH raises ProtocolError."""
    _, length = _unpack(_CUT_TEXT_HEAD, data)
    if length > MAX_CUT_TEXT_LENGTH:
        raise ProtocolError(f"cut text of {length} bytes exceeds {MAX_CUT_TEXT_LENGTH}")
    return _CUT_TEXT_HEAD.size + length


def drop_cut_text(buffer: bytearray) -> None:
    """Delete the cut-text message at the front of ``buffer`` as far as it
    has arrived, so its text is never held whole. Until all of it has,
    the header is rewritten to declare only the text still to come and
    IncompleteMessageError is raised, as a decoder raises it."""
    end = cut_text_span(buffer)
    rest = end - len(buffer)
    if rest > 0:
        _CUT_TEXT_HEAD.pack_into(buffer, 0, buffer[0], rest)
        del buffer[_CUT_TEXT_HEAD.size :]
        raise IncompleteMessageError(f"{rest} bytes of cut text still to drop")
    del buffer[:end]


def encode_framebuffer_update(rectangles) -> bytes:
    """Serialize a FramebufferUpdate from (Rectangle, pixel-bytes) pairs
    whose payloads already match width * height * bytes-per-pixel."""
    parts = [_COUNTED_HEAD.pack(MSG_FRAMEBUFFER_UPDATE, len(rectangles))]
    for (x, y, width, height), payload in rectangles:
        parts.append(_RECTANGLE_HEAD.pack(x, y, width, height, ENCODING_RAW))
        parts.append(bytes(payload))
    return b"".join(parts)


def decode_server_message(data, fmt: PixelFormat, screen: tuple[int, int]) -> tuple[ServerMessage, int]:
    """Parse one server message from the front of ``data``; returns the
    message and the bytes consumed. ``fmt`` sizes raw rectangle payloads
    and ``screen``, the announced (width, height), bounds rectangles; an
    update declaring over ``MAX_UPDATE_SCREENS`` screens of pixels raises
    ProtocolError before they are awaited."""
    _need(data, 1)
    msg_type = data[0]
    if msg_type == MSG_FRAMEBUFFER_UPDATE:
        _, count = _unpack(_COUNTED_HEAD, data)
        screen_w, screen_h = screen
        payload_cap = MAX_UPDATE_SCREENS * screen_w * screen_h * fmt.bytes_per_pixel
        declared = 0
        offset = _COUNTED_HEAD.size
        rectangles = []
        with memoryview(data) as view:  # released on every exit, so a bytearray can be resized again
            for _ in range(count):
                x, y, w, h, encoding = _unpack(_RECTANGLE_HEAD, data, offset)
                offset += _RECTANGLE_HEAD.size
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
                end = offset + payload_len
                _need(data, end)
                rectangles.append((Rectangle(x, y, w, h), view[offset:end].tobytes()))  # the one copy
                offset = end
        return FramebufferUpdate(tuple(rectangles)), offset
    if msg_type == MSG_SET_COLOUR_MAP_ENTRIES:
        raise UnsupportedEncodingError(
            "SetColourMapEntries not supported (client negotiates true color)"
        )
    if msg_type == MSG_BELL:
        return Bell(), 1
    raise ProtocolError(f"unknown server message type {msg_type}")


def read_exact(sock, count: int, deadline: float) -> bytes:
    """Read exactly ``count`` bytes from a socket-like object by
    ``deadline`` (on the ``time.monotonic`` clock): each receive waits only
    for the time left, and TimeoutError is raised once none is."""
    chunks = []
    remaining = count
    while remaining > 0:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"{remaining} of {count} bytes still to come at the deadline")
        sock.settimeout(left)
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionLostError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def perform_handshake(sock, deadline: float) -> ServerInit:
    """Run the client side of the RFB 3.8 handshake over ``sock`` (security
    None, shared access) by ``deadline``, as :func:`read_exact` takes it,
    and return the parsed ServerInit. A screen over ``MAX_SCREEN_PIXELS``
    or a text over ``MAX_CUT_TEXT_LENGTH`` raises :class:`ProtocolError`
    before any of its bytes are read.
    """
    greeting = read_exact(sock, 12, deadline)
    match = _VERSION_RE.match(greeting)
    if match is None:
        raise ProtocolError(f"malformed version greeting {greeting!r}")
    major, minor = int(match.group(1)), int(match.group(2))
    if (major, minor) < (3, 8):
        raise UnsupportedVersionError(f"server speaks RFB {major}.{minor}, need 3.8")
    sock.sendall(PROTOCOL_VERSION)

    (n_security,) = read_exact(sock, 1, deadline)
    if n_security == 0:
        raise HandshakeRefusedError(_read_text(sock, "refusal reason", deadline))
    security_types = read_exact(sock, n_security, deadline)
    if SECURITY_NONE not in security_types:
        raise UnsupportedSecurityError(
            f"server offers security types {list(security_types)}, need None (1)"
        )
    sock.sendall(struct.pack(">B", SECURITY_NONE))

    (result,) = struct.unpack(">I", read_exact(sock, 4, deadline))
    if result != 0:
        raise HandshakeRefusedError(_read_text(sock, "refusal reason", deadline))

    sock.sendall(struct.pack(">B", 1))  # ClientInit, shared access

    width, height = struct.unpack(">HH", read_exact(sock, 4, deadline))
    if width * height > MAX_SCREEN_PIXELS:
        raise ProtocolError(f"screen {width}x{height} exceeds {MAX_SCREEN_PIXELS} pixels")
    fmt = PixelFormat.unpack(read_exact(sock, 16, deadline))
    name = _read_text(sock, "desktop name", deadline)
    try:
        return ServerInit(width, height, fmt, name)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def _read_text(sock, what: str, deadline: float) -> str:
    """A length-prefixed Latin-1 text, capped at MAX_CUT_TEXT_LENGTH."""
    (length,) = struct.unpack(">I", read_exact(sock, 4, deadline))
    if length > MAX_CUT_TEXT_LENGTH:
        raise ProtocolError(f"{what} of {length} bytes exceeds {MAX_CUT_TEXT_LENGTH}")
    return read_exact(sock, length, deadline).decode("latin-1")
