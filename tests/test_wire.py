"""Codec unit tests: frozen byte layouts, round trips, handshake transcripts."""

import struct
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbenv.errors import (
    HandshakeRefusedError,
    IncompleteMessageError,
    ProtocolError,
    UnsupportedEncodingError,
    UnsupportedSecurityError,
    UnsupportedVersionError,
)
from fbenv.wire import (
    MAX_CUT_TEXT_LENGTH,
    MAX_SCREEN_PIXELS,
    MAX_UPDATE_SCREENS,
    RGBX32,
    Bell,
    FramebufferUpdate,
    FramebufferUpdateRequest,
    KeyEvent,
    PixelFormat,
    PointerEvent,
    Rectangle,
    SetEncodings,
    SetPixelFormat,
    decode_client_message,
    decode_server_message,
    drop_cut_text,
    encode_client_message,
    encode_framebuffer_update,
    perform_handshake,
)

from helpers import (
    ScriptedSocket,
    encode_bell,
    encode_client_cut_text,
    handshake_script,
    reference_parse_client_message,
)

SCREEN = (160, 160)


# -- frozen encodings --------------------------------------------------------


def test_key_event_bytes():
    assert encode_client_message(KeyEvent(True, 0xFF51)) == bytes.fromhex("04010000" "0000ff51")
    assert encode_client_message(KeyEvent(2, 0xFF51)) == bytes.fromhex("04010000" "0000ff51")


def test_pointer_event_all_zero():
    assert encode_client_message(PointerEvent(0, 0, 0)) == bytes.fromhex("050000000000")


def test_update_request_bytes():
    message = FramebufferUpdateRequest(False, Rectangle(0, 0, 640, 480))
    assert encode_client_message(message) == bytes.fromhex("030000000000" "028001e0")


def test_update_request_x_coordinate_is_big_endian():
    message = FramebufferUpdateRequest(True, Rectangle(0x0280, 0, 1, 1))
    encoded = encode_client_message(message)
    assert encoded[2:4] == bytes.fromhex("0280")


def test_set_encodings_bytes():
    assert encode_client_message(SetEncodings((0,))) == bytes.fromhex("0200000100000000")


def test_set_pixel_format_bytes():
    encoded = encode_client_message(SetPixelFormat(RGBX32))
    assert len(encoded) == 20
    assert encoded[:4] == bytes.fromhex("00000000")
    assert encoded[4:] == bytes.fromhex("2018000100ff00ff00ff10080000" "0000")


def test_encode_range_violations():
    """Every message type rejects a field outside its wire integer range
    with ValueError, never struct.error."""
    out_of_range = [
        SetEncodings((0,) * 0x10000),
        SetEncodings((1 << 31,)),
        FramebufferUpdateRequest(False, Rectangle(0x10000, 0, 1, 1)),
        FramebufferUpdateRequest(True, Rectangle(0, -1, 1, 1)),
        FramebufferUpdateRequest(False, Rectangle(0, 0, 0x10000, 1)),
        KeyEvent(True, 1 << 32),
        KeyEvent(False, -1),
        PointerEvent(256, 0, 0),
        PointerEvent(0, -1, 0),
        PointerEvent(0, 0, 70000),
    ]
    for message in out_of_range:
        with pytest.raises(ValueError):
            encode_client_message(message)
    # a pixel format outside the wire's U16 maxes and U8 shifts is refused
    # when built, palette ones too, so pack() never meets struct.error
    for fields in [
        (32, 24, False, True, 2**17 - 1, 1, 1, 0, 17, 18),
        (32, 24, False, False, 1 << 16, 1, 1, 0, 0, 0),
        (32, 24, False, False, 1, -1, 1, 0, 0, 0),
        (32, 24, False, False, 1, 1, 1, 0, 300, 0),
        (8, 8, False, False, 0, 0, 0, 0, 0, -1),
        (32, 24, False, True, 255, 255, 255, 300, 8, 0),
    ]:
        with pytest.raises(ValueError):
            PixelFormat(*fields).pack()


# -- round trips -------------------------------------------------------------

_TRUE_COLOR_FORMATS = [
    RGBX32,
    PixelFormat(32, 24, True, True, 255, 255, 255, 0, 8, 16),
    PixelFormat(16, 16, False, True, 31, 63, 31, 11, 5, 0),
    PixelFormat(8, 8, False, True, 7, 7, 3, 5, 2, 0),
]

_pixel_formats = st.sampled_from(
    _TRUE_COLOR_FORMATS + [PixelFormat(32, 24, False, False, 255, 255, 255, 16, 8, 0)]
)

_client_messages = st.one_of(
    st.builds(SetPixelFormat, _pixel_formats),
    st.builds(
        SetEncodings,
        st.lists(st.integers(-(1 << 31), (1 << 31) - 1), max_size=16).map(tuple),
    ),
    st.builds(
        FramebufferUpdateRequest,
        st.booleans(),
        st.builds(
            Rectangle,
            st.integers(0, 0xFFFF),
            st.integers(0, 0xFFFF),
            st.integers(0, 0xFFFF),
            st.integers(0, 0xFFFF),
        ),
    ),
    st.builds(KeyEvent, st.booleans(), st.integers(0, 0xFFFFFFFF)),
    st.builds(
        PointerEvent, st.integers(0, 0xFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)
    ),
)


@settings(max_examples=300, deadline=None)
@given(_client_messages)
def test_client_message_round_trip(message):
    encoded = encode_client_message(message)
    decoded, consumed = decode_client_message(encoded)
    assert consumed == len(encoded)
    assert decoded == message
    prefixed = b"\xff" * 3 + encoded  # decoded at an offset, the bytes before it unread
    assert decode_client_message(prefixed, 3) == (message, len(encoded))
    with pytest.raises(IncompleteMessageError):
        decode_client_message(prefixed[:-1], 3)


@settings(max_examples=200, deadline=None)
@given(_client_messages)
def test_encoding_matches_reference_parser(message):
    encoded = encode_client_message(message)
    kind, fields, consumed = reference_parse_client_message(encoded)
    assert consumed == len(encoded)
    if isinstance(message, KeyEvent):
        assert kind == "key_event"
        assert fields == {"down": int(message.down), "keysym": message.keysym}
    elif isinstance(message, PointerEvent):
        assert kind == "pointer_event"
        assert fields == {"mask": message.button_mask, "x": message.x, "y": message.y}
    elif isinstance(message, FramebufferUpdateRequest):
        assert kind == "update_request"
        assert fields == {
            "incremental": int(message.incremental),
            "x": message.region.x,
            "y": message.region.y,
            "width": message.region.width,
            "height": message.region.height,
        }
    elif isinstance(message, SetEncodings):
        assert kind == "set_encodings"
        assert tuple(fields["encodings"]) == message.encodings
    else:
        assert kind == "set_pixel_format"
        fmt = message.format
        assert fields["bpp"] == fmt.bits_per_pixel
        assert fields["red_max"] == fmt.red_max
        assert fields["blue_shift"] == fmt.blue_shift
        assert fields["big_endian"] == int(fmt.big_endian)


def test_pixel_format_pack_unpack_round_trip():
    packed = RGBX32.pack()
    assert len(packed) == 16
    assert PixelFormat.unpack(packed) == RGBX32


# -- message records ---------------------------------------------------------

_RECORDS = [
    Rectangle(1, 2, 3, 4),
    SetPixelFormat(RGBX32),
    SetEncodings((0, -239)),
    FramebufferUpdateRequest(True, Rectangle(0, 0, 160, 160)),
    KeyEvent(True, 0xFF51),
    PointerEvent(1, 2, 3),
    FramebufferUpdate(((Rectangle(0, 0, 1, 1), b"\x01" * 4),)),
    Bell(),
]


@pytest.mark.parametrize("message", _RECORDS, ids=lambda message: type(message).__name__)
def test_message_records_are_immutable_truthy_and_equal_only_per_type(message):
    twin = type(message)(*message)
    assert twin is not message
    assert message == twin and not message != twin
    assert hash(message) == hash(twin)
    assert message  # truthy, a Bell with no fields too
    plain = tuple(message)
    assert message != plain and plain != message and not message == plain
    for other in _RECORDS:
        if type(other) is not type(message):
            assert message != other and not message == other
    with pytest.raises(AttributeError):
        message.extra = 1
    for field in type(message)._fields:
        with pytest.raises(AttributeError):
            setattr(message, field, None)


def test_records_with_equal_fields_differ_across_types():
    assert FramebufferUpdate(()) != SetEncodings(())
    assert SetEncodings(()) != FramebufferUpdate(())
    assert len({FramebufferUpdate(()), SetEncodings(()), FramebufferUpdate(())}) == 2


def test_rectangle_rejects_a_negative_size():
    for width, height in ((-1, 0), (0, -1), (-2, -2)):
        with pytest.raises(ValueError, match="non-negative"):
            Rectangle(0, 0, width, height)
    with pytest.raises(ValueError, match="non-negative"):
        Rectangle(0, 0, 1, 1)._replace(width=-1)
    assert Rectangle(-1, -1, 0, 0).width == 0  # position is checked against the screen, not here


# -- pixel format invariants -------------------------------------------------


def test_pixel_format_rejects_bad_bpp():
    with pytest.raises(ValueError):
        PixelFormat(24, 24, False, True, 255, 255, 255, 16, 8, 0)


def test_pixel_format_rejects_depth_above_bpp():
    with pytest.raises(ValueError):
        PixelFormat(16, 24, False, True, 31, 63, 31, 11, 5, 0)


def test_pixel_format_rejects_non_power_max():
    with pytest.raises(ValueError):
        PixelFormat(32, 24, False, True, 254, 255, 255, 16, 8, 0)
    with pytest.raises(ValueError, match="16 bits"):  # 2^17 - 1 fits 32 bpp but not the U16 field
        PixelFormat(32, 24, False, True, 2**17 - 1, 1, 1, 0, 17, 18)


def test_pixel_format_rejects_overlapping_channels():
    with pytest.raises(ValueError):
        PixelFormat(32, 24, False, True, 255, 255, 255, 8, 8, 0)


def test_pixel_format_rejects_channel_past_width():
    with pytest.raises(ValueError):
        PixelFormat(16, 16, False, True, 255, 255, 255, 16, 8, 0)


def test_palette_format_skips_channel_checks():
    fmt = PixelFormat(8, 8, False, False, 0, 0, 0, 0, 0, 0)
    assert not fmt.true_color


# -- server message decoding -------------------------------------------------


def test_decode_bell():
    message, consumed = decode_server_message(b"\x02", RGBX32, SCREEN)
    assert message == Bell()
    assert consumed == 1


def test_decode_empty_update():
    message, consumed = decode_server_message(bytes.fromhex("00000000"), RGBX32, SCREEN)
    assert message == FramebufferUpdate(())
    assert consumed == 4


def test_decode_single_raw_rectangle():
    payload = bytes(range(8))
    data = (
        struct.pack(">BxH", 0, 1)
        + struct.pack(">HHHHi", 0, 0, 2, 1, 0)
        + payload
    )
    message, consumed = decode_server_message(data, RGBX32, SCREEN)
    assert consumed == len(data)
    ((rect, pixels),) = message.rectangles
    assert (rect.x, rect.y, rect.width, rect.height) == (0, 0, 2, 1)
    assert pixels == payload


def test_decode_never_reads_past_declared_length():
    payload = bytes(8)
    trailer = b"\x02"  # a Bell queued behind the update
    data = struct.pack(">BxH", 0, 1) + struct.pack(">HHHHi", 0, 0, 2, 1, 0) + payload + trailer
    message, consumed = decode_server_message(data, RGBX32, SCREEN)
    assert consumed == len(data) - 1
    follow_up, _ = decode_server_message(data[consumed:], RGBX32, SCREEN)
    assert follow_up == Bell()


def test_decode_truncated_is_retryable():
    payload = bytes(8)
    data = struct.pack(">BxH", 0, 1) + struct.pack(">HHHHi", 0, 0, 2, 1, 0) + payload
    for cut in (0, 1, 3, 11, 15, len(data) - 1):
        with pytest.raises(IncompleteMessageError):
            decode_server_message(data[:cut], RGBX32, SCREEN)
    message, consumed = decode_server_message(data, RGBX32, SCREEN)
    assert consumed == len(data)
    assert isinstance(message, FramebufferUpdate)


def test_decode_rejects_non_raw_encoding():
    data = struct.pack(">BxH", 0, 1) + struct.pack(">HHHHi", 0, 0, 2, 1, 1)
    with pytest.raises(UnsupportedEncodingError):
        decode_server_message(data, RGBX32, SCREEN)


def test_decode_rejects_out_of_bounds_rectangle():
    data = struct.pack(">BxH", 0, 1) + struct.pack(">HHHHi", 159, 0, 2, 1, 0)
    with pytest.raises(ProtocolError):
        decode_server_message(data, RGBX32, SCREEN)


def test_decode_rejects_color_map_entries():
    with pytest.raises(UnsupportedEncodingError):
        decode_server_message(struct.pack(">BxHH", 1, 0, 2), RGBX32, SCREEN)


def test_decode_rejects_unknown_type():
    with pytest.raises(ProtocolError):
        decode_server_message(b"\x77", RGBX32, SCREEN)


def test_drop_cut_text_deletes_a_text_as_it_arrives():
    message = encode_client_cut_text("copied text") + b"\x04"
    buffer = bytearray(message[:5])
    with pytest.raises(IncompleteMessageError):  # the header is split
        drop_cut_text(buffer)
    assert buffer == message[:5]
    buffer += message[5:12]  # the header and 4 of the 11 text bytes
    with pytest.raises(IncompleteMessageError):
        drop_cut_text(buffer)
    assert buffer == struct.pack(">B3xI", 6, 7)  # declares only the text still to come
    buffer += message[12:]
    drop_cut_text(buffer)
    assert buffer == b"\x04"  # the next message stays
    with pytest.raises(ProtocolError):
        drop_cut_text(bytearray(struct.pack(">B3xI", 3, MAX_CUT_TEXT_LENGTH + 1)))


def test_decode_rejects_cut_text_over_the_cap_before_its_bytes():
    """A cut text is dropped before decoding, so neither decoder takes one,
    and drop_cut_text caps both (ServerCutText is type 3, ClientCutText
    type 6) before any of their bytes are awaited."""
    with pytest.raises(ProtocolError, match="type 3"):
        decode_server_message(struct.pack(">B3xI", 3, MAX_CUT_TEXT_LENGTH + 1), RGBX32, SCREEN)
    with pytest.raises(ProtocolError, match="type 6"):
        decode_client_message(struct.pack(">B3xI", 6, MAX_CUT_TEXT_LENGTH + 1))
    for msg_type in (3, 6):
        for length in (MAX_CUT_TEXT_LENGTH + 1, 0xFFFFFFFF):
            header = bytearray(struct.pack(">B3xI", msg_type, length))
            with pytest.raises(ProtocolError):
                drop_cut_text(header)
            assert len(header) == 8  # nothing deleted
        buffer = bytearray(struct.pack(">B3xI", msg_type, MAX_CUT_TEXT_LENGTH))
        with pytest.raises(IncompleteMessageError):
            drop_cut_text(buffer)
        buffer += bytes(MAX_CUT_TEXT_LENGTH - 1)
        with pytest.raises(IncompleteMessageError):
            drop_cut_text(buffer)
        assert buffer == struct.pack(">B3xI", msg_type, 1)
        buffer += b"\x00\x02"
        drop_cut_text(buffer)
        assert buffer == b"\x02"


def test_decode_caps_the_pixel_bytes_one_update_declares():
    full_screen = struct.pack(">HHHHi", 0, 0, *SCREEN, 0) + bytes(SCREEN[0] * SCREEN[1] * 4)
    one_pixel = struct.pack(">HHHHi", 0, 0, 1, 1, 0)
    at_cap = full_screen * MAX_UPDATE_SCREENS
    message, consumed = decode_server_message(
        struct.pack(">BxH", 0, MAX_UPDATE_SCREENS) + at_cap, RGBX32, SCREEN
    )
    assert consumed == 4 + len(at_cap)
    assert len(message.rectangles) == MAX_UPDATE_SCREENS
    # one more pixel is refused from its header, before its 4 bytes arrive
    with pytest.raises(ProtocolError):
        decode_server_message(
            struct.pack(">BxH", 0, MAX_UPDATE_SCREENS + 1) + at_cap + one_pixel, RGBX32, SCREEN
        )


def test_server_update_encode_decode_round_trip():
    rect = Rectangle(3, 4, 2, 2)
    payload = bytes(range(2 * 2 * 4))
    encoded = encode_framebuffer_update([(rect, payload)])
    message, consumed = decode_server_message(encoded, RGBX32, SCREEN)
    assert consumed == len(encoded)
    assert message.rectangles == ((rect, payload),)
    assert decode_server_message(encode_bell(), RGBX32, SCREEN)[0] == Bell()


# -- decoder fuzzing ---------------------------------------------------------


def _fuzz_bytes(message_types):
    """Arbitrary bytes, half of them led by a known message type so the
    decoder gets past its first branch."""
    led = st.tuples(st.sampled_from(message_types), st.binary(max_size=96)).map(
        lambda parts: bytes([parts[0]]) + parts[1]
    )
    return st.one_of(st.binary(max_size=96), led)


def _decode_or_typed_error(decode, data):
    """Decode ``data`` as bytes and as a bytearray; both must give the same
    message and a consumed count within the buffer, or raise
    ProtocolError/IncompleteMessageError. Returns the message or None."""
    outcomes = []
    for buffer in (bytes(data), bytearray(data)):
        try:
            message, consumed = decode(buffer)
        except (ProtocolError, IncompleteMessageError) as exc:
            outcomes.append(type(exc))
            continue
        assert 0 < consumed <= len(data)
        outcomes.append((message, consumed))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0] if isinstance(outcomes[0], tuple) else None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_TRUE_COLOR_FORMATS), _fuzz_bytes([0, 1, 2, 3]))
def test_decode_server_message_fuzz(fmt, data):
    message = _decode_or_typed_error(lambda buf: decode_server_message(buf, fmt, SCREEN), data)
    assert message is None or isinstance(message, (FramebufferUpdate, Bell))


@settings(max_examples=400, deadline=None)
@given(_fuzz_bytes([0, 2, 3, 4, 5, 6]))
def test_decode_client_message_fuzz(data):
    message = _decode_or_typed_error(decode_client_message, data)
    assert message is None or isinstance(
        message,
        (SetPixelFormat, SetEncodings, FramebufferUpdateRequest, KeyEvent, PointerEvent),
    )


# -- handshake ---------------------------------------------------------------


def test_handshake_scripted_transcript():
    sock = ScriptedSocket(handshake_script(width=160, height=160, name=b"multitask-lite"))
    info = perform_handshake(sock, time.monotonic() + 5.0)
    assert (info.width, info.height) == (160, 160)
    assert info.name == "multitask-lite"
    assert info.native_format == RGBX32
    # client replied 3.8, picked security None, sent shared ClientInit
    assert bytes(sock.sent) == b"RFB 003.008\n" + b"\x01" + b"\x01"


def test_handshake_rejects_old_version():
    sock = ScriptedSocket(handshake_script(greeting=b"RFB 003.003\n"))
    with pytest.raises(UnsupportedVersionError):
        perform_handshake(sock, time.monotonic() + 5.0)


def test_handshake_rejects_version_3_7():
    sock = ScriptedSocket(handshake_script(greeting=b"RFB 003.007\n"))
    with pytest.raises(UnsupportedVersionError):
        perform_handshake(sock, time.monotonic() + 5.0)


def test_handshake_rejects_vnc_auth_only():
    sock = ScriptedSocket(handshake_script(security_types=b"\x02"))
    with pytest.raises(UnsupportedSecurityError):
        perform_handshake(sock, time.monotonic() + 5.0)


def test_handshake_refusal_carries_reason():
    sock = ScriptedSocket(handshake_script(security_types=b"", reason=b"too busy"))
    with pytest.raises(HandshakeRefusedError) as excinfo:
        perform_handshake(sock, time.monotonic() + 5.0)
    assert excinfo.value.reason == "too busy"


def test_handshake_security_failure_carries_reason():
    sock = ScriptedSocket(handshake_script(security_result=1, reason=b"nope"))
    with pytest.raises(HandshakeRefusedError) as excinfo:
        perform_handshake(sock, time.monotonic() + 5.0)
    assert excinfo.value.reason == "nope"


def test_handshake_rejects_malformed_greeting():
    sock = ScriptedSocket(handshake_script(greeting=b"HTTP/1.1 200\n"))
    with pytest.raises(ProtocolError):
        perform_handshake(sock, time.monotonic() + 5.0)


def _declared_length(script: bytes, length: int, unread: bytes) -> bytes:
    """``script``, which ends in an empty length-prefixed text, with that
    text's length replaced by ``length`` and followed by ``unread``."""
    return script[:-4] + struct.pack(">I", length) + unread


def test_handshake_caps_the_declared_name_length():
    unread = b"first name bytes"
    sock = ScriptedSocket(_declared_length(handshake_script(name=b""), 0xFFFFFFFF, unread))
    with pytest.raises(ProtocolError):
        perform_handshake(sock, time.monotonic() + 5.0)
    assert sock.recv(64) == unread  # raised before reading any of the name
    at_cap = b"n" * MAX_CUT_TEXT_LENGTH
    info = perform_handshake(ScriptedSocket(handshake_script(name=at_cap)), time.monotonic() + 5.0)
    assert info.name == at_cap.decode()


@pytest.mark.parametrize("refusal", [{"security_types": b""}, {"security_result": 1}])
def test_handshake_caps_the_declared_refusal_reason(refusal):
    unread = b"first reason bytes"
    script = handshake_script(reason=b"", **refusal)
    sock = ScriptedSocket(_declared_length(script, MAX_CUT_TEXT_LENGTH + 1, unread))
    with pytest.raises(ProtocolError):
        perform_handshake(sock, time.monotonic() + 5.0)
    assert sock.recv(64) == unread


def test_handshake_refuses_an_oversized_screen_before_allocating_it():
    # 65535 x 65535 x 4 bytes would be a 17 GB framebuffer; connect()
    # builds its Session only after perform_handshake returns
    sock = ScriptedSocket(handshake_script(width=65535, height=65535))
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            perform_handshake(sock, time.monotonic() + 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert sock.recv(16) == RGBX32.pack()  # nothing after the size was read
    script = handshake_script(width=4096, height=MAX_SCREEN_PIXELS // 4096)
    info = perform_handshake(ScriptedSocket(script), time.monotonic() + 5.0)
    assert info.width * info.height == MAX_SCREEN_PIXELS
