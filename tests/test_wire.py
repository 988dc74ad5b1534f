"""Codec unit tests: frozen byte layouts, round trips, handshake transcripts."""

import struct

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
    MAX_UPDATE_SCREENS,
    RGBX32,
    Bell,
    FramebufferUpdate,
    FramebufferUpdateRequest,
    KeyEvent,
    PixelFormat,
    PointerEvent,
    Rectangle,
    ServerCutText,
    SetEncodings,
    SetPixelFormat,
    decode_client_message,
    decode_server_message,
    encode_bell,
    encode_client_message,
    encode_framebuffer_update,
    encode_server_cut_text,
    perform_handshake,
)

from helpers import ScriptedSocket, handshake_script, reference_parse_client_message

SCREEN = (160, 160)


# -- frozen encodings --------------------------------------------------------


def test_key_event_bytes():
    assert encode_client_message(KeyEvent(True, 0xFF51)) == bytes.fromhex("04010000" "0000ff51")


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
    with pytest.raises(ValueError):
        encode_client_message(
            FramebufferUpdateRequest(False, Rectangle(0x10000, 0, 1, 1))
        )
    with pytest.raises(ValueError):
        encode_client_message(KeyEvent(True, 1 << 32))
    with pytest.raises(ValueError):
        encode_client_message(PointerEvent(256, 0, 0))
    with pytest.raises(ValueError):
        encode_client_message(PointerEvent(0, 0, 70000))


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


def test_decode_cut_text():
    message, consumed = decode_server_message(encode_server_cut_text("hi"), RGBX32, SCREEN)
    assert message == ServerCutText("hi")
    assert consumed == 10


def test_decode_rejects_cut_text_over_the_cap_before_its_bytes():
    header = struct.pack(">B3xI", 3, MAX_CUT_TEXT_LENGTH + 1)
    with pytest.raises(ProtocolError):
        decode_server_message(header, RGBX32, SCREEN)
    with pytest.raises(ProtocolError):
        decode_server_message(struct.pack(">B3xI", 3, 0xFFFFFFFF), RGBX32, SCREEN)
    at_cap = struct.pack(">B3xI", 3, MAX_CUT_TEXT_LENGTH)
    with pytest.raises(IncompleteMessageError):
        decode_server_message(at_cap, RGBX32, SCREEN)
    message, consumed = decode_server_message(at_cap + bytes(MAX_CUT_TEXT_LENGTH), RGBX32, SCREEN)
    assert consumed == 8 + MAX_CUT_TEXT_LENGTH
    assert len(message.text) == MAX_CUT_TEXT_LENGTH


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
    assert message is None or isinstance(message, (FramebufferUpdate, Bell, ServerCutText))


@settings(max_examples=400, deadline=None)
@given(_fuzz_bytes([0, 2, 3, 4, 5]))
def test_decode_client_message_fuzz(data):
    message = _decode_or_typed_error(decode_client_message, data)
    assert message is None or isinstance(
        message, (SetPixelFormat, SetEncodings, FramebufferUpdateRequest, KeyEvent, PointerEvent)
    )


# -- handshake ---------------------------------------------------------------


def test_handshake_scripted_transcript():
    sock = ScriptedSocket(handshake_script(width=160, height=160, name=b"multitask-lite"))
    info = perform_handshake(sock)
    assert (info.width, info.height) == (160, 160)
    assert info.name == "multitask-lite"
    assert info.native_format == RGBX32
    # client replied 3.8, picked security None, sent shared ClientInit
    assert bytes(sock.sent) == b"RFB 003.008\n" + b"\x01" + b"\x01"


def test_handshake_rejects_old_version():
    sock = ScriptedSocket(handshake_script(greeting=b"RFB 003.003\n"))
    with pytest.raises(UnsupportedVersionError):
        perform_handshake(sock)


def test_handshake_rejects_version_3_7():
    sock = ScriptedSocket(handshake_script(greeting=b"RFB 003.007\n"))
    with pytest.raises(UnsupportedVersionError):
        perform_handshake(sock)


def test_handshake_rejects_vnc_auth_only():
    sock = ScriptedSocket(handshake_script(security_types=b"\x02"))
    with pytest.raises(UnsupportedSecurityError):
        perform_handshake(sock)


def test_handshake_refusal_carries_reason():
    sock = ScriptedSocket(handshake_script(security_types=b"", reason=b"too busy"))
    with pytest.raises(HandshakeRefusedError) as excinfo:
        perform_handshake(sock)
    assert excinfo.value.reason == "too busy"


def test_handshake_security_failure_carries_reason():
    sock = ScriptedSocket(handshake_script(security_result=1, reason=b"nope"))
    with pytest.raises(HandshakeRefusedError) as excinfo:
        perform_handshake(sock)
    assert excinfo.value.reason == "nope"


def test_handshake_rejects_malformed_greeting():
    sock = ScriptedSocket(handshake_script(greeting=b"HTTP/1.1 200\n"))
    with pytest.raises(ProtocolError):
        perform_handshake(sock)
