"""Socket-level fuzzing: a hostile peer completes a valid handshake, then
sends hypothesis-drawn bytes. Each side may raise only the typed errors
of ``fbenv.errors``, and its traced allocations stay under a stated
bound while it handles them."""

import socket
import struct
import threading
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fbenv.errors
from fbenv.client import connect
from fbenv.errors import FbenvError, IncompleteMessageError
from fbenv.keys import KEY_LEFT, KEY_RIGHT, KEY_SPACE
from fbenv.wire import (
    ENCODING_RAW,
    MAX_CUT_TEXT_LENGTH,
    RGBX32,
    SetEncodings,
    SetPixelFormat,
    decode_client_message,
    perform_handshake,
)

from helpers import RGB332, RGB565, handshake_script

SCREEN = 160

#: Peak traced allocation while a session connects and polls a fuzzed
#: server: its 100 KiB framebuffer, 64 KiB receives, and a buffer and
#: copies of one update. Peaks of 0.3-0.35 MiB were seen over 300 examples.
CLIENT_PEAK_BOUND = 1 << 20

#: Peak traced allocation while the server serves one fuzzed client (and
#: the test reads its replies): a render, the mirror and a full update
#: are 100 KiB each at 32 bpp. Peaks of up to 0.46 MiB were seen over 300
#: examples.
SERVER_PEAK_BOUND = 1 << 20

fuzz_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def chunks(*strategies):
    """Up to six pieces, each drawn from one of ``strategies``, joined."""
    return st.lists(st.one_of(*strategies), max_size=6).map(b"".join)


# -- a fuzzed server against connect() and poll() --------------------------


@st.composite
def raw_updates(draw):
    x = draw(st.integers(0, SCREEN - 1))
    y = draw(st.integers(0, SCREEN - 1))
    w = draw(st.integers(0, SCREEN - x))
    h = draw(st.integers(0, SCREEN - y))
    header = struct.pack(">BxHHHHHi", 0, 1, x, y, w, h, ENCODING_RAW)
    return header + bytes([draw(st.integers(0, 255))]) * (w * h * 4)


#: The timeout of each client call against the fuzzed server, and how far
#: past it the call may run: a flood of empty updates that keeps arriving
#: is cut off at the deadline, after at most one 64 KiB receive is
#: decoded (about 0.14 s with tracemalloc on)
CALL_TIMEOUT = 0.1
CALL_MARGIN = 0.5

server_bytes = chunks(
    raw_updates(),
    # a flood of 64 KiB receives of empty updates: the first answers the
    # request, the rest are unrequested
    st.integers(1, 6).map(lambda receives: struct.pack(">BxH", 0, 0) * (16384 * receives)),
    st.just(b"\x02"),  # Bell
    st.binary(max_size=64).map(lambda text: struct.pack(">B3xI", 3, len(text)) + text),
    # headers declaring anything: rectangle counts, sizes, encodings, cut-text lengths
    st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
              st.integers(-(1 << 31), (1 << 31) - 1)).map(
        lambda t: struct.pack(">BxHHHHHi", 0, t[0], 0, 0, t[1], t[2], t[3])),
    st.integers(0, 0xFFFFFFFF).map(lambda length: struct.pack(">B3xI", 3, length)),
    st.binary(max_size=64),
)


def timed(durations: list, call, *args, **kwargs):
    """``call(*args, **kwargs)``, appending the seconds it took, even when
    it raises, to ``durations``."""
    started = time.monotonic()
    try:
        return call(*args, **kwargs)
    finally:
        durations.append(time.monotonic() - started)


def serve_then_hang_up(listener: socket.socket, script: bytes) -> None:
    """Send ``script`` to the first client, half-close, and read until
    the client hangs up."""
    conn, _ = listener.accept()
    with conn:
        try:
            conn.sendall(script)
            conn.shutdown(socket.SHUT_WR)
            while conn.recv(65536):
                pass
        except OSError:
            pass  # the client hung up first


@fuzz_settings
@given(payload=server_bytes)
def test_client_meets_a_fuzzed_server_with_typed_errors_only(payload):
    script = handshake_script(width=SCREEN, height=SCREEN) + payload
    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=serve_then_hang_up, args=(listener, script))
        server.start()
        tracemalloc.start()
        durations = []  # seconds taken by each client call
        try:
            # the server hangs up after its script, so every session ends in
            # a typed error within a few polls; each reads at least 64 KiB
            with pytest.raises(FbenvError):
                port = listener.getsockname()[1]
                with timed(durations, connect, "127.0.0.1", port, timeout=CALL_TIMEOUT) as session:
                    for _ in range(20):
                        timed(durations, session.poll, CALL_TIMEOUT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            server.join(timeout=5.0)
    assert not server.is_alive()
    assert peak < CLIENT_PEAK_BOUND
    assert max(durations) < CALL_TIMEOUT + CALL_MARGIN, durations


# -- fuzzed clients against MockServer --------------------------------------


def pixel_format_bytes():
    return st.one_of(
        st.sampled_from([RGBX32.pack(), RGB565.pack(), RGB332.pack()]),
        st.binary(min_size=16, max_size=16),
    )


client_bytes = chunks(
    st.tuples(st.booleans(), st.sampled_from([KEY_LEFT, KEY_RIGHT, KEY_SPACE, 0])).map(
        lambda t: struct.pack(">BB2xI", 4, t[0], t[1])),
    st.tuples(st.booleans(), *[st.integers(0, 0xFFFF)] * 4).map(
        lambda t: struct.pack(">BBHHHH", 3, *t)),
    pixel_format_bytes().map(lambda fmt: b"\x00\x00\x00\x00" + fmt),
    st.lists(st.integers(-(1 << 31), (1 << 31) - 1), max_size=4).map(
        lambda encs: struct.pack(f">BxH{len(encs)}i", 2, len(encs), *encs)),
    st.integers(0, MAX_CUT_TEXT_LENGTH + 1).map(lambda length: struct.pack(">B3xI", 6, length)),
    st.binary(max_size=64),
)


def server_drops(data: bytes) -> bool:
    """Whether MockServer drops a client that sends ``data`` and then
    half-closes: some message before the data runs out is malformed or
    one the server will not serve (no raw encoding, a palette format)."""
    while data:
        try:
            message, consumed = decode_client_message(data)
        except IncompleteMessageError:
            return False
        except (FbenvError, ValueError):
            return True
        if isinstance(message, SetEncodings) and ENCODING_RAW not in message.encodings:
            return True
        if isinstance(message, SetPixelFormat) and not message.format.true_color:
            return True
        data = data[consumed:]
    return False


def send_and_hang_up(sock: socket.socket, payload: bytes) -> None:
    try:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # the server dropped the client mid-send


def test_server_keeps_listening_through_fuzzed_clients(server_factory):
    server = server_factory(lockstep=True, seed=11)

    @fuzz_settings
    @given(payload=client_bytes)
    def fuzz(payload):
        dropped_before = server.drops[0]
        tracemalloc.start()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                perform_handshake(sock)
                # a second thread writes, so replies to update requests never stall it
                sender = threading.Thread(target=send_and_hang_up, args=(sock, payload))
                sender.start()
                try:
                    while sock.recv(65536):
                        pass
                except ConnectionResetError:
                    pass  # dropped with some of the payload unread
                sender.join(timeout=5.0)
                assert not sender.is_alive()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < SERVER_PEAK_BOUND
        # the drop, if any, is recorded before the connection closes
        dropped, reason = server.drops
        assert dropped == dropped_before + server_drops(payload)
        if dropped > dropped_before:
            assert reason.split(":")[0] in vars(fbenv.errors)  # a typed error dropped it

    fuzz()
    with connect("127.0.0.1", server.port) as session:
        assert session.frame_counter == 1
    with socket.create_connection(("127.0.0.1", server.side_channel_port), timeout=5.0) as side:
        side.sendall(b"HASH\n")
        assert side.recv(64).endswith(b" 1\n")


def test_fuzzed_bytes_through_an_in_process_session_meet_typed_errors_only(server_factory):
    server = server_factory(lockstep=True, seed=11)

    @fuzz_settings
    @given(payload=client_bytes)
    def fuzz(payload):
        dropped_before = server.drops[0]
        with connect("127.0.0.1", server.port, timeout=2.0) as session:
            session._sock.sendall(payload)
            try:
                for _ in range(2):  # each write serves what came before it on this thread
                    session.poll(0.05)
            except FbenvError:
                pass  # a drop, or replies in a pixel format the payload chose
        # the request bytes after the payload may complete or spoil its tail
        dropped, reason = server.drops
        assert dropped - dropped_before in ((1,) if server_drops(payload) else (0, 1))
        if dropped > dropped_before:
            assert reason.split(":")[0] in vars(fbenv.errors)

    fuzz()
    with connect("127.0.0.1", server.port) as session:
        assert session.poll(1.0)
