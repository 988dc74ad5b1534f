"""Integration tests: live sessions against the in-repo server."""

import contextlib
import gc
import math
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

import fbenv.client
import fbenv.server
from fbenv.client import DEFAULT_CONNECT_TIMEOUT, Pacer, Session, SessionState, connect
from fbenv.errors import (
    ConnectionLostError,
    ConnectTimeoutError,
    HandshakeRefusedError,
    InvalidStateError,
    ProtocolError,
    UnsupportedSecurityError,
)
from fbenv.fnv import fnv1a64
from fbenv.keys import KEY_LEFT, KEY_RIGHT, KEY_SPACE
from fbenv.framebuffer import Framebuffer
from fbenv.game import render
from fbenv.server import MockServer
from fbenv.wire import (
    MAX_CUT_TEXT_LENGTH,
    RGBX32,
    FramebufferUpdate,
    FramebufferUpdateRequest,
    Rectangle,
    ServerInit,
    SetPixelFormat,
    decode_server_message,
    encode_client_message,
    perform_handshake,
)

from helpers import (
    TEST_FORMATS,
    RecordingServer,
    encode_client_cut_text,
    flooding_server,
    handshake_script,
    press_key,
    reference_parse_client_message,
    server_process,
    side_channel_hash,
)


# -- connection lifecycle ----------------------------------------------------


def test_connect_primes_full_frame(session_factory):
    session, server = session_factory(lockstep=True, seed=11)
    assert (session.width, session.height) == (160, 160)
    assert session.server_init.name == "multitask-lite"
    assert session.state is SessionState.READY
    assert session.frame_counter == 1
    # the primed buffer matches the server's canonical pixels exactly
    digest, generation = side_channel_hash(server.side_channel_port)
    assert generation == 1
    assert digest == fnv1a64(bytes(session.framebuffer.pixels))


def test_connect_to_closed_port_raises():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    free_port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ConnectionLostError):
        connect("127.0.0.1", free_port)


@contextlib.contextmanager
def one_shot_server(serve_conn):
    """Listen on a free port, run ``serve_conn`` on one accepted
    connection on a thread, then close it; yields the port."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve_one():
        conn, _ = listener.accept()
        with conn:
            serve_conn(conn)

    thread = threading.Thread(target=serve_one, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        listener.close()
        thread.join(timeout=5.0)


@pytest.mark.parametrize("greet_first", [False, True], ids=["at-once", "after-greeting"])
def test_connect_turns_a_reset_during_the_handshake_into_connection_lost(greet_first):
    def reset(conn):
        if greet_first:
            conn.sendall(b"RFB 003.008\n")
            conn.recv(12)  # the client's version
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))  # close sends RST

    with one_shot_server(reset) as port, pytest.raises(ConnectionLostError):
        connect("127.0.0.1", port)
    assert not fbenv.client._IN_PROCESS_CLIENTS


def test_connect_rejects_vnc_auth_only_server():
    def offer_vnc_auth_only(conn):
        conn.sendall(b"RFB 003.008\n")
        conn.recv(12)
        conn.sendall(b"\x01\x02")

    with one_shot_server(offer_vnc_auth_only) as port, pytest.raises(UnsupportedSecurityError):
        connect("127.0.0.1", port)


def test_server_refuses_old_client_version(server_factory):
    server = server_factory(lockstep=True)
    with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
        sock.recv(12)
        sock.sendall(b"RFB 003.003\n")
        with pytest.raises(HandshakeRefusedError) as excinfo:
            # resume the client-side handshake after the version exchange
            (count,) = sock.recv(1)
            assert count == 0
            (length,) = struct.unpack(">I", sock.recv(4))
            raise HandshakeRefusedError(sock.recv(length).decode())
        assert sock.recv(1) == b""  # dropped, and the drop recorded first
    assert "3.8" in excinfo.value.reason
    assert server.drops == (1, "ProtocolError: refused client version b'RFB 003.003\\n'")


def test_server_survives_protocol_garbage(server_factory):
    server = server_factory(lockstep=True, seed=11)
    assert server.drops == (0, None)
    garbage = (
        (b"\x99garbage", "ProtocolError: unknown client message type 153"),
        (struct.pack(">BxHi", 2, 1, 5), "ProtocolError: client does not accept raw"),  # SetEncodings
        # a ClientCutText header declaring one byte over the cap, none of it sent
        (struct.pack(">B3xI", 6, MAX_CUT_TEXT_LENGTH + 1), "ProtocolError: cut text of 1048577 bytes"),
    )
    for count, (message, reason) in enumerate(garbage, start=1):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            perform_handshake(sock)
            sock.sendall(message)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if not sock.recv(64):
                    break
            else:
                pytest.fail("server did not drop the misbehaving client")
        # the drop is recorded before the connection closes
        dropped, last_reason = server.drops
        assert dropped == count
        assert last_reason.startswith(reason)
    # and a well-behaved client connects right afterwards
    session = connect("127.0.0.1", server.port)
    assert session.frame_counter == 1
    session.close()


def test_server_ignores_client_cut_text(server_factory):
    server = server_factory(lockstep=True, seed=11)
    cut_text = encode_client_cut_text("copied to the clipboard")
    request = struct.pack(">BBHHHH", 3, 0, 0, 0, 160, 160)  # full update request
    update_length = 4 + 12 + 160 * 160 * 4
    with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
        perform_handshake(sock)
        sock.sendall(cut_text[:5])  # the header arrives split
        time.sleep(0.05)
        sock.sendall(cut_text[5:] + request)
        reply = b""
        while len(reply) < update_length:
            chunk = sock.recv(65536)
            assert chunk, "server dropped a client that sent ClientCutText"
            reply += chunk
    message, consumed = decode_server_message(reply, RGBX32, (160, 160))
    assert isinstance(message, FramebufferUpdate) and consumed == update_length
    assert server.drops == (0, None)


# -- polling and lockstep ----------------------------------------------------


def test_lockstep_polls_tick_exactly_once(session_factory):
    session, server = session_factory(lockstep=True, seed=11)
    assert server.game_state().ticks_survived == 0
    for expected in range(1, 21):
        session.poll()
        assert server.game_state().ticks_survived == expected
    assert session.frame_counter == 21


def test_refresh_does_not_tick_in_lockstep(session_factory):
    session, server = session_factory(lockstep=True, seed=11)
    before = server.game_state().ticks_survived
    session.refresh()
    session.refresh()
    assert server.game_state().ticks_survived == before


def test_static_screen_polls_return_identical_frames(session_factory):
    # 1 Hz ticker and near-zero velocity: polls within a second see no motion
    session, _ = session_factory(tick_rate=1.0, seed=11)
    session.poll()
    first = session.snapshot()
    session.poll()
    assert session.snapshot() == first


def test_poll_on_closed_session_raises(session_factory):
    session, _ = session_factory(lockstep=True)
    session.close()
    with pytest.raises(InvalidStateError):
        session.poll()
    with pytest.raises(InvalidStateError):
        session.send_key(KEY_LEFT, True)


def test_frame_counter_is_non_decreasing(session_factory):
    session, _ = session_factory(lockstep=True, seed=11)
    seen = [session.frame_counter]
    for _ in range(10):
        session.poll()
        seen.append(session.frame_counter)
    session.refresh()
    seen.append(session.frame_counter)
    assert seen == sorted(seen)


# -- input injection ---------------------------------------------------------


def test_press_key_writes_down_then_up_on_the_wire():
    recorder = RecordingServer().start()
    try:
        session = connect("127.0.0.1", recorder.port)
        press_key(session, KEY_LEFT)
        session.poll()
        time.sleep(0.3)
        session.close()
    finally:
        recorder.stop()
    raw = bytes(recorder.raw)
    kinds = []
    offset = 0
    while offset < len(raw):
        kind, fields, consumed = reference_parse_client_message(raw[offset:])
        kinds.append((kind, fields))
        offset += consumed
    key_events = [fields for kind, fields in kinds if kind == "key_event"]
    assert key_events == [
        {"down": 1, "keysym": KEY_LEFT},
        {"down": 0, "keysym": KEY_LEFT},
    ]
    # connect negotiates before any input: format, encodings, full request
    assert kinds[0][0] == "set_pixel_format"
    assert kinds[1][0] == "set_encodings"
    assert kinds[1][1]["encodings"] == [0]
    assert kinds[2][0] == "update_request"
    assert kinds[2][1]["incremental"] == 0


def test_input_events_preserve_call_order():
    recorder = RecordingServer().start()
    try:
        session = connect("127.0.0.1", recorder.port)
        center = (recorder.width // 2, recorder.height // 2)
        session.send_key(KEY_LEFT, True)
        session.queue_key(KEY_RIGHT, True)  # written ahead of the next event
        session.send_pointer(*center, button_mask=1)
        session.send_pointer(*center, button_mask=0)
        session.send_key(KEY_LEFT, False)
        time.sleep(0.3)
        session.close()
    finally:
        recorder.stop()
    raw = bytes(recorder.raw)
    sequence = []
    offset = 0
    while offset < len(raw):
        kind, fields, consumed = reference_parse_client_message(raw[offset:])
        offset += consumed
        if kind in ("key_event", "pointer_event"):
            sequence.append((kind, fields.get("down", fields.get("mask"))))
    assert sequence == [
        ("key_event", 1),
        ("key_event", 1),
        ("pointer_event", 1),
        ("pointer_event", 0),
        ("key_event", 0),
    ]


def test_held_keys_steer_the_paddle(session_factory):
    session, server = session_factory(lockstep=True, seed=11)
    session.send_key(KEY_LEFT, True)
    for _ in range(30):
        if server.game_state().terminal:
            break
        session.poll()
    left_state = server.game_state()
    assert left_state.tilt == -1
    session.close()

    session2, server2 = session_factory(lockstep=True, seed=11)
    session2.send_key(KEY_RIGHT, True)
    for _ in range(30):
        if server2.game_state().terminal:
            break
        session2.poll()
    right_state = server2.game_state()
    assert right_state.tilt == 1
    assert left_state.position < right_state.position


def test_send_pointer_bounds(session_factory):
    session, _ = session_factory(lockstep=True)
    session.send_pointer(0, 0, 0)
    with pytest.raises(ValueError):
        session.send_pointer(session.width, 0, 0)
    with pytest.raises(ValueError):
        session.send_pointer(0, -1, 0)


def test_server_stop_does_not_wait_out_a_tick(server_factory):
    server = server_factory(tick_rate=1.0)
    time.sleep(0.05)  # the ticker is now waiting on its next one-second tick
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.5
    assert not any(thread.is_alive() for thread in server._threads)


def test_server_stop_wakes_open_connections_at_once(server_factory):
    for server in (server_factory(lockstep=True), server_factory(tick_rate=30.0)):
        session = connect("127.0.0.1", server.port)
        side = socket.create_connection(("127.0.0.1", server.side_channel_port), timeout=5.0)
        side.sendall(b"HASH\n")
        assert side.recv(64).endswith(b"\n")
        time.sleep(0.05)  # both connections' threads are now blocked in recv
        started = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - started
        side.close()
        session.close()
        assert elapsed < 0.1
        assert not any(thread.is_alive() for thread in server._threads)


# -- an in-process lockstep client serves the server's end ------------------


def test_in_process_lockstep_client_serves_updates_on_its_own_thread(server_factory, monkeypatch):
    threads = []
    original = MockServer._update_payload

    def recording_update_payload(self, incremental):
        threads.append(threading.get_ident())
        return original(self, incremental)

    monkeypatch.setattr(MockServer, "_update_payload", recording_update_payload)
    for server_kwargs, on_caller in (({"lockstep": True}, True), ({"tick_rate": 30.0}, False)):
        threads.clear()
        server = server_factory(**server_kwargs)
        with connect("127.0.0.1", server.port) as session:
            for _ in range(5):
                session.poll()
        assert len(threads) == 6  # connect's refresh and five polls
        assert {thread == threading.get_ident() for thread in threads} == {on_caller}


def test_closing_an_in_process_session_frees_the_server_for_the_next(server_factory):
    server = server_factory(lockstep=True, seed=11)
    first = connect("127.0.0.1", server.port)
    assert first.poll(DEFAULT_CONNECT_TIMEOUT)
    with pytest.raises(ConnectTimeoutError):  # one client at a time
        connect("127.0.0.1", server.port, timeout=0.3)
    assert first.poll(DEFAULT_CONNECT_TIMEOUT)  # still served
    first.close()
    second = connect("127.0.0.1", server.port, timeout=2.0)
    try:
        ticks = server.game_state().ticks_survived
        assert second.poll(DEFAULT_CONNECT_TIMEOUT)
        assert server.game_state().ticks_survived == ticks + 1
    finally:
        second.close()
    assert server.drops[0] == 1  # only the client that gave up waiting
    deadline = time.monotonic() + 2.0
    while server._conns and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not server._conns  # the parked connection thread closed its socket


def test_stop_during_an_in_process_session_fails_the_next_poll_at_once(server_factory):
    server = server_factory(lockstep=True, seed=11)
    session = connect("127.0.0.1", server.port)
    assert session.poll(DEFAULT_CONNECT_TIMEOUT)
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.5
    assert not any(thread.is_alive() for thread in server._threads)
    started = time.monotonic()
    with pytest.raises(ConnectionLostError):
        session.poll(DEFAULT_CONNECT_TIMEOUT)
    assert time.monotonic() - started < 0.5
    assert session.state is SessionState.CLOSED


def test_closing_only_the_socket_of_an_in_process_session_frees_the_server(server_factory):
    server = server_factory(lockstep=True, seed=11)
    first = connect("127.0.0.1", server.port)
    assert first.poll(DEFAULT_CONNECT_TIMEOUT)
    first._sock.close()  # the session itself is neither closed nor collected
    with connect("127.0.0.1", server.port, timeout=2.0) as second:
        assert second.poll(DEFAULT_CONNECT_TIMEOUT)
    assert first.state is SessionState.READY
    first.close()


def test_connect_leaves_no_in_process_entry_behind(server_factory):
    lockstep = server_factory(lockstep=True, seed=11)
    with connect("127.0.0.1", lockstep.port) as session:
        assert session._server_end is not None
        assert not fbenv.client._IN_PROCESS_CLIENTS
        with pytest.raises(ConnectTimeoutError):  # the server is busy with the first
            connect("127.0.0.1", lockstep.port, timeout=0.3)
        assert not fbenv.client._IN_PROCESS_CLIENTS
    timed = server_factory(tick_rate=30.0)
    with connect("127.0.0.1", timed.port) as session:
        assert session._server_end is None
        assert not fbenv.client._IN_PROCESS_CLIENTS

    def refuse(conn):
        conn.sendall(handshake_script(security_types=b"", reason=b"busy"))
        conn.recv(12)  # the client's version, read so the close sends no RST

    with one_shot_server(refuse) as port, pytest.raises(HandshakeRefusedError):
        connect("127.0.0.1", port)
    assert not fbenv.client._IN_PROCESS_CLIENTS
    with server_process("--lockstep") as (_, port, _):
        with connect("127.0.0.1", port) as session:
            assert session._server_end is None
            assert not fbenv.client._IN_PROCESS_CLIENTS


def test_an_in_process_session_dropped_unclosed_frees_the_server(server_factory):
    server = server_factory(lockstep=True, seed=11)
    session = connect("127.0.0.1", server.port)
    assert session.poll(DEFAULT_CONNECT_TIMEOUT)
    del session
    gc.collect()
    with connect("127.0.0.1", server.port, timeout=2.0) as session:
        assert session.poll(DEFAULT_CONNECT_TIMEOUT)


def test_stop_racing_in_process_polls_ends_both_promptly(server_factory):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside serve() too
    try:
        for delay in (0.0, 0.001, 0.002, 0.005) * 5:
            server = server_factory(lockstep=True, seed=11)
            session = connect("127.0.0.1", server.port)
            errors = []

            def poll_until_lost():
                try:
                    while True:
                        session.poll(DEFAULT_CONNECT_TIMEOUT)
                except Exception as exc:
                    errors.append(exc)

            poller = threading.Thread(target=poll_until_lost)
            poller.start()
            time.sleep(delay)
            server.stop()
            poller.join(timeout=5.0)
            assert not poller.is_alive()
            assert [type(error) for error in errors] == [ConnectionLostError]
            assert not any(thread.is_alive() for thread in server._threads)
            session.close()
    finally:
        sys.setswitchinterval(interval)


def test_garbage_through_an_in_process_session_drops_the_client(server_factory):
    server = server_factory(lockstep=True, seed=11)
    session = connect("127.0.0.1", server.port)
    session._sock.sendall(b"\x99garbage")
    with pytest.raises(ConnectionLostError):
        session.poll(DEFAULT_CONNECT_TIMEOUT)
    assert server.drops == (1, "ProtocolError: unknown client message type 153")
    session.close()
    with connect("127.0.0.1", server.port) as session:  # and the next client is served
        assert session.poll(DEFAULT_CONNECT_TIMEOUT)


def test_a_client_that_stops_reading_is_dropped_without_blocking_it(server_factory):
    server = server_factory(lockstep=True, seed=11)
    session = connect("127.0.0.1", server.port)
    full = encode_client_message(FramebufferUpdateRequest(False, Rectangle(0, 0, 160, 160)))
    # 100 full frames of replies: more than the two ends' socket buffers hold
    session._sock.sendall(full * 100)
    started = time.monotonic()
    session.send_pointer(0, 0)  # this write serves the requests on this thread
    assert time.monotonic() - started < 1.0
    dropped, reason = server.drops
    assert dropped == 1 and reason.startswith("BlockingIOError")
    with pytest.raises(ConnectionLostError):
        session.poll(DEFAULT_CONNECT_TIMEOUT)
    session.close()


# -- pacer -------------------------------------------------------------------


class FakeClock:
    """Stands in for fbenv.client's ``time``; a sleep lands ``late``
    seconds after its end (exactly, by default)."""

    def __init__(self):
        self.now = 100.0
        self.late = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds + self.late


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(fbenv.client, "time", fake)
    return fake


def test_pacer_ticks_fall_on_the_grid(clock):
    pacer = Pacer(0.1)
    fired = []
    while pacer.wait(end=100.45):
        fired.append(clock.now)
        clock.now += 0.03  # work shorter than a period
    assert fired == pytest.approx([100.0, 100.1, 100.2, 100.3, 100.4])


def test_pacer_skips_passed_ticks_and_keeps_half_a_period(clock):
    pacer = Pacer(0.1)
    clock.now += 0.08  # tick 0 fires late, 0.02 before tick 1's grid point
    assert pacer.wait()
    assert pacer.wait()
    assert clock.now == pytest.approx(100.13)  # not 100.1: too close to the last tick
    clock.now += 0.13  # overrun more than half a period past tick 2's grid point
    assert pacer.wait()
    assert clock.now == pytest.approx(100.3)  # tick 2 is skipped
    clock.now += 0.24  # overrun less than half a period past tick 5's grid point
    assert pacer.wait()
    assert clock.now == pytest.approx(100.54)  # tick 5 fires at once; tick 4 is skipped
    assert pacer.wait()
    assert clock.now == pytest.approx(100.6)


def test_pacer_keeps_ticks_that_wake_late(clock):
    clock.late = 0.055  # every sleep overshoots by 0.55 of a period
    pacer = Pacer(0.1)
    fired = []
    while pacer.wait(end=101.0):
        fired.append(clock.now)
    assert fired == pytest.approx(
        [100.0, 100.155, 100.26, 100.365, 100.47, 100.575, 100.68, 100.785, 100.89, 100.995]
    )
    assert min(b - a for a, b in zip(fired, fired[1:])) >= 0.05


def test_pacer_stop_event_ends_a_wait_early():
    stop = threading.Event()
    pacer = Pacer(10.0, stop)
    assert pacer.wait()  # the first tick fires at once
    setter = threading.Timer(0.05, stop.set)
    setter.start()
    started = time.monotonic()
    assert not pacer.wait()
    assert time.monotonic() - started < 1.0
    setter.join(timeout=5.0)
    assert not setter.is_alive()


# -- capture loops -----------------------------------------------------------


def test_fixed_rate_validates_fps(session_factory):
    session, _ = session_factory(lockstep=True)
    with pytest.raises(ValueError):
        session.run_fixed_rate(0, lambda f, i: None, duration=1.0)
    with pytest.raises(ValueError):
        session.run_fixed_rate(2000, lambda f, i: None, duration=1.0)


def test_fixed_rate_stop_signal_short_circuits(session_factory):
    session, _ = session_factory(lockstep=True)
    stop = threading.Event()
    stop.set()
    stats = session.run_fixed_rate(30, lambda f, i: None, duration=5.0, stop=stop)
    assert stats.frames_delivered == 0
    assert stats.achieved_fps == 0.0
    assert stats.error is None


def test_fixed_rate_short_run_hits_target_band(session_factory):
    session, _ = session_factory(tick_rate=30.0, seed=11)
    stats = session.run_fixed_rate(30, lambda f, i: None, duration=2.0)
    assert 0.9 * 60 <= stats.frames_delivered <= 1.05 * 60
    assert stats.error is None
    assert stats.latency_p50_ms <= stats.latency_p99_ms


def test_fixed_rate_callbacks_never_bunch(session_factory, monkeypatch):
    session, _ = session_factory(tick_rate=30.0, seed=11)
    fired = []  # when each tick fired, before its poll: a delayed poll moves no tick

    class RecordingPacer(Pacer):
        def wait(self, end=math.inf):
            if not super().wait(end):
                return False
            fired.append(self._fired_at)
            return True

    monkeypatch.setattr(fbenv.client, "Pacer", RecordingPacer)

    def slow_every_third(frame, index):
        if index % 3 == 2:
            time.sleep(0.06)  # overrun past the next deadline

    session.run_fixed_rate(20, slow_every_third, duration=1.5)
    gaps = [b - a for a, b in zip(fired, fired[1:])]
    assert gaps and min(gaps) >= 0.5 / 20


def test_fixed_rate_callback_error_lands_in_stats(session_factory):
    session, _ = session_factory(tick_rate=30.0)

    def boom(frame, index):
        if index == 3:
            raise RuntimeError("boom")

    stats = session.run_fixed_rate(30, boom, duration=5.0)
    assert stats.frames_delivered == 3
    assert isinstance(stats.error, RuntimeError)


def test_unrestricted_zero_duration(session_factory):
    session, _ = session_factory(lockstep=True)
    stats = session.run_unrestricted(lambda f, i: None, 0.0)
    assert stats.frames_delivered == 0


def test_unrestricted_outpaces_fixed_rate(session_factory):
    session, _ = session_factory(tick_rate=30.0, seed=11)
    stats = session.run_unrestricted(lambda f, i: None, 1.0)
    assert stats.achieved_fps > 100
    assert stats.error is None


def test_server_death_mid_run_surfaces_in_stats(server_factory):
    server = server_factory(tick_rate=30.0, seed=11)
    session = connect("127.0.0.1", server.port)
    killer = threading.Timer(0.5, server.stop)
    killer.start()
    stats = session.run_unrestricted(lambda f, i: None, 10.0)
    killer.join()
    assert stats.frames_delivered > 0
    assert isinstance(stats.error, ConnectionLostError)
    assert session.state is SessionState.CLOSED
    session.close()


def test_side_messages_do_not_count_as_updates():
    text = b"clipboard"
    bell_and_cut_text = b"\x02" + struct.pack(">B3xI", 3, len(text)) + text
    recorder = RecordingServer(before_update=bell_and_cut_text).start()
    try:
        session = connect("127.0.0.1", recorder.port)
        assert session.frame_counter == 1
        for expected in range(2, 12):
            assert session.poll(DEFAULT_CONNECT_TIMEOUT)
            assert session.frame_counter == expected
        session.close()
    finally:
        recorder.stop()


def test_poll_applies_every_update_that_has_arrived():
    def update(width: int, height: int, fill: int) -> bytes:
        """One raw rectangle at the origin."""
        header = struct.pack(">BxHHHHHi", 0, 1, 0, 0, width, height, 0)
        return header + bytes([fill]) * (width * height * 4)

    # the first update is exactly one 65536-byte receive, so the other two
    # are still on the socket, not in the session's buffer, once it is applied
    first = update(126, 130, 0x11)
    assert len(first) == 65536
    server_end, client_end = socket.socketpair()
    with server_end, client_end:
        session = Session(client_end, ServerInit(160, 160, RGBX32, "stub"), RGBX32)
        session.state = SessionState.READY
        server_end.sendall(first + update(4, 4, 0x22) + update(2, 2, 0x33))
        before = session.frame_counter
        assert session.poll(DEFAULT_CONNECT_TIMEOUT)
        assert session.frame_counter == before + 3
        assert len(server_end.recv(64)) == 10  # one update request was written
    words = session.framebuffer.as_words()
    assert (words[:2, :2] == 0x33333333).all()
    assert (words[2:4, 2:4] == 0x22222222).all()
    assert (words[4:130, 4:126] == 0x11111111).all()
    assert (words[130:, :] == 0).all() and (words[:, 126:] == 0).all()


#: How far past its timeout a call may run against a flooding server: the
#: decoding of one 64 KiB receive of empty updates (16 ms measured) and a
#: busy host's scheduling
FLOOD_MARGIN = 0.5


def test_a_flooding_server_holds_connect_and_poll_only_until_their_timeouts():
    with flooding_server(10.0) as port:
        started = time.monotonic()
        session = connect("127.0.0.1", port, timeout=1.0)
        connected = time.monotonic()
        with session:
            assert session.poll(0.1)
            polled = time.monotonic()
    assert connected - started < 1.0 + FLOOD_MARGIN
    assert polled - connected < 0.1 + FLOOD_MARGIN
    assert session.frame_counter > 1


def test_oversized_cut_text_header_raises_without_waiting():
    server_end, client_end = socket.socketpair()
    with server_end, client_end:
        session = Session(client_end, ServerInit(160, 160, RGBX32, "stub"), RGBX32)
        session.state = SessionState.READY
        server_end.sendall(struct.pack(">B3xI", 3, 0xFFFFFFFF))  # 4 GiB declared, none sent
        started = time.monotonic()
        with pytest.raises(ProtocolError):
            session.poll(DEFAULT_CONNECT_TIMEOUT)
        assert time.monotonic() - started < 1.0
        assert session.state is SessionState.CLOSED


def test_oversized_update_header_raises_without_waiting():
    full_screen = struct.pack(">HHHHi", 0, 0, 160, 160, 0) + bytes(160 * 160 * 4)
    flood = struct.pack(">BxH", 0, 65535) + full_screen * 3  # 65535 full screens declared

    def send(sock):
        try:
            sock.sendall(flood)
        except OSError:
            pass  # the session hung up first

    server_end, client_end = socket.socketpair()
    with server_end, client_end:
        session = Session(client_end, ServerInit(160, 160, RGBX32, "stub"), RGBX32)
        session.state = SessionState.READY
        sender = threading.Thread(target=send, args=(server_end,))
        sender.start()
        started = time.monotonic()
        with pytest.raises(ProtocolError):
            session.poll(DEFAULT_CONNECT_TIMEOUT)
        assert time.monotonic() - started < 1.0
        assert session.state is SessionState.CLOSED
        sender.join(timeout=5.0)
        assert not sender.is_alive()


# -- pixel fidelity ----------------------------------------------------------


def steer_randomly(session, rng) -> None:
    """Hold left, right or neither; now and then restart the episode."""
    action = int(rng.integers(0, 3))
    session.send_key(KEY_LEFT, action == 1)
    session.send_key(KEY_RIGHT, action == 2)
    if rng.random() < 0.02:
        press_key(session, KEY_SPACE)


def bounding_box(changed: np.ndarray) -> tuple[int, int, int, int] | None:
    rows = np.flatnonzero(changed.any(axis=1))
    cols = np.flatnonzero(changed.any(axis=0))
    if rows.size == 0:
        return None
    return int(cols[0]), int(rows[0]), int(cols[-1] - cols[0] + 1), int(rows[-1] - rows[0] + 1)


def switch_format(session, fmt) -> None:
    """Send SetPixelFormat mid-session. The server forgets what the client
    holds, so the client starts over from a blank frame in ``fmt``."""
    session._send(encode_client_message(SetPixelFormat(fmt)))
    session.format = fmt
    session.framebuffer = Framebuffer.blank(session.width, session.height, fmt)


def test_incremental_rectangles_are_the_byte_diff_bounding_box(server_factory, monkeypatch):
    server = server_factory(lockstep=True, auto_reset=True, seed=29)
    updates = []
    apply_update = fbenv.client.apply_update

    def recording_apply_update(fb, update):
        before = fb.as_array().copy()
        apply_update(fb, update)
        updates.append((before, fb.as_array().copy(), update))
        return fb

    def poll(session):
        """One lockstep tick; the client's frame must then be the render
        of the server's game state."""
        assert session.poll(DEFAULT_CONNECT_TIMEOUT)
        expected = render(server.game_state(), session.format)
        assert session.framebuffer.pixels == expected.pixels

    monkeypatch.setattr(fbenv.client, "apply_update", recording_apply_update)
    for index, fmt in enumerate(TEST_FORMATS):
        rng = np.random.default_rng(fmt.bits_per_pixel + fmt.big_endian)
        with connect("127.0.0.1", server.port, requested_format=fmt) as session:
            updates.clear()
            for _ in range(200):
                steer_randomly(session, rng)
                poll(session)
            digest, generation = side_channel_hash(server.side_channel_port)
            assert generation == session.frame_counter == 201
            assert digest == fnv1a64(bytes(session.framebuffer.pixels))
            assert len(updates) == 200
            assert sum(bool(update.rectangles) for _, _, update in updates) > 100
            # mid-session transitions: a terminal frame and the auto-reset
            # after it, a space-key reset, then a SetPixelFormat
            session.send_key(KEY_RIGHT, False)
            session.send_key(KEY_LEFT, True)
            for _ in range(100):
                poll(session)
                if server.game_state().terminal:
                    break
            assert server.game_state().terminal
            poll(session)
            assert server.game_state().ticks_survived == 0
            session.send_key(KEY_LEFT, False)
            for _ in range(5):
                poll(session)
            episode = server.episode
            press_key(session, KEY_SPACE)
            poll(session)
            assert server.episode == episode + 1
            polls = len(updates)
            switch_format(session, TEST_FORMATS[(index + 1) % len(TEST_FORMATS)])
            for _ in range(20):
                steer_randomly(session, rng)
                poll(session)
            digest, generation = side_channel_hash(server.side_channel_port)
            assert generation == 1 + polls + 20 and session.frame_counter == 20
            assert digest == fnv1a64(bytes(session.framebuffer.pixels))
        for before, after, update in updates:
            box = bounding_box((before != after).any(axis=2))
            rects = [(r.x, r.y, r.width, r.height) for r, _ in update.rectangles]
            assert rects == ([] if box is None else [box])


def test_capture_callbacks_get_the_live_framebuffer(session_factory):
    session, _ = session_factory(lockstep=True, auto_reset=True, seed=11)
    seen = []

    def record(framebuffer, index):
        seen.append((framebuffer, framebuffer.generation))

    stats = session.run_unrestricted(record, 0.3)
    assert stats.error is None
    assert stats.frames_delivered == len(seen) > 1
    assert all(framebuffer is session.framebuffer for framebuffer, _ in seen)
    # one lockstep poll is one update: generation 1 is connect's
    assert [generation for _, generation in seen] == list(range(2, 2 + len(seen)))


def test_capture_converts_no_pixels(session_factory, monkeypatch):
    session, _ = session_factory(tick_rate=30.0, seed=11)

    def refuse(framebuffer):
        raise AssertionError("capture converted a frame to grayscale")

    monkeypatch.setattr(fbenv.client, "to_grayscale", refuse)
    for stats in (
        session.run_fixed_rate(30, lambda framebuffer, index: None, duration=0.3),
        session.run_unrestricted(lambda framebuffer, index: None, 0.3),
    ):
        assert stats.error is None
        assert stats.frames_delivered > 0


def test_client_buffer_matches_server_hash_over_random_play(session_factory):
    session, server = session_factory(lockstep=True, auto_reset=True, seed=23)
    rng = np.random.default_rng(23)
    for tick in range(200):
        action = int(rng.integers(0, 3))
        if action == 1:
            session.send_key(KEY_LEFT, True)
            session.send_key(KEY_RIGHT, False)
        elif action == 2:
            session.send_key(KEY_RIGHT, True)
            session.send_key(KEY_LEFT, False)
        else:
            session.send_key(KEY_LEFT, False)
            session.send_key(KEY_RIGHT, False)
        session.poll()
        if tick % 20 == 19:
            digest, generation = side_channel_hash(server.side_channel_port)
            assert generation == session.frame_counter
            assert digest == fnv1a64(bytes(session.framebuffer.pixels))


def test_side_channel_drops_an_over_long_line(server_factory):
    server = server_factory(lockstep=True, seed=11)
    with socket.create_connection(("127.0.0.1", server.side_channel_port), timeout=5.0) as sock:
        try:
            sock.sendall(b"H" * (1 << 20))  # 1 MiB and no newline
        except OSError:
            pass  # the server hung up mid-send
        try:
            while sock.recv(64):
                pass
        except ConnectionResetError:
            pass  # closed with the rest of the line unread
    limit = fbenv.server.MAX_SIDE_CHANNEL_LINE
    assert server.drops == (1, f"ProtocolError: side-channel line over {limit} bytes")
    assert side_channel_hash(server.side_channel_port)[1] == 0  # a new connection is served


def test_an_idle_side_channel_client_holds_up_no_other():
    before = set(threading.enumerate())
    server = fbenv.server.serve(fbenv.server.ServerConfig(port=0, lockstep=True, seed=11))
    limit = fbenv.server.MAX_SIDE_CHANNEL_CLIENTS
    clients = []
    try:
        clients.append(socket.create_connection(("127.0.0.1", server.side_channel_port), timeout=5.0))
        for index in range(1, limit):  # each answered while the first stays idle
            client = socket.create_connection(("127.0.0.1", server.side_channel_port), timeout=5.0)
            clients.append(client)
            started = time.monotonic()
            client.sendall(b"HASH\n")
            assert client.recv(64).endswith(b" 0\n")
            if index == 1:
                assert time.monotonic() - started < 0.5
        # one more than the cap is closed at once and counted
        with socket.create_connection(("127.0.0.1", server.side_channel_port), timeout=5.0) as extra:
            try:
                assert extra.recv(64) == b""
            except ConnectionResetError:
                pass
        assert server.drops == (1, f"ProtocolError: over {limit} side-channel connections")
    finally:
        server.stop()  # with the idle clients still connected
        for client in clients:
            client.close()
    assert not [thread.name for thread in threading.enumerate() if thread not in before]


def test_hash_query_does_not_hold_the_game_lock(session_factory, monkeypatch):
    session, server = session_factory(lockstep=True, seed=11)
    hashing = threading.Event()

    def slow_fnv1a64(data):
        hashing.set()
        time.sleep(0.5)
        return fnv1a64(data)

    monkeypatch.setattr(fbenv.server, "fnv1a64", slow_fnv1a64)
    query = threading.Thread(target=side_channel_hash, args=(server.side_channel_port,))
    query.start()
    try:
        assert hashing.wait(5.0)
        started = time.monotonic()
        assert session.poll(DEFAULT_CONNECT_TIMEOUT)
        elapsed = time.monotonic() - started
    finally:
        query.join(timeout=5.0)
    assert not query.is_alive()
    assert elapsed < 0.25
