"""Correctness checks that run outside the timed window.

The FNV-1a here is written from the algorithm's definition rather than
imported from the package, so the fidelity check does not rest on the
code it checks.
"""

from __future__ import annotations

import socket
import time

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    value = FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * FNV_PRIME) & MASK
    return value


def score_digest(scores, steps_total: int) -> str:
    """Digest of a training run's episode-score series and step count."""
    text = ",".join(repr(float(score)) for score in scores) + f"|{steps_total}"
    return f"{fnv1a64(text.encode('ascii')):016x}"


def query_hash(port: int, host: str = "127.0.0.1", timeout: float = 5.0) -> tuple[int, int, float]:
    """Ask the server's side channel for ``HASH``.

    Returns (digest, generation, round-trip seconds). The round trip runs
    from the request write to the end of the reply line.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        started = time.perf_counter()
        sock.sendall(b"HASH\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(256)
            if not chunk:
                raise ConnectionError("side channel closed before replying")
            reply += chunk
        elapsed = time.perf_counter() - started
    digest, generation = reply.split()
    return int(digest, 16), int(generation), elapsed


def fidelity_problems(server, session, rounds: int = 1) -> tuple[list[str], list[float]]:
    """Compare the server's HASH reply with the client's mirror.

    The digest must equal FNV-1a over the client framebuffer's pixels and
    the generation must equal the session's frame counter. Returns the
    problems found and the HASH round-trip times.
    """
    problems = []
    round_trips = []
    local = fnv1a64(bytes(session.framebuffer.pixels))
    for _ in range(rounds):
        digest, generation, elapsed = query_hash(server.side_channel_port)
        round_trips.append(elapsed)
        if digest != local:
            problems.append(f"server hash {digest:016x} != client hash {local:016x}")
        if generation != session.frame_counter:
            problems.append(f"server generation {generation} != client frame counter {session.frame_counter}")
    return problems, round_trips
