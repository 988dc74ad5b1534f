"""Benchmark harness and frame capture tests."""

import re

import numpy as np
import pytest

from fbenv.bench import MODE_FIXED, MODE_UNRESTRICTED, bench, capture_frames, format_report
from fbenv.agent import ball_column
from fbenv.framebuffer import GrayFrame

from helpers import oracle_ball_columns, oracle_start_position

MACHINE_LINE = re.compile(r"^[a-z_]+=[-0-9.]+$")


def read_pgm(path) -> GrayFrame:
    data = path.read_bytes()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    assert magic == b"P5"
    width, height = (int(v) for v in dims.split())
    assert maxval == b"255"
    assert len(pixels) == width * height
    values = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
    return GrayFrame(width, height, values.copy())


def test_bench_validates_arguments(server_factory):
    server = server_factory(tick_rate=30.0)
    with pytest.raises(ValueError):
        bench(MODE_FIXED, 0.5, "127.0.0.1", server.port)
    with pytest.raises(ValueError):
        bench("turbo", 2.0, "127.0.0.1", server.port)


def test_fixed_rate_bench_report_identities(server_factory):
    server = server_factory(tick_rate=30.0, seed=11)
    report = bench(MODE_FIXED, 2.0, "127.0.0.1", server.port, fps=30.0)
    assert 0.9 * 60 <= report.frames <= 1.05 * 60
    assert report.achieved_fps == pytest.approx(report.frames / report.duration)
    assert report.cpu_seconds >= 0.0
    assert report.mode == MODE_FIXED and report.target_fps == 30.0


def test_unrestricted_bench_outpaces_fixed(server_factory):
    server = server_factory(tick_rate=30.0, seed=11)
    fixed = bench(MODE_FIXED, 1.0, "127.0.0.1", server.port, fps=30.0)
    unrestricted = bench(MODE_UNRESTRICTED, 1.0, "127.0.0.1", server.port)
    assert unrestricted.achieved_fps >= fixed.achieved_fps
    assert unrestricted.target_fps is None


def test_machine_format_is_line_parseable(server_factory):
    server = server_factory(tick_rate=30.0, seed=11)
    report = bench(MODE_UNRESTRICTED, 1.0, "127.0.0.1", server.port)
    for line in format_report(report, machine=True).splitlines():
        assert MACHINE_LINE.match(line), line
    keys = [line.split("=")[0] for line in format_report(report, machine=True).splitlines()]
    assert "achieved_fps" in keys and "cpu_ratio" in keys and "frames" in keys


def test_human_format_mentions_the_numbers(server_factory):
    server = server_factory(tick_rate=30.0, seed=11)
    report = bench(MODE_FIXED, 1.0, "127.0.0.1", server.port, fps=30.0)
    text = format_report(report)
    assert "achieved fps" in text
    assert "160x160x32" in text


def test_capture_rejects_zero_count(server_factory, tmp_path):
    server = server_factory(lockstep=True)
    with pytest.raises(ValueError):
        capture_frames("127.0.0.1", server.port, 0, tmp_path)


def test_capture_writes_frames_matching_oracle(server_factory, tmp_path):
    server = server_factory(lockstep=True, seed=51)
    paths = capture_frames("127.0.0.1", server.port, 3, tmp_path / "frames")
    assert [p.name for p in paths] == ["frame-000000.pgm", "frame-000001.pgm", "frame-000002.pgm"]
    frame = read_pgm(paths[0])
    assert (frame.width, frame.height) == (160, 160)
    # the first captured frame shows the ball one tick into the episode
    p0 = oracle_start_position(51, 0)
    v1 = 0.002 * p0
    p1 = p0 + v1
    lit = oracle_ball_columns(p1)
    band = frame.values[132:140]
    bright_columns = np.flatnonzero(band.max(axis=0) == 255)
    assert set(bright_columns.tolist()) == set(lit)


def test_capture_overwrites_deterministically(server_factory, tmp_path):
    out = tmp_path / "frames"
    server_a = server_factory(lockstep=True, seed=51)
    capture_frames("127.0.0.1", server_a.port, 2, out)
    first = (out / "frame-000000.pgm").read_bytes()
    server_b = server_factory(lockstep=True, seed=51)
    capture_frames("127.0.0.1", server_b.port, 2, out)
    assert (out / "frame-000000.pgm").read_bytes() == first


def test_capture_frame_discretizes_like_live_pipeline(server_factory, tmp_path):
    from fbenv.framebuffer import downsample

    server = server_factory(lockstep=True, seed=51)
    paths = capture_frames("127.0.0.1", server.port, 1, tmp_path)
    frame = downsample(read_pgm(paths[0]), 16, 16)
    assert ball_column(frame) is not None
