"""Capture-throughput benchmark and frame dumping.

Reports how fast frames can be pulled off a server in either capture
mode, along with process CPU time (CPU percentage is reported as the
process-CPU / wall-time ratio, which is portable and testable) and
best-effort peak memory.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from pathlib import Path

from .client import connect
from .framebuffer import write_pgm

MODE_FIXED = "fixed"
MODE_UNRESTRICTED = "unrestricted"


@dataclass
class BenchReport:
    mode: str
    target_fps: float | None
    duration: float
    frames: int
    achieved_fps: float
    frame_width: int
    frame_height: int
    bits_per_pixel: int
    cpu_seconds: float
    cpu_ratio: float
    peak_rss_bytes: int
    latency_p50_ms: float
    latency_p99_ms: float


def _peak_rss_bytes() -> int:
    # ru_maxrss is kilobytes on Linux; best-effort elsewhere
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def bench(
    mode: str,
    duration: float,
    host: str,
    port: int,
    fps: float = 30.0,
) -> BenchReport:
    """Run one capture benchmark against a live server."""
    if duration < 1.0:
        raise ValueError("benchmark duration must be at least 1 second")
    if mode not in (MODE_FIXED, MODE_UNRESTRICTED):
        raise ValueError(f"unknown benchmark mode {mode!r}")

    def no_op(framebuffer, index):
        pass

    with connect(host, port) as session:
        cpu_before = time.process_time()
        if mode == MODE_FIXED:
            stats = session.run_fixed_rate(fps, no_op, duration=duration)
        else:
            stats = session.run_unrestricted(no_op, duration)
        cpu_seconds = time.process_time() - cpu_before
        width, height = session.width, session.height
        bits = session.format.bits_per_pixel
    if stats.error is not None:
        raise stats.error
    return BenchReport(
        mode=mode,
        target_fps=fps if mode == MODE_FIXED else None,
        duration=stats.wall_time,
        frames=stats.frames_delivered,
        achieved_fps=stats.achieved_fps,
        frame_width=width,
        frame_height=height,
        bits_per_pixel=bits,
        cpu_seconds=cpu_seconds,
        cpu_ratio=cpu_seconds / stats.wall_time if stats.wall_time > 0 else 0.0,
        peak_rss_bytes=_peak_rss_bytes(),
        latency_p50_ms=stats.latency_p50_ms,
        latency_p99_ms=stats.latency_p99_ms,
    )


def format_report(report: BenchReport, machine: bool = False) -> str:
    """Render a report as an aligned table or `key=value` lines."""
    if machine:
        lines = [
            f"mode_fixed={1 if report.mode == MODE_FIXED else 0}",
            f"target_fps={report.target_fps or 0.0:.6f}",
            f"duration_s={report.duration:.6f}",
            f"frames={report.frames}",
            f"achieved_fps={report.achieved_fps:.6f}",
            f"width={report.frame_width}",
            f"height={report.frame_height}",
            f"bits_per_pixel={report.bits_per_pixel}",
            f"cpu_seconds={report.cpu_seconds:.6f}",
            f"cpu_ratio={report.cpu_ratio:.6f}",
            f"peak_rss_bytes={report.peak_rss_bytes}",
            f"latency_median_ms={report.latency_p50_ms:.6f}",
            f"latency_tail_ms={report.latency_p99_ms:.6f}",
        ]
        return "\n".join(lines)
    mode = report.mode if report.target_fps is None else f"{report.mode} @ {report.target_fps:g} fps"
    rows = [
        ("mode", mode),
        ("duration", f"{report.duration:.2f} s"),
        ("frames", str(report.frames)),
        ("achieved fps", f"{report.achieved_fps:.1f}"),
        ("frame size", f"{report.frame_width}x{report.frame_height}x{report.bits_per_pixel}"),
        ("cpu time", f"{report.cpu_seconds:.2f} s ({100 * report.cpu_ratio:.1f}%)"),
        ("peak rss", f"{report.peak_rss_bytes / (1 << 20):.1f} MiB"),
        ("latency p50/p99", f"{report.latency_p50_ms:.2f} / {report.latency_p99_ms:.2f} ms"),
    ]
    label_width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{label_width}}  {value}" for label, value in rows)


def capture_frames(host: str, port: int, count: int, out_dir) -> list[Path]:
    """Poll ``count`` frames and dump each as frame-NNNNNN.pgm.

    Existing files are overwritten. Returns the written paths.
    """
    if count < 1:
        raise ValueError("capture count must be at least 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    with connect(host, port) as session:
        for index in range(count):
            session.poll()
            path = out / f"frame-{index:06d}.pgm"
            write_pgm(session.snapshot(), path)
            paths.append(path)
    return paths
