"""Client-side framebuffer model and the grayscale observation pipeline.

The framebuffer mirrors the server screen byte-for-byte in the negotiated
pixel format. Observations are derived from it: true-color pixels are
reduced to 8-bit luminance and box-filtered down to a small grid.

Rounding is half-up everywhere (x -> floor(x + 0.5)) so every value here
can be reproduced exactly by an integer-arithmetic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedFormatError, UpdateRejectedError
from .wire import FramebufferUpdate, PixelFormat, Rectangle

# ITU-R BT.601 luma weights
_LUMA_R = 0.299
_LUMA_G = 0.587
_LUMA_B = 0.114


@dataclass(eq=False)
class GrayFrame:
    """8-bit luminance image, row-major, shape (height, width)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise ValueError(
                f"values shape {self.values.shape} != ({self.height}, {self.width})"
            )
        if self.values.dtype != np.uint8:
            raise ValueError(f"values must be uint8, got {self.values.dtype}")

    def __eq__(self, other):
        if not isinstance(other, GrayFrame):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.values, other.values)
        )

    def tobytes(self) -> bytes:
        return self.values.tobytes()


@dataclass(eq=False)
class Framebuffer:
    """Mutable pixel mirror of the server screen.

    ``generation`` counts applied FramebufferUpdate messages; it is bumped
    once per message by :func:`apply_update`, never by single rectangles.
    """

    width: int
    height: int
    format: PixelFormat
    pixels: bytearray
    generation: int = 0

    def __post_init__(self):
        expected = self.width * self.height * self.format.bytes_per_pixel
        if len(self.pixels) != expected:
            raise ValueError(f"pixel array is {len(self.pixels)} bytes, expected {expected}")

    @classmethod
    def blank(cls, width: int, height: int, fmt: PixelFormat) -> "Framebuffer":
        return cls(width, height, fmt, bytearray(width * height * fmt.bytes_per_pixel))

    def as_array(self) -> np.ndarray:
        """Writable (height, width, bytes-per-pixel) view of the pixels."""
        bpp = self.format.bytes_per_pixel
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(self.height, self.width, bpp)


def _check_rectangle(fb: Framebuffer, rect: Rectangle, pixel_bytes: bytes) -> None:
    """Reject a rectangle that leaves the framebuffer or whose payload is
    not exactly its pixels in the framebuffer's format."""
    if rect.x < 0 or rect.y < 0 or rect.x + rect.width > fb.width or rect.y + rect.height > fb.height:
        raise UpdateRejectedError(
            f"rectangle ({rect.x},{rect.y},{rect.width},{rect.height}) "
            f"exceeds {fb.width}x{fb.height} bounds"
        )
    expected = rect.width * rect.height * fb.format.bytes_per_pixel
    if len(pixel_bytes) != expected:
        raise UpdateRejectedError(f"payload is {len(pixel_bytes)} bytes, expected {expected}")


def _write_rectangle(fb: Framebuffer, rect: Rectangle, pixel_bytes: bytes) -> None:
    """Copy a rectangle already passed by :func:`_check_rectangle`."""
    bpp = fb.format.bytes_per_pixel
    src = np.frombuffer(pixel_bytes, dtype=np.uint8).reshape(rect.height, rect.width, bpp)
    fb.as_array()[rect.y : rect.y + rect.height, rect.x : rect.x + rect.width] = src


def apply_rectangle(fb: Framebuffer, rect: Rectangle, pixel_bytes: bytes) -> Framebuffer:
    """Overwrite exactly the rectangle's rows with ``pixel_bytes``.

    Validates bounds and payload length before touching anything, so a
    rejected update leaves the framebuffer bit-identical.
    """
    _check_rectangle(fb, rect, pixel_bytes)
    _write_rectangle(fb, rect, pixel_bytes)
    return fb


def apply_update(fb: Framebuffer, update: FramebufferUpdate) -> Framebuffer:
    """Apply one FramebufferUpdate message and bump the generation.

    All rectangles are validated up front so a malformed message leaves
    both the pixels and the generation untouched.
    """
    for rect, payload in update.rectangles:
        _check_rectangle(fb, rect, payload)
    for rect, payload in update.rectangles:
        _write_rectangle(fb, rect, payload)
    fb.generation += 1
    return fb


def _byte_channel_layout(fmt: PixelFormat) -> tuple[int, int, int] | None:
    """Byte index of (R, G, B) within a pixel, for formats where each
    channel is a full byte; None when arithmetic decoding is needed."""
    if not fmt.true_color or (fmt.red_max, fmt.green_max, fmt.blue_max) != (255, 255, 255):
        return None
    layout = []
    for shift in (fmt.red_shift, fmt.green_shift, fmt.blue_shift):
        if shift % 8:
            return None
        byte = shift // 8
        layout.append(fmt.bytes_per_pixel - 1 - byte if fmt.big_endian else byte)
    return tuple(layout)


def _pixel_words(fb: Framebuffer) -> np.ndarray:
    if fb.format.bits_per_pixel == 8:
        words = np.frombuffer(fb.pixels, dtype=np.uint8)
    else:
        byte_order = ">" if fb.format.big_endian else "<"
        words = np.frombuffer(fb.pixels, dtype=f"{byte_order}u{fb.format.bytes_per_pixel}")
    return words.reshape(fb.height, fb.width)


def to_grayscale(fb: Framebuffer) -> GrayFrame:
    """Reduce a true-color framebuffer to 8-bit luminance.

    gray = floor(0.299 R + 0.587 G + 0.114 B + 0.5) with each channel
    first rescaled to 0..255 via its color-max. Evaluated in exact
    integer arithmetic, so the result is free of float rounding.
    """
    if not fb.format.true_color:
        raise UnsupportedFormatError("palette formats cannot be converted to grayscale")
    fmt = fb.format
    layout = _byte_channel_layout(fmt)
    if layout is not None:
        arr = fb.as_array().astype(np.int32)
        red, green, blue = arr[..., layout[0]], arr[..., layout[1]], arr[..., layout[2]]
        values = ((299 * red + 587 * green + 114 * blue + 500) // 1000).astype(np.uint8)
        return GrayFrame(fb.width, fb.height, values)
    words = _pixel_words(fb).astype(np.int64)
    red = (words >> fmt.red_shift) & fmt.red_max
    green = (words >> fmt.green_shift) & fmt.green_max
    blue = (words >> fmt.blue_shift) & fmt.blue_max
    # gray = (numerator / denominator) rounded half-up, all integer
    gb, rb, rg = fmt.green_max * fmt.blue_max, fmt.red_max * fmt.blue_max, fmt.red_max * fmt.green_max
    numerator = 255 * (299 * red * gb + 587 * green * rb + 114 * blue * rg)
    denominator = 1000 * fmt.red_max * gb
    values = ((2 * numerator + denominator) // (2 * denominator)).astype(np.uint8)
    return GrayFrame(fb.width, fb.height, values)


def pixel_rgb(fb: Framebuffer, x: int, y: int) -> tuple[int, int, int]:
    """One pixel's (R, G, B), each rescaled to 0..255 (half-up)."""
    if not fb.format.true_color:
        raise UnsupportedFormatError("palette formats carry no direct RGB")
    if not (0 <= x < fb.width and 0 <= y < fb.height):
        raise ValueError(f"pixel ({x},{y}) outside {fb.width}x{fb.height}")
    fmt = fb.format
    bpp = fmt.bytes_per_pixel
    offset = (y * fb.width + x) * bpp
    word = int.from_bytes(fb.pixels[offset : offset + bpp], "big" if fmt.big_endian else "little")
    return tuple(
        (2 * ((word >> shift) & cmax) * 255 + cmax) // (2 * cmax)
        for cmax, shift in (
            (fmt.red_max, fmt.red_shift),
            (fmt.green_max, fmt.green_shift),
            (fmt.blue_max, fmt.blue_shift),
        )
    )


def pack_rgb(rgb: np.ndarray, fmt: PixelFormat) -> bytes:
    """Pack an (height, width, 3) uint8 RGB array into ``fmt`` pixel bytes.

    Channels are rescaled from 0..255 to the format's color-max values
    with half-up rounding, then shifted into place.
    """
    if not fmt.true_color:
        raise UnsupportedFormatError("cannot pack RGB into a palette format")
    layout = _byte_channel_layout(fmt)
    if layout is not None:
        out = np.zeros(rgb.shape[:2] + (fmt.bytes_per_pixel,), dtype=np.uint8)
        for channel, byte in enumerate(layout):
            out[..., byte] = rgb[..., channel]
        return out.tobytes()
    channels = rgb.astype(np.uint64)
    word = (
        (((2 * channels[..., 0] * fmt.red_max + 255) // 510) << fmt.red_shift)
        | (((2 * channels[..., 1] * fmt.green_max + 255) // 510) << fmt.green_shift)
        | (((2 * channels[..., 2] * fmt.blue_max + 255) // 510) << fmt.blue_shift)
    )
    if fmt.bits_per_pixel == 8:
        return word.astype(np.uint8).tobytes()
    byte_order = ">" if fmt.big_endian else "<"
    return word.astype(f"{byte_order}u{fmt.bytes_per_pixel}").tobytes()


def _partition(size: int, parts: int) -> np.ndarray:
    """Cell boundaries for splitting ``size`` samples into ``parts`` runs
    whose lengths differ by at most one (largest-remainder split)."""
    return (np.arange(parts + 1) * size) // parts


def downsample(frame: GrayFrame, out_width: int, out_height: int) -> GrayFrame:
    """Box-filter mean over each source cell, rounded half-up.

    Output cell (i, j) averages source rows [floor(i*H/out_h),
    floor((i+1)*H/out_h)) and the matching column range. The mean is
    computed in exact integer arithmetic.
    """
    if out_width < 1 or out_height < 1:
        raise ValueError("output dimensions must be at least 1x1")
    if out_width > frame.width or out_height > frame.height:
        raise ValueError("cannot downsample to larger dimensions")
    row_edges = _partition(frame.height, out_height)
    col_edges = _partition(frame.width, out_width)
    sums = np.add.reduceat(frame.values.astype(np.int64), row_edges[:-1], axis=0)
    sums = np.add.reduceat(sums, col_edges[:-1], axis=1)
    counts = np.outer(np.diff(row_edges), np.diff(col_edges))
    values = ((2 * sums + counts) // (2 * counts)).astype(np.uint8)
    return GrayFrame(out_width, out_height, values)


def crop(frame: GrayFrame, x: int, y: int, width: int, height: int) -> GrayFrame:
    """Copy out a rectangular region of a gray frame."""
    if width < 1 or height < 1:
        raise ValueError("crop dimensions must be positive")
    if x < 0 or y < 0 or x + width > frame.width or y + height > frame.height:
        raise ValueError(
            f"crop ({x},{y},{width},{height}) exceeds {frame.width}x{frame.height}"
        )
    return GrayFrame(width, height, frame.values[y : y + height, x : x + width].copy())


def write_pgm(frame: GrayFrame, path) -> None:
    """Dump a gray frame as a binary portable graymap (P5, maxval 255)."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(frame.tobytes())
