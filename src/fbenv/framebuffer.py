"""Client-side framebuffer model and the grayscale observation pipeline.

The framebuffer mirrors the server screen byte-for-byte in the negotiated
pixel format. Observations are derived from it: true-color pixels are
reduced to 8-bit luminance and box-filtered down to a small grid.
:func:`to_grayscale` and :func:`downsample` do this for a whole frame;
:class:`GrayCells` gives the same values while redoing only the cell rows
whose pixels changed since it last looked.

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

    def as_words(self) -> np.ndarray:
        """Writable (height, width) view of the pixels, one word each, in
        the format's :func:`word_dtype`."""
        words = np.frombuffer(self.pixels, dtype=word_dtype(self.format))
        return words.reshape(self.height, self.width)


def word_dtype(fmt: PixelFormat) -> np.dtype:
    """The dtype holding one ``fmt`` pixel as a word: ``u1`` at 8 bpp,
    else ``u2``/``u4`` in the format's byte order."""
    if fmt.bits_per_pixel == 8:
        return np.dtype(np.uint8)
    byte_order = ">" if fmt.big_endian else "<"
    return np.dtype(f"{byte_order}u{fmt.bytes_per_pixel}")


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


def _luma(fb: Framebuffer, window=np.s_[:, :]) -> np.ndarray:
    """8-bit luminance of the ``window`` (a row and a column slice) of a
    true-color framebuffer's pixels, one uint8 per pixel.

    gray = floor(0.299 R + 0.587 G + 0.114 B + 0.5) with each channel
    first rescaled to 0..255 via its color-max. Evaluated in exact
    integer arithmetic, so the result is free of float rounding.
    """
    fmt = fb.format
    if not fmt.true_color:
        raise UnsupportedFormatError("palette formats cannot be converted to grayscale")
    layout = _byte_channel_layout(fmt)
    if layout is not None:
        arr = fb.as_array()[window]
        gray = np.multiply(arr[..., layout[0]], 299, dtype=np.int32)
        gray += np.multiply(arr[..., layout[1]], 587, dtype=np.int32)
        gray += np.multiply(arr[..., layout[2]], 114, dtype=np.int32)
        gray += 500
        gray //= 1000
        return gray.astype(np.uint8)
    words = fb.as_words()[window].astype(np.int64)
    red = (words >> fmt.red_shift) & fmt.red_max
    green = (words >> fmt.green_shift) & fmt.green_max
    blue = (words >> fmt.blue_shift) & fmt.blue_max
    # gray = (numerator / denominator) rounded half-up, all integer
    gb, rb, rg = fmt.green_max * fmt.blue_max, fmt.red_max * fmt.blue_max, fmt.red_max * fmt.green_max
    numerator = 255 * (299 * red * gb + 587 * green * rb + 114 * blue * rg)
    denominator = 1000 * fmt.red_max * gb
    return ((2 * numerator + denominator) // (2 * denominator)).astype(np.uint8)


def to_grayscale(fb: Framebuffer) -> GrayFrame:
    """Reduce a true-color framebuffer to 8-bit luminance (see :func:`_luma`)."""
    return GrayFrame(fb.width, fb.height, _luma(fb))


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
    return word.astype(word_dtype(fmt)).tobytes()


def _partition(size: int, parts: int) -> np.ndarray:
    """Cell boundaries for splitting ``size`` samples into ``parts`` runs
    whose lengths differ by at most one (largest-remainder split)."""
    return (np.arange(parts + 1) * size) // parts


def _cell_grid(width: int, height: int, out_width: int, out_height: int) -> tuple[np.ndarray, ...]:
    """Row edges, column edges and pixel counts of the cells that
    box-filter a ``width`` x ``height`` image to ``out_width`` x
    ``out_height``."""
    if out_width < 1 or out_height < 1:
        raise ValueError("output dimensions must be at least 1x1")
    if out_width > width or out_height > height:
        raise ValueError("cannot downsample to larger dimensions")
    row_edges, col_edges = _partition(height, out_height), _partition(width, out_width)
    return row_edges, col_edges, np.outer(np.diff(row_edges), np.diff(col_edges))


def _box_means(
    values: np.ndarray, row_starts: np.ndarray, col_starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Mean of ``values`` over each cell, given the cells' first rows and
    columns (the first of each 0) and pixel counts, rounded half-up in
    exact integer arithmetic."""
    sums = np.add.reduceat(values, col_starts, axis=1, dtype=np.int64)
    sums = np.add.reduceat(sums, row_starts, axis=0)
    sums *= 2
    sums += counts
    sums //= 2 * counts
    return sums.astype(np.uint8)


def downsample(frame: GrayFrame, out_width: int, out_height: int) -> GrayFrame:
    """Box-filter mean over each source cell, rounded half-up.

    Output cell (i, j) averages source rows [floor(i*H/out_h),
    floor((i+1)*H/out_h)) and the matching column range. The mean is
    computed in exact integer arithmetic.
    """
    row_edges, col_edges, counts = _cell_grid(frame.width, frame.height, out_width, out_height)
    return GrayFrame(out_width, out_height, _box_means(frame.values, row_edges[:-1], col_edges[:-1], counts))


class GrayCells:
    """Box-filtered grayscale of one framebuffer region, kept current
    from the rows that change.

    :meth:`observe` returns exactly ``downsample(crop(to_grayscale(fb),
    *region), out_width, out_height)``, but converts and averages only
    the cell rows holding a pixel word that differs from the previous
    call. Changes are found by comparing words, so any writer of
    ``fb.pixels`` is seen, not only :func:`apply_update`.
    """

    def __init__(self, fb: Framebuffer, out_width: int, out_height: int, region=None):
        x, y, width, height = region or (0, 0, fb.width, fb.height)
        if width < 1 or height < 1 or x < 0 or y < 0 or x + width > fb.width or y + height > fb.height:
            raise ValueError(f"region {region} exceeds {fb.width}x{fb.height}")
        self._fb = fb
        self._y = y
        self._window = np.s_[y : y + height, x : x + width]
        self._row_edges, col_edges, self._counts = _cell_grid(width, height, out_width, out_height)
        self._col_starts = col_edges[:-1]
        # the cell row of each pixel row, as Python ints for cheap lookups
        self._row_cell = np.repeat(np.arange(out_height), np.diff(self._row_edges)).tolist()
        self._words = fb.as_words()[self._window].copy()
        gray = _luma(fb, self._window)
        self._cells = _box_means(gray, self._row_edges[:-1], self._col_starts, self._counts)

    def observe(self) -> GrayFrame:
        """The region's cell means now, as a new frame."""
        words = self._fb.as_words()[self._window]
        rows = np.flatnonzero((words != self._words).any(axis=1))
        if rows.size:
            edges = self._row_edges
            first, end = self._row_cell[rows[0]], self._row_cell[rows[-1]] + 1
            top, bottom = int(edges[first]), int(edges[end])
            self._words[top:bottom] = words[top:bottom]
            band = _luma(self._fb, np.s_[self._y + top : self._y + bottom, self._window[1]])
            self._cells[first:end] = _box_means(
                band, edges[first:end] - top, self._col_starts, self._counts[first:end]
            )
        out_height, out_width = self._cells.shape
        return GrayFrame(out_width, out_height, self._cells.copy())


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
