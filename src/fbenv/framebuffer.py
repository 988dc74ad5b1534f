"""Client-side framebuffer model and the grayscale observation pipeline.

The framebuffer mirrors the server screen byte for byte in the negotiated
pixel format; :func:`apply_update` writes each FramebufferUpdate into it
and records the rows it wrote as its ``damage``. :func:`to_grayscale`
(BT.601 luma) and :func:`downsample` (box filter) reduce a whole frame in
integer arithmetic and are the reference for :class:`GrayCells`, which
gives the same values while converting only the damaged rows.

Rounding is half-up everywhere (x -> floor(x + 0.5)) so every value here
can be reproduced exactly by an integer-arithmetic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedFormatError, UpdateRejectedError
from .wire import FramebufferUpdate, PixelFormat, Rectangle

#: ITU-R BT.601 luma weights of R, G and B, in thousandths
_LUMA_WEIGHTS = (299, 587, 114)


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

    ``generation`` counts applied FramebufferUpdate messages. ``damage``
    is the span of rows ``(top, bottom)`` written since its observer last
    took it, or None; any writer of ``pixels`` other than
    :func:`apply_update` must widen it over the rows it wrote.
    """

    width: int
    height: int
    format: PixelFormat
    pixels: bytearray
    generation: int = 0
    damage: tuple[int, int] | None = None

    def __post_init__(self):
        bpp = self.format.bytes_per_pixel
        expected = self.width * self.height * bpp
        if len(self.pixels) != expected:
            raise ValueError(f"pixel array is {len(self.pixels)} bytes, expected {expected}")
        # made once: a view also keeps the pixels from being resized
        self._array = np.frombuffer(self.pixels, dtype=np.uint8).reshape(self.height, self.width, bpp)

    @classmethod
    def blank(cls, width: int, height: int, fmt: PixelFormat) -> "Framebuffer":
        return cls(width, height, fmt, bytearray(width * height * fmt.bytes_per_pixel))

    def as_array(self) -> np.ndarray:
        """Writable (height, width, bytes-per-pixel) view of the pixels."""
        return self._array

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


def apply_update(fb: Framebuffer, update: FramebufferUpdate) -> Framebuffer:
    """Apply one FramebufferUpdate message, widen the damage over the
    rows of each non-empty rectangle and bump the generation. A malformed
    message raises UpdateRejectedError and leaves all three untouched."""
    bpp = fb.format.bytes_per_pixel
    for (x, y, width, height), payload in update.rectangles:
        if x < 0 or y < 0 or x + width > fb.width or y + height > fb.height:
            raise UpdateRejectedError(
                f"rectangle ({x},{y},{width},{height}) exceeds {fb.width}x{fb.height} bounds"
            )
        expected = width * height * bpp
        if len(payload) != expected:
            raise UpdateRejectedError(f"payload is {len(payload)} bytes, expected {expected}")
    pixels = fb.as_array()
    for (x, y, width, height), payload in update.rectangles:
        if not payload:
            continue  # a zero-size rectangle writes nothing
        top, bottom = y, y + height
        source = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, bpp)
        pixels[top:bottom, x : x + width] = source
        if fb.damage is not None:
            top, bottom = min(top, fb.damage[0]), max(bottom, fb.damage[1])
        fb.damage = top, bottom
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
    true-color framebuffer's pixels: floor(0.299 R + 0.587 G + 0.114 B +
    0.5), each channel first rescaled to 0..255, in exact integer
    arithmetic."""
    fmt = fb.format
    if not fmt.true_color:
        raise UnsupportedFormatError("palette formats cannot be converted to grayscale")
    layout = _byte_channel_layout(fmt)
    wr, wg, wb = _LUMA_WEIGHTS
    if layout is not None:
        arr = fb.as_array()[window]
        gray = np.multiply(arr[..., layout[0]], wr, dtype=np.int32)
        gray += np.multiply(arr[..., layout[1]], wg, dtype=np.int32)
        gray += np.multiply(arr[..., layout[2]], wb, dtype=np.int32)
        gray += 500
        gray //= 1000
        return gray.astype(np.uint8)
    words = fb.as_words()[window].astype(np.int64)
    red = (words >> fmt.red_shift) & fmt.red_max
    green = (words >> fmt.green_shift) & fmt.green_max
    blue = (words >> fmt.blue_shift) & fmt.blue_max
    # gray = (numerator / denominator) rounded half-up, all integer
    gb, rb, rg = fmt.green_max * fmt.blue_max, fmt.red_max * fmt.blue_max, fmt.red_max * fmt.green_max
    numerator = 255 * (wr * red * gb + wg * green * rb + wb * blue * rg)
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
    """Pack an (height, width, 3) uint8 RGB array into ``fmt`` pixel
    bytes, rescaling each channel to its color-max (half-up)."""
    if not fmt.true_color:
        raise UnsupportedFormatError("cannot pack RGB into a palette format")
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


def downsample(frame: GrayFrame, out_width: int, out_height: int) -> GrayFrame:
    """Box-filter mean over each source cell, rounded half-up, in exact
    integer arithmetic. Output cell (i, j) averages source rows
    [floor(i*H/out_h), floor((i+1)*H/out_h)) and the matching columns."""
    row_edges, col_edges, counts = _cell_grid(frame.width, frame.height, out_width, out_height)
    sums = np.add.reduceat(frame.values, col_edges[:-1], axis=1, dtype=np.int64)
    sums = np.add.reduceat(sums, row_edges[:-1], axis=0)
    return GrayFrame(out_width, out_height, ((2 * sums + counts) // (2 * counts)).astype(np.uint8))


class GrayCells:
    """Box-filtered grayscale of one framebuffer region, kept current
    from the framebuffer's damage.

    :meth:`observe` returns exactly what :func:`downsample` gives to
    ``out_width`` x ``out_height`` for the region of ``to_grayscale(fb)``,
    provided every write to ``fb.pixels`` since the call before widened
    ``fb.damage`` over its rows. Each call takes the damage, leaving None,
    so a framebuffer has one observer. Only the damaged rows are converted
    and summed over each cell's columns, and only the cell rows they fall
    in are summed again from the kept row sums. Building one takes any
    pending damage and converts the whole region.

    Exactness of the float arithmetic:

    - Luma, for formats whose channels are whole bytes: ``299 R + 587 G
      + 114 B + 500`` is an integer at most 255500, and so is every
      partial sum, all below 2^24, so float32 holds each exactly in any
      summing order. The true quotient by 1000 is either an integer,
      which division returns exactly, or at least 1/1000 from one, while
      a correctly rounded float32 quotient below 256 is off by at most
      256 * 2^-24 < 1/1000. Its floor is therefore exact. Other formats
      use the integer :func:`_luma`.
    - Row sums: a row's luma over a cell's columns sums integers of at
      most 255, and every partial sum is an integer at most 255 * 65535
      (a row of the wire's U16 width), below 2^24, exact in float32.
    - Cell means: a cell of ``count`` pixels sums integers of at most 255,
      and every partial sum is an integer below 255 * 2^24 (screens are
      capped at 2^24 pixels), exact in float64. ``(sum + count / 2) /
      count`` is either an integer or at least 1/(2 count) from one, and
      its correctly rounded quotient is off by at most 256 * 2^-53,
      which is less than 1/(2 count) for every count below 2^44. Its
      floor, taken by the cast to uint8, which truncates these
      non-negative values, is therefore the half-up mean.
    """

    def __init__(self, fb: Framebuffer, out_width: int, out_height: int, region=None):
        x, y, width, height = region or (0, 0, fb.width, fb.height)
        if width < 1 or height < 1 or x < 0 or y < 0 or x + width > fb.width or y + height > fb.height:
            raise ValueError(f"region {region} exceeds {fb.width}x{fb.height}")
        row_edges, col_edges, counts = _cell_grid(width, height, out_width, out_height)
        self._fb = fb
        self._y, self._height, self._columns = y, height, slice(x, x + width)
        layout = _byte_channel_layout(fb.format)
        self._pixels = None
        if layout is not None:
            self._pixels = fb.as_array()[y : y + height, x : x + width]
            self._luma_weights = np.zeros(fb.format.bytes_per_pixel, dtype=np.float32)
            self._luma_weights[list(layout)] = _LUMA_WEIGHTS
        # the cell row of each pixel row, and the cell column of each pixel column
        row_cell = np.repeat(np.arange(out_height), np.diff(row_edges))
        col_cell = np.repeat(np.arange(out_width), np.diff(col_edges))
        self._row_sum = (row_cell == np.arange(out_height)[:, None]).astype(np.float64)
        self._col_sum = (col_cell[:, None] == np.arange(out_width)).astype(np.float32)
        self._row_cell, self._row_edges = row_cell.tolist(), row_edges.tolist()
        self._half_counts, self._counts = counts / 2, counts.astype(np.float64)
        self._row_sums = np.empty((height, out_width), dtype=np.float64)  # each row's luma by cell column
        self._cells = np.empty((out_height, out_width), dtype=np.uint8)
        fb.damage = None
        self._refresh(0, height)

    def observe(self) -> GrayFrame:
        """The region's cell means now, as a new frame; takes the damage."""
        damage, self._fb.damage = self._fb.damage, None
        if damage is not None:
            top, bottom = max(damage[0] - self._y, 0), min(damage[1] - self._y, self._height)
            if top < bottom:
                self._refresh(top, bottom)
        out_height, out_width = self._cells.shape
        return GrayFrame(out_width, out_height, self._cells.copy())

    def _refresh(self, top: int, bottom: int) -> None:
        """Convert region rows ``[top, bottom)`` to luma, sum them over
        each cell's columns and average the cell rows they fall in again."""
        if self._pixels is None:
            luma = _luma(self._fb, np.s_[self._y + top : self._y + bottom, self._columns])
        else:
            luma = self._pixels[top:bottom] @ self._luma_weights
            luma += 500
            luma /= 1000
            np.floor(luma, out=luma)
        self._row_sums[top:bottom] = luma @ self._col_sum
        first, end = self._row_cell[top], self._row_cell[bottom - 1] + 1
        lo, hi = self._row_edges[first], self._row_edges[end]
        sums = self._row_sum[first:end, lo:hi] @ self._row_sums[lo:hi]
        sums += self._half_counts[first:end]
        sums /= self._counts[first:end]
        self._cells[first:end] = sums


def write_pgm(frame: GrayFrame, path) -> None:
    """Dump a gray frame as a binary portable graymap (P5, maxval 255)."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(frame.tobytes())
