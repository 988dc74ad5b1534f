"""Framebuffer model and observation pipeline tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbenv.errors import UnsupportedFormatError, UpdateRejectedError
from fbenv.framebuffer import (
    Framebuffer,
    GrayCells,
    GrayFrame,
    apply_update,
    downsample,
    pack_rgb,
    pixel_rgb,
    to_grayscale,
    write_pgm,
)
from fbenv.game import episode_seed, new_game, render, step_game
from fbenv.wire import RGBX32, FramebufferUpdate, PixelFormat, Rectangle

from helpers import (
    BGRX32_BE,
    RGB332,
    RGB565,
    TEST_FORMATS,
    apply_rectangle,
    crop,
    oracle_downsample,
    oracle_gray,
)


def gray(values) -> GrayFrame:
    array = np.asarray(values, dtype=np.uint8)
    return GrayFrame(array.shape[1], array.shape[0], array)


def solid(width, height, rgb, fmt=RGBX32) -> Framebuffer:
    block = np.zeros((height, width, 3), dtype=np.uint8)
    block[:, :] = rgb
    return Framebuffer(width, height, fmt, bytearray(pack_rgb(block, fmt)))


# -- apply_rectangle ---------------------------------------------------------


def test_full_screen_overwrite():
    fb = Framebuffer.blank(4, 4, RGBX32)
    apply_rectangle(fb, Rectangle(0, 0, 4, 4), b"\xff" * 64)
    assert bytes(fb.pixels) == b"\xff" * 64


def test_single_pixel_touches_exact_offset():
    fb = Framebuffer.blank(4, 4, RGBX32)
    apply_rectangle(fb, Rectangle(3, 3, 1, 1), b"\xaa" * 4)
    offset = (3 * 4 + 3) * 4
    expected = bytearray(64)
    expected[offset : offset + 4] = b"\xaa" * 4
    assert fb.pixels == expected


def test_out_of_bounds_rejected_and_untouched():
    fb = Framebuffer.blank(4, 4, RGBX32)
    before = bytes(fb.pixels)
    with pytest.raises(UpdateRejectedError):
        apply_rectangle(fb, Rectangle(3, 3, 2, 2), b"\x11" * 16)
    assert bytes(fb.pixels) == before


def test_wrong_payload_length_rejected():
    fb = Framebuffer.blank(4, 4, RGBX32)
    with pytest.raises(UpdateRejectedError):
        apply_rectangle(fb, Rectangle(0, 0, 2, 2), b"\x11" * 15)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(0, 7),
    y=st.integers(0, 7),
    w=st.integers(1, 8),
    h=st.integers(1, 8),
    probe_x=st.integers(0, 7),
    probe_y=st.integers(0, 7),
    fill=st.integers(0, 255),
)
def test_apply_rectangle_is_local(x, y, w, h, probe_x, probe_y, fill):
    if x + w > 8 or y + h > 8:
        return
    fb = Framebuffer(8, 8, RGBX32, bytearray(np.random.default_rng(1).bytes(8 * 8 * 4)))
    before = bytes(fb.pixels)
    apply_rectangle(fb, Rectangle(x, y, w, h), bytes([fill]) * (w * h * 4))
    inside = x <= probe_x < x + w and y <= probe_y < y + h
    offset = (probe_y * 8 + probe_x) * 4
    if not inside:
        assert fb.pixels[offset : offset + 4] == before[offset : offset + 4]


def test_apply_update_bumps_generation_per_message():
    fb = Framebuffer.blank(4, 4, RGBX32)
    apply_update(fb, FramebufferUpdate(((Rectangle(0, 0, 1, 1), b"\x01" * 4),)))
    assert fb.generation == 1
    apply_update(fb, FramebufferUpdate(()))  # empty update still counts
    assert fb.generation == 2


def test_apply_update_is_atomic():
    bad_rectangles = (
        (Rectangle(3, 3, 2, 2), b"\x02" * 16),  # past the right and bottom edges
        (Rectangle(-1, 0, 1, 1), b"\x02" * 4),  # negative x
    )
    for bad_rectangle in bad_rectangles:
        fb = Framebuffer.blank(4, 4, RGBX32)
        bad = FramebufferUpdate(((Rectangle(0, 0, 1, 1), b"\x01" * 4), bad_rectangle))
        with pytest.raises(UpdateRejectedError):
            apply_update(fb, bad)
        assert bytes(fb.pixels) == bytes(64)
        assert fb.generation == 0


# -- grayscale ---------------------------------------------------------------


def test_grayscale_primaries():
    assert to_grayscale(solid(1, 1, (255, 0, 0))).values[0, 0] == 76
    assert to_grayscale(solid(1, 1, (0, 255, 0))).values[0, 0] == 150
    assert to_grayscale(solid(1, 1, (255, 255, 255))).values[0, 0] == 255
    assert to_grayscale(solid(1, 1, (0, 0, 0))).values[0, 0] == 0


def test_grayscale_rejects_palette_format():
    palette = PixelFormat(8, 8, False, False, 0, 0, 0, 0, 0, 0)
    fb = Framebuffer.blank(2, 2, palette)
    with pytest.raises(UnsupportedFormatError):
        to_grayscale(fb)
    with pytest.raises(UnsupportedFormatError):
        GrayCells(fb, 1, 1)


def test_grayscale_equal_pixels_equal_values():
    fb = solid(3, 2, (12, 200, 56))
    values = to_grayscale(fb).values
    assert np.all(values == values[0, 0])


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(0, 255),
    g=st.integers(0, 255),
    b=st.integers(0, 255),
    bump=st.integers(1, 40),
)
def test_grayscale_monotone_per_channel(r, g, b, bump):
    base = to_grayscale(solid(1, 1, (r, g, b))).values[0, 0]
    for brighter in ((min(255, r + bump), g, b), (r, min(255, g + bump), b), (r, g, min(255, b + bump))):
        assert to_grayscale(solid(1, 1, brighter)).values[0, 0] >= base


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_grayscale_matches_oracle_on_random_pixels(seed):
    rng = np.random.default_rng(seed)
    rgb = rng.integers(0, 256, size=(3, 5, 3), dtype=np.uint8)
    fb = Framebuffer(5, 3, RGBX32, bytearray(pack_rgb(rgb, RGBX32)))
    values = to_grayscale(fb).values
    for y in range(3):
        for x in range(5):
            assert values[y, x] == oracle_gray(*(int(c) for c in rgb[y, x]))


def test_grayscale_565_format_rescales_channels():
    # pure red in 5-6-5: raw 31 -> rescaled 255 -> gray 76
    word = 31 << 11
    fb = Framebuffer(1, 1, RGB565, bytearray(word.to_bytes(2, "little")))
    assert to_grayscale(fb).values[0, 0] == 76
    # raw green 63 -> 255 -> 150
    fb = Framebuffer(1, 1, RGB565, bytearray((63 << 5).to_bytes(2, "little")))
    assert to_grayscale(fb).values[0, 0] == 150


def test_grayscale_big_endian_format():
    fb = solid(2, 2, (255, 0, 0), fmt=BGRX32_BE)
    assert to_grayscale(fb).values[0, 0] == 76


# -- pixel_rgb / pack_rgb ----------------------------------------------------


def test_pack_rgb_canonical_byte_order():
    block = np.array([[[1, 2, 3], [200, 100, 50], [255, 255, 255]]], dtype=np.uint8)
    expected = {
        # R<<16 | G<<8 | B, little-endian words
        RGBX32: bytes([3, 2, 1, 0, 50, 100, 200, 0, 255, 255, 255, 0]),
        # B<<16 | G<<8 | R, big-endian words
        BGRX32_BE: bytes([0, 3, 2, 1, 0, 50, 100, 200, 0, 255, 255, 255]),
        # (200, 100, 50) rounds to (24, 25, 6) of (31, 63, 31):
        # 24<<11 | 25<<5 | 6 = 0xC326, little-endian
        RGB565: bytes([0, 0, 0x26, 0xC3, 0xFF, 0xFF]),
        # (200, 100, 50) rounds to (5, 3, 1) of (7, 7, 3): 5<<5 | 3<<2 | 1
        RGB332: bytes([0, 0xAD, 0xFF]),
    }
    assert set(expected) == set(TEST_FORMATS)
    for fmt, packed in expected.items():
        assert pack_rgb(block, fmt) == packed, fmt


def test_pixel_rgb_reads_back_packed_values():
    fb = solid(2, 2, (10, 20, 30))
    assert pixel_rgb(fb, 1, 1) == (10, 20, 30)
    fb565 = Framebuffer(1, 1, RGB565, bytearray(((31 << 11) | 63 << 5 | 31).to_bytes(2, "little")))
    assert pixel_rgb(fb565, 0, 0) == (255, 255, 255)


def test_pixel_rgb_bounds():
    fb = solid(2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        pixel_rgb(fb, 2, 0)


# -- downsample --------------------------------------------------------------


def test_downsample_mean_rounds_half_up():
    frame = gray([[0, 0], [255, 255]])
    assert downsample(frame, 1, 1).values[0, 0] == 128


def test_downsample_identity_dimensions():
    frame = gray([[1, 2], [3, 4]])
    assert downsample(frame, 2, 2) == frame


def test_downsample_uniform_stays_uniform():
    frame = gray(np.full((9, 7), 93))
    for out_w, out_h in ((1, 1), (3, 3), (7, 9), (2, 5)):
        out = downsample(frame, out_w, out_h)
        assert np.all(out.values == 93)


def test_downsample_preserves_global_mean_when_even():
    rng = np.random.default_rng(5)
    frame = gray(rng.integers(0, 256, size=(12, 12), dtype=np.uint8))
    out = downsample(frame, 4, 4)
    assert abs(float(out.values.mean()) - float(frame.values.mean())) <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    in_w=st.integers(1, 17),
    in_h=st.integers(1, 17),
    out_w=st.integers(1, 17),
    out_h=st.integers(1, 17),
    seed=st.integers(0, 2**31),
)
def test_downsample_matches_brute_force_oracle(in_w, in_h, out_w, out_h, seed):
    if out_w > in_w or out_h > in_h:
        return
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 256, size=(in_h, in_w), dtype=np.uint8)
    result = downsample(gray(values), out_w, out_h)
    expected = oracle_downsample(values.tolist(), in_w, in_h, out_w, out_h)
    assert result.values.tolist() == expected


def test_downsample_rejects_bad_dimensions():
    frame = gray([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        downsample(frame, 0, 1)
    with pytest.raises(ValueError):
        downsample(frame, 3, 1)
    fb = Framebuffer.blank(2, 2, RGBX32)
    for out_w, out_h, region in ((0, 1, None), (3, 1, None), (2, 2, (1, 0, 1, 2)), (1, 1, (1, 1, 2, 1))):
        with pytest.raises(ValueError):
            GrayCells(fb, out_w, out_h, region)


# -- incremental observation -------------------------------------------------


# colours whose luma numerator 299 R + 587 G + 114 B + 500 is an exact
# multiple of 1000: a float luma must land exactly on that integer, since
# a quotient just below it floors one level down
EXACT_LUMA_RGB = np.array(
    [
        (r, g, b)
        for r in range(0, 256, 17)
        for g in range(0, 256, 17)
        for b in range(256)
        if (299 * r + 587 * g + 114 * b + 500) % 1000 == 0
    ],
    dtype=np.uint8,
)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize(
    "fmt", TEST_FORMATS, ids=lambda fmt: f"{fmt.bits_per_pixel}bpp-be{int(fmt.big_endian)}"
)
def test_gray_cells_track_the_full_frame_oracle(fmt, data):
    if data.draw(st.integers(0, 3)) == 0:
        # whole-frame 160x160 -> 16x16 over real game frames, resets included
        seed, episode = data.draw(st.integers(0, 2**32 - 1)), 0
        g = new_game(episode_seed(seed, episode))
        fb = render(g, fmt)
        cells = GrayCells(fb, 16, 16)
        for tilt in data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=40)):
            if g.terminal:
                episode += 1
                g = new_game(episode_seed(seed, episode))
            else:
                g = step_game(g, tilt)
            apply_rectangle(fb, Rectangle(0, 0, 160, 160), bytes(render(g, fmt).pixels))
            assert cells.observe() == downsample(to_grayscale(fb), 16, 16)
        return
    width, height = data.draw(st.integers(1, 24)), data.draw(st.integers(3, 24))
    x, y = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 3))
    w, h = data.draw(st.integers(1, width - x)), data.draw(st.integers(3, height - y))
    if data.draw(st.booleans()):
        out_w, out_h = w, h  # the one-to-one grid
    else:
        # rows never divide evenly, so cell rows differ in height
        out_w, out_h = data.draw(st.integers(1, w)), data.draw(st.integers(2, h - 1).filter(lambda n: h % n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bpp = fmt.bytes_per_pixel
    if data.draw(st.booleans()):
        # exact gray levels, whose cell sums often sit on a .5 boundary
        def random_pixels(count):
            return np.frombuffer(pack_rgb(rng.choice(EXACT_LUMA_RGB, size=(1, count)), fmt), dtype=np.uint8)
    else:
        def random_pixels(count):
            return rng.integers(0, 256, count * bpp, dtype=np.uint8)
    pixels = random_pixels(width * height)
    fb = Framebuffer(width, height, fmt, bytearray(pixels))
    cells = GrayCells(fb, out_w, out_h, (x, y, w, h))
    for _ in range(data.draw(st.integers(1, 6))):
        rx, ry = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1))
        rw, rh = data.draw(st.integers(1, width - rx)), data.draw(st.integers(1, height - ry))
        payload = random_pixels(rw * rh).tobytes()
        apply_rectangle(fb, Rectangle(rx, ry, rw, rh), payload)
        if data.draw(st.booleans()):  # a write that bypasses apply_rectangle
            fb.pixels[int(rng.integers(len(fb.pixels)))] ^= 0xFF
        expected = downsample(crop(to_grayscale(fb), x, y, w, h), out_w, out_h)
        observed = cells.observe()
        assert observed == expected
        observed.values[:] ^= 0xFF  # a caller's edit of its frame reaches no later one
    assert cells.observe() == expected


# -- crop / pgm --------------------------------------------------------------


def test_crop_copies_region():
    frame = gray(np.arange(16, dtype=np.uint8).reshape(4, 4))
    region = crop(frame, 1, 2, 2, 2)
    assert region.values.tolist() == [[9, 10], [13, 14]]
    with pytest.raises(ValueError):
        crop(frame, 3, 3, 2, 2)


def test_write_pgm_format(tmp_path):
    frame = gray([[0, 128], [255, 7]])
    path = tmp_path / "frame.pgm"
    write_pgm(frame, path)
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7])
