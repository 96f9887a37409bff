import numpy as np
import pytest

from ldrestore.errors import DimensionError, FormatError
from ldrestore.images import Image, decode_pnm, encode_pnm, load_pnm, save_pnm


def test_image_shape_validation():
    Image(np.zeros((1, 4, 4)))
    Image(np.zeros((3, 2, 5)))
    with pytest.raises(DimensionError):
        Image(np.zeros((2, 4, 4)))
    with pytest.raises(DimensionError):
        Image(np.zeros((4, 4)))


def test_image_does_not_clamp_on_construction():
    img = Image(np.array([[[-0.5, 1.5]], [[0.0, 1.0]], [[0.2, 0.8]]]).reshape(3, 1, 2))
    assert img.data.min() == -0.5 and img.data.max() == 1.5


def test_byte_quantization_rounds_half_up():
    # 0.5/255 boundary: v = (k + 0.5)/255 must map to k+1
    vals = np.array([0.0, 0.5 / 255.0, 1.0 / 255.0, 0.99999, 1.0, 1.2, -0.3])
    img = Image(vals.reshape(1, 1, 7))
    assert list(img.to_bytes().reshape(-1)) == [0, 1, 1, 255, 255, 255, 0]


def test_grey_roundtrip_bit_exact():
    raw = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    img = Image.from_bytes(raw)
    back = decode_pnm(encode_pnm(img))
    assert np.array_equal(back.to_bytes(), raw)


def test_rgb_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(3, 7, 5), dtype=np.uint8)
    img = Image.from_bytes(raw)
    p = tmp_path / "x.ppm"
    save_pnm(p, img)
    back = load_pnm(p)
    assert back.data.shape == (3, 7, 5)
    assert np.array_equal(back.to_bytes(), raw)


def test_p6_interleaving_order():
    # one pixel per channel value: red=10, green=20, blue=30
    img = Image(np.array([10, 20, 30], dtype=np.float64).reshape(3, 1, 1) / 255.0)
    buf = encode_pnm(img)
    assert buf.startswith(b"P6\n1 1\n255\n")
    assert buf[-3:] == bytes([10, 20, 30])


def test_header_with_comments_parses():
    body = bytes(range(6))
    buf = b"P5 # grayscale\n# comment line\n 3 # width\n2\n255\n" + body
    img = decode_pnm(buf)
    assert img.data.shape == (1, 2, 3)
    assert np.array_equal(img.to_bytes().reshape(-1), np.arange(6))


def test_bad_magic_reports_offset_zero():
    with pytest.raises(FormatError) as e:
        decode_pnm(b"P3\n1 1\n255\n0")
    assert "offset 0" in str(e.value)


def test_truncated_pixels_reports_offset():
    buf = b"P5\n4 4\n255\n" + bytes(10)
    with pytest.raises(FormatError) as e:
        decode_pnm(buf)
    msg = str(e.value)
    assert "need 16" in msg and f"offset {len(buf)}" in msg


def test_wrong_maxval_rejected():
    with pytest.raises(FormatError) as e:
        decode_pnm(b"P5\n1 1\n65535\n\x00\x00")
    assert "maxval" in str(e.value)


def test_nonnumeric_header_rejected():
    with pytest.raises(FormatError) as e:
        decode_pnm(b"P5\nabc 4\n255\n" + bytes(16))
    assert "width" in str(e.value)


def test_header_integers_are_ascii_digits_only():
    # int() would take these; the header grammar is [0-9]+
    for header, what, offset in [(b"P5 1_0 1 255\n", "width", 3), (b"P5 10 +1 255\n", "height", 6),
                                 (b"P5 10  -1 255\n", "height", 7), (b"P5 10 1 255\x0b\n", "maxval", 8),
                                 (b"P5 10 1 " + b"9" * 5000 + b"\n", "maxval", 8)]:
        with pytest.raises(FormatError, match=what) as e:
            decode_pnm(header + bytes(10))
        assert e.value.offset == offset, header
    assert decode_pnm(b"P5 010 1 255\n" + bytes(10)).data.shape == (1, 1, 10)


def test_empty_and_tiny_buffers():
    with pytest.raises(FormatError):
        decode_pnm(b"")
    with pytest.raises(FormatError):
        decode_pnm(b"P5")
