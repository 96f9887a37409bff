"""In-memory image type and binary PNM (P5/P6) codec.

An ``Image`` is only its ``data``: a float64 array shaped (channels, height,
width) with channels 1 (grey) or 3 (rgb), read off ``data.shape``. Values are
nominally in [0, 1] but the container does not clamp: degradation noise may
push samples outside the range and only encoding to bytes clips. Byte
conversion rounds half up: byte = floor(255*v + 0.5) after clamping v to
[0, 1].
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError


@dataclass
class Image:
    data: np.ndarray  # (c, h, w) float64

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] not in (1, 3):
            raise DimensionError(f"Image expects (c,h,w) with c in {{1,3}}, got {arr.shape}")
        self.data = np.ascontiguousarray(arr)

    def to_bytes(self) -> np.ndarray:
        """Quantize to uint8, clamping then rounding half up."""
        v = np.clip(self.data, 0.0, 1.0)
        return np.floor(255.0 * v + 0.5).astype(np.uint8)

    @staticmethod
    def from_bytes(raw: np.ndarray) -> "Image":
        return Image(np.asarray(raw, dtype=np.float64) / 255.0)


def _read_token(buf: bytes, pos: int):
    """Next whitespace-delimited token, skipping '#' comments; returns (token, end)."""
    n = len(buf)
    while pos < n:
        b = buf[pos]
        if b in b" \t\r\n":
            pos += 1
        elif b == 0x23:  # '#'
            while pos < n and buf[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("unexpected end of header", offset=pos)
    start = pos
    while pos < n and buf[pos] not in b" \t\r\n":
        pos += 1
    return buf[start:pos], pos


def _read_int(buf: bytes, pos: int, what: str):
    """Next header token as an ASCII decimal integer ``[0-9]+``; returns (value, end)."""
    tok, end = _read_token(buf, pos)
    try:
        val = int(tok) if tok.isdigit() else None
    except ValueError:  # more digits than int() converts
        val = None
    if val is None:
        raise FormatError(f"bad {what} {tok!r}", offset=end - len(tok))
    return val, end


def decode_pnm(buf: bytes) -> Image:
    if len(buf) < 2:
        raise FormatError("truncated magic", offset=0)
    magic = buf[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise FormatError(f"unsupported magic {magic!r}", offset=0)

    pos = 2
    width, pos = _read_int(buf, pos, "width")
    height, pos = _read_int(buf, pos, "height")
    if width < 1 or height < 1:
        raise FormatError(f"non-positive dimensions {width}x{height}", offset=2)
    maxpos = pos
    maxval, pos = _read_int(buf, pos, "maxval")
    if maxval != 255:
        raise FormatError(f"maxval must be 255, got {maxval}", offset=maxpos)
    if pos >= len(buf) or buf[pos] not in b" \t\r\n":
        raise FormatError("missing whitespace after maxval", offset=pos)
    pos += 1  # exactly one whitespace byte separates header from samples

    need = width * height * channels
    if len(buf) - pos < need:
        raise FormatError(
            f"pixel data truncated: need {need} bytes, have {len(buf) - pos}",
            offset=len(buf),
        )
    raw = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
    # P6 interleaves rgb per pixel; reorder to (c, h, w)
    if channels == 1:
        arr = raw.reshape(1, height, width)
    else:
        arr = raw.reshape(height, width, 3).transpose(2, 0, 1)
    return Image.from_bytes(arr)


def encode_pnm(img: Image) -> bytes:
    raw = img.to_bytes()
    c, h, w = raw.shape
    if c == 1:
        magic, body = b"P5", raw[0]
    else:
        magic, body = b"P6", raw.transpose(1, 2, 0)
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(body).tobytes()


def load_pnm(path) -> Image:
    with open(path, "rb") as f:
        return decode_pnm(f.read())


def save_pnm(path, img: Image):
    with open(path, "wb") as f:
        f.write(encode_pnm(img))

