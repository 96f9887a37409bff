"""Low-quality image synthesis: blur, downsample, noise, and recipes thereof.

A degradation is an ordered list of steps with a canonical string form
``step("+"step)*`` where step is ``blur:<float>``, ``sr:<int>`` or
``noise:<float>``. Noise sigma is quoted on the 0-255 byte scale and divided
by 255 internally; noise step i of a spec draws from stream
``("degrade.noise", i)`` of the seed. All operators keep images inside [0,1]
and are deterministic given (spec, image, seed).

The two linear steps act on each image axis separately, so each is a small
per-axis matrix: ``out = M_h @ x @ M_w.T``. The matrices depend only on the
step's parameter and the axis length, and the library's images come in a few
sizes (``dataset.VALID_SIZES``: 16, 32, 64 px), so each one is built once and
cached, read-only.
"""

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError
from .images import Image
from .rng import stream

# (sigma or factor, axis length) pairs kept per operator kind; an entry is an
# (n, n) matrix, as large as one image plane. The benchmark recipes need three.
_OPERATOR_CACHE_SIZE = 16


def _radius(sigma: float) -> int:
    """Kernel radius r = ceil(3*sigma); the kernel has k = 2r+1 taps."""
    if not (sigma > 0 and math.isfinite(3.0 * sigma)):
        raise ParameterError(f"gaussian_kernel: sigma must be finite and > 0, got {sigma}")
    return math.ceil(3.0 * sigma)


def _gaussian_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian of size k = 2*ceil(3*sigma)+1."""
    r = _radius(sigma)
    g = np.exp(-np.arange(-r, r + 1, dtype=np.float64) ** 2 / (2.0 * sigma * sigma))
    return g / g.sum()


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Square normalized Gaussian, size k = 2*ceil(3*sigma)+1."""
    r = _radius(sigma)
    ax = np.arange(-r, r + 1, dtype=np.float64)
    dx, dy = np.meshgrid(ax, ax, indexing="ij")
    k = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
    return k / k.sum()


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _blur_operator(sigma: float, n: int) -> np.ndarray:
    """(n, n) matrix of the 1-D Gaussian pass with numpy's ``reflect`` padding.

    Row i holds the taps around i; a tap that falls off an edge at i+t is
    folded onto the mirrored index. The caller ensures r <= n-1, so one fold
    lands every tap inside [0, n).
    """
    g = _gaussian_1d(sigma)
    r = g.size // 2
    rows = np.arange(n)
    op = np.zeros((n, n))
    for t, gt in zip(range(-r, r + 1), g):
        j = np.abs(rows + t)
        j = np.where(j > n - 1, 2 * (n - 1) - j, j)
        op[rows, j] += gt
    op.flags.writeable = False
    return op


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _box_operator(factor: int, n: int) -> np.ndarray:
    """(n // factor, n) matrix averaging each run of ``factor`` samples."""
    op = np.repeat(np.eye(n // factor), factor, axis=1) / factor
    op.flags.writeable = False
    return op


def blur(img: Image, sigma: float) -> Image:
    """Reflect-padded Gaussian blur, as one cached matrix per axis: the kernel is separable."""
    k = 2 * _radius(sigma) + 1
    _, h, w = img.data.shape
    if k > 2 * w or k > 2 * h:
        raise ParameterError(f"blur: kernel {k}x{k} wider than twice image {h}x{w}")
    out = _blur_operator(sigma, h) @ img.data @ _blur_operator(sigma, w).T
    return Image(np.clip(out, 0.0, 1.0))


def downsample_up(img: Image, factor: int) -> Image:
    """Box-average pool by ``factor``, then replicate each low-res pixel back up.

    Replication (rather than interpolating) keeps block-constant images fixed
    and models the blocky look of naive super-resolution input.
    """
    factor = int(factor)
    if factor < 1:
        raise ParameterError(f"downsample_up: factor must be >= 1, got {factor}")
    if factor == 1:
        return Image(img.data.copy())
    _, h, w = img.data.shape
    if h % factor or w % factor:
        raise ParameterError(f"downsample_up: {h}x{w} not divisible by factor {factor}")
    low = _box_operator(factor, h) @ img.data @ _box_operator(factor, w).T
    up = np.repeat(np.repeat(low, factor, axis=1), factor, axis=2)
    return Image(up)


def add_noise(img: Image, sigma255: float, seed: int) -> Image:
    """The one-step spec ``noise:<sigma255>``: the same image as ``apply`` gives it."""
    return apply(DegradationSpec((Noise(sigma255),)), img, seed)


@dataclass(frozen=True)
class Blur:
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ParameterError(f"Blur: sigma must be finite and > 0, got {self.sigma}")


@dataclass(frozen=True)
class Downsample:
    factor: int

    def __post_init__(self):
        if self.factor < 2:
            raise ParameterError(f"Downsample: factor must be >= 2, got {self.factor}")


@dataclass(frozen=True)
class Noise:
    sigma255: float

    def __post_init__(self):
        if not (self.sigma255 >= 0 and math.isfinite(self.sigma255)):
            raise ParameterError(f"Noise: sigma255 must be finite and >= 0, got {self.sigma255}")


_FLOAT_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$")
_INT_RE = re.compile(r"^[0-9]+$")


@dataclass(frozen=True)
class DegradationSpec:
    steps: tuple

    @staticmethod
    def parse(text: str) -> "DegradationSpec":
        """Parse the canonical form; any malformed or out-of-range step raises ``FormatError``."""
        text = text.strip()
        if not text:
            return DegradationSpec(())
        steps = []
        for part in text.split("+"):
            if ":" not in part:
                raise FormatError(f"degradation step {part!r} missing ':'")
            kind, _, arg = part.partition(":")
            try:
                if kind == "blur":
                    if not _FLOAT_RE.match(arg):
                        raise FormatError(f"bad blur sigma {arg!r}")
                    steps.append(Blur(float(arg)))
                elif kind == "sr":
                    if not _INT_RE.match(arg):
                        raise FormatError(f"bad sr factor {arg!r}")
                    steps.append(Downsample(int(arg)))
                elif kind == "noise":
                    if not _FLOAT_RE.match(arg):
                        raise FormatError(f"bad noise sigma {arg!r}")
                    steps.append(Noise(float(arg)))
                else:
                    raise FormatError(f"unknown degradation step kind {kind!r}")
            except ParameterError as e:
                raise FormatError(f"degradation step {part!r}: {e}") from e
        return DegradationSpec(tuple(steps))

    def canonical(self) -> str:
        parts = []
        for s in self.steps:
            if isinstance(s, Blur):
                parts.append(f"blur:{s.sigma:g}")
            elif isinstance(s, Downsample):
                parts.append(f"sr:{s.factor}")
            elif isinstance(s, Noise):
                parts.append(f"noise:{s.sigma255:g}")
            else:
                raise ParameterError(f"unknown step type {type(s).__name__}")
        return "+".join(parts)

    def __str__(self):
        return self.canonical()


def apply(spec: DegradationSpec, img: Image, seed: int) -> Image:
    """Run steps in order; noise step i draws from stream ``("degrade.noise", i)`` of ``seed``."""
    out = img
    for i, step in enumerate(spec.steps):
        try:
            if isinstance(step, Blur):
                out = blur(out, step.sigma)
            elif isinstance(step, Downsample):
                out = downsample_up(out, step.factor)
            elif isinstance(step, Noise):
                if step.sigma255 > 0:
                    rng = stream(seed, "degrade.noise", i)
                    noisy = out.data + rng.normal(0.0, step.sigma255 / 255.0, size=out.data.shape)
                    out = Image(np.clip(noisy, 0.0, 1.0))
            else:
                raise ParameterError(f"unknown step type {type(step).__name__}")
        except ParameterError as e:
            raise ParameterError(f"step {i} ({type(step).__name__}): {e}") from e
    if out is img:
        out = Image(img.data.copy())
    return out


# the four benchmark recipes, in severity-table order
BENCHMARK_RECIPES = (
    "blur:3.0+noise:30",
    "sr:4",
    "blur:2.0+sr:4",
    "blur:2.0+sr:4+noise:1.0",
)


def benchmark_specs() -> list:
    return [DegradationSpec.parse(s) for s in BENCHMARK_RECIPES]
