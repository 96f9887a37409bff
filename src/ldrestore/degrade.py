"""Low-quality image synthesis: blur, downsample, noise, and recipes thereof.

A degradation is an ordered list of steps with a canonical string form
``step("+"step)*`` where step is ``blur:<float>``, ``sr:<int>`` or
``noise:<float>``. Noise sigma is quoted on the 0-255 byte scale and divided
by 255 internally. All operators keep images inside [0,1] and are
deterministic given (spec, image, seed).
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError
from .images import Image
from .rng import stream


def _gaussian_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian of size k = 2*ceil(3*sigma)+1."""
    if sigma <= 0:
        raise ParameterError(f"gaussian_kernel: sigma must be > 0, got {sigma}")
    r = math.ceil(3.0 * sigma)
    g = np.exp(-np.arange(-r, r + 1, dtype=np.float64) ** 2 / (2.0 * sigma * sigma))
    return g / g.sum()


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Square normalized Gaussian, size k = 2*ceil(3*sigma)+1."""
    if sigma <= 0:
        raise ParameterError(f"gaussian_kernel: sigma must be > 0, got {sigma}")
    r = math.ceil(3.0 * sigma)
    ax = np.arange(-r, r + 1, dtype=np.float64)
    dx, dy = np.meshgrid(ax, ax, indexing="ij")
    k = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
    return k / k.sum()


def blur(img: Image, sigma: float) -> Image:
    """Reflect-padded Gaussian blur, as two 1-D passes: the kernel is separable."""
    g = _gaussian_1d(sigma)
    k = g.size
    _, h, w = img.data.shape
    if k > 2 * w or k > 2 * h:
        raise ParameterError(f"blur: kernel {k}x{k} wider than twice image {h}x{w}")
    r = k // 2
    pad = np.pad(img.data, ((0, 0), (r, r), (r, r)), mode="reflect")
    rows = np.lib.stride_tricks.sliding_window_view(pad, k, axis=1) @ g
    out = np.lib.stride_tricks.sliding_window_view(rows, k, axis=2) @ g
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
    c, h, w = img.data.shape
    if h % factor or w % factor:
        raise ParameterError(f"downsample_up: {h}x{w} not divisible by factor {factor}")
    low = img.data.reshape(c, h // factor, factor, w // factor, factor).mean(axis=(2, 4))
    up = np.repeat(np.repeat(low, factor, axis=1), factor, axis=2)
    return Image(up)


def add_noise(img: Image, sigma255: float, seed: int) -> Image:
    if sigma255 < 0:
        raise ParameterError(f"add_noise: sigma255 must be >= 0, got {sigma255}")
    if sigma255 == 0:
        return Image(img.data.copy())
    rng = stream(seed, "degrade.noise")
    noisy = img.data + rng.normal(0.0, sigma255 / 255.0, size=img.data.shape)
    return Image(np.clip(noisy, 0.0, 1.0))


@dataclass(frozen=True)
class Blur:
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ParameterError(f"Blur: sigma must be > 0, got {self.sigma}")


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
        if self.sigma255 < 0:
            raise ParameterError(f"Noise: sigma255 must be >= 0, got {self.sigma255}")


_FLOAT_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$")
_INT_RE = re.compile(r"^[0-9]+$")


@dataclass(frozen=True)
class DegradationSpec:
    steps: tuple

    @staticmethod
    def parse(text: str) -> "DegradationSpec":
        text = text.strip()
        if not text:
            return DegradationSpec(())
        steps = []
        for part in text.split("+"):
            if ":" not in part:
                raise FormatError(f"degradation step {part!r} missing ':'")
            kind, _, arg = part.partition(":")
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
    """Run steps in order; noise steps draw from per-index streams of ``seed``."""
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
