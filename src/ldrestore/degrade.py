"""Low-quality image synthesis: blur, downsample, noise, and recipes thereof.

A degradation is an ordered list of steps with a canonical string form
``step("+"step)*`` where step is ``blur:<float>``, ``sr:<int>`` or
``noise:<float>``. Each kind is one class (``Blur``, ``Downsample``,
``Noise``) that holds its argument check, its canonical form (``str``) and
its operator ``step(data, seed, i)`` on a (c, h, w) pixel array; ``parse``
looks the kind up in one table and ``apply`` calls the steps in turn. Noise
sigma is quoted on the 0-255 byte scale and divided by 255 internally; noise
step i of a spec draws from stream ``("degrade.noise", i)`` of the seed. All
operators keep images inside [0,1] and are deterministic given (spec, image,
seed).

The two linear steps act on each image axis separately, so each is a small
per-axis matrix: ``out = M_h @ x @ M_w.T``. The matrices depend only on the
step's parameter and the axis length, and the library's images come in a few
sizes (``dataset.VALID_SIZES``: 16, 32, 64 px), so each one is built once and
cached, read-only. The Gaussian's matrix (``blur_operator``) serves both the
blur and ``metrics.ssim``, whose window means are its interior rows.
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
# (n, n) matrix, as large as one image plane. The benchmark recipes and SSIM need four.
_OPERATOR_CACHE_SIZE = 16


def _radius(sigma: float) -> int:
    """Kernel radius r = ceil(3*sigma); the kernel has k = 2r+1 taps."""
    if not (sigma > 0 and math.isfinite(3.0 * sigma)):
        raise ParameterError(f"blur sigma must be > 0 with 3*sigma finite, got {sigma}")
    return math.ceil(3.0 * sigma)


def _gaussian_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian of size k = 2*ceil(3*sigma)+1."""
    r = _radius(sigma)
    g = np.exp(-np.arange(-r, r + 1, dtype=np.float64) ** 2 / (2.0 * sigma * sigma))
    return g / g.sum()


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def blur_operator(sigma: float, n: int) -> np.ndarray:
    """(n, n) matrix of the 1-D Gaussian pass with numpy's ``reflect`` padding.

    Row i holds the taps around i; a tap that falls off an edge at i+t is
    folded onto the mirrored index. The caller ensures r <= n-1, so one fold
    lands every tap inside [0, n). Rows r..n-1-r fold no tap: each is the
    Gaussian mean over a window that lies inside the axis.
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


@dataclass(frozen=True)
class Blur:
    """``blur:<sigma>``: reflect-padded Gaussian blur, one matrix per axis (the kernel is separable)."""

    sigma: float

    def __post_init__(self):
        _radius(self.sigma)

    def __str__(self):
        return f"blur:{self.sigma:g}"

    def __call__(self, data: np.ndarray, seed: int, i: int) -> np.ndarray:
        k = 2 * _radius(self.sigma) + 1
        _, h, w = data.shape
        if k > 2 * w or k > 2 * h:
            raise ParameterError(f"blur: kernel {k}x{k} wider than twice image {h}x{w}")
        out = blur_operator(self.sigma, h) @ data @ blur_operator(self.sigma, w).T
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class Downsample:
    """``sr:<factor>``: box-average pool by ``factor``, then replicate each
    low-res pixel back up.

    Replication (rather than interpolating) keeps block-constant images fixed
    and models the blocky look of naive super-resolution input.
    """

    factor: int

    def __post_init__(self):
        if self.factor < 2:
            raise ParameterError(f"Downsample: factor must be >= 2, got {self.factor}")

    def __str__(self):
        return f"sr:{self.factor}"

    def __call__(self, data: np.ndarray, seed: int, i: int) -> np.ndarray:
        f = self.factor
        _, h, w = data.shape
        if h % f or w % f:
            raise ParameterError(f"downsample: {h}x{w} not divisible by factor {f}")
        low = _box_operator(f, h) @ data @ _box_operator(f, w).T
        return np.repeat(np.repeat(low, f, axis=1), f, axis=2)


@dataclass(frozen=True)
class Noise:
    """``noise:<sigma255>``: additive Gaussian noise; step i draws from ``("degrade.noise", i)``."""

    sigma255: float

    def __post_init__(self):
        if not (self.sigma255 >= 0 and math.isfinite(self.sigma255)):
            raise ParameterError(f"Noise: sigma255 must be finite and >= 0, got {self.sigma255}")

    def __str__(self):
        return f"noise:{self.sigma255:g}"

    def __call__(self, data: np.ndarray, seed: int, i: int) -> np.ndarray:
        if self.sigma255 == 0:
            return data
        rng = stream(seed, "degrade.noise", i)
        return np.clip(data + rng.normal(0.0, self.sigma255 / 255.0, size=data.shape), 0.0, 1.0)


_FLOAT_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$")
_INT_RE = re.compile(r"^[0-9]+$")

# step kind -> (class, argument grammar, argument type)
_STEP_KINDS = {
    "blur": (Blur, _FLOAT_RE, float),
    "sr": (Downsample, _INT_RE, int),
    "noise": (Noise, _FLOAT_RE, float),
}


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
            if kind not in _STEP_KINDS:
                raise FormatError(f"unknown degradation step kind {kind!r}")
            cls, grammar, typ = _STEP_KINDS[kind]
            if not grammar.match(arg):
                raise FormatError(f"bad {kind} argument {arg!r}")
            try:
                steps.append(cls(typ(arg)))
            except (ParameterError, ValueError) as e:  # out of range, or an integer too long to convert
                raise FormatError(f"degradation step {part!r}: {e}") from e
        return DegradationSpec(tuple(steps))

    def canonical(self) -> str:
        return "+".join(map(str, self.steps))

    def __str__(self):
        return self.canonical()


def apply(spec: DegradationSpec, img: Image, seed: int) -> Image:
    """Run steps in order on a copy of ``img``; step i is called as ``step(data, seed, i)``."""
    data = img.data
    for i, step in enumerate(spec.steps):
        try:
            data = step(data, seed, i)
        except ParameterError as e:
            raise ParameterError(f"step {i} ({type(step).__name__}): {e}") from e
    return Image(data.copy() if data is img.data else data)


# the four benchmark recipes, in severity-table order
BENCHMARK_RECIPES = (
    "blur:3.0+noise:30",
    "sr:4",
    "blur:2.0+sr:4",
    "blur:2.0+sr:4+noise:1.0",
)


def benchmark_specs() -> list:
    return [DegradationSpec.parse(s) for s in BENCHMARK_RECIPES]
