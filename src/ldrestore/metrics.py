"""Full-reference quality metrics and the evaluation report.

PSNR uses peak 1.0 so dB values match the usual 255-scale convention.
SSIM is single-scale with an 11x11 Gaussian window (sigma 1.5) evaluated at
fully valid window positions only, channels averaged. ``pproxy`` is a
deterministic perceptual-distance stand-in: mean squared distance between
channel-unit-normalized encoder feature maps, averaged over both horizontal
orientations so the score does not depend on left-right orientation. It is
NOT comparable to published LPIPS numbers and is labeled pproxy everywhere.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .images import Image

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


def psnr(a: Image, b: Image) -> float:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"psnr: image shapes differ, {a.data.shape} vs {b.data.shape}")
    err = float(np.mean((a.data - b.data) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / err)


def _ssim_window() -> np.ndarray:
    r = SSIM_WINDOW // 2
    ax = np.arange(-r, r + 1, dtype=np.float64)
    g = np.exp(-(ax * ax) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    w = np.outer(g, g)
    return w / w.sum()


def ssim(a: Image, b: Image) -> float:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"ssim: image shapes differ, {a.data.shape} vs {b.data.shape}")
    c, h, wd = a.data.shape
    if h < SSIM_WINDOW or wd < SSIM_WINDOW:
        raise ParameterError(f"ssim: image {h}x{wd} smaller than {SSIM_WINDOW}x{SSIM_WINDOW} window")
    w = _ssim_window()

    def wmean(x):
        win = np.lib.stride_tricks.sliding_window_view(x, (SSIM_WINDOW, SSIM_WINDOW))
        return np.einsum("hwij,ij->hw", win, w)

    vals = []
    for ch in range(c):
        xa, xb = a.data[ch], b.data[ch]
        mu_a, mu_b = wmean(xa), wmean(xb)
        var_a = wmean(xa * xa) - mu_a * mu_a
        var_b = wmean(xb * xb) - mu_b * mu_b
        cov = wmean(xa * xb) - mu_a * mu_b
        num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
        den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def perceptual_proxy(a: Image, b: Image, params) -> float:
    from .network import encode_array

    if a.data.shape != b.data.shape:
        raise DimensionError(f"pproxy: image shapes differ, {a.data.shape} vs {b.data.shape}")
    # one batch: the pair, then its mirror images
    feat = encode_array(params, np.stack([a.data, b.data, a.data[:, :, ::-1], b.data[:, :, ::-1]]))
    feat = feat / np.sqrt(np.sum(feat * feat, axis=1, keepdims=True) + 1e-10)
    d = float(np.mean((feat[0] - feat[1]) ** 2))
    d_flip = float(np.mean((feat[2] - feat[3]) ** 2))
    return 0.5 * (d + d_flip)


@dataclass
class EvalPair:
    id: str
    spec: str
    clean: Image
    restored: Image
    wall_ms: float = 0.0


@dataclass
class MetricRow:
    id: str
    spec: str
    psnr_db: float
    ssim: float
    pproxy: float
    wall_ms: float


@dataclass
class MetricReport:
    rows: list

    def means(self) -> MetricRow:
        n = len(self.rows)
        return MetricRow(
            id="MEAN",
            spec="",
            psnr_db=sum(r.psnr_db for r in self.rows) / n,
            ssim=sum(r.ssim for r in self.rows) / n,
            pproxy=sum(r.pproxy for r in self.rows) / n,
            wall_ms=sum(r.wall_ms for r in self.rows) / n,
        )

    def to_csv(self) -> str:
        lines = ["id,spec,psnr_db,ssim,pproxy,wall_ms"]
        for r in list(self.rows) + [self.means()]:
            lines.append(
                f"{r.id},{r.spec},{_fmt(r.psnr_db, 4)},{_fmt(r.ssim, 6)},"
                f"{_fmt(r.pproxy, 6)},{_fmt(r.wall_ms, 3)}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.to_csv())


def _fmt(v: float, places: int) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.{places}f}"


def evaluate(pairs: list, params) -> MetricReport:
    if not pairs:
        raise ParameterError("evaluate: no pairs")
    rows = []
    for p in pairs:
        rows.append(
            MetricRow(
                id=p.id,
                spec=p.spec,
                psnr_db=psnr(p.clean, p.restored),
                ssim=ssim(p.clean, p.restored),
                pproxy=perceptual_proxy(p.clean, p.restored, params),
                wall_ms=float(p.wall_ms),
            )
        )
    return MetricReport(rows)
