import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from ldrestore import tensor as T
from ldrestore.images import Image
from ldrestore.metrics import (
    PPROXY_SEED,
    SSIM_C1,
    SSIM_C2,
    SSIM_SIGMA,
    SSIM_WINDOW,
    MetricReport,
    MetricRow,
    perceptual_proxy,
    psnr,
    ssim,
)
from ldrestore.network import encode, init_params

from tiny_config import TINY


def image_pair(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=shape)
    b = np.clip(a + rng.normal(0.0, 0.1, size=shape), 0.0, 1.0)
    return Image(a), Image(b)


def ssim_oracle(a, b):
    """SSIM from scipy's Gaussian filter, cropped to fully valid windows."""
    r = SSIM_WINDOW // 2

    def wmean(x):
        # radius = int(truncate * sigma + 0.5) = r: the same 11x11 window
        return gaussian_filter(x, SSIM_SIGMA, truncate=r / SSIM_SIGMA)[r:-r, r:-r]

    vals = []
    for xa, xb in zip(a, b):
        mu_a, mu_b = wmean(xa), wmean(xb)
        var_a = wmean(xa * xa) - mu_a**2
        var_b = wmean(xb * xb) - mu_b**2
        cov = wmean(xa * xb) - mu_a * mu_b
        num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
        den = (mu_a**2 + mu_b**2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def test_psnr_of_known_mse():
    a = np.full((3, 8, 8), 0.5)
    step = np.where(np.indices((3, 8, 8)).sum(axis=0) % 2, 0.05, -0.05)  # mse 0.0025
    assert psnr(Image(a), Image(a + step)) == pytest.approx(10.0 * math.log10(1.0 / 0.0025), rel=1e-12)
    assert psnr(Image(a), Image(a)) == math.inf


def test_ssim_is_one_on_identical_images():
    a, _ = image_pair((3, 16, 13), 0)
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)


def test_ssim_matches_gaussian_filter_oracle():
    for shape, seed in (((1, 11, 11), 1), ((3, 24, 19), 2), ((1, 32, 32), 3)):
        a, b = image_pair(shape, seed)
        got = ssim(a, b)
        assert got == pytest.approx(ssim_oracle(a.data, b.data), rel=1e-10)
        assert 0.0 < got < 1.0


def test_perceptual_proxy_symmetric_and_flip_invariant():
    params = init_params(TINY, 4)
    a, b = image_pair((1, 16, 16), 5)
    d = perceptual_proxy(a, b, params)
    flip = lambda im: Image(im.data[:, :, ::-1])
    assert d > 0.0
    assert perceptual_proxy(b, a, params) == pytest.approx(d, rel=1e-12)
    assert perceptual_proxy(flip(a), flip(b), params) == pytest.approx(d, rel=1e-12)
    assert perceptual_proxy(a, a, params) == 0.0
    # float32 encoder features stay close to the float64 reference
    with T.float64():
        d64 = perceptual_proxy(a, b, init_params(TINY, 4))
    assert d == pytest.approx(d64, rel=1e-5)


def test_perceptual_proxy_matches_four_separate_encodings():
    # the four images are encoded as one batch by the fixed encoder; each alone gives the same features
    params = init_params(TINY, 6)
    ruler = init_params(TINY, PPROXY_SEED)
    a, b = image_pair((1, 16, 16), 7)
    feats = []
    for x in (a.data, b.data, a.data[:, :, ::-1], b.data[:, :, ::-1]):
        with T.no_grad():
            f = encode(T.Tensor(x.copy()[None]), ruler).data[0]
        feats.append(f / np.sqrt(np.sum(f * f, axis=0, keepdims=True) + 1e-10))
    want = 0.5 * (float(np.mean((feats[0] - feats[1]) ** 2)) + float(np.mean((feats[2] - feats[3]) ** 2)))
    assert perceptual_proxy(a, b, params) == pytest.approx(want, rel=1e-6)


def test_perceptual_proxy_measures_every_model_of_a_config_with_one_encoder():
    a, b = image_pair((1, 16, 16), 8)
    d = perceptual_proxy(a, b, init_params(TINY, 1))
    assert d > 0.0
    assert perceptual_proxy(a, b, init_params(TINY, 2)) == d
    # a model whose own encoder outputs a constant does not score a perfect 0
    const = init_params(TINY, 3)
    const["enc.conv2.w"].data[...] = 0.0
    const["enc.conv2.b"].data[...] = 1.0
    assert perceptual_proxy(a, b, const) == d


def test_metric_report_csv_rows_mean_and_inf(tmp_path):
    report = MetricReport(
        [
            MetricRow("p0", "sr:4", 21.123456, 0.5, 0.0125, 3.0),
            MetricRow("p1", "blur:3+noise:30", math.inf, 1.0, 0.0, 5.5),
        ]
    )
    text = report.to_csv()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text.splitlines() == [
        "id,spec,psnr_db,ssim,pproxy,wall_ms",
        "p0,sr:4,21.1235,0.500000,0.012500,3.000",
        "p1,blur:3+noise:30,inf,1.000000,0.000000,5.500",
        "MEAN,,inf,0.750000,0.006250,4.250",
    ]
    neg = MetricReport([MetricRow("p", "", -math.inf, 0.0, 0.0, 0.0)]).to_csv()
    assert neg.splitlines()[1] == "p,,-inf,0.000000,0.000000,0.000"
    path = tmp_path / "report.csv"
    report.write_csv(path)
    assert path.read_bytes() == text.encode("utf-8")
