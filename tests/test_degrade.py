import math
import tracemalloc

import numpy as np
import pytest

from ldrestore.degrade import (
    BENCHMARK_RECIPES,
    Blur,
    DegradationSpec,
    Downsample,
    Noise,
    _blur_operator,
    _box_operator,
    add_noise,
    apply,
    benchmark_specs,
    blur,
    downsample_up,
    gaussian_kernel,
)
from ldrestore.dataset import synth_dataset
from ldrestore.errors import FormatError, ParameterError
from ldrestore.images import Image
from ldrestore.metrics import psnr  # noqa: F401  (imported late in file tests)
from ldrestore.rng import stream


def test_kernel_size_and_normalization():
    for sigma in (0.5, 1.0, 2.0, 3.0):
        k = gaussian_kernel(sigma)
        expect = 2 * int(np.ceil(3 * sigma)) + 1
        assert k.shape == (expect, expect)
        assert abs(k.sum() - 1.0) < 1e-12


def test_kernel_symmetry():
    k = gaussian_kernel(1.7)
    assert np.allclose(k, k[::-1, :])
    assert np.allclose(k, k[:, ::-1])
    assert np.allclose(k, k.T)


def test_kernel_center_edge_ratio_sigma1():
    k = gaussian_kernel(1.0)
    r = k.shape[0] // 2
    center = k[r, r]
    edge_mid = k[r, r + 1]
    assert np.isclose(center / edge_mid, np.exp(0.5), atol=1e-12)


def test_kernel_rejects_nonpositive_sigma():
    for s in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            gaussian_kernel(s)


def test_blur_constant_unchanged():
    img = Image(np.full((1, 16, 16), 0.37))
    out = blur(img, 2.0)
    assert np.allclose(out.data, 0.37, atol=1e-12)


def test_blur_impulse_response_matches_kernel():
    sigma = 1.0
    k = gaussian_kernel(sigma)
    r = k.shape[0] // 2
    arr = np.zeros((1, 17, 17))
    arr[0, 8, 8] = 1.0
    out = blur(Image(arr), sigma)
    assert np.allclose(out.data[0, 8 - r : 8 + r + 1, 8 - r : 8 + r + 1], k, atol=1e-12)


def test_separable_blur_matches_2d_kernel_oracle():
    rng = np.random.default_rng(21)
    arr = rng.uniform(size=(3, 24, 20))
    for sigma in (0.5, 1.0, 2.0, 3.0):
        k = gaussian_kernel(sigma)
        r = k.shape[0] // 2
        pad = np.pad(arr, ((0, 0), (r, r), (r, r)), mode="reflect")
        win = np.lib.stride_tricks.sliding_window_view(pad, k.shape, axis=(1, 2))
        want = np.clip(np.einsum("chwij,ij->chw", win, k), 0.0, 1.0)
        assert np.allclose(blur(Image(arr), sigma).data, want, rtol=0, atol=1e-12)


def test_blur_preserves_mean_of_interior_supported_image():
    arr = np.zeros((1, 32, 32))
    arr[0, 12:20, 12:20] = 0.5  # support far from borders relative to kernel radius
    img = Image(arr)
    out = blur(img, 1.0)
    assert abs(out.data.mean() - img.data.mean()) < 1e-6


def test_blur_kernel_too_wide_rejected():
    with pytest.raises(ParameterError):
        blur(Image(np.zeros((1, 16, 16))), 6.0)  # k=37 > 32


def test_blur_width_checked_before_any_kernel():
    img = Image(np.zeros((1, 32, 32)))
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError):
            blur(img, 1e5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ParameterError) as e:
        apply(DegradationSpec.parse("blur:100000000000"), img, seed=0)
    assert "step 0" in str(e.value)


def test_operators_are_cached_and_read_only():
    blur_op, box_op = _blur_operator(2.0, 32), _box_operator(4, 32)
    assert _blur_operator(2.0, 32) is blur_op and _box_operator(4, 32) is box_op
    for op in (blur_op, box_op):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
    img = Image(np.random.default_rng(5).uniform(size=(1, 32, 32)))
    assert np.array_equal(blur(img, 2.0).data, blur(img, 2.0).data)
    assert np.array_equal(downsample_up(img, 4).data, downsample_up(img, 4).data)


def _reference_apply(spec, data, seed):
    """Each step by its direct formula: reflect pad + sliding windows, reshape-mean-repeat."""
    win = np.lib.stride_tricks.sliding_window_view
    for i, step in enumerate(spec.steps):
        if isinstance(step, Blur):
            r = math.ceil(3.0 * step.sigma)
            g = np.exp(-np.arange(-r, r + 1, dtype=np.float64) ** 2 / (2.0 * step.sigma**2))
            g /= g.sum()
            pad = np.pad(data, ((0, 0), (r, r), (r, r)), mode="reflect")
            rows = win(pad, g.size, axis=1) @ g
            data = np.clip(win(rows, g.size, axis=2) @ g, 0.0, 1.0)
        elif isinstance(step, Downsample):
            f = step.factor
            c, h, w = data.shape
            low = data.reshape(c, h // f, f, w // f, f).mean(axis=(2, 4))
            data = np.repeat(np.repeat(low, f, axis=1), f, axis=2)
        elif step.sigma255 > 0:
            rng = stream(seed, "degrade.noise", i)
            data = np.clip(data + rng.normal(0.0, step.sigma255 / 255.0, size=data.shape), 0.0, 1.0)
    return data


def test_apply_matches_reference_formulas():
    arr = np.random.default_rng(33).uniform(size=(3, 24, 40))
    for text in BENCHMARK_RECIPES + ("blur:0.5", "sr:2", "blur:1.5+sr:2"):
        spec = DegradationSpec.parse(text)
        got = apply(spec, Image(arr), seed=9).data
        assert np.allclose(got, _reference_apply(spec, arr, 9), rtol=0, atol=1e-12), text


def test_downsample_constant_and_identity():
    img = Image(np.full((1, 16, 16), 0.42))
    assert np.allclose(downsample_up(img, 4).data, 0.42)
    out1 = downsample_up(img, 1)
    assert np.array_equal(out1.data, img.data)
    assert out1.data is not img.data


def test_downsample_block_constant_unchanged():
    blocks = np.array([[0.2, 0.8], [0.6, 0.4]])
    arr = np.repeat(np.repeat(blocks, 2, axis=0), 2, axis=1)[None]
    out = downsample_up(Image(arr), 2)
    assert np.array_equal(out.data, arr)


def test_downsample_box_average_values():
    arr = np.arange(16.0).reshape(1, 4, 4) / 16.0
    out = downsample_up(Image(arr), 2)
    # top-left 2x2 block mean = (0+1+4+5)/4/16
    assert np.allclose(out.data[0, :2, :2], (0 + 1 + 4 + 5) / 4 / 16.0)


def test_downsample_nondivisible_rejected():
    with pytest.raises(ParameterError):
        downsample_up(Image(np.zeros((1, 10, 10))), 4)


def test_noise_zero_sigma_identity_and_determinism():
    img = Image(np.full((1, 8, 8), 0.5))
    assert np.array_equal(add_noise(img, 0.0, seed=1).data, img.data)
    a = add_noise(img, 10.0, seed=3)
    b = add_noise(img, 10.0, seed=3)
    c = add_noise(img, 10.0, seed=4)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_add_noise_is_the_one_step_spec():
    img = Image(np.random.default_rng(8).uniform(size=(3, 8, 8)))
    for s in (0.0, 10.0, 30.0):
        want = apply(DegradationSpec.parse(f"noise:{s}"), img, seed=6)
        assert np.array_equal(add_noise(img, s, seed=6).data, want.data)


def test_noise_std_monte_carlo():
    img = Image(np.full((1, 100, 100), 0.5))
    out = add_noise(img, 20.0, seed=0)
    resid = out.data - 0.5
    assert abs(resid.std() - 20.0 / 255.0) / (20.0 / 255.0) < 0.03


def test_all_ops_stay_in_unit_range():
    rng = np.random.default_rng(0)
    img = Image(rng.uniform(0, 1, size=(1, 32, 32)))
    for out in (blur(img, 2.0), downsample_up(img, 4), add_noise(img, 50.0, seed=2)):
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_spec_parse_canonical_roundtrip():
    s = DegradationSpec.parse("blur:2.0+sr:4+noise:1.0")
    assert s.steps == (Blur(2.0), Downsample(4), Noise(1.0))
    assert s.canonical() == "blur:2+sr:4+noise:1"
    assert DegradationSpec.parse(s.canonical()) == s


def test_spec_parse_errors():
    for bad in ("blur", "blur:x", "sr:2.5", "warp:3", "noise:-1"):
        with pytest.raises((FormatError, ParameterError)):
            DegradationSpec.parse(bad)


def test_spec_out_of_range_values_are_format_errors():
    huge = "9" * 400  # matches the number grammar, but float() gives inf
    for bad in ("sr:1", "sr:0", "blur:0", f"blur:{huge}", f"noise:{huge}", "blur:1.0+sr:1"):
        with pytest.raises(FormatError) as e:
            DegradationSpec.parse(bad)
        assert bad.split("+")[-1][:8] in str(e.value)


def test_spec_invariants():
    with pytest.raises(ParameterError):
        Blur(0.0)
    with pytest.raises(ParameterError):
        Downsample(1)
    with pytest.raises(ParameterError):
        Noise(-0.1)


def test_apply_matches_manual_composition():
    img = synth_dataset(0, 1, 32)[0].clean
    spec = DegradationSpec.parse("blur:2.0+sr:4")
    auto = apply(spec, img, seed=5)
    manual = downsample_up(blur(img, 2.0), 4)
    assert np.array_equal(auto.data, manual.data)


def test_apply_empty_spec_is_identity():
    img = synth_dataset(0, 1, 32)[0].clean
    out = apply(DegradationSpec.parse(""), img, seed=0)
    assert np.array_equal(out.data, img.data)
    assert out.data is not img.data


def test_apply_deterministic():
    img = synth_dataset(1, 1, 32)[0].clean
    spec = DegradationSpec.parse("blur:2.0+sr:4+noise:5.0")
    a = apply(spec, img, seed=7)
    b = apply(spec, img, seed=7)
    assert np.array_equal(a.data, b.data)


def test_apply_error_names_step_index():
    img = Image(np.zeros((1, 10, 10)))
    spec = DegradationSpec.parse("blur:1.0+sr:4")  # 10 not divisible by 4
    with pytest.raises(ParameterError) as e:
        apply(spec, img, seed=0)
    assert "step 1" in str(e.value)


def test_benchmark_recipes_parse_and_first_row():
    specs = benchmark_specs()
    assert len(specs) == 4
    assert BENCHMARK_RECIPES[0] == "blur:3.0+noise:30"
    assert specs[0].steps == (Blur(3.0), Noise(30.0))
    assert specs[2].steps == (Blur(2.0), Downsample(4))


def test_psnr_monotone_in_severity():
    from ldrestore.metrics import psnr

    img = synth_dataset(2, 1, 32)[0].clean

    ladders = [
        [f"blur:{s}" for s in (0.5, 1.0, 2.0, 4.0)],
        ["sr:2", "sr:4", "sr:8"],
        [f"noise:{s}" for s in (5, 15, 30, 60)],
        [f"blur:2.0+noise:{s}" for s in (5, 20, 50)],
        [f"blur:{s}+sr:2" for s in (0.5, 1.5, 3.0)],
    ]
    for ladder in ladders:
        scores = [
            psnr(img, apply(DegradationSpec.parse(s), img, seed=11)) for s in ladder
        ]
        assert all(a > b for a, b in zip(scores, scores[1:])), (ladder, scores)
