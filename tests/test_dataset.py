import json
import os

import numpy as np
import pytest

from ldrestore.dataset import (
    FAMILIES,
    VALID_SIZES,
    _axes,
    batches,
    epoch_batches,
    read_manifest,
    synth_dataset,
    write_dataset,
)
from ldrestore.errors import ConfigurationError, FormatError, ParameterError
from ldrestore.images import Image, save_pnm
from ldrestore.rng import stream


def test_same_seed_identical_datasets():
    a = synth_dataset(7, 24, 32)
    b = synth_dataset(7, 24, 32)
    assert len(a) == len(b) == 24
    for x, y in zip(a, b):
        assert x.prompt == y.prompt
        assert np.array_equal(x.clean.data, y.clean.data)


def test_different_seeds_differ():
    a = synth_dataset(1, 8, 32)
    b = synth_dataset(2, 8, 32)
    assert any(not np.array_equal(x.clean.data, y.clean.data) for x, y in zip(a, b))


def test_round_robin_family_counts():
    data = synth_dataset(0, 800, 32)
    counts = {f: 0 for f in FAMILIES}
    for item in data:
        counts[item.prompt] += 1
    assert all(c == 100 for c in counts.values())


def test_family_order_is_round_robin():
    data = synth_dataset(3, 16, 16)
    for i, item in enumerate(data):
        assert item.prompt == FAMILIES[i % 8]


def test_checkerboard_bimodal_histogram():
    data = [d for d in synth_dataset(0, 80, 32) if d.prompt == "checkerboard"]
    assert data
    for item in data:
        vals = np.unique(item.clean.data)
        assert set(np.round(vals, 10)) == {0.1, 0.9}


def test_pixels_in_range_and_square():
    for size in (16, 32, 64):
        for item in synth_dataset(5, 16, size):
            assert item.clean.data.shape == (1, size, size)
            assert item.clean.data.min() >= 0.0
            assert item.clean.data.max() <= 1.0


def _meshgrid(size):
    ax = (np.arange(size) + 0.5) / size
    return np.meshgrid(ax, ax, indexing="ij")  # y, x in [0,1]


def _gradient_ref(rng, size):
    y, x = _meshgrid(size)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    lo = rng.uniform(0.05, 0.35)
    hi = rng.uniform(0.65, 0.95)
    t = x * np.cos(theta) + y * np.sin(theta)
    t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
    return lo + (hi - lo) * t


def _checkerboard_ref(rng, size):
    cell = int(rng.choice([2, 4, 8]))
    phase = int(rng.integers(0, 2))
    i, j = np.indices((size, size))
    return 0.1 + 0.8 * ((i // cell + j // cell + phase) % 2).astype(np.float64)


def _blobs_ref(rng, size):
    y, x = _meshgrid(size)
    img = np.full((size, size), rng.uniform(0.05, 0.2))
    for _ in range(int(rng.integers(3, 7))):
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        s = rng.uniform(0.06, 0.18)
        a = rng.uniform(0.3, 0.8)
        img += a * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * s * s))
    return np.clip(img, 0.0, 1.0)


def _stripes_ref(rng, size):
    y, x = _meshgrid(size)
    theta = rng.uniform(0.0, np.pi)
    freq = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return 0.5 + 0.4 * np.sin(2 * np.pi * freq * (x * np.cos(theta) + y * np.sin(theta)) + phase)


def _rings_ref(rng, size):
    y, x = _meshgrid(size)
    cy, cx = rng.uniform(0.35, 0.65, size=2)
    freq = rng.uniform(3.0, 8.0)
    return 0.5 + 0.4 * np.cos(2 * np.pi * freq * np.sqrt((y - cy) ** 2 + (x - cx) ** 2))


def _texture_ref(rng, size):
    y, x = _meshgrid(size)
    img = np.full((size, size), 0.5)
    for _ in range(4):
        fy, fx = rng.integers(1, 5, size=2)
        amp = rng.uniform(0.05, 0.15)
        ph = rng.uniform(0.0, 2 * np.pi, size=2)
        img += amp * np.cos(2 * np.pi * fy * y + ph[0]) * np.cos(2 * np.pi * fx * x + ph[1])
    return np.clip(img, 0.0, 1.0)


def _disks_ref(rng, size):
    y, x = _meshgrid(size)
    dark = bool(rng.integers(0, 2))
    img = np.full((size, size), 0.85 if dark else 0.15)
    for _ in range(int(rng.integers(2, 5))):
        cy, cx = rng.uniform(0.2, 0.8, size=2)
        rad = rng.uniform(0.08, 0.22)
        img[(y - cy) ** 2 + (x - cx) ** 2 <= rad * rad] = 0.15 if dark else 0.85
    return img


def _cross_ref(rng, size):
    y, x = _meshgrid(size)
    cy, cx = rng.uniform(0.35, 0.65, size=2)
    thick = rng.uniform(0.04, 0.12)
    bg = rng.uniform(0.1, 0.3)
    fg = rng.uniform(0.7, 0.9)
    img = np.full((size, size), bg)
    img[np.abs(y - cy) < thick] = fg
    img[np.abs(x - cx) < thick] = fg
    return img


# each family on full (size, size) coordinate grids, the way the generators
# built their images before they broadcast the cached axes
MESHGRID_GENERATORS = {
    "gradient": _gradient_ref,
    "checkerboard": _checkerboard_ref,
    "blobs": _blobs_ref,
    "stripes": _stripes_ref,
    "rings": _rings_ref,
    "texture": _texture_ref,
    "disks": _disks_ref,
    "cross": _cross_ref,
}


def test_pixels_equal_the_meshgrid_generators_on_cached_read_only_axes():
    assert set(MESHGRID_GENERATORS) == set(FAMILIES)
    for size in VALID_SIZES:
        y, x = _axes(size)
        assert y.shape == (size, 1) and x.shape == (1, size)
        assert _axes(size)[0] is y and not y.flags.writeable and not x.flags.writeable
        for seed in (0, 1, 7, 23):
            for i, item in enumerate(synth_dataset(seed, 24, size)):
                want = MESHGRID_GENERATORS[item.prompt](stream(seed, "synth." + item.prompt, i), size)
                assert np.array_equal(item.clean.data[0], want), (seed, size, i, item.prompt)


def test_size_validation():
    with pytest.raises(ParameterError):
        synth_dataset(0, 4, 48)
    with pytest.raises(ParameterError):
        synth_dataset(0, 0, 32)


def test_batch_sizes_with_short_tail():
    data = synth_dataset(0, 10, 16)
    sizes = [len(b) for b in epoch_batches(data, 4, seed=0)]
    assert sizes == [4, 4, 2]


def test_epoch_is_exact_permutation():
    data = synth_dataset(0, 25, 16)
    seen = []
    for b in epoch_batches(data, 7, seed=3):
        seen.extend(id(item) for item in b)
    assert sorted(seen) == sorted(id(item) for item in data)


def test_batches_deterministic_per_seed_and_epoch():
    data = synth_dataset(0, 12, 16)
    it1 = batches(data, 5, seed=9)
    it2 = batches(data, 5, seed=9)
    for _ in range(6):
        b1, b2 = next(it1), next(it2)
        assert [id(x) for x in b1] == [id(x) for x in b2]

    e0 = epoch_batches(data, 5, seed=9, epoch=0)
    e1 = epoch_batches(data, 5, seed=9, epoch=1)
    flat0 = [id(x) for b in e0 for x in b]
    flat1 = [id(x) for b in e1 for x in b]
    assert flat0 != flat1  # epochs reshuffle


def test_empty_dataset_rejected():
    with pytest.raises(ConfigurationError):
        next(batches([], 1, seed=0))
    data = synth_dataset(0, 4, 16)
    with pytest.raises(ConfigurationError):
        next(batches(data, 5, seed=0))
    # the call alone raises, before any batch is asked for
    with pytest.raises(ConfigurationError):
        batches([], 1, seed=0)
    with pytest.raises(ConfigurationError):
        batches(data, 5, seed=0)


def test_batch_size_outside_range_rejected_by_both():
    data = synth_dataset(0, 6, 16)
    for bad in (0, -1, 7):
        with pytest.raises(ConfigurationError):
            epoch_batches(data, bad, seed=0)
        with pytest.raises(ConfigurationError):
            next(batches(data, bad, seed=0))
        with pytest.raises(ConfigurationError):
            batches(data, bad, seed=0)


def test_batches_yields_the_epochs_in_order():
    data = synth_dataset(4, 10, 16)
    index = {id(item): i for i, item in enumerate(data)}
    it = batches(data, 4, seed=5)
    got = [[index[id(x)] for x in next(it)] for _ in range(6)]  # two epochs of 4, 4, 2
    # the shuffle batches has always drawn: one permutation per epoch
    want = []
    for epoch in (0, 1):
        order = stream(5, "batches", epoch).permutation(10).tolist()
        want += [order[lo : lo + 4] for lo in range(0, 10, 4)]
    assert got == want
    assert got == [[index[id(x)] for x in b] for e in (0, 1) for b in epoch_batches(data, 4, 5, e)]


def test_manifest_roundtrip(tmp_path):
    data = synth_dataset(11, 10, 16)
    manifest = write_dataset(data, tmp_path)
    back = read_manifest(manifest)
    assert len(back) == 10
    for orig, loaded in zip(data, back):
        assert loaded.prompt == orig.prompt
        assert loaded.tags == orig.tags
        # files are quantized to bytes, so compare at byte resolution
        assert np.array_equal(loaded.clean.to_bytes(), orig.clean.to_bytes())


def test_manifest_that_is_not_json_is_format_error(tmp_path):
    for raw in (b'{"items": [', b"\xff\xfe not utf-8", b"[" * 200_000):
        (tmp_path / "manifest.json").write_bytes(raw)
        with pytest.raises(FormatError):
            read_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"items": {"file": "a.pgm"}},
        {"items": ["a.pgm"]},
        {"items": [{"prompt": "disks"}]},
        {"items": [{"file": 3, "prompt": "disks"}]},
        {"items": [{"file": "a.pgm"}]},
        {"items": [{"file": "a.pgm", "prompt": "disks", "tags": "high-quality"}]},
        {"items": [{"file": "a\u0000b.pgm", "prompt": "disks"}]},
    ],
    ids=["not-object", "no-items", "items-not-list", "entry-not-object", "no-file", "file-not-string",
         "no-prompt", "tags-not-list", "file-with-nul"],
)
def test_manifest_missing_or_ill_typed_field_is_format_error(tmp_path, doc):
    save_pnm(tmp_path / "a.pgm", Image(np.zeros((1, 4, 4))))
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        read_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("where", ["parent", "absolute", "dot"])
def test_manifest_file_not_inside_its_directory_is_format_error(tmp_path, where):
    # a valid image the entry could reach if the path were followed
    save_pnm(tmp_path / "outside.pgm", Image(np.zeros((1, 4, 4))))
    (tmp_path / "data").mkdir()
    name = {"parent": "../outside.pgm", "absolute": str(tmp_path / "outside.pgm"), "dot": "."}[where]
    manifest = tmp_path / "data" / "manifest.json"
    manifest.write_text(json.dumps({"items": [{"file": name, "prompt": "disks"}]}))
    with pytest.raises(FormatError):
        read_manifest(manifest)


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no os.symlink")
def test_manifest_symlink_out_of_its_directory_is_format_error(tmp_path):
    save_pnm(tmp_path / "outside.pgm", Image(np.zeros((1, 4, 4))))
    (tmp_path / "data").mkdir()
    try:
        os.symlink(tmp_path / "outside.pgm", tmp_path / "data" / "link.pgm")
    except OSError as e:  # e.g. no privilege to make links
        pytest.skip(f"cannot make a symlink: {e}")
    manifest = tmp_path / "data" / "manifest.json"
    manifest.write_text(json.dumps({"items": [{"file": "link.pgm", "prompt": "disks"}]}))
    with pytest.raises(FormatError):
        read_manifest(manifest)
