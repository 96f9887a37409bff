"""Procedural labeled image corpus and batch iteration.

Eight parametric families of grayscale patterns stand in for a captioned
photo corpus. Items are assigned to families round-robin (item i belongs to
family i % 8), each with per-item parameters drawn from a dedicated seeded
stream, so the dataset is a pure function of (seed, n, size). The
generators build each image by broadcasting a cached pixel-centre column
against the matching row (``_axes``), so no item forms a coordinate grid.
"""

import functools
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FormatError, ParameterError, is_integer
from .images import Image, load_pnm, save_pnm
from .rng import stream

VALID_SIZES = (16, 32, 64)


@dataclass
class DatasetItem:
    clean: Image
    prompt: str
    tags: list = field(default_factory=list)


@functools.lru_cache(maxsize=None)
def _axes(size):
    """Pixel centres in [0, 1] as a read-only column and row, (size, 1) and
    (1, size): y and x, which broadcast to the (size, size) grid. Cached per
    size, so every generator reads the same two arrays."""
    ax = (np.arange(size) + 0.5) / size
    ax.flags.writeable = False  # and so are its views
    return ax[:, None], ax[None, :]


def _gradient(rng, size):
    y, x = _axes(size)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    lo = rng.uniform(0.05, 0.35)
    hi = rng.uniform(0.65, 0.95)
    t = x * np.cos(theta) + y * np.sin(theta)
    t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
    return lo + (hi - lo) * t


def _checkerboard(rng, size):
    cell = int(rng.choice([2, 4, 8]))
    phase = int(rng.integers(0, 2))
    i = np.arange(size) // cell
    mask = ((i[:, None] + i[None, :] + phase) % 2).astype(np.float64)
    return 0.1 + 0.8 * mask  # exactly {0.1, 0.9}


def _blobs(rng, size):
    y, x = _axes(size)
    img = np.full((size, size), rng.uniform(0.05, 0.2))
    for _ in range(int(rng.integers(3, 7))):
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        s = rng.uniform(0.06, 0.18)
        a = rng.uniform(0.3, 0.8)
        img += a * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * s * s))
    return np.clip(img, 0.0, 1.0)


def _stripes(rng, size):
    y, x = _axes(size)
    theta = rng.uniform(0.0, np.pi)
    freq = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    w = np.sin(2 * np.pi * freq * (x * np.cos(theta) + y * np.sin(theta)) + phase)
    return 0.5 + 0.4 * w


def _rings(rng, size):
    y, x = _axes(size)
    cy, cx = rng.uniform(0.35, 0.65, size=2)
    freq = rng.uniform(3.0, 8.0)
    r = np.sqrt((y - cy) ** 2 + (x - cx) ** 2)
    return 0.5 + 0.4 * np.cos(2 * np.pi * freq * r)


def _texture(rng, size):
    # smooth noise-free texture: a few random low-frequency cosine harmonics,
    # each the outer product of a cosine down the column and one along the row
    y, x = _axes(size)
    img = np.full((size, size), 0.5)
    for _ in range(4):
        fy, fx = rng.integers(1, 5, size=2)
        amp = rng.uniform(0.05, 0.15)
        ph = rng.uniform(0.0, 2 * np.pi, size=2)
        img += amp * np.cos(2 * np.pi * fy * y + ph[0]) * np.cos(2 * np.pi * fx * x + ph[1])
    return np.clip(img, 0.0, 1.0)


def _disks(rng, size):
    y, x = _axes(size)
    dark = bool(rng.integers(0, 2))
    img = np.full((size, size), 0.85 if dark else 0.15)
    for _ in range(int(rng.integers(2, 5))):
        cy, cx = rng.uniform(0.2, 0.8, size=2)
        rad = rng.uniform(0.08, 0.22)
        mask = (y - cy) ** 2 + (x - cx) ** 2 <= rad * rad
        img[mask] = 0.15 if dark else 0.85
    return img


def _cross(rng, size):
    y, x = _axes(size)
    cy, cx = rng.uniform(0.35, 0.65, size=2)
    thick = rng.uniform(0.04, 0.12)
    bg = rng.uniform(0.1, 0.3)
    fg = rng.uniform(0.7, 0.9)
    return np.where((np.abs(y - cy) < thick) | (np.abs(x - cx) < thick), fg, bg)


_GENERATORS = {
    "gradient": _gradient,
    "checkerboard": _checkerboard,
    "blobs": _blobs,
    "stripes": _stripes,
    "rings": _rings,
    "texture": _texture,
    "disks": _disks,
    "cross": _cross,
}
FAMILIES = tuple(_GENERATORS)


def synth_item(seed: int, index: int, size: int) -> DatasetItem:
    family = FAMILIES[index % len(FAMILIES)]
    rng = stream(seed, "synth." + family, index)
    pix = _GENERATORS[family](rng, size)
    return DatasetItem(Image(pix[None, :, :]), family, ["high-quality"])


def synth_dataset(seed: int, n: int, size: int) -> list:
    if not is_integer(size) or size not in VALID_SIZES:
        raise ParameterError(f"size must be one of {VALID_SIZES}, got {size!r}")
    if not is_integer(n) or n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    return [synth_item(seed, i, size) for i in range(n)]


def _check_batch(data: list, batch: int) -> None:
    if not data:
        raise ConfigurationError("batches: empty dataset")
    if not is_integer(batch) or not 1 <= batch <= len(data):
        raise ConfigurationError(f"batches: batch {batch!r} is not an integer in [1, {len(data)}]")


def batches(data: list, batch: int, seed: int):
    """Epoch after epoch of seeded shuffled batches, without end; short final
    batch kept. The arguments are checked at the call, not at the first batch."""
    _check_batch(data, batch)
    return itertools.chain.from_iterable(epoch_batches(data, batch, seed, e) for e in itertools.count())


def epoch_batches(data: list, batch: int, seed: int, epoch: int = 0) -> list:
    """One epoch's batches as a list: a seeded shuffle cut into runs of ``batch``."""
    _check_batch(data, batch)
    if not is_integer(epoch):
        raise ConfigurationError(f"epoch_batches: epoch {epoch!r} is not an integer")
    order = stream(seed, "batches", epoch).permutation(len(data))
    return [[data[i] for i in order[lo : lo + batch]] for lo in range(0, len(data), batch)]


def write_dataset(items: list, outdir) -> str:
    """Save items as PGM files plus a JSON manifest; returns the manifest path."""
    os.makedirs(outdir, exist_ok=True)
    entries = []
    width = max(4, len(str(len(items) - 1)))
    for i, item in enumerate(items):
        name = f"img_{i:0{width}d}.pgm"
        save_pnm(os.path.join(outdir, name), item.clean)
        entries.append({"file": name, "prompt": item.prompt, "tags": list(item.tags)})
    manifest = os.path.join(outdir, "manifest.json")
    with open(manifest, "w") as f:
        json.dump({"items": entries}, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def read_manifest(path) -> list:
    """Load (Image, prompt, tags) items listed in a manifest JSON.

    The manifest is untrusted input: text that is not JSON, a missing or
    ill-typed field, or a file outside the manifest's directory (by name or
    through a symlink) raises FormatError, as does a malformed image. A file
    that cannot be read raises OSError.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, an integer too long, nesting too deep
        raise FormatError(f"manifest {path}: not valid JSON: {e}") from None
    entries = doc.get("items") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise FormatError(f"manifest {path}: need an object with an 'items' list")
    base = os.path.dirname(os.path.abspath(path))
    return [_manifest_item(base, entry, f"manifest {path}, item {i}") for i, entry in enumerate(entries)]


def _manifest_item(base, entry, where) -> DatasetItem:
    if not isinstance(entry, dict):
        raise FormatError(f"{where}: not an object")
    name, prompt, tags = entry.get("file"), entry.get("prompt"), entry.get("tags", [])
    if not isinstance(name, str) or "\0" in name:
        raise FormatError(f"{where}: 'file' must be a string with no NUL byte")
    if not isinstance(prompt, str):
        raise FormatError(f"{where}: 'prompt' must be a string")
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise FormatError(f"{where}: 'tags' must be a list of strings")
    rel = os.path.normpath(name)
    root = os.path.realpath(base)
    real = os.path.realpath(os.path.join(root, rel))
    # the name's text, and the path it resolves to through symlinks
    if os.path.isabs(rel) or rel.split(os.sep)[0] in (os.curdir, os.pardir) or os.path.commonpath([root, real]) != root:
        raise FormatError(f"{where}: {name!r} is not a file inside the manifest's directory")
    return DatasetItem(load_pnm(real), prompt, list(tags))
