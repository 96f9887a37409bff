"""Seedable, splittable random streams.

Every source of randomness in the package derives from one integer seed
through named streams, optionally indexed by counters (step, item, ...).
Streams are stateless functions of (seed, name, indices), so a run can be
resumed from any step without replaying earlier draws.
"""

import zlib

import numpy as np


def _tag(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def stream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Fresh generator for the named stream of ``seed`` at the given counter indices."""
    entropy = [_tag(name), int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(int(i) & 0xFFFFFFFFFFFFFFFF for i in indices)
    return np.random.default_rng(entropy)
