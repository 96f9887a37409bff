"""Seedable, splittable random streams.

Every source of randomness in the package derives from one integer seed
through named streams, optionally indexed by counters (step, item, ...).
Streams are stateless functions of (seed, name, indices), so a run can be
resumed from any step without replaying earlier draws.
"""

import zlib

import numpy as np

from .errors import ContractViolation, is_integer


def _tag(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def stream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Fresh generator for the named stream of ``seed`` at the given counter indices.

    The seed and every index must be integers (``errors.is_integer``);
    anything else raises ContractViolation, so no value is truncated onto
    another's stream.
    """
    entropy = [_tag(name)]
    for v in (seed, *indices):
        if not is_integer(v):
            raise ContractViolation(f"stream {name!r}: seed and indices must be integers, got {v!r}")
        entropy.append(int(v) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(entropy)
