"""Binary checkpoint container.

Layout: magic "LDRS", u32 little-endian format version, u64 little-endian
header length, JSON header (UTF-8, sorted keys, compact separators), then
the raw float64 little-endian payload of every tensor in header order.

The header carries a kind (one of ``KINDS``; ``save_checkpoint`` refuses any
other), the network/schedule/meta dicts, and a "tensors" list of {name, shape}
describing the payload. Writing the same state twice produces byte-identical
files. Loading treats the file as untrusted: any malformed content, a header
nested too deep or holding too long an integer included, raises FormatError
with a byte offset. Every version but ``VERSION`` is rejected, so a loaded
``Checkpoint`` records none.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, FormatError

MAGIC = b"LDRS"
VERSION = 1
KINDS = ("base", "lora")


@dataclass
class Checkpoint:
    kind: str
    config: dict
    schedule: dict
    meta: dict
    # name -> float64 ndarray, insertion order = file order. float32 tensors are
    # stored widened, which is exact, and T.Tensor narrows them back bit for bit.
    arrays: dict


def save_checkpoint(path, kind: str, config: dict, schedule: dict, named_arrays, meta: dict):
    """named_arrays: iterable of (name, ndarray); order defines the payload."""
    if kind not in KINDS:
        raise ContractViolation(f"checkpoint kind must be one of {KINDS}, got {kind!r}")
    entries = []
    blobs = []
    for name, arr in named_arrays:
        arr = np.asarray(arr, dtype="<f8")
        entries.append({"name": str(name), "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = {
        "kind": kind,
        "config": config,
        "schedule": schedule,
        "meta": meta,
        "tensors": entries,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(head)))
        f.write(head)
        for b in blobs:
            f.write(b)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 4 or buf[:4] != MAGIC:
        raise FormatError(f"bad checkpoint magic {buf[:4]!r}", offset=0)
    if len(buf) < 16:
        raise FormatError("truncated checkpoint preamble", offset=len(buf))
    version = struct.unpack_from("<I", buf, 4)[0]
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    hlen = struct.unpack_from("<Q", buf, 8)[0]
    pos = 16
    if len(buf) < pos + hlen:
        raise FormatError("truncated checkpoint header", offset=len(buf))
    try:
        header = json.loads(buf[pos : pos + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, an integer too long, nesting too deep
        raise FormatError(f"corrupt checkpoint header: {e}", offset=pos) from None
    entries = _checked_entries(header, pos)
    pos += hlen
    arrays = {}
    for entry in entries:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        nbytes = count * 8
        if len(buf) < pos + nbytes:
            raise FormatError(
                f"truncated payload for tensor {entry['name']!r}", offset=len(buf)
            )
        flat = np.frombuffer(buf, dtype="<f8", count=count, offset=pos)
        try:
            arrays[entry["name"]] = flat.reshape(shape).copy()
        except ValueError as e:  # a zero-size shape numpy cannot hold: too many or too large dimensions
            raise FormatError(f"tensor {entry['name']!r} has shape {list(shape)}: {e}", offset=pos) from None
        pos += nbytes
    if pos != len(buf):
        raise FormatError(f"{len(buf) - pos} trailing bytes after payload", offset=pos)
    return Checkpoint(
        kind=header["kind"],
        config=header.get("config", {}),
        schedule=header.get("schedule", {}),
        meta=header.get("meta", {}),
        arrays=arrays,
    )


def _checked_entries(header, offset) -> list:
    """The header's tensor entries, after checking every field load reads."""
    if not isinstance(header, dict):
        raise FormatError(f"checkpoint header is a JSON {type(header).__name__}, not an object", offset=offset)
    if header.get("kind") not in KINDS:
        raise FormatError(f"checkpoint kind must be one of {KINDS}, got {header.get('kind')!r}", offset=offset)
    for key in ("config", "schedule", "meta"):
        if not isinstance(header.get(key, {}), dict):
            raise FormatError(f"checkpoint header field {key!r} is not an object", offset=offset)
    entries = header.get("tensors")
    if not isinstance(entries, list):
        raise FormatError("checkpoint header has no 'tensors' list", offset=offset)
    names = set()
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)):
            raise FormatError(f"tensor entry {i} needs a string 'name' and a list 'shape'", offset=offset)
        if entry["name"] in names:
            raise FormatError(f"tensor entry {i} repeats the name {entry['name']!r}", offset=offset)
        names.add(entry["name"])
        # bool is an int subclass, so test the type exactly
        if not all(type(d) is int and d >= 0 for d in entry["shape"]):
            raise FormatError(
                f"tensor {entry['name']!r} has shape {entry['shape']}; dimensions must be integers >= 0",
                offset=offset,
            )
    return entries
