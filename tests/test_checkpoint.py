import json
import struct

import numpy as np
import pytest

from ldrestore.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from ldrestore.errors import FormatError

HEADER_OFFSET = 16  # magic, version, header length


def write_raw(path, header, payload=b""):
    """A checkpoint file with an arbitrary JSON header and payload."""
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(head)) + head + payload)
    return path


def valid_header(**tensor):
    entry = {"name": "w", "shape": [2, 3]}
    entry.update(tensor)
    return {"kind": "base", "config": {}, "schedule": {}, "meta": {}, "tensors": [entry]}


def test_valid_file_round_trips_byte_for_byte(tmp_path):
    rng = np.random.default_rng(0)
    arrays = [("w", rng.normal(size=(2, 3))), ("b", rng.normal(size=(3,))), ("e", np.zeros((0, 4)))]
    p1, p2 = tmp_path / "a.ldrs", tmp_path / "b.ldrs"
    save_checkpoint(p1, "base", {"c": 1}, {"T": 10}, arrays, {"seed": 3})
    ck = load_checkpoint(p1)
    assert (ck.kind, ck.config, ck.schedule, ck.meta) == ("base", {"c": 1}, {"T": 10}, {"seed": 3})
    assert list(ck.arrays) == ["w", "b", "e"]
    for name, arr in arrays:
        assert np.array_equal(ck.arrays[name], arr) and ck.arrays[name].shape == arr.shape
    save_checkpoint(p2, ck.kind, ck.config, ck.schedule, ck.arrays.items(), ck.meta)
    assert p1.read_bytes() == p2.read_bytes()
    # a hand-written header in the same layout loads too
    raw = write_raw(tmp_path / "raw.ldrs", valid_header(), np.arange(6.0).astype("<f8").tobytes())
    assert np.array_equal(load_checkpoint(raw).arrays["w"], np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize(
    "header",
    [
        {"kind": "base", "config": {}},  # no tensors
        [1, 2, 3],  # JSON list
        {"tensors": []},  # no kind
        dict(valid_header(), meta=[1]),  # meta not an object
    ],
    ids=["no-tensors", "list", "no-kind", "meta-list"],
)
def test_malformed_header_raises_format_error(tmp_path, header):
    path = write_raw(tmp_path / "bad.ldrs", header)
    with pytest.raises(FormatError) as e:
        load_checkpoint(path)
    assert e.value.offset == HEADER_OFFSET


def test_tensor_entry_without_name_or_shape(tmp_path):
    for entry in ({"shape": [2, 3]}, {"name": "w"}, {"name": 3, "shape": [2]}, "w"):
        header = dict(valid_header(), tensors=[entry])
        with pytest.raises(FormatError, match="needs a string 'name' and a list 'shape'") as e:
            load_checkpoint(write_raw(tmp_path / "bad.ldrs", header, bytes(48)))
        assert e.value.offset == HEADER_OFFSET


def test_negative_or_non_integer_dimension(tmp_path):
    for shape in ([2, -3], [-1], [2.5, 2], ["3"], [True, 6]):
        path = write_raw(tmp_path / "bad.ldrs", valid_header(shape=shape), bytes(48))
        with pytest.raises(FormatError, match="dimensions must be integers") as e:
            load_checkpoint(path)
        assert e.value.offset == HEADER_OFFSET
