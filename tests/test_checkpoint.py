import json
import struct

import numpy as np
import pytest

from ldrestore import tensor as T
from ldrestore.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from ldrestore.errors import FormatError
from ldrestore.network import NetConfig, NetParams, init_params

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


def test_zero_d_array_round_trips_as_scalar(tmp_path):
    path = tmp_path / "s.ldrs"
    save_checkpoint(path, "base", {}, {}, [("s", np.array(1.5))], {})
    loaded = load_checkpoint(path).arrays["s"]
    assert loaded.shape == () and loaded == 1.5


def test_float32_params_round_trip_bit_identical(tmp_path):
    cfg = NetConfig(image_size=16, c_lat=3, c_enc=3, c_hid=4, c_mid=5, prompt_dim=4, temb_dim=4)
    params = init_params(cfg, 7)
    path = tmp_path / "p.ldrs"
    save_checkpoint(path, "base", cfg.to_dict(), {}, [(n, t.data) for n, t in params.items()], {})
    ck = load_checkpoint(path)
    back = NetParams(NetConfig.from_dict(ck.config), {n: T.Tensor(a) for n, a in ck.arrays.items()})
    assert back.names() == params.names()
    for name, t in params.items():
        assert t.data.dtype == back[name].data.dtype == np.float32
        assert t.data.tobytes() == back[name].data.tobytes()
