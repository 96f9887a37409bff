import json
import struct

import numpy as np
import pytest

from ldrestore import tensor as T
from ldrestore.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from ldrestore.errors import ContractViolation, FormatError
from ldrestore.lora import DEFAULT_TARGETS, LoraConfig, attach, reg_loss, zero_adapter_grads
from ldrestore.network import (
    ConditioningBundle,
    NetConfig,
    NetParams,
    control_features,
    denoise,
    encode,
    init_params,
    prompt_embedding_batch,
)
from ldrestore.optim import AdamW

from tiny_config import TINY

HEADER_OFFSET = 16  # magic, version, header length


def write_raw(path, header, payload=b""):
    """A checkpoint file with an arbitrary header (JSON-encoded unless given as bytes) and payload."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
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
        dict(valid_header(), kind="zzz"),  # neither "base" nor "lora"
        b"[" * 200_000,  # nested deeper than the parser recurses
        b'{"kind":"base","tensors":[],"meta":{"n":' + b"9" * 5000 + b"}}",  # beyond int()'s digit limit
    ],
    ids=["no-tensors", "list", "no-kind", "meta-list", "unknown-kind", "deep-nesting", "5000-digit-integer"],
)
def test_malformed_header_raises_format_error(tmp_path, header):
    path = write_raw(tmp_path / "bad.ldrs", header)
    with pytest.raises(FormatError) as e:
        load_checkpoint(path)
    assert e.value.offset == HEADER_OFFSET


def test_save_rejects_a_kind_load_would_reject(tmp_path):
    path = tmp_path / "k.ldrs"
    for kind in ("zzz", "Base", None):
        with pytest.raises(ContractViolation, match="kind"):
            save_checkpoint(path, kind, {}, {}, [("w", np.zeros(2))], {})
        assert not path.exists()


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


@pytest.mark.parametrize(
    "shape", [[0, 10**30], [0, 2**40, 2**40], [0] * 70], ids=["huge-dimension", "huge-product", "70-dimensions"]
)
def test_zero_size_shape_numpy_cannot_hold_raises_format_error(tmp_path, shape):
    # zero elements, so no payload is read, but no ndarray has this shape
    header = valid_header(shape=shape)
    path = write_raw(tmp_path / "bad.ldrs", header)
    with pytest.raises(FormatError, match="tensor 'w' has shape") as e:
        load_checkpoint(path)
    assert e.value.offset == HEADER_OFFSET + len(json.dumps(header).encode("utf-8"))


def test_repeated_tensor_name_raises_format_error(tmp_path):
    path = tmp_path / "dup.ldrs"
    save_checkpoint(path, "base", {}, {}, [("a", np.zeros(2)), ("a", np.ones(3))], {})
    with pytest.raises(FormatError, match="repeats the name 'a'") as e:
        load_checkpoint(path)
    assert e.value.offset == HEADER_OFFSET


def test_zero_d_array_round_trips_as_scalar(tmp_path):
    path = tmp_path / "s.ldrs"
    save_checkpoint(path, "base", {}, {}, [("s", np.array(1.5))], {})
    loaded = load_checkpoint(path).arrays["s"]
    assert loaded.shape == () and loaded == 1.5


def test_float32_params_round_trip_bit_identical(tmp_path):
    params = init_params(TINY, 7)
    path = tmp_path / "p.ldrs"
    save_checkpoint(path, "base", TINY.to_dict(), {}, [(n, t.data) for n, t in params.items()], {})
    ck = load_checkpoint(path)
    back = NetParams(NetConfig.from_dict(ck.config), {n: T.Tensor(a) for n, a in ck.arrays.items()})
    assert back.names() == params.names()
    for name, t in params.items():
        assert t.data.dtype == back[name].data.dtype == np.float32
        assert t.data.tobytes() == back[name].data.tobytes()


def test_net_config_dict_and_checkpoint_bytes_unchanged(tmp_path):
    written = {"image_size": 16, "channels": 1, "c_lat": 3, "c_enc": 3, "c_hid": 4, "c_mid": 5,
               "prompt_dim": 4, "temb_dim": 4}
    assert list(TINY.to_dict().items()) == list(written.items())
    arrays = [(n, t.data) for n, t in init_params(TINY, 7).items()]
    a, b = tmp_path / "a.ldrs", tmp_path / "b.ldrs"
    save_checkpoint(a, "base", TINY.to_dict(), {}, arrays, {})
    save_checkpoint(b, "base", written, {}, arrays, {})
    assert a.read_bytes() == b.read_bytes()
    assert NetConfig.from_dict(load_checkpoint(a).config) == TINY


def test_lora_run_resumes_bit_exactly_from_checkpoint(tmp_path):
    params = init_params(TINY, 3)
    for _, t in params.items():
        t.requires_grad = False
    # the default targets plus a 3x3 conv kernel
    lcfg = LoraConfig(rank=2, targets=DEFAULT_TARGETS + ("den.mid.w",))
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 0.9, size=(2, 1, 16, 16))
    eps = rng.standard_normal((2, 3, 8, 8))

    def bound(adapters):
        return [(f"{a.target}.{p}", getattr(a, p)) for a in adapters for p in ("A", "B")]

    def train(adapters, opt, steps):
        for _ in range(steps):
            z = encode(T.Tensor(x), params, adapters)
            pe = prompt_embedding_batch(params, [["gradient"], ["rings", "low-quality"]])
            cond = ConditioningBundle(control_features(z, pe, params, adapters), None, pe)
            pred = denoise(z, np.array([5, 40]), cond, params, adapters)
            loss = T.add(T.mse(T.Tensor(eps), pred), reg_loss(adapters, 1e-3))
            zero_adapter_grads(adapters)
            T.backward(loss)
            opt.step()

    ref = attach(params, lcfg, seed=1)
    ref_opt = AdamW(bound(ref), lr=1e-2, weight_decay=0.01)
    train(ref, ref_opt, 3)

    first = attach(params, lcfg, seed=1)
    opt = AdamW(bound(first), lr=1e-2, weight_decay=0.01)
    train(first, opt, 2)
    state = opt.state_dict()
    arrays = [(n, t.data) for n, t in bound(first)]
    arrays += [(f"adamw.{k}.{n}", state[k][n]) for k in ("m", "v") for n, _ in bound(first)]
    meta = {k: state[k] for k in ("t", "lr", "betas", "eps", "weight_decay")}
    path = tmp_path / "lora.ldrs"
    save_checkpoint(path, "lora", TINY.to_dict(), {}, arrays, meta)

    ck = load_checkpoint(path)
    assert ck.kind == "lora" and ck.meta["t"] == 2
    resumed = attach(params, lcfg, seed=2)  # other initial values, all overwritten
    for a in resumed:
        a.A = T.Tensor(ck.arrays[a.target + ".A"], requires_grad=True)
        a.B = T.Tensor(ck.arrays[a.target + ".B"], requires_grad=True)
    named = bound(resumed)
    resumed_opt = AdamW(named, lr=1.0)  # hyperparameters come from the state
    resumed_opt.load_state_dict(dict(ck.meta, **{k: {n: ck.arrays[f"adamw.{k}.{n}"] for n, _ in named}
                                                   for k in ("m", "v")}))
    train(resumed, resumed_opt, 1)

    assert resumed_opt.t == ref_opt.t == 3
    for (n, t), (_, t_ref) in zip(named, bound(ref)):
        assert t.data.dtype == resumed_opt.m[n].dtype == np.float32
        assert t.data.tobytes() == t_ref.data.tobytes()
        assert resumed_opt.m[n].tobytes() == ref_opt.m[n].tobytes()
        assert resumed_opt.v[n].tobytes() == ref_opt.v[n].tobytes()
