import json
import tracemalloc

import numpy as np
import pytest

from ldrestore import network
from ldrestore import tensor as T
from ldrestore.dataset import VALID_SIZES, synth_dataset
from ldrestore.diffusion import ldm_loss_batch, make_schedule, respace, sample
from ldrestore.errors import ConfigurationError, ContractViolation, DimensionError, ParameterError
from ldrestore.images import Image
from ldrestore.lora import LoraConfig, attach
from ldrestore.network import (
    PROMPT_VOCAB,
    ConditioningBundle,
    NetConfig,
    NetParams,
    control_features,
    decode,
    decode_tensor,
    denoise,
    encode,
    init_params,
    make_denoiser,
    parameter_plan,
    prompt_embedding,
    prompt_embedding_batch,
    time_embedding,
)

from gradcheck import grad_error
from tiny_config import TINY


def tiny_setup(seed=0):
    params = init_params(TINY, seed)
    rng = np.random.default_rng(seed + 100)
    img = rng.uniform(0.1, 0.9, size=(1, 16, 16))
    return params, img


def make_cond(params, z_src, prompts=("gradient", "high-quality")):
    pe = prompt_embedding(params, list(prompts))
    z_lq = control_features(z_src, pe, params)
    return ConditioningBundle(z_lq, list(prompts), pe)


def test_vocab_is_families_plus_quality():
    assert len(PROMPT_VOCAB) == 10
    assert PROMPT_VOCAB[-2:] == ("high-quality", "low-quality")


def test_parameter_plan_unique_names_and_zero_branch():
    plan = parameter_plan(NetConfig())
    names = [n for n, _, _ in plan]
    assert len(names) == len(set(names))
    for n, _, kind in plan:
        if n.startswith("ctrl.zero."):
            assert kind == "zero"


def test_init_deterministic_and_zero_branch_zero():
    a = init_params(NetConfig(), 5)
    b = init_params(NetConfig(), 5)
    c = init_params(NetConfig(), 6)
    for name in a.names():
        assert np.array_equal(a[name].data, b[name].data)
        if name.startswith("ctrl.zero.") or name.endswith(".b"):
            assert np.all(a[name].data == 0.0)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())


def test_netconfig_rejects_sizes_it_cannot_build():
    # an image size must survive the encoder's halving and the denoiser's pool of
    # the latent: 18 and 6 are even, but give odd latents of 9 and 3 px
    bad = [("image_size", 0), ("c_lat", 0), ("c_lat", -1), ("prompt_dim", 0), ("c_hid", True),
           ("temb_dim", 4.0), ("image_size", "32"), ("channels", 2), ("image_size", 18), ("image_size", 6)]
    for name, value in bad:
        with pytest.raises(ConfigurationError, match=name):
            NetConfig(**{name: value})
        with pytest.raises(ConfigurationError, match=name):
            NetConfig.from_dict(dict(NetConfig().to_dict(), **{name: value}))
    with pytest.raises(ConfigurationError, match="width"):
        NetConfig.from_dict(dict(NetConfig().to_dict(), width=32))
    assert NetConfig.from_dict(TINY.to_dict()) == TINY
    assert NetConfig(channels=3).channels == 3
    assert all(NetConfig(image_size=size).image_size == size for size in VALID_SIZES)


def test_netconfig_takes_numpy_integers_as_ints():
    cfg = NetConfig(image_size=np.int64(32), c_lat=np.int32(8))
    assert cfg == NetConfig() and type(cfg.image_size) is int and type(cfg.c_lat) is int
    assert NetConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg  # as a checkpoint header holds it


def test_encode_shape_and_determinism():
    params = init_params(NetConfig(), 0)
    img = Image(np.random.default_rng(0).uniform(size=(1, 32, 32)))
    z1 = encode(img, params)
    z2 = encode(img, params)
    assert z1.shape == (1, 8, 16, 16)  # an Image is a batch of one
    assert np.array_equal(z1.data, z2.data)


def test_encode_rejects_odd_dims():
    params = init_params(NetConfig(), 0)
    with pytest.raises(ConfigurationError):
        encode(T.Tensor(np.zeros((1, 1, 15, 16))), params)


def test_control_zero_branch_neutral_at_init():
    # the zero conv outputs exact zeros, so z_lq is the plain conv bit for bit
    params, img = tiny_setup()
    z = encode(T.Tensor(img[None]), params)
    pe = prompt_embedding(params, ["gradient"])
    zc_in = T.concat_channels(z, T.broadcast_spatial(pe, z.shape[2], z.shape[3]))
    assert np.all(network._conv(zc_in, params, "ctrl.zero.conv", {}).data == 0.0)
    plain = T.conv2d(z, params["ctrl.conv.w"], params["ctrl.conv.b"])
    assert np.array_equal(control_features(z, pe, params).data, plain.data)


def test_control_prompt_enters_only_through_zero_branch():
    params, img = tiny_setup()
    z = encode(T.Tensor(img[None]), params)
    pe1 = prompt_embedding(params, ["gradient"])
    pe2 = prompt_embedding(params, ["rings"])
    # zero branch still zero: prompt cannot influence anything
    a = control_features(z, pe1, params)
    b = control_features(z, pe2, params)
    assert np.array_equal(a.data, b.data)
    # perturb the zero conv: prompts now matter
    params["ctrl.zero.conv.w"].data[:] = 0.05
    a2 = control_features(z, pe1, params)
    b2 = control_features(z, pe2, params)
    assert not np.array_equal(a2.data, b2.data)


def test_denoise_shape_and_zero_sft_neutral_at_init():
    params, img = tiny_setup()
    z = encode(T.Tensor(img[None]), params)
    cond = make_cond(params, z)
    zt = T.Tensor(np.random.default_rng(1).standard_normal(z.shape))
    out = denoise(zt, 3, cond, params)
    assert out.shape == zt.shape
    # the bottleneck skip adds exact zeros
    sft = network._conv(T.avg_pool2(cond.z_lq), params, "ctrl.zero.sft", {})
    assert np.all(sft.data == 0.0)


def test_conditioning_bundle_requires_prompt_and_embedding():
    params, img = tiny_setup()
    z = encode(T.Tensor(img[None]), params)
    with pytest.raises(TypeError):
        ConditioningBundle(z)
    with pytest.raises(TypeError):
        ConditioningBundle(z, None)


def test_denoise_sensitive_to_t():
    params, img = tiny_setup()
    z = encode(T.Tensor(img[None]), params)
    cond = make_cond(params, z)
    zt = T.Tensor(np.random.default_rng(2).standard_normal(z.shape))
    T_steps = 200
    outs = [denoise(zt, t, cond, params).data for t in (0, T_steps // 2, T_steps - 1)]
    assert not np.array_equal(outs[0], outs[1])
    assert not np.array_equal(outs[1], outs[2])
    assert not np.array_equal(outs[0], outs[2])


def test_denoise_batch_matches_per_item():
    with T.float64():
        params, _ = tiny_setup()
        rng = np.random.default_rng(3)
        imgs = rng.uniform(0.1, 0.9, size=(3, 1, 16, 16))
        z = encode(T.Tensor(imgs), params)
        pe = prompt_embedding_batch(params, [["gradient"], ["rings"], ["cross"]])
        z_lq = control_features(z, pe, params)
        zt = T.Tensor(rng.standard_normal(z.shape))
        ts = np.array([0, 5, 9])
        out = denoise(zt, ts, ConditioningBundle(z_lq, None, pe), params)
        for i in range(3):
            pe_i = prompt_embedding_batch(params, [[["gradient"], ["rings"], ["cross"]][i][0]])
            cond_i = ConditioningBundle(T.Tensor(z_lq.data[i : i + 1]), None, pe_i)
            out_i = denoise(T.Tensor(zt.data[i : i + 1]), int(ts[i]), cond_i, params)
            assert np.allclose(out.data[i], out_i.data[0], atol=1e-10)
    # float32, the default compute dtype: batched and per-item GEMMs round differently
    params, _ = tiny_setup()
    z = encode(T.Tensor(imgs), params)
    pe = prompt_embedding_batch(params, [["gradient"], ["rings"], ["cross"]])
    z_lq = control_features(z, pe, params)
    zt = T.Tensor(zt.data)
    out = denoise(zt, ts, ConditioningBundle(z_lq, None, pe), params)
    assert out.data.dtype == np.float32
    for i in range(3):
        cond_i = ConditioningBundle(T.Tensor(z_lq.data[i : i + 1]), None, T.Tensor(pe.data[i : i + 1]))
        out_i = denoise(T.Tensor(zt.data[i : i + 1]), int(ts[i]), cond_i, params)
        assert np.allclose(out.data[i], out_i.data[0], rtol=1e-5, atol=1e-6)


def test_prompt_embedding_rows_must_match_the_batch(monkeypatch):
    # a batch of n latents takes an (n, prompt_dim) embedding, one row per item
    params, img = tiny_setup()
    zb = encode(T.Tensor(np.stack([img, img])), params)
    pe = prompt_embedding(params, ["rings", "low-quality"])
    pe3 = prompt_embedding_batch(params, [["rings"]] * 3)
    with pytest.raises(DimensionError):
        control_features(zb, pe, params)
    with pytest.raises(DimensionError):
        control_features(zb, pe3, params)
    # the control checks the embedding before it convolves, and names both shapes
    with monkeypatch.context() as m:
        m.setattr(T, "conv2d", lambda *args: pytest.fail("control_features convolved before its check"))
        for bad in (pe, pe3, T.Tensor(np.zeros((2, TINY.prompt_dim + 1)))):
            with pytest.raises(DimensionError) as e:
                control_features(zb, bad, params)
            assert str(bad.shape) in str(e.value) and str(zb.shape) in str(e.value)
    z_lq = control_features(zb, prompt_embedding_batch(params, [["rings"]] * 2), params)
    zt = T.Tensor(np.random.default_rng(4).standard_normal(zb.shape))
    with pytest.raises(DimensionError):
        denoise(zt, 7, ConditioningBundle(z_lq, None, pe), params)


def test_decode_shape_range_determinism():
    params, img = tiny_setup()
    z = encode(T.Tensor(img[None]), params)
    out = decode(z, params)
    assert out.data.shape == (1, 16, 16)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0
    out2 = decode(z, params)
    assert np.array_equal(out.data, out2.data)


def composed_decode(z, params):
    """decode_tensor's reference: the decoder's 2x upsample as a node of its
    own, then conv2d, at every conv site."""

    def conv(x, site):
        return T.conv2d(x, params[site + ".w"], params[site + ".b"])

    h = T.silu(conv(z, "dec.conv1"))
    h = T.silu(conv(T.upsample2(h), "dec.conv2"))
    return T.sigmoid(conv(h, "dec.out"))


def tape_ops(y):
    """The ops of every node recorded on the way to y."""
    ops, stack, seen = [], [y], set()
    while stack:
        t = stack.pop()
        if t.node is not None and id(t) not in seen:
            seen.add(id(t))
            ops.append(t.node.op)
            stack.extend(t.node.inputs)
    return ops


def test_decode_tensor_matches_the_composed_upsample_decoder():
    # dec.conv2 convolves the upsampled activation in one upsample_conv2d node;
    # values and gradients equal upsampling first and then convolving
    rng = np.random.default_rng(21)
    with T.float64():
        params = init_params(NetConfig(), 3)
        z0 = rng.normal(size=(2, 8, 16, 16))
        w = rng.normal(size=(2, 1, 32, 32))
        sites = [name for name in params.names() if name.startswith("dec.")]
        results = []
        for dec in (decode_tensor, composed_decode):
            params.zero_grads()
            z = T.Tensor(z0, requires_grad=True)
            y = dec(z, params)
            if dec is decode_tensor:
                ops = tape_ops(y)
                assert "upsample_conv2d" in ops and "upsample2" not in ops, ops
            T.backward(T.tsum(T.mul(y, T.Tensor(w))))
            results.append([y.data, z.grad] + [params[name].grad for name in sites])
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def composed_denoise(z_t, t, cond, params):
    """denoise's reference at per-item steps t: den.up's 2x upsample and its
    skip concat as nodes of their own, then conv2d, at every conv site."""

    def conv(x, site):
        return T.conv2d(x, params[site + ".w"], params[site + ".b"])

    cfg, z_lq = params.config, cond.z_lq
    h = conv(T.concat_channels(z_t, z_lq), "den.conv_in")
    tb = T.linear(time_embedding(t, cfg.temb_dim), params["den.temb.w"])
    pb = T.linear(cond.prompt_embedding, params["den.pemb.w"])
    h1 = T.silu(T.channel_bias(h, T.add(tb, pb)))
    h2 = T.silu(conv(T.avg_pool2(h1), "den.down"))
    h3 = T.silu(T.add(conv(h2, "den.mid"), conv(T.avg_pool2(z_lq), "ctrl.zero.sft")))
    h4 = T.silu(conv(T.concat_channels(T.upsample2(h3), h1), "den.up"))
    return conv(h4, "den.conv_out")


def test_denoise_matches_the_composed_upsample_concat_denoiser():
    # den.up convolves the upsampled bottleneck and its skip in one
    # upsample_conv2d node; values and gradients equal upsampling, concatenating
    # and then convolving
    rng = np.random.default_rng(22)
    with T.float64():
        params = init_params(NetConfig(), 3)
        for name, shape, kind in network.parameter_plan(params.config):
            if kind == "zero":  # so that no path or bias gradient is trivially zero
                params[name].data = rng.normal(size=shape) * 0.1
        z_t0, z_lq0 = rng.normal(size=(2, 8, 16, 16)), rng.normal(size=(2, 8, 16, 16))
        prompts = [["gradient", "high-quality"], ["stripes"]]
        t = np.array([3, 700])
        w = rng.normal(size=(2, 8, 16, 16))
        sites = [name for name in params.names() if name.startswith("den.")]
        results = []
        for den in (denoise, composed_denoise):
            params.zero_grads()
            z_t, z_lq = T.Tensor(z_t0, requires_grad=True), T.Tensor(z_lq0, requires_grad=True)
            # built per pass: backward releases the tape it walks, pemb's node included
            pemb = prompt_embedding_batch(params, prompts)
            y = den(z_t, t, ConditioningBundle(z_lq, None, pemb), params)
            T.backward(T.tsum(T.mul(y, T.Tensor(w))))
            results.append([y.data, z_t.grad, z_lq.grad] + [params[name].grad for name in sites])
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        # no upsampled copy and no concat: z_lq and the tiled prompt enter
        # den.conv_in and ctrl.zero.conv as conv inputs, and the per-item time and
        # prompt terms are one channel_bias node
        pemb = prompt_embedding_batch(params, prompts)
        z_lq = control_features(T.Tensor(z_lq0, requires_grad=True), pemb, params)
        ops = tape_ops(denoise(T.Tensor(z_t0), t, ConditioningBundle(z_lq, None, pemb), params))
        assert "upsample_conv2d" in ops and not {"concat_channels", "upsample2"} & set(ops), ops
        assert {"channel_bias", "broadcast_spatial"} <= set(ops), ops


def composed_control(z_enc, pemb, params, adapters=()):
    """control_features' reference: the prompt tiled over space by
    broadcast_spatial and concatenated after z_enc, then ctrl.zero.conv."""

    def conv(x, site):
        return T.conv2d(x, network.adapted_weight(params, site + ".w", adapters), params[site + ".b"])

    zc_in = T.concat_channels(z_enc, T.broadcast_spatial(pemb, *z_enc.shape[2:]))
    return T.add(conv(z_enc, "ctrl.conv"), conv(zc_in, "ctrl.zero.conv"))


def test_control_features_matches_the_composed_concat_broadcast_control():
    # ctrl.zero.conv takes the tiled prompt embedding as the second input of
    # its conv node; values and gradients equal concatenating and then
    # convolving, also with an adapter on ctrl.zero.conv.w
    rng = np.random.default_rng(23)
    with T.float64():
        params = init_params(NetConfig(), 4)
        for name in ("ctrl.zero.conv.w", "ctrl.zero.conv.b", "ctrl.conv.b"):
            params[name].data = rng.normal(size=params[name].shape) * 0.1
        z0 = rng.normal(size=(3, 8, 16, 16))
        w = rng.normal(size=(3, 8, 16, 16))
        prompts = [["gradient", "high-quality"], ["stripes"], ["rings", "low-quality"]]
        sites = ["ctrl.conv.w", "ctrl.conv.b", "ctrl.zero.conv.w", "ctrl.zero.conv.b", network.PROMPT_TABLE]
        for with_adapter in (False, True):
            adapters = []
            if with_adapter:
                adapters = attach(params, LoraConfig(rank=2, targets=("ctrl.zero.conv.w",)), seed=5)
                adapters[0].B.data = rng.normal(size=adapters[0].B.shape)
            results = []
            for control in (control_features, composed_control):
                params.zero_grads()
                for a in adapters:
                    a.A.grad = a.B.grad = None
                z = T.Tensor(z0, requires_grad=True)
                y = control(z, prompt_embedding_batch(params, prompts), params, adapters)
                if control is control_features:
                    ops = tape_ops(y)
                    assert "concat_channels" not in ops and "broadcast_spatial" in ops, ops
                T.backward(T.tsum(T.mul(y, T.Tensor(w))))
                trained = [name for name in sites if params[name].requires_grad]  # attach froze the target
                grads = [params[name].grad for name in trained] + [g for a in adapters for g in (a.A.grad, a.B.grad)]
                results.append([y.data, z.grad] + grads)
            for got, want in zip(*results):
                assert got is not None and got.shape == want.shape, with_adapter
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12), with_adapter
            assert len(results[0]) == (8 if with_adapter else 7)


def test_decode_rejects_a_batch_before_decoding(monkeypatch):
    params, img = tiny_setup()
    zb = encode(T.Tensor(np.stack([img, img])), params)

    def decode_tensor_not_called(*args, **kwargs):
        raise AssertionError("decode decoded a batch before rejecting it")

    monkeypatch.setattr(network, "decode_tensor", decode_tensor_not_called)
    for z in (zb, T.Tensor(zb.data[0])):
        with pytest.raises(DimensionError) as e:
            decode(z, params)
        assert str(z.shape) in str(e.value)


def test_make_denoiser_checks_step_index():
    params, img = tiny_setup()
    z = encode(T.Tensor(img[None]), params)
    cond = make_cond(params, z)
    sched = respace(make_schedule(100, 1e-4, 0.02), 10)
    net = make_denoiser(params, sched)
    # an index into the respaced schedule runs the denoiser at its physical step
    assert np.array_equal(net(z, 3, cond).data, denoise(z, sched.base_t[3], cond, params).data)
    for t in (-1, sched.T, 2.5, [2.5]):
        with pytest.raises(ContractViolation):
            net(z, t, cond)
    # denoise takes physical steps: integers >= 0, with no upper bound of its own
    for t in (2.5, -7, [3.5], [-1]):
        with pytest.raises(ContractViolation):
            denoise(z, t, cond, params)
    assert np.array_equal(denoise(z, 2.0, cond, params).data, denoise(z, 2, cond, params).data)


def test_shape_closure_all_sizes():
    for size in (16, 32):
        cfg = NetConfig(image_size=size, c_lat=4, c_enc=4, c_hid=4, c_mid=4, prompt_dim=4, temb_dim=4)
        params = init_params(cfg, 0)
        img = np.random.default_rng(0).uniform(size=(1, size, size))
        z = encode(T.Tensor(img[None]), params)
        assert z.shape == (1, 4, size // 2, size // 2)
        cond = make_cond(params, z)
        eps = denoise(T.Tensor(np.zeros(z.shape)), 0, cond, params)
        assert eps.shape == z.shape
        out = decode(z, params)
        assert out.data.shape == (1, size, size)


def restore(params, lq: Image, seed: int) -> Image:
    """encode -> prompt -> control -> 3 ancestral steps of the real denoiser -> decode."""
    sched = respace(make_schedule(100, 1e-4, 0.02), 3)
    with T.no_grad():
        z_enc = encode(lq, params)
        pe = prompt_embedding(params, ["gradient", "high-quality"])
        cond = ConditioningBundle(control_features(z_enc, pe, params), None, pe)
        z0 = sample(make_denoiser(params, sched), z_enc.shape, cond, sched, seed)
    return decode(z0, params)


def test_restore_chain_on_tiny():
    params, img = tiny_setup()
    lq = Image(img)
    out = restore(params, lq, 1)
    assert isinstance(out, Image) and out.data.shape == lq.data.shape
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0
    assert np.array_equal(out.data, restore(params, lq, 1).data)
    assert not np.array_equal(out.data, restore(params, lq, 2).data)


def test_prompt_embedding_is_mean_of_rows():
    params, _ = tiny_setup()
    table = params["prompt.table.w"].data
    pe = prompt_embedding(params, ["gradient", "high-quality"])
    assert pe.shape == (1, TINY.prompt_dim)  # the embedding of a batch of one
    assert np.allclose(pe.data, (table[0] + table[8]) / 2, atol=1e-12)
    single = prompt_embedding(params, "rings")
    assert np.allclose(single.data, table[4], atol=1e-12)


def test_prompt_unknown_token_rejected():
    params, _ = tiny_setup()
    with pytest.raises(ParameterError):
        prompt_embedding(params, ["sharpen"])
    with pytest.raises(ParameterError):
        prompt_embedding(params, [])


def test_prompt_embedding_batch_of_no_prompt_lists_rejected():
    params, _ = tiny_setup()
    with pytest.raises(ParameterError):
        prompt_embedding_batch(params, [])
    with pytest.raises(ParameterError):
        prompt_embedding_batch(params, [["rings"], []])


def test_time_embedding_shape_and_distinctness():
    e = time_embedding(np.array([0, 10, 199]), 8)
    assert e.shape == (3, 8)
    assert not np.allclose(e.data[0], e.data[1])
    assert np.allclose(time_embedding(10, 8).data, e.data[1:2])


def test_gradients_flow_to_every_parameter():
    # composed training loss: diffusion term + 0.1 * reconstruction term
    params, img = tiny_setup()
    sched = make_schedule(10, 1e-3, 0.1)
    rng = np.random.default_rng(4)
    clean = rng.uniform(0.1, 0.9, size=(2, 1, 16, 16))
    lq = np.clip(clean + rng.normal(0, 0.1, clean.shape), 0, 1)

    # prompts cover every table row so the whole table receives gradient
    plists = [list(PROMPT_VOCAB[:5]), list(PROMPT_VOCAB[5:])]
    pe = prompt_embedding_batch(params, plists)
    z0 = encode(T.Tensor(clean), params)
    z_lq = control_features(encode(T.Tensor(lq), params), pe, params)
    cond = ConditioningBundle(z_lq, None, pe)
    eps = T.Tensor(rng.standard_normal(z0.shape))
    net = lambda z, t, c: denoise(z, t, c, params)
    loss = T.add(
        ldm_loss_batch(net, z0, np.array([2, 7]), eps, cond, sched),
        T.scale(T.mse(decode_tensor(z0, params), T.Tensor(clean)), 0.1),
    )
    T.backward(loss)
    for name in params.names():
        g = params[name].grad
        assert g is not None and np.any(g != 0.0), f"dead parameter {name}"


def test_denoiser_gradients_match_finite_differences():
    params, img = tiny_setup()
    sched = make_schedule(10, 1e-3, 0.1)
    rng = np.random.default_rng(5)
    clean = rng.uniform(0.1, 0.9, size=(1, 1, 16, 16))
    eps_arr = rng.standard_normal((1, TINY.c_lat, 8, 8))
    ts = np.array([4])

    def loss_with(name, probe):
        tensors = dict(params.items())
        tensors[name] = probe
        p2 = NetParams(TINY, tensors)
        pe = prompt_embedding_batch(p2, [["gradient", "high-quality"]])
        z0 = encode(T.Tensor(clean), p2)
        z_lq = control_features(encode(T.Tensor(clean), p2), pe, p2)
        cond = ConditioningBundle(z_lq, None, pe)
        net = lambda z, t, c: denoise(z, t, c, p2)
        l = ldm_loss_batch(net, z0, ts, T.Tensor(eps_arr), cond, sched)
        return T.add(l, T.scale(T.mse(decode_tensor(z0, p2), T.Tensor(clean)), 0.1))

    for name in ("den.mid.w", "ctrl.zero.conv.w", "den.temb.w", "enc.conv1.w", "prompt.table.w"):
        err = grad_error(lambda w: loss_with(name, w), params[name])
        assert err < 1e-4, f"{name}: rel err {err}"


def test_encode_stats_reasonable_on_synthetic_images():
    params = init_params(NetConfig(), 0)
    data = synth_dataset(0, 16, 32)
    stack = np.stack([d.clean.data for d in data])
    z = encode(T.Tensor(stack), params)
    stds = z.data.std(axis=(0, 2, 3))
    assert np.all(stds > 1e-4)  # no collapsed channels at init


def default_training_loss(params, seed):
    """A base training step's loss at the default config, batch 8: the
    denoiser's noise-prediction MSE on the encoded batch plus the decoder's
    reconstruction MSE. Only the loss is returned, so the tape is all that
    keeps the step's activations alive."""
    rng = np.random.default_rng(seed)
    cfg = params.config
    x = T.Tensor(rng.uniform(0.0, 1.0, size=(8, cfg.channels, cfg.image_size, cfg.image_size)))
    sched = make_schedule(1000, 1e-4, 0.02)
    prompts = [[PROMPT_VOCAB[i % len(PROMPT_VOCAB)], "high-quality"] for i in range(8)]
    z0 = encode(x, params)
    pemb = prompt_embedding_batch(params, prompts)
    cond = ConditioningBundle(control_features(z0, pemb, params), prompts, pemb)
    eps = T.Tensor(rng.standard_normal(z0.shape))
    ldm = ldm_loss_batch(lambda z_t, t, c: denoise(z_t, t, c, params), z0, rng.integers(0, 1000, size=8),
                         eps, cond, sched)
    return T.add(ldm, T.mse(decode_tensor(z0, params), x))


def test_training_step_backward_allocates_little_above_its_tape():
    # backward frees each node's saved arrays as it passes them, so its peak
    # stays near the memory held when it starts: at the default config the
    # excess is 0.65 MB, mostly each silu backward's logistic beside its
    # gradient. The tape holds 3.83 MB at backward start, 0.26 MB of it the
    # tiled prompt and den.conv_in's output before its channel_bias. The 4.0 MB
    # bound fails if a node keeps what the tape now forms again or never forms:
    # silu's logistics (1.19 MiB), or z_t and z_lq concatenated for den.conv_in
    # (about 4.16 MB in all)
    params = init_params(NetConfig(), 7)
    tracemalloc.start()
    try:
        loss = default_training_loss(params, 7)
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        T.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(params[name].grad is not None for name in params.names())
    assert start < 4.0e6, start
    assert peak - start < 0.8e6, (start, peak - start)
