import numpy as np
import pytest

from ldrestore import tensor as T
from ldrestore.errors import ConfigurationError, ContractViolation
from ldrestore.lora import (
    LoraConfig,
    attach,
    effective_forward,
    lora_step,
    merge,
    reg_loss,
    trainable_param_count,
    unmerge,
    zero_adapter_grads,
)
from ldrestore.network import (
    ConditioningBundle,
    NetConfig,
    NetParams,
    control_features,
    denoise,
    encode,
    init_params,
    prompt_embedding,
)

TINY = NetConfig(image_size=16, c_lat=3, c_enc=3, c_hid=4, c_mid=5, prompt_dim=4, temb_dim=4)


def tiny_net(seed=0):
    params = init_params(TINY, seed)
    rng = np.random.default_rng(seed + 50)
    img = rng.uniform(0.1, 0.9, size=(1, 16, 16))
    z = encode(T.Tensor(img), params)
    pe = prompt_embedding(params, ["gradient", "high-quality"])
    z_lq = control_features(z, pe, params)
    cond = ConditioningBundle(z_lq, None, pe)
    zt = T.Tensor(rng.standard_normal(z.shape))
    return params, cond, zt


def matrix_params(d, k, name="w"):
    return NetParams(TINY, {name: T.Tensor(np.random.default_rng(0).normal(size=(d, k)), requires_grad=True)})


def test_attach_neutrality_bit_exact_through_denoiser():
    params, cond, zt = tiny_net()
    before = denoise(zt, 3, cond, params).data
    adapters = attach(params, LoraConfig(rank=2), seed=1)
    after = denoise(zt, 3, cond, params, adapters=adapters).data
    assert np.array_equal(before, after)


def test_attach_param_count_64x64_r4():
    params = matrix_params(64, 64)
    adapters = attach(params, LoraConfig(rank=4, targets=("w",)), seed=0)
    assert trainable_param_count(adapters) == 512
    assert params["w"].size == 4096
    assert params["w"].requires_grad is False


def test_attach_deterministic_per_seed():
    p1 = matrix_params(8, 6)
    p2 = matrix_params(8, 6)
    a1 = attach(p1, LoraConfig(rank=2, targets=("w",)), seed=9)
    a2 = attach(p2, LoraConfig(rank=2, targets=("w",)), seed=9)
    assert np.array_equal(a1[0].A.data, a2[0].A.data)
    assert np.all(a1[0].B.data == 0.0)


def test_attach_a_variance_is_one_over_rank():
    params = NetParams(TINY, {"w": T.Tensor(np.zeros((400, 400)), requires_grad=True)})
    adapters = attach(params, LoraConfig(rank=4, targets=("w",)), seed=3)
    a = adapters[0].A.data
    assert abs(a.var() - 0.25) / 0.25 < 0.1


def test_attach_errors():
    params = matrix_params(8, 6)
    with pytest.raises(ConfigurationError):
        attach(params, LoraConfig(rank=2, targets=("nope*",)), seed=0)
    with pytest.raises(ConfigurationError):
        attach(params, LoraConfig(rank=7, targets=("w",)), seed=0)
    bias = NetParams(TINY, {"b": T.Tensor(np.zeros(5), requires_grad=True)})
    with pytest.raises(ConfigurationError):
        attach(bias, LoraConfig(rank=1, targets=("b",)), seed=0)


def test_effective_forward_matches_materialized():
    rng = np.random.default_rng(1)
    params = matrix_params(6, 5)
    adapters = attach(params, LoraConfig(rank=3, targets=("w",)), seed=2)
    a = adapters[0]
    a.B.data = rng.normal(size=a.B.shape)
    x = rng.normal(size=(7, 5))
    out = effective_forward(T.Tensor(x), params["w"], a)
    dense = x @ (params["w"].data + a.A.data @ a.B.data).T
    assert np.allclose(out.data, dense, atol=1e-10)


def test_effective_forward_b_zero_is_base():
    params = matrix_params(6, 5)
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=0)
    x = np.random.default_rng(2).normal(size=(4, 5))
    out = effective_forward(T.Tensor(x), params["w"], adapters[0])
    assert np.allclose(out.data, x @ params["w"].data.T, atol=0)


def test_effective_forward_gradients():
    rng = np.random.default_rng(3)
    params = matrix_params(5, 4)
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=1)
    a = adapters[0]
    a.B.data = rng.normal(size=a.B.shape) * 0.3
    x = rng.normal(size=(6, 4))
    tgt = rng.normal(size=(6, 5))

    def loss_a(probe):
        ad = type(a)(a.target, probe, T.Tensor(a.B.data), a.rank)
        return T.mse(effective_forward(T.Tensor(x), params["w"], ad), T.Tensor(tgt))

    def loss_b(probe):
        ad = type(a)(a.target, T.Tensor(a.A.data), probe, a.rank)
        return T.mse(effective_forward(T.Tensor(x), params["w"], ad), T.Tensor(tgt))

    assert T.finite_diff_check(loss_a, a.A) < 1e-4
    assert T.finite_diff_check(loss_b, a.B) < 1e-4

    # frozen base: W receives no gradient
    out = T.mse(effective_forward(T.Tensor(x), params["w"], a), T.Tensor(tgt))
    T.backward(out)
    assert params["w"].grad is None


def test_reg_loss_values_and_gradient():
    params = matrix_params(2, 2)
    adapters = attach(params, LoraConfig(rank=1, targets=("w",)), seed=0)
    a = adapters[0]
    a.A.data = np.ones((2, 1))
    a.B.data = np.ones((1, 2))
    assert reg_loss(adapters, 0.0).item() == 0.0
    assert np.isclose(reg_loss(adapters, 1.0).item(), 4.0)

    def f(probe):
        ad = type(a)(a.target, probe, T.Tensor(a.B.data), a.rank)
        return reg_loss([ad], 0.7)

    assert T.finite_diff_check(f, a.A) < 1e-4
    loss = reg_loss(adapters, 0.7)
    T.backward(loss)
    assert np.allclose(a.A.grad, 2 * 0.7 * a.A.data)


def test_merge_equivalence_all_ranks():
    rng = np.random.default_rng(4)
    for r in (1, 2, 4, 8):
        params = NetParams(TINY, {"w": T.Tensor(rng.normal(size=(10, 9)), requires_grad=True)})
        adapters = attach(params, LoraConfig(rank=r, targets=("w",)), seed=r)
        a = adapters[0]
        a.B.data = rng.normal(size=a.B.shape) * 0.2
        xs = rng.normal(size=(20, 1, 9))
        runtime = [effective_forward(T.Tensor(x), params["w"], a).data.copy() for x in xs]
        merge(params, adapters)
        merged = [(x @ params["w"].data.T) for x in xs]
        for u, v in zip(runtime, merged):
            assert np.allclose(u, v, atol=1e-9)
        unmerge(params, adapters)


def test_merge_with_zero_b_keeps_params():
    params = matrix_params(6, 5)
    w0 = params["w"].data.copy()
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=0)
    merge(params, adapters)
    assert np.array_equal(params["w"].data, w0)


def test_merge_unmerge_roundtrip_bit_exact():
    rng = np.random.default_rng(5)
    params = matrix_params(6, 5)
    w0 = params["w"].data.copy()
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=0)
    adapters[0].B.data = rng.normal(size=adapters[0].B.shape)
    merge(params, adapters)
    assert not np.array_equal(params["w"].data, w0)
    unmerge(params, adapters)
    assert np.array_equal(params["w"].data, w0)
    assert adapters[0].enabled


def test_double_merge_rejected():
    params = matrix_params(6, 5)
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=0)
    merge(params, adapters)
    with pytest.raises(ContractViolation):
        merge(params, adapters)
    unmerge(params, adapters)
    with pytest.raises(ContractViolation):
        unmerge(params, adapters)


def tiny_net_batch(n=3, seed=0):
    """tiny_net with a batch of n latents and per-item conditioning."""
    params = init_params(TINY, seed)
    rng = np.random.default_rng(seed + 60)
    z = encode(T.Tensor(rng.uniform(0.1, 0.9, size=(n, 1, 16, 16))), params)
    pe = T.Tensor(np.stack([prompt_embedding(params, ["gradient", "high-quality"]).data] * n))
    cond = ConditioningBundle(control_features(z, pe, params), None, pe)
    return params, cond, T.Tensor(rng.standard_normal(z.shape))


def test_merge_on_conv_kernel_view():
    # a 1x1 target on one latent, and a 3x3 target on a batch, where a patch
    # row order other than the kernel's (ci, kh, kw) would disagree with merge
    for target, (params, cond, zt), t in [("ctrl.zero.sft.w", tiny_net(), 2),
                                          ("den.mid.w", tiny_net_batch(), [2, 5, 9])]:
        adapters = attach(params, LoraConfig(rank=2, targets=(target,)), seed=6)
        a = adapters[0]
        a.B.data = np.random.default_rng(6).normal(size=a.B.shape) * 0.1
        runtime = denoise(zt, t, cond, params, adapters=adapters).data.copy()
        merge(params, adapters)
        merged = denoise(zt, t, cond, params).data
        assert np.allclose(runtime, merged, atol=1e-9)
        unmerge(params, adapters)
        assert not np.allclose(runtime, denoise(zt, t, cond, params).data, atol=1e-6)


def test_lora_step_updates_and_contracts():
    params = matrix_params(4, 3)
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=0)
    a = adapters[0]
    a0 = a.A.data.copy()

    lora_step(adapters, [(np.zeros((4, 2)), np.zeros((2, 3)))], lr=0.5)
    assert np.array_equal(a.A.data, a0)

    g = np.full((4, 2), 2.0)
    lora_step(adapters, [(g, np.zeros((2, 3)))], lr=0.1)
    assert np.allclose(a.A.data, a0 - 0.2)

    zero_adapter_grads(adapters)
    with pytest.raises(ContractViolation):
        lora_step(adapters, None, lr=0.1)


def test_low_rank_regression_converges():
    rng = np.random.default_rng(7)
    d, k, n = 6, 8, 32
    params = NetParams(TINY, {"w": T.Tensor(rng.normal(size=(d, k)), requires_grad=True)})
    true_a = rng.normal(size=(d, 2)) * 0.4
    true_b = rng.normal(size=(2, k)) * 0.4
    x = rng.normal(size=(n, k))
    y = x @ (params["w"].data + true_a @ true_b).T

    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=8)
    a = adapters[0]
    losses = []
    for _ in range(200):
        zero_adapter_grads(adapters)
        out = effective_forward(T.Tensor(x), params["w"], a)
        loss = T.mse(out, T.Tensor(y))
        T.backward(loss)
        losses.append(loss.item())
        lora_step(adapters, None, lr=0.2)
    assert losses[-1] < 0.1 * losses[0]
