import contextlib
from dataclasses import asdict

import numpy as np
import pytest

from ldrestore import tensor as T
from ldrestore.errors import ConfigurationError, ContractViolation, DimensionError, ParameterError
from ldrestore.lora import (
    DEFAULT_TARGETS,
    LoraAdapter,
    LoraConfig,
    attach,
    merge,
    reg_loss,
    zero_adapter_grads,
)
from ldrestore.network import (
    ConditioningBundle,
    NetParams,
    _conv,
    adapted_weight,
    matrix_view_shape,
    control_features,
    decode_tensor,
    denoise,
    encode,
    init_params,
    prompt_embedding,
    prompt_embedding_batch,
)
from ldrestore.optim import AdamW

from gradcheck import grad_error
from tiny_config import TINY

# float32, the default, and float64, the reference mode
COMPUTE_MODES = (contextlib.nullcontext, T.float64)


def tiny_net(seed=0):
    params = init_params(TINY, seed)
    rng = np.random.default_rng(seed + 50)
    img = rng.uniform(0.1, 0.9, size=(1, 1, 16, 16))
    z = encode(T.Tensor(img), params)
    pe = prompt_embedding(params, ["gradient", "high-quality"])
    z_lq = control_features(z, pe, params)
    cond = ConditioningBundle(z_lq, None, pe)
    zt = T.Tensor(rng.standard_normal(z.shape))
    return params, cond, zt


def matrix_params(d, k, name="w"):
    return NetParams(TINY, {name: T.Tensor(np.random.default_rng(0).normal(size=(d, k)), requires_grad=True)})


def dense(x, params, adapters):
    """The dense weight site "w" of params applied to x (n, k), with adapters."""
    return T.linear(T.Tensor(x), adapted_weight(params, "w", adapters))


def adapter_optimizer(adapters, lr):
    """AdamW bound to every adapter's A and B, as a LoRA fine-tune binds them."""
    return AdamW([(a.target + s, t) for a in adapters for s, t in ((".A", a.A), (".B", a.B))], lr=lr)


def test_attach_neutrality_bit_exact_through_denoiser():
    params, cond, zt = tiny_net()
    before = denoise(zt, 3, cond, params).data
    adapters = attach(params, LoraConfig(rank=2), seed=1)
    after = denoise(zt, 3, cond, params, adapters=adapters).data
    assert np.array_equal(before, after)


def test_attach_param_count_64x64_r4():
    params = matrix_params(64, 64)
    adapters = attach(params, LoraConfig(rank=4, targets=("w",)), seed=0)
    assert adapters[0].A.shape == (64, 4) and adapters[0].B.shape == (4, 64)
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


def test_attach_checks_every_target_before_freezing_any():
    params = init_params(TINY, 0)
    # dec.out.w is (1, c_enc, 1, 1): rank 2 does not fit, and den.pemb.w comes first
    with pytest.raises(ConfigurationError, match="dec.out.w"):
        attach(params, LoraConfig(rank=2, targets=("den.pemb.w", "dec.out.w")), seed=0)
    assert all(w.requires_grad for _, w in params.items())


def test_attach_refuses_a_partly_misspelt_target_list():
    params = init_params(TINY, 0)
    with pytest.raises(ConfigurationError, match="den.mdi.w"):
        attach(params, LoraConfig(rank=2, targets=("den.mid.w", "den.mdi.w")), seed=0)
    assert all(w.requires_grad for _, w in params.items())


def test_attach_rejects_the_prompt_table():
    params = init_params(TINY, 0)
    with pytest.raises(ConfigurationError, match="prompt.table.w"):
        attach(params, LoraConfig(rank=2, targets=("prompt.table.w",)), seed=0)
    assert all(w.requires_grad for _, w in params.items())
    # the forward never adds an adapter to the table, so merge may not either
    d, k = params["prompt.table.w"].shape
    with pytest.raises(ConfigurationError, match="prompt.table.w"):
        merge(params, [LoraAdapter("prompt.table.w", T.Tensor(np.ones((d, 1))), T.Tensor(np.ones((1, k))))])


def test_apply_weight_matches_materialized():
    rng = np.random.default_rng(1)
    params = matrix_params(6, 5)
    adapters = attach(params, LoraConfig(rank=3, targets=("w",)), seed=2)
    a = adapters[0]
    a.B.data = rng.normal(size=a.B.shape)
    x = rng.normal(size=(7, 5))
    out = dense(x, params, adapters)
    want = x @ (params["w"].data + a.A.data @ a.B.data).T
    assert np.allclose(out.data, want, atol=1e-10)


def test_apply_weight_b_zero_is_base():
    params = matrix_params(6, 5)
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=0)
    x = np.random.default_rng(2).normal(size=(4, 5))
    out = dense(x, params, adapters)
    assert np.allclose(out.data, x @ params["w"].data.T, atol=0)


def test_adapter_that_does_not_fit_raises_in_forward_and_merge():
    # a dense (6, 5) target and den.mid.w, a 3x3 conv with a (5, 45) view; per target:
    # A with a row too many or one row (which would broadcast), B a column short,
    # A and B of different ranks, a 1-D A, and A @ B with the view's element count
    dense_cases = [((7, 2), (2, 5)), ((6, 2), (2, 4)), ((6, 3), (2, 5)), ((6,), (1, 5)), ((10, 1), (1, 3))]
    conv_cases = [((1, 2), (2, 45)), ((5, 2), (2, 44)), ((5, 2), (3, 45)), ((5,), (1, 45)),
                  ((9, 1), (1, 25)), ((45, 2), (2, 5))]
    x = np.random.default_rng(2).normal(size=(4, 5))
    params, cond, zt = tiny_net()
    targets = [(matrix_params(6, 5), "w", "(6, 5)", dense_cases, lambda p, ads: dense(x, p, ads)),
               (params, "den.mid.w", "(5, 45)", conv_cases, lambda p, ads: denoise(zt, 3, cond, p, ads))]
    for params, target, view, cases, forward in targets:
        for a_shape, b_shape in cases:
            bad = [LoraAdapter(target, T.Tensor(np.ones(a_shape)), T.Tensor(np.ones(b_shape)))]
            for run in (lambda: forward(params, bad), lambda: merge(params, bad)):
                with pytest.raises(DimensionError) as e:
                    run()
                msg = str(e.value)
                assert str(a_shape) in msg and str(b_shape) in msg and view in msg and target in msg


def test_apply_weight_gradients():
    rng = np.random.default_rng(3)
    params = matrix_params(5, 4)
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=1)
    a = adapters[0]
    a.B.data = rng.normal(size=a.B.shape) * 0.3
    x = rng.normal(size=(6, 4))
    tgt = rng.normal(size=(6, 5))

    def loss_a(probe):
        ad = type(a)(a.target, probe, T.Tensor(a.B.data))
        return T.mse(dense(x, params, [ad]), T.Tensor(tgt))

    def loss_b(probe):
        ad = type(a)(a.target, T.Tensor(a.A.data), probe)
        return T.mse(dense(x, params, [ad]), T.Tensor(tgt))

    assert grad_error(loss_a, a.A) < 1e-4
    assert grad_error(loss_b, a.B) < 1e-4

    # frozen base: W receives no gradient
    out = T.mse(dense(x, params, adapters), T.Tensor(tgt))
    T.backward(out)
    assert params["w"].grad is None


def test_lora_config_rejects_bad_fields():
    # the default's fields are what a benchmark profile records
    assert asdict(LoraConfig()) == {"rank": 4, "targets": DEFAULT_TARGETS, "reg_lambda": 1e-4, "lr": 1e-3}
    bad = [("rank", 0), ("rank", 2.5), ("rank", True), ("rank", "2"),
           ("reg_lambda", -1e-4), ("reg_lambda", float("nan")), ("reg_lambda", float("inf")), ("reg_lambda", "0"),
           ("targets", "den.*"), ("targets", ())]
    for field, value in bad:
        with pytest.raises(ConfigurationError, match=f"LoraConfig.{field}"):
            LoraConfig(**{field: value})
    params = matrix_params(2, 2)
    adapters = attach(params, LoraConfig(rank=1, targets=("w",)), seed=0)
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="lambda"):
            reg_loss(adapters, lam)


def test_lora_config_rejects_a_repeated_target():
    # attach made one adapter of ("den.mid.w", "den.mid.w"); two adapters on one
    # weight come from two attach calls
    with pytest.raises(ConfigurationError, match="'den.mid.w' more than once"):
        LoraConfig(targets=("den.mid.w", "den.temb.w", "den.mid.w"))


def test_conv_site_adapter_gradients():
    # A and B through a conv site: den.mid (3x3) on a batch of three,
    # and ctrl.zero.sft (1x1), whose kernel starts at zero
    rng = np.random.default_rng(9)
    with T.float64():
        params = init_params(TINY, 0)
        for base, x_shape in [("den.mid", (3, 5, 4, 4)), ("ctrl.zero.sft", (3, 3, 4, 4))]:
            co, k = matrix_view_shape(params[base + ".w"], base)
            A0, B0 = T.Tensor(rng.normal(size=(co, 2))), T.Tensor(rng.normal(size=(2, k)) * 0.3)
            x, w = T.Tensor(rng.normal(size=x_shape)), T.Tensor(rng.normal(size=(3, co, 4, 4)))

            def loss(A, B):
                return T.tsum(T.mul(_conv(x, params, base, [LoraAdapter(base + ".w", A, B)]), w))

            assert grad_error(lambda probe: loss(probe, B0), A0) < 1e-6
            assert grad_error(lambda probe: loss(A0, probe), B0) < 1e-6


def test_reg_loss_values_and_gradient():
    params = matrix_params(2, 2)
    adapters = attach(params, LoraConfig(rank=1, targets=("w",)), seed=0)
    a = adapters[0]
    a.A.data = np.ones((2, 1))
    a.B.data = np.ones((1, 2))
    assert reg_loss(adapters, 0.0).item() == 0.0
    assert np.isclose(reg_loss(adapters, 1.0).item(), 4.0)

    def f(probe):
        ad = type(a)(a.target, probe, T.Tensor(a.B.data))
        return reg_loss([ad], 0.7)

    assert grad_error(f, a.A) < 1e-4
    loss = reg_loss(adapters, 0.7)
    T.backward(loss)
    assert np.allclose(a.A.grad, 2 * 0.7 * a.A.data)


def test_reg_loss_is_one_fro2_node_over_every_A_and_B():
    # scale(frobenius_norm_sq(A1, B1, A2, B2, ...), lam): two nodes, whose value
    # is the per-tensor sums added in that order and whose gradients are 2 lam M
    rng = np.random.default_rng(21)
    with T.float64():
        params = init_params(TINY, 0)
        adapters = attach(params, LoraConfig(rank=2), seed=0)
        for a in adapters:
            a.B.data = rng.normal(size=a.B.shape)
        loss = reg_loss(adapters, 0.3)
    assert loss.node.op == "scale"
    fro = loss.node.inputs[0]
    mats = [m for a in adapters for m in (a.A, a.B)]
    assert fro.node.op == "frobenius_norm_sq" and len(fro.node.inputs) == len(mats) == 8
    assert all(i is m for i, m in zip(fro.node.inputs, mats))
    want = 0.0
    for m in mats:
        want += np.sum(m.data * m.data)
    assert loss.data.dtype == np.float64 and loss.item() == want * 0.3
    T.backward(loss)
    for m in mats:
        assert np.array_equal(m.grad, 2.0 * 0.3 * m.data)


def test_merge_equivalence_all_ranks():
    # merge forms W + A @ B with the forward's own ops, so the outputs agree bit for bit
    for mode in COMPUTE_MODES:
        with mode():
            rng = np.random.default_rng(4)
            for r in (1, 2, 4, 8):
                params = NetParams(TINY, {"w": T.Tensor(rng.normal(size=(10, 9)), requires_grad=True)})
                adapters = attach(params, LoraConfig(rank=r, targets=("w",)), seed=r)
                a = adapters[0]
                a.B.data = T.Tensor(rng.normal(size=a.B.shape) * 0.2).data
                xs = rng.normal(size=(20, 1, 9))
                runtime = [dense(x, params, adapters).data for x in xs]
                merged = merge(params, adapters)
                for x, u in zip(xs, runtime):
                    assert np.array_equal(u, dense(x, merged, ()).data)


def test_merge_with_zero_b_keeps_params():
    params = matrix_params(6, 5)
    w0 = params["w"].data.copy()
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=0)
    assert np.array_equal(merge(params, adapters)["w"].data, w0)


def test_merge_unmerge_roundtrip_bit_exact():
    # merge returns new weights, so unmerging is dropping them: params stay bit-exact
    rng = np.random.default_rng(5)
    params = matrix_params(6, 5)
    w0 = params["w"].data.copy()
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=0)
    adapters[0].B.data = rng.normal(size=adapters[0].B.shape)
    assert not np.array_equal(merge(params, adapters)["w"].data, w0)
    assert np.array_equal(params["w"].data, w0)


def tiny_net_batch(n=3, seed=0):
    """tiny_net with a batch of n latents and per-item conditioning."""
    params = init_params(TINY, seed)
    rng = np.random.default_rng(seed + 60)
    z = encode(T.Tensor(rng.uniform(0.1, 0.9, size=(n, 1, 16, 16))), params)
    pe = T.Tensor(np.concatenate([prompt_embedding(params, ["gradient", "high-quality"]).data] * n))
    cond = ConditioningBundle(control_features(z, pe, params), None, pe)
    return params, cond, T.Tensor(rng.standard_normal(z.shape))


def test_merge_on_conv_kernel_view():
    for mode in COMPUTE_MODES:
        with mode():
            # a 1x1 target on a batch of one, and a 3x3 target on a batch of three, where
            # a patch row order other than the kernel's (ci, kh, kw) would disagree with
            # merge; den.up's kernel reaches its upsample_conv2d node, with the skip
            for target, (params, cond, zt), t in [("ctrl.zero.sft.w", tiny_net(), 2),
                                                  ("den.mid.w", tiny_net_batch(), [2, 5, 9]),
                                                  ("den.up.w", tiny_net_batch(), [2, 5, 9])]:
                adapters = attach(params, LoraConfig(rank=2, targets=(target,)), seed=6)
                a = adapters[0]
                a.B.data = T.Tensor(np.random.default_rng(6).normal(size=a.B.shape) * 0.1).data
                runtime = denoise(zt, t, cond, params, adapters=adapters).data
                merged = denoise(zt, t, cond, merge(params, adapters)).data
                assert np.array_equal(runtime, merged)
                assert not np.allclose(runtime, denoise(zt, t, cond, params).data, atol=1e-6)
            # the decoder's upsampling conv takes its kernel through the same adapted_weight
            params, _, zt = tiny_net_batch()
            adapters = attach(params, LoraConfig(rank=2, targets=("dec.conv2.w",)), seed=6)
            a = adapters[0]
            a.B.data = T.Tensor(np.random.default_rng(6).normal(size=a.B.shape)).data
            runtime = decode_tensor(zt, params, adapters=adapters).data
            assert np.array_equal(runtime, decode_tensor(zt, merge(params, adapters)).data)
            assert not np.allclose(runtime, decode_tensor(zt, params).data, atol=1e-6)
            # ctrl.zero.conv's 1x1 kernel takes the prompt embedding as its per-item second input
            params, cond, z = tiny_net_batch()
            pe = cond.prompt_embedding
            adapters = attach(params, LoraConfig(rank=2, targets=("ctrl.zero.conv.w",)), seed=6)
            a = adapters[0]
            a.B.data = T.Tensor(np.random.default_rng(6).normal(size=a.B.shape)).data
            runtime = control_features(z, pe, params, adapters=adapters).data
            assert np.array_equal(runtime, control_features(z, pe, merge(params, adapters)).data)
            assert not np.allclose(runtime, control_features(z, pe, params).data, atol=1e-6)


def test_unmerge_restores_weights_shared_by_two_adapters():
    # two attach calls on the same weights, as the two LoRA modules of a fine-tune,
    # on a 3x3 conv and a dense weight; merge is pure, so the weights it leaves
    # behind are the pre-merge ones
    for mode in COMPUTE_MODES:
        with mode():
            params, cond, zt = tiny_net_batch()
            w0 = {name: w.data.copy() for name, w in params.items()}
            cfg = LoraConfig(rank=2, targets=("den.mid.w", "den.temb.w"))
            adapters = attach(params, cfg, seed=6) + attach(params, cfg, seed=7)
            for k, a in enumerate(adapters):
                a.B.data = T.Tensor(np.random.default_rng(k).normal(size=a.B.shape) * 0.1).data
            ab0 = [(a.A.data.copy(), a.B.data.copy()) for a in adapters]
            t = [2, 5, 9]
            runtime = denoise(zt, t, cond, params, adapters=adapters).data
            merged = merge(params, adapters)
            assert merged.config is params.config and merged.names() == params.names()
            assert np.array_equal(runtime, denoise(zt, t, cond, merged).data)
            for name, w in params.items():
                assert np.array_equal(w.data, w0[name]), name
                assert (merged[name] is w) == (name not in cfg.targets), name
            for a, (A, B) in zip(adapters, ab0):
                assert np.array_equal(a.A.data, A) and np.array_equal(a.B.data, B)
    with pytest.raises(ParameterError, match="nope.w"):
        merge(params, [type(a)("nope.w", a.A, a.B)])


def lora_tape_dtypes():
    """Dtypes seen in one LoRA-style step: (tape outputs and leaves, gradients
    passed between ops, .grad slots)."""
    params = init_params(TINY, 0)
    for _, t in params.items():
        t.requires_grad = False
    adapters = attach(params, LoraConfig(rank=2, targets=("ctrl.zero.conv.w",)), seed=1)
    rng = np.random.default_rng(13)
    z = encode(T.Tensor(rng.uniform(0.1, 0.9, size=(2, 1, 16, 16))), params)
    pe = prompt_embedding_batch(params, [["gradient"], ["rings", "low-quality"]])
    cond = ConditioningBundle(control_features(z, pe, params, adapters), None, pe)
    zt = T.Tensor(rng.standard_normal(z.shape))
    out = denoise(zt, np.array([3, 7]), cond, params, adapters)
    loss = T.add(T.add(T.mse(out, zt), reg_loss(adapters, 1e-3)), T.scale(T.tsum(decode_tensor(out, params)), 1e-3))

    tape, seen, stack = [], set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            tape.append(t)
            stack.extend(t.node.inputs if t.node is not None else ())
    passed = set()

    def recording(inner):
        def backward(g):
            gs = inner(g)
            passed.update(x.dtype for x in (g,) + gs if x is not None)
            return gs

        return backward

    for t in tape:
        if t.node is not None:
            t.node.backward = recording(t.node.backward)
    T.backward(loss)
    grads = [t.grad for t in tape if t.requires_grad]
    assert len(grads) == 2 and all(g is not None for g in grads)
    return {t.data.dtype for t in tape}, passed, {g.dtype for g in grads}


def test_tape_and_gradients_follow_compute_dtype():
    assert lora_tape_dtypes() == ({np.dtype(np.float32)},) * 3
    with T.float64():
        assert lora_tape_dtypes() == ({np.dtype(np.float64)},) * 3
    assert T.Tensor(0.0).data.dtype == np.float32


def test_adamw_updates_adapters_and_contracts():
    params = matrix_params(4, 3)
    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=0)
    a = adapters[0]
    a0, b0 = a.A.data.copy(), a.B.data.copy()

    a.A.grad, a.B.grad = np.zeros((4, 2)), np.zeros((2, 3))
    adapter_optimizer(adapters, lr=0.5).step()
    assert np.array_equal(a.A.data, a0) and np.array_equal(a.B.data, b0)

    # a first AdamW step moves each entry by lr against the sign of its gradient
    a.A.grad = np.full((4, 2), 2.0)
    adapter_optimizer(adapters, lr=0.1).step()
    assert np.allclose(a.A.data, a0 - 0.1, rtol=0, atol=1e-6)
    assert np.array_equal(a.B.data, b0)

    zero_adapter_grads(adapters)
    with pytest.raises(ContractViolation):
        adapter_optimizer(adapters, lr=0.1).step()


def test_low_rank_regression_converges():
    rng = np.random.default_rng(7)
    d, k, n = 6, 8, 32
    params = NetParams(TINY, {"w": T.Tensor(rng.normal(size=(d, k)), requires_grad=True)})
    true_a = rng.normal(size=(d, 2)) * 0.4
    true_b = rng.normal(size=(2, k)) * 0.4
    x = rng.normal(size=(n, k))
    y = x @ (params["w"].data + true_a @ true_b).T

    adapters = attach(params, LoraConfig(rank=2, targets=("w",)), seed=8)
    opt = adapter_optimizer(adapters, lr=0.05)
    losses = []
    for _ in range(200):
        zero_adapter_grads(adapters)
        loss = T.mse(dense(x, params, adapters), T.Tensor(y))
        T.backward(loss)
        losses.append(loss.item())
        opt.step()
    assert losses[-1] < 0.1 * losses[0]
