import contextlib
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from ldrestore import network
from ldrestore import tensor as T
from ldrestore.errors import ContractViolation, DimensionError, ParameterError
from ldrestore.lora import LoraAdapter

from gradcheck import grad_error, numeric_grad


def conv2d_loops(x, k, b):
    """Brute-force same-padded cross-correlation plus bias, nested loops only;
    a batch is looped per item."""
    if x.ndim == 4:
        return np.stack([conv2d_loops(xi, k, b) for xi in x])
    c, h, w = x.shape
    co, ci, kh, kw = k.shape
    assert c == ci and kh == kw
    p = kh // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    y = np.zeros((co, h, w))
    for o in range(co):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for ch in range(ci):
                    for a in range(kh):
                        for s in range(kw):
                            acc += xp[ch, i + a, j + s] * k[o, ch, a, s]
                y[o, i, j] = acc + b[o]
    return y


def test_every_op_records_its_function_name():
    # TapeNode.op is the name of the function that made the node, so a
    # per-op profile keyed on it needs no table from op to function
    rng = np.random.default_rng(0)

    def t(*shape):
        return T.Tensor(rng.normal(size=shape), requires_grad=True)

    x, v, k = t(2, 3, 4, 4), t(2, 3), t(5, 3, 3, 3)
    args = {
        T.add: (x, x), T.add_scalar: (x, 1.0), T.mul: (x, x), T.scale: (x, 2.0),
        T.relu: (x,), T.sigmoid: (x,), T.silu: (x,), T.tsum: (x,), T.tmean: (x,), T.mse: (x, x),
        T.frobenius_norm_sq: (x, v), T.reshape: (x, (2, 48)), T.concat_channels: (x, x),
        T.channel_bias: (x, v), T.broadcast_spatial: (v, 4, 4), T.row_scale: (x, t(2)),
        T.embedding_lookup: (t(6, 3), [0, 5]), T.matmul: (v, t(3, 2)), T.linear: (v, t(2, 3)),
        T.im2col: (x, 3), T.fold_channels_last: (t(5, 2 * 5 * 5), x.shape, 3),
        T.conv2d: (x, k, t(5)), T.upsample_conv2d: (x, k, t(5)), T.avg_pool2: (x,), T.upsample2: (x,),
    }
    for fn, a in args.items():
        assert fn(*a).node.op == fn.__name__


def test_matmul_hand_oracle():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    y = T.matmul(a, b)
    assert np.array_equal(y.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.zeros(3)), T.Tensor(np.zeros((3, 2))))


def test_matmul_gradients_match_numeric():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))
    w = rng.normal(size=(3, 2))

    a = T.Tensor(a0, requires_grad=True)
    b = T.Tensor(b0, requires_grad=True)
    loss = T.tsum(T.mul(T.matmul(a, b), T.Tensor(w)))
    T.backward(loss)

    na = numeric_grad(lambda v: np.sum((v @ b0) * w), a0)
    nb = numeric_grad(lambda v: np.sum((a0 @ v) * w), b0)
    assert np.allclose(a.grad, na, atol=1e-6)
    assert np.allclose(b.grad, nb, atol=1e-6)


def test_linear_matches_matmul_transpose():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(4, 3))
    y = T.linear(T.Tensor(x), T.Tensor(w))
    assert np.allclose(y.data, x @ w.T)


def test_conv2d_matches_loop_oracle():
    with T.float64():
        rng = np.random.default_rng(2)
        # batches of one and of three, 3x3, 5x5 and 1x1 kernels, one input
        # channel, one output channel (also with a 1x1 kernel), and a kernel
        # wider than the input
        for x_shape, k_shape in [((1, 2, 5, 6), (3, 2, 3, 3)), ((3, 2, 5, 6), (3, 2, 3, 3)),
                                 ((3, 1, 5, 6), (4, 1, 3, 3)), ((3, 2, 5, 6), (1, 2, 3, 3)),
                                 ((3, 2, 5, 6), (3, 2, 5, 5)), ((2, 2, 2, 3), (3, 2, 5, 5)),
                                 ((1, 2, 5, 6), (4, 2, 1, 1)), ((2, 2, 3, 4), (1, 2, 1, 1)),
                                 ((3, 2, 4, 5), (4, 2, 1, 1))]:
            x, k, b = rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0])
            y = T.conv2d(T.Tensor(x), T.Tensor(k), T.Tensor(b))
            assert np.allclose(y.data, conv2d_loops(x, k, b), atol=1e-12)
        # at a conv site, a low-rank adapter acts as kernel + (A @ B) in the kernel's (co, ci*k*k) view
        A, B = rng.normal(size=(4, 2)), rng.normal(size=(2, 2))
        params = network.NetParams(network.NetConfig(), {"s.w": T.Tensor(k), "s.b": T.Tensor(b)})
        y = network._conv(T.Tensor(x), params, "s", [LoraAdapter("s.w", T.Tensor(A), T.Tensor(B))])
        assert np.allclose(y.data, conv2d_loops(x, k + (A @ B).reshape(k.shape), b), atol=1e-12)
    # float32, the default compute dtype: within float32 rounding of the float64 oracle
    for x_shape, k_shape in [((3, 2, 5, 6), (3, 2, 3, 3)), ((3, 1, 5, 6), (4, 1, 3, 3)),
                             ((3, 2, 5, 6), (3, 2, 5, 5)), ((3, 2, 4, 5), (4, 2, 1, 1))]:
        x, k, b = rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0])
        y = T.conv2d(T.Tensor(x), T.Tensor(k), T.Tensor(b))
        assert y.data.dtype == np.float32
        assert np.allclose(y.data, conv2d_loops(x, k, b), rtol=1e-5, atol=1e-5)
    # in float64 mode, a float32 input with a float64 kernel and bias is computed in float64
    x32 = T.Tensor(x)
    with T.float64():
        k64, b64 = T.Tensor(k), T.Tensor(rng.normal(size=k.shape[0]))
        y = T.conv2d(x32, k64, b64)
    want = conv2d_loops(x32.data.astype(np.float64), k, b64.data)
    assert y.data.dtype == np.float64
    assert np.allclose(y.data, want, rtol=1e-12, atol=1e-12)


def test_conv2d_batched_equals_per_item():
    # neighbouring images share zero border rows on the grid, so a wrong
    # offset or slot size would leak one image into the next
    rng = np.random.default_rng(3)
    with T.float64():
        # 1x1, 3x3 and 5x5 kernels, and kernels wider than the input
        for x_shape, side in [((4, 2, 6, 5), 1), ((4, 2, 6, 5), 3), ((4, 2, 6, 5), 5),
                              ((4, 2, 2, 3), 5), ((4, 2, 1, 1), 3)]:
            xb, k0, b0 = rng.normal(size=x_shape), rng.normal(size=(3, 2, side, side)), rng.normal(size=3)
            x, k, b = (T.Tensor(a, requires_grad=True) for a in (xb, k0, b0))
            yb = T.conv2d(x, k, b)
            w = rng.normal(size=yb.shape)
            T.backward(T.tsum(T.mul(yb, T.Tensor(w))))
            gk, gb = np.zeros_like(k0), np.zeros_like(b0)
            for i in range(4):
                xi, ki, bi = (T.Tensor(a, requires_grad=True) for a in (xb[i : i + 1], k0, b0))
                yi = T.conv2d(xi, ki, bi)
                T.backward(T.tsum(T.mul(yi, T.Tensor(w[i : i + 1]))))
                assert np.allclose(yb.data[i : i + 1], yi.data, rtol=0, atol=1e-12), (x_shape, side)
                assert np.allclose(x.grad[i : i + 1], xi.grad, rtol=0, atol=1e-12), (x_shape, side)
                gk += ki.grad
                gb += bi.grad
            # the batch's kernel and bias gradients are the sums of the items'
            assert np.allclose(k.grad, gk, rtol=0, atol=1e-12), (x_shape, side)
            assert np.allclose(b.grad, gb, rtol=0, atol=1e-12), (x_shape, side)


def test_conv2d_gradients_match_numeric():
    rng = np.random.default_rng(4)
    # (input shape, kernel shape)
    cases = [((1, 2, 4, 4), (2, 2, 3, 3)), ((2, 2, 4, 4), (2, 2, 3, 3)),
             ((1, 2, 4, 5), (3, 2, 3, 3)), ((2, 2, 3, 4), (3, 2, 1, 1)),
             ((2, 1, 4, 4), (3, 1, 3, 3))]
    # 5x5 kernels, one of them wider than the input, where the input
    # gradient's tap order is flipped along each axis
    cases += [((1, 2, 4, 5), (2, 2, 5, 5)), ((2, 2, 2, 3), (2, 2, 5, 5))]
    # one output channel: the input gradient's product has one row on its
    # input side, so it takes the one-channel patch-matrix product, and with
    # a 1x1 kernel the one-channel one-tap broadcast multiply
    cases += [((2, 2, 4, 4), (1, 2, 3, 3)), ((2, 2, 3, 4), (1, 2, 1, 1))]
    for x_shape, k_shape in cases:
        x0, k0, b0 = rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0])
        w = rng.normal(size=(x_shape[0], k_shape[0]) + x_shape[2:])

        x, k, bias = (T.Tensor(a, requires_grad=True) for a in (x0, k0, b0))
        T.backward(T.tsum(T.mul(T.conv2d(x, k, bias), T.Tensor(w))))
        # the loss is linear in the bias
        assert np.allclose(bias.grad, w.sum(axis=(0, 2, 3)), atol=1e-5)

        nx = numeric_grad(lambda v: np.sum(conv2d_loops(v, k0, b0) * w), x0)
        nk = numeric_grad(lambda v: np.sum(conv2d_loops(x0, v, b0) * w), k0)
        assert np.allclose(x.grad, nx, atol=1e-5)
        assert np.allclose(k.grad, nk, atol=1e-5)


def test_conv2d_channel_mismatch_names_shapes():
    for conv in (T.conv2d, T.upsample_conv2d):
        with pytest.raises(DimensionError) as e:
            conv(T.Tensor(np.zeros((1, 3, 5, 5))), T.Tensor(np.zeros((2, 4, 3, 3))), T.Tensor(np.zeros(2)))
        assert "(1, 3, 5, 5)" in str(e.value) and "(2, 4, 3, 3)" in str(e.value), conv
    # upsample_conv2d's skip must be a batch (n, cs, 2h, 2w) for x (n, c, h, w), and
    # the kernel must take c + cs channels; each error names the shapes that disagree
    x, k, b = T.Tensor(np.zeros((2, 3, 4, 5))), T.Tensor(np.zeros((2, 5, 3, 3))), T.Tensor(np.zeros(2))
    for skip_shape, kernel in [((2, 2, 8, 9), k), ((2, 2, 4, 5), k), ((1, 2, 8, 10), k), ((2, 8, 10), k),
                               ((2, 3, 8, 10), k), ((2, 2, 8, 10), T.Tensor(np.zeros((2, 3, 3, 3))))]:
        with pytest.raises(DimensionError) as e:
            T.upsample_conv2d(x, kernel, b, T.Tensor(np.zeros(skip_shape)))
        msg = str(e.value)
        assert "upsample_conv2d" in msg and str(skip_shape) in msg and "(2, 3, 4, 5)" in msg, msg
        if skip_shape[1:] == (3, 8, 10) or kernel is not k:
            assert str(kernel.shape) in msg, msg
    # likewise conv2d's x2: a batch (n, c2, h, w) with x's n, h and w, whose
    # channels follow x's; a per-item vector (n, c2) is not a batch, under a
    # 1x1 kernel too (broadcast_spatial tiles it into one)
    k1 = T.Tensor(np.zeros((2, 5, 1, 1)))
    # (x2, kernel, whether the error is about the kernel)
    for x2_shape, kernel, names_kernel in [((2, 2, 4, 6), k, False), ((2, 2, 5, 5), k, False),
                                           ((1, 2, 4, 5), k, False), ((2, 8, 10), k, False),
                                           ((1, 2), k1, False), ((2, 2, 1), k1, False),
                                           ((2, 3, 4, 5), k, True),
                                           ((2, 2, 4, 5), T.Tensor(np.zeros((2, 3, 3, 3))), True),
                                           ((2, 2), k, False), ((2, 2), k1, False), ((2, 3), k1, False)]:
        with pytest.raises(DimensionError) as e:
            T.conv2d(x, kernel, b, T.Tensor(np.zeros(x2_shape)))
        msg = str(e.value)
        assert "conv2d" in msg and str(x2_shape) in msg and "(2, 3, 4, 5)" in msg, msg
        assert (str(kernel.shape) in msg) == names_kernel, msg
    # the same kernels accept a batch x2 of the right shape
    assert T.conv2d(x, k, b, T.Tensor(np.zeros((2, 2, 4, 5)))).shape == (2, 2, 4, 5)
    assert T.conv2d(x, k1, b, T.Tensor(np.zeros((2, 2, 4, 5)))).shape == (2, 2, 4, 5)


def test_conv2d_kernel_must_be_square_with_an_odd_side():
    # conv2d pads by k // 2 on every side, which keeps the input's size only
    # for a square kernel of odd side; any other kernel raises, naming its shape
    x = T.Tensor(np.zeros((2, 3, 5, 5)))
    for conv in (T.conv2d, T.upsample_conv2d):
        for k_shape in [(4, 3, 2, 2), (4, 3, 3, 1)]:
            with pytest.raises(ParameterError) as e:
                conv(x, T.Tensor(np.zeros(k_shape)), T.Tensor(np.zeros(4)))
            assert str(k_shape) in str(e.value)
        # a kernel that is not 4-D
        with pytest.raises(DimensionError) as e:
            conv(x, T.Tensor(np.zeros((4, 3, 3))), T.Tensor(np.zeros(4)))
        assert "(4, 3, 3)" in str(e.value)
    # so does a window of even side for the patch matrix of that grid
    with pytest.raises(ParameterError, match="im2col"):
        T.im2col(x, 2)
    # a kernel that passes still needs a bias of one entry per output channel
    for conv in (T.conv2d, T.upsample_conv2d):
        with pytest.raises(DimensionError):
            conv(x, T.Tensor(np.zeros((4, 3, 3, 3))), T.Tensor(np.zeros(3)))


def test_spatial_ops_reject_a_single_item():
    # spatial ops take (n, c, h, w) batches only; a (c, h, w) item raises, naming its shape
    item = T.Tensor(np.zeros((2, 4, 4)))
    calls = {
        "conv2d": lambda: T.conv2d(item, T.Tensor(np.zeros((3, 2, 3, 3))), T.Tensor(np.zeros(3))),
        "upsample_conv2d": lambda: T.upsample_conv2d(item, T.Tensor(np.zeros((3, 2, 3, 3))), T.Tensor(np.zeros(3))),
        "im2col": lambda: T.im2col(item, 3),
        "fold_channels_last": lambda: T.fold_channels_last(T.Tensor(np.zeros((3, 25))), item.shape, 3),
        "concat_channels": lambda: T.concat_channels(item, item),
        "channel_bias": lambda: T.channel_bias(item, T.Tensor(np.zeros((1, 2)))),
        "avg_pool2": lambda: T.avg_pool2(item),
        "upsample2": lambda: T.upsample2(item),
    }
    for op, call in calls.items():
        with pytest.raises(DimensionError) as e:
            call()
        assert op in str(e.value) and "(2, 4, 4)" in str(e.value), op
    # the single-item form of the channel tiling
    with pytest.raises(DimensionError) as e:
        T.broadcast_spatial(T.Tensor(np.zeros(2)), 4, 4)
    assert "(2,)" in str(e.value)


def test_conv_ops_reject_an_empty_batch():
    # a batch of no images has no grid; both conv ops raise, naming its shape,
    # with or without a second input
    x, k, b = T.Tensor(np.zeros((0, 2, 3, 3))), T.Tensor(np.zeros((4, 2, 3, 3))), T.Tensor(np.zeros(4))
    k2 = T.Tensor(np.zeros((4, 3, 3, 3)))
    calls = {
        "conv2d": lambda: T.conv2d(x, k, b),
        "upsample_conv2d": lambda: T.upsample_conv2d(x, k, b),
        "conv2d x2": lambda: T.conv2d(x, k2, b, T.Tensor(np.zeros((0, 1, 3, 3)))),
        "upsample_conv2d skip": lambda: T.upsample_conv2d(x, k2, b, T.Tensor(np.zeros((0, 1, 6, 6)))),
    }
    for name, call in calls.items():
        with pytest.raises(DimensionError) as e:
            call()
        assert name.split()[0] in str(e.value) and "(0, 2, 3, 3)" in str(e.value), name


def test_conv2d_bias_shape_mismatch_names_shapes():
    x, k = T.Tensor(np.zeros((2, 3, 5, 5))), T.Tensor(np.zeros((4, 3, 3, 3)))
    # a bias needs one entry per output channel, (co,); one row per item,
    # (n, co) = (2, 4), is refused too (channel_bias adds such rows after a conv)
    for conv in (T.conv2d, T.upsample_conv2d):
        for b_shape in [(3,), (1, 4), (3, 4), (2, 3), (2, 4, 1), (2, 4)]:
            with pytest.raises(DimensionError) as e:
                conv(x, k, T.Tensor(np.zeros(b_shape)))
            msg = str(e.value)
            assert conv.__name__ in msg and str(b_shape) in msg and str(k.shape) in msg, msg
            assert "need (4,)" in msg, msg


def decomposed_conv2d(x, k, bias):
    """conv2d recorded as separate tape ops: im2col, one matmul,
    fold_channels_last, channel_bias with the bias tiled to one row per item."""
    co, _, side, _ = k.shape
    y = T.matmul(T.reshape(k, (co, k.size // co)), T.im2col(x, side))
    y = T.fold_channels_last(y, x.shape, side)
    return T.channel_bias(y, T.matmul(T.Tensor(np.ones((x.shape[0], 1))), T.reshape(bias, (1, co))))


# a conv on a long padded grid, c=40 by n*hp*wp = 5*19*19 = 1805 columns
# (282 KiB in float32), whose kernel gradient sums each tap's product over
# every column
LONG_X, LONG_K = (5, 40, 18, 18), (16, 40, 3, 3)


def test_conv2d_node_matches_decomposed_tape():
    rng = np.random.default_rng(12)
    # batches of one and of three, 3x3, 5x5 and 1x1 kernels, one input
    # channel, one output channel, a kernel wider than the input; the last
    # case's kernel gradient runs over a long grid
    # (see test_conv2d_float32_kernel_gradient_over_long_grid_matches_float64)
    cases = [((1, 2, 5, 6), (3, 2, 3, 3)), ((3, 2, 5, 6), (3, 2, 3, 3)),
             ((3, 1, 5, 6), (3, 1, 3, 3)), ((3, 2, 5, 6), (1, 2, 3, 3)),
             ((3, 2, 4, 5), (3, 2, 5, 5)), ((3, 2, 2, 3), (3, 2, 5, 5)),
             ((1, 2, 4, 5), (4, 2, 1, 1)), ((3, 2, 4, 5), (4, 2, 1, 1)),
             (LONG_X, LONG_K)]
    with T.float64():
        for x_shape, k_shape in cases:
            x0, k0, bias0 = rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0])
            w = rng.normal(size=(x_shape[0], k_shape[0]) + x_shape[2:])
            results = []
            for conv in (T.conv2d, decomposed_conv2d):
                x, k, bias = (T.Tensor(a, requires_grad=True) for a in (x0, k0, bias0))
                y = conv(x, k, bias)
                if conv is T.conv2d:
                    assert y.node.op == "conv2d" and y.node.inputs == (x, k, bias)
                T.backward(T.tsum(T.mul(y, T.Tensor(w))))
                results.append([y.data, x.grad, k.grad, bias.grad])
            for fused, ref in zip(*results):
                assert fused.shape == ref.shape
                assert np.allclose(fused, ref, rtol=1e-12, atol=1e-12)


def test_conv2d_float32_kernel_gradient_over_long_grid_matches_float64():
    n, *_, hp, wp, _ = T._conv_grid(LONG_X, LONG_K, "conv2d")
    length = n * hp * wp
    rng = np.random.default_rng(14)
    x0, k0 = rng.normal(size=LONG_X), rng.normal(size=LONG_K)
    # scaled so that k.grad is O(1), like the outputs the float32 tolerances of
    # test_conv2d_matches_loop_oracle are set for
    w = rng.normal(size=(LONG_X[0], LONG_K[0]) + LONG_X[2:]) / np.sqrt(length)
    grads = []
    for mode in (T.float64, contextlib.nullcontext):
        with mode():
            x, k = T.Tensor(x0, requires_grad=True), T.Tensor(k0, requires_grad=True)
            T.backward(T.tsum(T.mul(T.conv2d(x, k, T.Tensor(np.zeros(LONG_K[0]))), T.Tensor(w))))
            grads.append(k.grad)
    want, got = grads
    assert want.dtype == np.float64 and got.dtype == np.float32
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


def test_conv_tape_keeps_no_patch_matrix():
    # bytes a recorded conv allocates and holds until backward, and the most
    # it has allocated at once during the forward and during the backward,
    # against one (c*kh*kw, n*ho*wo) patch matrix of the input
    rng = np.random.default_rng(13)
    x = T.Tensor(rng.normal(size=(8, 40, 16, 16)), requires_grad=True)
    patch_bytes = 40 * 9 * 8 * 16 * 16 * x.data.itemsize
    for k_trainable in (False, True):
        k = T.Tensor(rng.normal(size=(16, 40, 3, 3)), requires_grad=k_trainable)
        b = T.Tensor(np.zeros(16))
        loss_weight = T.Tensor(rng.normal(size=(8, 16, 16, 16)))
        x.grad = None
        tracemalloc.start()
        try:
            y = T.conv2d(x, k, b)
            held, peak = tracemalloc.get_traced_memory()
            assert y.node is not None
            loss = T.tsum(T.mul(y, loss_weight))
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            T.backward(loss)
            _, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < patch_bytes, (k_trainable, held, patch_bytes)
        assert peak < patch_bytes, (k_trainable, peak, patch_bytes)
        assert x.grad is not None and (k.grad is not None) == k_trainable
        assert backward_peak - before < patch_bytes, (k_trainable, backward_peak - before, patch_bytes)


def conv_results(conv, x0, k0, bias0, w, x20=None):
    """Output and x, k, bias and x2 gradients of sum(conv(x, k, bias, x2) * w),
    where x2 is conv2d's second input or upsample_conv2d's skip."""
    x, k, bias = (T.Tensor(a, requires_grad=True) for a in (x0, k0, bias0))
    x2 = None if x20 is None else T.Tensor(x20, requires_grad=True)
    y = conv(x, k, bias, x2)
    T.backward(T.tsum(T.mul(y, T.Tensor(w))))
    return [y.data, x.grad, k.grad, bias.grad] + ([] if x2 is None else [x2.grad])


def composed_conv2d(x, k, bias, x2):
    """conv2d's reference for a second input: x2 concatenated after x by a
    tape node of its own, then conv2d."""
    return T.conv2d(T.concat_channels(x, x2), k, bias)


def conv2d_case(rng, x_shape, x2_shape, k_shape):
    """Random x, k, bias, loss weights and x2 for conv2d."""
    n, _, h, w = x_shape
    co = k_shape[0]
    x0, k0 = rng.normal(size=x_shape), rng.normal(size=k_shape)
    bias0 = rng.normal(size=co)
    w0 = rng.normal(size=(n, co, h, w))
    return x0, k0, bias0, w0, rng.normal(size=x2_shape)


# (x, x2, kernel): a batch x2 beside x on one grid, with 3x3, 5x5 and 1x1
# kernels and one channel on either side, as at den.conv_in (and at
# ctrl.zero.conv, whose x2 is the tiled prompt); batches of one and of three;
# and last an x2 on LONG_X's grid, whose kernel gradient runs over a long grid
CONV2D_X2_CASES = [((1, 2, 5, 6), (1, 3, 5, 6), (3, 5, 3, 3)),
                   ((3, 2, 5, 6), (3, 1, 5, 6), (3, 3, 3, 3)),
                   ((3, 1, 4, 5), (3, 2, 4, 5), (4, 3, 5, 5)),
                   ((3, 2, 4, 5), (3, 2, 4, 5), (1, 4, 1, 1)),
                   ((5, 24, 18, 18), (5, 16, 18, 18), LONG_K)]


def test_conv2d_second_input_matches_composed_tape():
    rng = np.random.default_rng(19)
    with T.float64():
        for x_shape, x2_shape, k_shape in CONV2D_X2_CASES:
            case = conv2d_case(rng, x_shape, x2_shape, k_shape)
            fused = conv_results(T.conv2d, *case)
            ref = conv_results(composed_conv2d, *case)
            assert len(fused) == len(ref) == 5
            for got, want in zip(fused, ref):
                assert got.shape == want.shape, (x_shape, x2_shape, k_shape)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (x_shape, x2_shape, k_shape)
        # one node, with x2 as its fourth input
        x0, k0, bias0, _, x20 = case
        x, k, bias, x2 = (T.Tensor(a, requires_grad=True) for a in (x0, k0, bias0, x20))
        y = T.conv2d(x, k, bias, x2)
        assert y.node.op == "conv2d" and y.node.inputs == (x, k, bias, x2)


def test_conv2d_second_input_float32_matches_float64():
    rng = np.random.default_rng(20)
    for x_shape, x2_shape, k_shape in CONV2D_X2_CASES[:-1]:
        case = conv2d_case(rng, x_shape, x2_shape, k_shape)
        got = conv_results(T.conv2d, *case)
        with T.float64():
            want = conv_results(T.conv2d, *case)
        for a, b in zip(got, want):
            assert a.dtype == np.float32 and b.dtype == np.float64
            assert np.allclose(a, b, rtol=1e-5, atol=1e-5), (x_shape, x2_shape, k_shape)


def test_conv2d_second_input_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    x, k3, k1 = (T.Tensor(rng.normal(size=s)) for s in ((2, 2, 3, 4), (3, 5, 3, 3), (3, 5, 1, 1)))
    x2, bias = (T.Tensor(rng.normal(size=s)) for s in ((2, 3, 3, 4), (3,)))
    tgt = T.Tensor(rng.normal(size=(2, 3, 3, 4)))

    def loss(*args):
        return T.mse(T.silu(T.conv2d(*args)), tgt)

    assert grad_error(lambda a: loss(x, k3, bias, a), x2) < 1e-6
    assert grad_error(lambda a: loss(x, k1, bias, a), x2) < 1e-6
    assert grad_error(lambda a: loss(x, a, bias, x2), k1) < 1e-6


def upsample_then_conv2d(x, k, bias, skip=None):
    """upsample_conv2d's reference: the upsampled copy, the concat with the
    skip when there is one, then conv2d, each a tape node."""
    up = T.upsample2(x)
    return T.conv2d(up if skip is None else T.concat_channels(up, skip), k, bias)


def upsample_conv_case(rng, x_shape, skip_shape, k_shape):
    """Random x, k, bias, loss weights and skip (or None) for upsample_conv2d."""
    n, _, h, w = x_shape
    x0, k0, bias0 = rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0])
    w0 = rng.normal(size=(n, k_shape[0], 2 * h, 2 * w))
    return x0, k0, bias0, w0, None if skip_shape is None else rng.normal(size=skip_shape)


# a skip (n, cs, 2h, 2w) for x (n, 2, h, w) = (5, 2, 9, 9) on LONG_X's grid, so
# that its part of the kernel gradient runs over a long grid
LONG_SKIP_X, LONG_SKIP_K = (5, 2, 9, 9), (16, 42, 3, 3)


def test_upsample_conv2d_matches_composed_tape():
    rng = np.random.default_rng(15)
    # batches of one and of three, one input channel, one output channel,
    # 3x3, 5x5 and 1x1 kernels, odd and non-square inputs, a 5x5 kernel wider
    # than the 2x2 upsampled input, one channel with a 1x1 kernel (one tap
    # per phase), and a kernel gradient over a long grid; then the same with a
    # skip, whose channels follow x's in the kernel, one of them a single channel
    cases = [((1, 2, 5, 6), None, (3, 2, 3, 3)), ((3, 2, 5, 6), None, (3, 2, 3, 3)),
             ((3, 1, 5, 6), None, (3, 1, 3, 3)), ((3, 2, 5, 6), None, (1, 2, 3, 3)),
             ((3, 2, 3, 4), None, (3, 2, 5, 5)), ((3, 2, 1, 1), None, (3, 2, 5, 5)),
             ((1, 2, 4, 5), None, (4, 2, 1, 1)), ((3, 2, 3, 4), None, (4, 2, 1, 1)),
             ((3, 1, 3, 4), None, (1, 1, 1, 1)), (LONG_X, None, LONG_K),
             ((1, 2, 5, 6), (1, 3, 10, 12), (3, 5, 3, 3)), ((3, 2, 5, 6), (3, 1, 10, 12), (3, 3, 3, 3)),
             ((3, 1, 5, 6), (3, 2, 10, 12), (1, 3, 3, 3)), ((3, 2, 3, 4), (3, 2, 6, 8), (3, 4, 5, 5)),
             ((3, 2, 1, 1), (3, 2, 2, 2), (3, 4, 5, 5)), ((3, 2, 3, 4), (3, 1, 6, 8), (4, 3, 1, 1)),
             (LONG_SKIP_X, LONG_X, LONG_SKIP_K)]
    with T.float64():
        for x_shape, skip_shape, k_shape in cases:
            x0, k0, bias0, w, skip0 = upsample_conv_case(rng, x_shape, skip_shape, k_shape)
            fused = conv_results(T.upsample_conv2d, x0, k0, bias0, w, skip0)
            ref = conv_results(upsample_then_conv2d, x0, k0, bias0, w, skip0)
            assert len(fused) == len(ref) == (4 if skip0 is None else 5)
            for got, want in zip(fused, ref):
                assert got.shape == want.shape, (x_shape, skip_shape, k_shape)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (x_shape, skip_shape, k_shape)
        x, k, bias, skip = (T.Tensor(a, requires_grad=True) for a in (x0, k0, bias0, skip0))
        y = T.upsample_conv2d(x, k, bias, skip)
        assert y.node.op == "upsample_conv2d" and y.node.inputs == (x, k, bias, skip)
        y = T.upsample_conv2d(x, T.Tensor(k0[:, : x.shape[1]], requires_grad=True), bias)
        assert len(y.node.inputs) == 3


def test_upsample_conv2d_float32_matches_float64():
    rng = np.random.default_rng(16)
    for x_shape, skip_shape, k_shape in [((3, 2, 5, 6), None, (3, 2, 3, 3)), ((3, 1, 5, 6), None, (4, 1, 3, 3)),
                                         ((2, 3, 3, 4), None, (2, 3, 5, 5)), ((3, 2, 3, 4), None, (1, 2, 1, 1)),
                                         ((3, 2, 5, 6), (3, 3, 10, 12), (3, 5, 3, 3)),
                                         ((2, 3, 3, 4), (2, 1, 6, 8), (2, 4, 5, 5))]:
        x0, k0, bias0, w, skip0 = upsample_conv_case(rng, x_shape, skip_shape, k_shape)
        got = conv_results(T.upsample_conv2d, x0, k0, bias0, w, skip0)
        with T.float64():
            want = conv_results(T.upsample_conv2d, x0, k0, bias0, w, skip0)
        for a, b in zip(got, want):
            assert a.dtype == np.float32 and b.dtype == np.float64
            assert np.allclose(a, b, rtol=1e-5, atol=1e-5), (x_shape, skip_shape, k_shape)


def test_upsample_conv2d_float32_gradients_over_long_grid_match_float64():
    # den.up's channel counts, 24 upsampled and 16 skip channels into 16, on
    # grids as long as LONG_X's: x's own without a skip, the skip's with one.
    # The input and bias gradients sum over every phase of the output
    # gradient's grid, and the kernel gradient over every column of a grid.
    rng = np.random.default_rng(22)
    for x_shape, skip_shape, k_shape in [((5, 24, 18, 18), None, (16, 24, 3, 3)),
                                         ((5, 24, 9, 9), (5, 16, 18, 18), (16, 40, 3, 3))]:
        x0, k0, bias0, w, skip0 = upsample_conv_case(rng, x_shape, skip_shape, k_shape)
        # scaled so that k.grad is O(1), as in the long-grid conv2d test
        w /= np.sqrt(w[:, 0].size)
        got = conv_results(T.upsample_conv2d, x0, k0, bias0, w, skip0)
        with T.float64():
            want = conv_results(T.upsample_conv2d, x0, k0, bias0, w, skip0)
        assert len(got) == (4 if skip0 is None else 5)
        for a, b in zip(got, want):
            assert a.dtype == np.float32 and b.dtype == np.float64
            assert np.allclose(a, b, rtol=1e-5, atol=1e-5), (x_shape, skip_shape)


def test_upsample_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    x, k, bias = (T.Tensor(rng.normal(size=s)) for s in ((2, 2, 3, 4), (3, 2, 3, 3), (3,)))
    tgt = T.Tensor(rng.normal(size=(2, 3, 6, 8)))
    assert grad_error(lambda v: T.mse(T.silu(T.upsample_conv2d(v, k, bias)), tgt), x) < 1e-6
    assert grad_error(lambda v: T.mse(T.silu(T.upsample_conv2d(x, v, bias)), tgt), k) < 1e-6
    assert grad_error(lambda v: T.mse(T.silu(T.upsample_conv2d(x, k, v)), tgt), bias) < 1e-6
    # with a skip of 2 channels
    skip, ks = T.Tensor(rng.normal(size=(2, 2, 6, 8))), T.Tensor(rng.normal(size=(3, 4, 3, 3)))
    assert grad_error(lambda v: T.mse(T.silu(T.upsample_conv2d(v, ks, bias, skip)), tgt), x) < 1e-6
    assert grad_error(lambda v: T.mse(T.silu(T.upsample_conv2d(x, v, bias, skip)), tgt), ks) < 1e-6
    assert grad_error(lambda v: T.mse(T.silu(T.upsample_conv2d(x, ks, v, skip)), tgt), bias) < 1e-6
    assert grad_error(lambda v: T.mse(T.silu(T.upsample_conv2d(x, ks, bias, v)), tgt), skip) < 1e-6


def test_upsample_conv_tape_keeps_no_upsampled_copy():
    # bytes a recorded node allocates and holds until backward, besides its
    # output: the composed path holds the 4x upsampled copy of x, and with a
    # skip also the concat of that copy and the skip
    rng = np.random.default_rng(18)
    x = T.Tensor(rng.normal(size=(8, 12, 16, 16)), requires_grad=True)
    b = T.Tensor(np.zeros(12), requires_grad=True)
    for skip in (None, T.Tensor(rng.normal(size=(8, 6, 32, 32)), requires_grad=True)):
        cs = 0 if skip is None else skip.shape[1]
        k = T.Tensor(rng.normal(size=(12, 12 + cs, 3, 3)), requires_grad=True)
        extra = {}
        for conv in (T.upsample_conv2d, upsample_then_conv2d):
            tracemalloc.start()
            try:
                y = conv(x, k, b, skip)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert y.node is not None
            extra[conv] = held - y.data.nbytes
        copies = 4 * x.data.nbytes + (0 if skip is None else 4 * x.data.nbytes + skip.data.nbytes)
        assert extra[T.upsample_conv2d] < x.data.nbytes, extra
        assert extra[upsample_then_conv2d] >= copies, extra


# A LoRA fine-tune loop: default config, batch 8, rank-4 adapters on the default
# targets, AdamW. Prints the minor page faults per step after warm-up.
_FINE_TUNE_FAULTS = """
import resource
import numpy as np
from ldrestore import diffusion, lora, network, optim
from ldrestore import tensor as T

cfg, n = network.NetConfig(), 8
params = network.init_params(cfg, 0)
for _, t in params.items():
    t.requires_grad = False
adapters = lora.attach(params, lora.LoraConfig(rank=4), 0)
opt = optim.AdamW([(a.target + s, getattr(a, s)) for a in adapters for s in "AB"], lr=1e-3)
sched = diffusion.make_schedule(1000, 1e-4, 0.02)
rng = np.random.default_rng(0)
x, y = rng.uniform(size=(2, n, cfg.channels, cfg.image_size, cfg.image_size))
prompts = [["disks", "high-quality"]] * n

def step():
    t = rng.integers(0, sched.T, size=n)
    eps = T.Tensor(rng.standard_normal((n, cfg.c_lat, cfg.latent_size, cfg.latent_size)))
    z0 = network.encode(T.Tensor(x), params)
    pemb = network.prompt_embedding_batch(params, prompts)
    z_lq = network.control_features(network.encode(T.Tensor(y), params, adapters), pemb, params, adapters)
    z_t = diffusion.forward_diffuse_batch(z0, t, eps, sched)
    eps_hat = network.denoise(z_t, t, network.ConditioningBundle(z_lq, prompts, pemb), params, adapters)
    loss = T.add(T.mse(eps, eps_hat), lora.reg_loss(adapters, 1e-4))
    lora.zero_adapter_grads(adapters)
    T.backward(loss)
    opt.step()

for _ in range(10):
    step()
steps = 30
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(steps):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are set under glibc only")
def test_fine_tune_steps_keep_freed_memory_mapped():
    # with glibc's self-adjusting thresholds a step's freed tape goes back to
    # the OS and the next step faults it back in: about 1250 minor faults per
    # step without tensor._keep_heap_mapped (glibc 2.36, x86-64)
    src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _FINE_TUNE_FAULTS], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 20


def test_gradient_accumulates_over_reused_input():
    # x used twice: loss = sum(x*x) + sum(x), dloss/dx = 2x + 1
    x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    loss = T.add(T.tsum(T.mul(x, x)), T.tsum(x))
    T.backward(loss)
    assert np.allclose(x.grad, 2.0 * x.data + 1.0)


def test_backward_twice_accumulates_additively():
    x = T.Tensor([2.0], requires_grad=True)
    for _ in range(2):
        T.backward(T.tsum(T.mul(x, x)))
    assert np.allclose(x.grad, [8.0])  # 2 * (2x)


def probed_silu_loss(x, probe):
    """tsum(silu(p)), where p passes x through in a node whose backward calls
    probe() first. Returns the loss and a weakref to silu's output array, so
    that no strong reference to an intermediate escapes."""

    def through(g):
        probe()
        return g

    h = T.silu(T._make(x.data.copy(), "probe", (x,), (through,)))
    return T.tsum(h), weakref.ref(h.data)


def test_backward_frees_each_intermediate_before_the_node_below_runs():
    x = T.Tensor(np.linspace(-2.0, 2.0, 12).reshape(3, 4), requires_grad=True)
    seen = []
    loss, h_data = probed_silu_loss(x, lambda: seen.append(h_data()))
    assert h_data() is not None  # the tape holds it until backward
    T.backward(loss)
    assert seen == [None] and h_data() is None
    assert loss.data.shape == () and x.grad is not None and x.node is None


def test_backward_refuses_a_released_tape():
    x = T.Tensor(np.linspace(-2.0, 2.0, 12).reshape(3, 4), requires_grad=True)
    h = T.silu(x)
    loss = T.tsum(h)
    T.backward(loss)
    gx = x.grad.copy()
    with pytest.raises(ContractViolation, match="released"):
        T.backward(loss)
    # a new graph on the released h, with a leaf that would take a gradient
    # first: nothing is written
    v = T.Tensor(np.ones((3, 4)), requires_grad=True)
    with pytest.raises(ContractViolation, match="released"):
        T.backward(T.add(T.tsum(T.mul(v, v)), T.tsum(h)))
    assert np.array_equal(x.grad, gx) and v.grad is None
    # the released tensor keeps its values, and the leaf x starts a new graph
    assert np.array_equal(h.data, T.silu(T.Tensor(x.data)).data)
    T.backward(T.tsum(x))
    assert np.array_equal(x.grad, gx + 1.0)


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractViolation):
        T.backward(T.mul(x, x))


def test_elementwise_and_activations_numeric():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(3, 4)) + 0.3  # keep clear of relu kink

    cases = {
        "relu": (T.relu, lambda v: np.sum(np.maximum(v, 0.0))),
        "silu": (T.silu, lambda v: np.sum(v / (1 + np.exp(-v)))),
        "sigmoid": (T.sigmoid, lambda v: np.sum(1 / (1 + np.exp(-v)))),
    }
    for name, (op, ref) in cases.items():
        x = T.Tensor(x0, requires_grad=True)
        T.backward(T.tsum(op(x)))
        ng = numeric_grad(ref, x0)
        assert np.allclose(x.grad, ng, atol=1e-6), name


def test_sigmoid_and_silu_stable_at_extremes():
    with T.float64():
        x0 = np.array([-1000.0, -40.0, -1.0, 0.0, 2.5, 40.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for op in (T.sigmoid, T.silu):
                x = T.Tensor(x0, requires_grad=True)
                y = op(x)
                T.backward(T.tsum(y))
                assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(x.grad))
        assert T.sigmoid(T.Tensor(x0)).data[[0, -1]].tolist() == [0.0, 1.0]
        assert T.silu(T.Tensor(x0)).data[[0, -1]].tolist() == [0.0, 1000.0]

        # where 1 / (1 + exp(-x)) does not overflow, values and gradients agree with it
        v = np.linspace(-30.0, 30.0, 241)
        s = 1.0 / (1.0 + np.exp(-v))
        for op, want, dwant in ((T.sigmoid, s, s * (1 - s)), (T.silu, v * s, s * (1 + v * (1 - s)))):
            x = T.Tensor(v, requires_grad=True)
            y = op(x)
            T.backward(T.tsum(y))
            assert np.allclose(y.data, want, rtol=1e-14, atol=1e-300)
            assert np.allclose(x.grad, dwant, rtol=1e-13, atol=1e-300)
    # float32, the default compute dtype: the same checks at float32 rounding
    # (1 - s rounds to 0 near s = 1, hence the absolute term)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (T.sigmoid, T.silu):
            x = T.Tensor(x0, requires_grad=True)
            y = op(x)
            T.backward(T.tsum(y))
            assert y.data.dtype == x.grad.dtype == np.float32
            assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(x.grad))
    assert T.sigmoid(T.Tensor(x0)).data[[0, -1]].tolist() == [0.0, 1.0]
    assert T.silu(T.Tensor(x0)).data[[0, -1]].tolist() == [0.0, 1000.0]
    for op, want, dwant in ((T.sigmoid, s, s * (1 - s)), (T.silu, v * s, s * (1 + v * (1 - s)))):
        x = T.Tensor(v, requires_grad=True)
        y = op(x)
        T.backward(T.tsum(y))
        assert np.allclose(y.data, want, rtol=1e-5, atol=1e-6)
        assert np.allclose(x.grad, dwant, rtol=1e-5, atol=1e-6)


def test_sigmoid_and_silu_float32_precision_over_the_finite_range():
    # float32 on a dense grid, against 1 / (1 + exp(-x)) in float64; at the
    # low end the sigmoid is near the smallest normal float32
    x = np.linspace(-87.0, 88.0, 200_001, dtype=np.float32)
    s = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    before = np.geterr()
    for op, want in ((T.sigmoid, s), (T.silu, x * s)):
        y = op(T.Tensor(x)).data
        assert np.geterr() == before
        assert y.dtype == np.float32
        assert np.allclose(y, want, rtol=4e-7, atol=0)


def test_sigmoid_and_silu_outputs_have_no_subnormals():
    # float32 exp(x) is subnormal for x in about [-103, -87]; a GEMM over such
    # values is slow, so they are flushed to zero
    x = T.Tensor(np.linspace(-110.0, -80.0, 301))
    for op in (T.sigmoid, T.silu):
        y = np.abs(op(x).data)
        assert y.dtype == np.float32
        assert not np.any((y > 0) & (y < np.finfo(np.float32).tiny))
        assert np.all(y[x.data > -87.0] > 0)


def saved_logistic_silu_grad(x, g):
    """silu's gradient from a kept logistic s, in the operation order of a node
    that saves s: g * s * (1 + x * (1 - s))."""
    s = T._logistic(x)
    d = 1.0 - s
    d *= x
    d += 1.0
    d *= s
    d *= g
    return d


def test_silu_keeps_only_its_input_and_recomputes_its_gradient_bit_for_bit():
    # the recorded node holds its output and nothing more (a kept logistic
    # doubled that), and its backward forms the logistic again from x with the
    # same bits: float32 flushes it to zero below about x = -87
    rng = np.random.default_rng(17)
    for mode in (contextlib.nullcontext, T.float64):
        with mode():
            x = T.Tensor(np.linspace(-100.0, 100.0, 100_001), requires_grad=True)
            g = T.Tensor(rng.normal(size=x.shape)).data
            tracemalloc.start()
            try:
                y = T.silu(x)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held < 1.1 * y.data.nbytes, (held, y.data.nbytes)
            (gx,) = y.node.backward(g)
            assert gx.dtype == x.data.dtype
            assert np.array_equal(gx, saved_logistic_silu_grad(x.data, g))


def test_mse_keeps_no_difference_on_the_tape():
    rng = np.random.default_rng(18)
    a = T.Tensor(rng.normal(size=(64, 1024)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(64, 1024)))
    tracemalloc.start()
    try:
        loss = T.mse(a, b)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 0.1 * a.data.nbytes, (held, a.data.nbytes)
    T.backward(loss)
    assert np.array_equal(a.grad, 2.0 / a.data.size * (a.data - b.data))


def test_backward_returns_none_for_inputs_without_gradient():
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 2)))
    g = rng.normal(size=(3, 2))
    gx, gw = T.matmul(x, w).node.backward(g)
    assert gw is None and np.allclose(gx, g @ w.data.T)
    gw, gx = T.matmul(T.Tensor(w.data.T), T.Tensor(x.data.T, requires_grad=True)).node.backward(g.T)
    assert gw is None and np.allclose(gx, w.data @ g.T)
    gx, gw = T.linear(x, T.Tensor(w.data.T)).node.backward(g)
    assert gw is None and np.allclose(gx, g @ w.data.T)

    fm = rng.normal(size=(1, 2, 3, 4))
    fm_req = T.Tensor(fm, requires_grad=True)
    gm = rng.normal(size=(1, 2, 3, 4))
    gx, gb = T.channel_bias(fm_req, T.Tensor(np.zeros((1, 2)))).node.backward(gm)
    assert gb is None and np.array_equal(gx, gm)
    ga, gb = T.concat_channels(fm_req, T.Tensor(fm)).node.backward(np.concatenate([gm, gm], axis=1))
    assert gb is None and np.array_equal(ga, gm)
    ga, gb = T.mul(fm_req, T.Tensor(fm)).node.backward(gm)
    assert gb is None and np.allclose(ga, gm * fm)
    gx, gs = T.row_scale(fm_req, T.Tensor(np.ones(1))).node.backward(gm)
    assert gs is None and np.allclose(gx, gm)

    # conv2d: a frozen kernel and bias get no gradient, x does
    xc = T.Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
    kc = T.Tensor(rng.normal(size=(4, 3, 3, 3)))
    bc = T.Tensor(rng.normal(size=4))
    y = T.conv2d(xc, kc, bc)
    gx, gk, gb = y.node.backward(rng.normal(size=y.shape))
    assert gk is None and gb is None and gx.shape == xc.shape
    # upsample_conv2d likewise, and a frozen input with a trainable kernel
    y = T.upsample_conv2d(xc, kc, bc)
    gx, gk, gb = y.node.backward(rng.normal(size=y.shape))
    assert gk is None and gb is None and gx.shape == xc.shape
    y = T.upsample_conv2d(T.Tensor(xc.data), T.Tensor(kc.data, requires_grad=True), bc)
    gx, gk, gb = y.node.backward(rng.normal(size=y.shape))
    assert gx is None and gb is None and gk.shape == kc.shape
    # with a skip: a frozen skip gets None, and a frozen x beside a trainable skip
    sc = rng.normal(size=(2, 2, 10, 10))
    ks = T.Tensor(rng.normal(size=(4, 5, 3, 3)))
    y = T.upsample_conv2d(xc, ks, bc, T.Tensor(sc))
    gx, gk, gb, gs = y.node.backward(rng.normal(size=y.shape))
    assert gk is None and gb is None and gs is None and gx.shape == xc.shape
    y = T.upsample_conv2d(T.Tensor(xc.data), ks, bc, T.Tensor(sc, requires_grad=True))
    gx, gk, gb, gs = y.node.backward(rng.normal(size=y.shape))
    assert gx is None and gk is None and gb is None and gs.shape == sc.shape
    # conv2d's x2: a frozen x2 and k get None; a frozen x beside a trainable x2
    # likewise, and a trainable bias gets its (co,) gradient
    x2c = rng.normal(size=(2, 2, 5, 5))
    k1 = T.Tensor(rng.normal(size=(4, 5, 1, 1)))
    for kernel in (ks, k1):
        y = T.conv2d(xc, kernel, bc, T.Tensor(x2c))
        gx, gk, gb, g2 = y.node.backward(rng.normal(size=y.shape))
        assert gk is None and gb is None and g2 is None and gx.shape == xc.shape
        bt = T.Tensor(bc.data, requires_grad=True)
        y = T.conv2d(T.Tensor(xc.data), kernel, bt, T.Tensor(x2c, requires_grad=True))
        gx, gk, gb, g2 = y.node.backward(rng.normal(size=y.shape))
        assert gx is None and gk is None and gb.shape == (4,) and g2.shape == x2c.shape
    # a conv site with an adapter: the adapted kernel gets a gradient, which reaches
    # A and B, while the frozen kernel and bias keep .grad None
    A = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    B = T.Tensor(rng.normal(size=(2, 27)), requires_grad=True)
    params = network.NetParams(network.NetConfig(), {"s.w": kc, "s.b": bc})
    y = network._conv(xc, params, "s", [LoraAdapter("s.w", A, B)])
    gx, gk, gb = y.node.backward(rng.normal(size=y.shape))
    assert gb is None and gx.shape == xc.shape and gk.shape == kc.shape
    T.backward(T.tsum(y))
    assert kc.grad is None and bc.grad is None
    assert xc.grad is not None and A.grad is not None and B.grad is not None


def test_conv2d_input_gradient_computes_only_the_rows_of_inputs_that_need_one(monkeypatch):
    # den.conv_in's x and x2 share one grid; the transposed conv's product runs
    # over the input channels of the inputs that take a gradient, c, c2 or both
    rng = np.random.default_rng(19)
    tap_matmul = T._tap_matmul
    rows = []

    def recording(mt, *args):
        rows.append(mt.shape[1])
        return tap_matmul(mt, *args)

    with T.float64():
        x, x2 = rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(2, 2, 5, 5))
        k = T.Tensor(rng.normal(size=(4, 5, 3, 3)))
        b = T.Tensor(rng.normal(size=4))
        g = rng.normal(size=(2, 4, 5, 5))
        grads = {}
        for need, want_rows in [((True, True), 5), ((False, True), 2), ((True, False), 3)]:
            y = T.conv2d(T.Tensor(x, requires_grad=need[0]), k, b, T.Tensor(x2, requires_grad=need[1]))
            rows.clear()
            with monkeypatch.context() as m:
                m.setattr(T, "_tap_matmul", recording)
                gx, gk, gb, g2 = y.node.backward(g)
            assert rows == [want_rows], (need, rows)
            assert gk is None and gb is None
            assert (gx is not None, g2 is not None) == need
            grads[need] = gx, g2
    both = grads[True, True]
    assert np.allclose(grads[True, False][0], both[0], rtol=1e-12, atol=0)
    assert np.allclose(grads[False, True][1], both[1], rtol=1e-12, atol=0)


def test_mse_value_and_gradient():
    a0 = np.array([1.0, 2.0, 3.0])
    b0 = np.array([1.5, 1.0, 3.0])
    a = T.Tensor(a0, requires_grad=True)
    b = T.Tensor(b0, requires_grad=True)
    loss = T.mse(a, b)
    assert np.isclose(loss.item(), np.mean((a0 - b0) ** 2))
    T.backward(loss)
    assert np.allclose(a.grad, 2 * (a0 - b0) / 3)
    assert np.allclose(b.grad, -2 * (a0 - b0) / 3)


def test_frobenius_norm_sq():
    w0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    w = T.Tensor(w0, requires_grad=True)
    loss = T.frobenius_norm_sq(w)
    assert np.isclose(loss.item(), np.sum(w0 * w0))
    T.backward(loss)
    assert np.allclose(w.grad, 2 * w0)
    with pytest.raises(ContractViolation, match="at least one"):
        T.frobenius_norm_sq()


def test_reshape_and_concat_gradients():
    rng = np.random.default_rng(6)
    a0 = rng.normal(size=(1, 2, 3, 3))
    b0 = rng.normal(size=(1, 1, 3, 3))
    wa = rng.normal(size=(1, 3, 3, 3))

    a = T.Tensor(a0, requires_grad=True)
    b = T.Tensor(b0, requires_grad=True)
    y = T.concat_channels(a, b)
    assert y.shape == (1, 3, 3, 3)
    T.backward(T.tsum(T.mul(y, T.Tensor(wa))))
    assert np.allclose(a.grad, wa[:, :2])
    assert np.allclose(b.grad, wa[:, 2:])

    x = T.Tensor(a0, requires_grad=True)
    T.backward(T.tsum(T.mul(T.reshape(x, (3, 6)), T.Tensor(np.arange(18.0).reshape(3, 6)))))
    assert np.allclose(x.grad, np.arange(18.0).reshape(1, 2, 3, 3))


def test_channel_bias_and_broadcast_spatial():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(1, 2, 3, 3))
    b0 = rng.normal(size=2)
    w = rng.normal(size=(1, 2, 3, 3))

    x = T.Tensor(x0, requires_grad=True)
    b = T.Tensor(b0.reshape(1, 2), requires_grad=True)
    y = T.channel_bias(x, b)
    assert np.allclose(y.data, x0 + b0[None, :, None, None])
    T.backward(T.tsum(T.mul(y, T.Tensor(w))))
    assert np.allclose(x.grad, w)
    assert np.allclose(b.grad, w.sum(axis=(2, 3)))
    # each item of a batch gets its own row
    x2, b2 = rng.normal(size=(2, 2, 3, 3)), rng.normal(size=(2, 2))
    assert np.allclose(T.channel_bias(T.Tensor(x2), T.Tensor(b2)).data, x2 + b2[:, :, None, None])
    # a bias shared by all items, (c,), is not a per-item row
    with pytest.raises(DimensionError) as e:
        T.channel_bias(T.Tensor(x2), T.Tensor(b0))
    assert "(2,)" in str(e.value)

    v = T.Tensor(b0.reshape(1, 2), requires_grad=True)
    y = T.broadcast_spatial(v, 3, 3)
    assert np.allclose(y.data, np.broadcast_to(b0[None, :, None, None], (1, 2, 3, 3)))
    T.backward(T.tsum(T.mul(y, T.Tensor(w))))
    assert np.allclose(v.grad, w.sum(axis=(2, 3)))


def test_reshape_rejects_negative_dimensions():
    # both products equal the element count, 6
    a = T.Tensor(np.arange(6.0))
    for shape in ((-2, -3), (-1, -6)):
        with pytest.raises(DimensionError, match="negative dimension"):
            T.reshape(a, shape)


def test_reshape_of_a_zero_size_tensor_raises_only_dimension_error():
    # the element count is taken on Python ints, where np.prod wraps
    # (2**32, 2**32) to 0; numpy's own refusal of a zero-size shape whose other
    # dimensions overflow is raised as DimensionError too
    empty = T.Tensor(np.zeros(0))
    for shape in ((0, 2**40, 2**40), (2**32, 2**32), (2**62, 4, 0)):
        with pytest.raises(DimensionError) as e:
            T.reshape(empty, shape)
        assert "reshape" in str(e.value) and "(0,)" in str(e.value), shape
    assert T.reshape(empty, (3, 0)).shape == (3, 0)


def test_row_scale_gradients():
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(3, 2, 2, 2))
    s0 = rng.normal(size=3)
    w = rng.normal(size=x0.shape)

    x = T.Tensor(x0, requires_grad=True)
    s = T.Tensor(s0, requires_grad=True)
    T.backward(T.tsum(T.mul(T.row_scale(x, s), T.Tensor(w))))
    assert np.allclose(x.grad, w * s0[:, None, None, None])
    assert np.allclose(s.grad, (w * x0).sum(axis=(1, 2, 3)))

    # a 1-D x: each element is its own slice, and the sum over no axes is the identity
    x1 = T.Tensor(x0[:, 0, 0, 0], requires_grad=True)
    s1 = T.Tensor(s0, requires_grad=True)
    T.backward(T.tsum(T.mul(T.row_scale(x1, s1), T.Tensor(w[:, 0, 0, 0]))))
    assert np.allclose(x1.grad, w[:, 0, 0, 0] * s0)
    assert np.allclose(s1.grad, w[:, 0, 0, 0] * x0[:, 0, 0, 0])


def test_embedding_lookup_scatter_adds():
    tab = T.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    y = T.embedding_lookup(tab, [1, 1, 3])
    assert np.allclose(y.data, [[3, 4, 5], [3, 4, 5], [9, 10, 11]])
    T.backward(T.tsum(y))
    expect = np.zeros((4, 3))
    expect[1] = 2.0
    expect[3] = 1.0
    assert np.allclose(tab.grad, expect)


def test_pool_and_upsample():
    x0 = np.arange(16.0).reshape(1, 1, 4, 4)
    y = T.avg_pool2(T.Tensor(x0))
    assert np.allclose(y.data, [[[[2.5, 4.5], [10.5, 12.5]]]])

    x = T.Tensor(x0, requires_grad=True)
    w = np.arange(4.0).reshape(1, 1, 2, 2)
    T.backward(T.tsum(T.mul(T.avg_pool2(x), T.Tensor(w))))
    assert np.allclose(x.grad, np.repeat(np.repeat(w, 2, axis=2), 2, axis=3) * 0.25)

    u = T.upsample2(T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    assert np.allclose(u.data, [[[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]]])

    v = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
    T.backward(T.tsum(T.upsample2(v)))
    assert np.allclose(v.grad, np.full((1, 1, 2, 2), 4.0))


def test_linearity_of_linear_ops():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(1, 2, 6, 6))
    k, zero = T.Tensor(rng.normal(size=(3, 2, 3, 3))), T.Tensor(np.zeros(3))
    for alpha in (-2.0, 0.5, 3.0):
        ya = T.conv2d(T.Tensor(alpha * x0), k, zero)
        yb = T.conv2d(T.Tensor(x0), k, zero)
        assert np.allclose(ya.data, alpha * yb.data, atol=1e-10)


def test_no_grad_suppresses_tape():
    x = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert y.node is None


def test_finite_diff_check_passes_on_smooth_composite():
    rng = np.random.default_rng(10)
    k, zero = T.Tensor(rng.normal(size=(2, 1, 3, 3))), T.Tensor(np.zeros(2))
    tgt = T.Tensor(rng.normal(size=(1, 2, 4, 4)))

    def f(x):
        return T.mse(T.silu(T.conv2d(x, k, zero)), tgt)

    err = grad_error(f, T.Tensor(rng.normal(size=(1, 1, 4, 4))))
    assert err < 1e-4


def test_finite_diff_check_rejects_nondeterministic():
    state = {"n": 0}

    def f(x):
        state["n"] += 1
        return T.tsum(T.scale(x, float(state["n"])))

    with pytest.raises(AssertionError, match="not deterministic"):
        grad_error(f, T.Tensor([1.0, 2.0]))


def test_finite_diff_check_flags_wrong_gradient():
    class Bad(T.Tensor):
        pass

    def f(x):
        # deliberately wrong backward: claims gradient 3x for y = sum(x^2)
        out = T.Tensor(np.sum(x.data**2))
        out.node = T.TapeNode("bad", (x,), lambda g: (3.0 * x.data * float(g),))
        return out

    err = grad_error(f, T.Tensor([1.0, 2.0, -1.5]))
    assert err > 1e-2
