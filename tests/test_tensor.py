import warnings

import numpy as np
import pytest

from ldrestore import tensor as T
from ldrestore.errors import ContractViolation, DimensionError, OracleError


def conv2d_loops(x, k, padding=0):
    """Brute-force cross-correlation oracle, nested loops only; a batch is looped per item."""
    if x.ndim == 4:
        return np.stack([conv2d_loops(xi, k, padding) for xi in x])
    c, h, w = x.shape
    co, ci, kh, kw = k.shape
    assert c == ci
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = h + 2 * padding - kh + 1
    wo = w + 2 * padding - kw + 1
    y = np.zeros((co, ho, wo))
    for o in range(co):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ch in range(ci):
                    for a in range(kh):
                        for b in range(kw):
                            acc += xp[ch, i + a, j + b] * k[o, ch, a, b]
                y[o, i, j] = acc
    return y


def numeric_grad(f, x, eps=1e-6):
    """Central differences over every coordinate of x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


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
    rng = np.random.default_rng(2)
    # unbatched and batched inputs, 3x3 and 1x1 kernels
    for x_shape, k_shape in [((2, 5, 6), (3, 2, 3, 3)), ((3, 2, 5, 6), (3, 2, 3, 3)),
                             ((2, 5, 6), (4, 2, 1, 1)), ((3, 2, 4, 5), (4, 2, 1, 1))]:
        x = rng.normal(size=x_shape)
        k = rng.normal(size=k_shape)
        for pad in (0, 1):
            y = T.conv2d(T.Tensor(x), T.Tensor(k), padding=pad)
            assert np.allclose(y.data, conv2d_loops(x, k, pad), atol=1e-12)
    # a low-rank delta acts as kernel + (A @ B) in the kernel's (co, ci*kh*kw) view
    A, B = rng.normal(size=(4, 2)), rng.normal(size=(2, 2))
    y = T.conv2d(T.Tensor(x), T.Tensor(k), 1, [(T.Tensor(A), T.Tensor(B))])
    assert np.allclose(y.data, conv2d_loops(x, k + (A @ B).reshape(k.shape), 1), atol=1e-12)


def test_conv2d_batched_equals_per_item():
    rng = np.random.default_rng(3)
    xb = rng.normal(size=(4, 2, 6, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    yb = T.conv2d(T.Tensor(xb), T.Tensor(k), padding=1)
    for i in range(4):
        yi = T.conv2d(T.Tensor(xb[i]), T.Tensor(k), padding=1)
        assert np.allclose(yb.data[i], yi.data, atol=1e-12)


def test_conv2d_gradients_match_numeric():
    rng = np.random.default_rng(4)
    # (input shape, kernel shape, padding, rank of a low-rank delta or 0)
    cases = [((2, 4, 4), (2, 2, 3, 3), 1, 0), ((2, 2, 4, 4), (2, 2, 3, 3), 1, 0),
             ((2, 4, 5), (3, 2, 3, 3), 0, 0), ((2, 2, 3, 4), (3, 2, 1, 1), 0, 0),
             ((2, 2, 4, 4), (2, 2, 3, 3), 1, 1)]
    for x_shape, k_shape, pad, rank in cases:
        x0 = rng.normal(size=x_shape)
        k0 = rng.normal(size=k_shape)
        w = rng.normal(size=conv2d_loops(x0, k0, pad).shape)

        x = T.Tensor(x0, requires_grad=True)
        k = T.Tensor(k0, requires_grad=True)
        deltas = []
        if rank:
            a0 = rng.normal(size=(k_shape[0], rank))
            b0 = rng.normal(size=(rank, k0[0].size))
            deltas = [(T.Tensor(a0, requires_grad=True), T.Tensor(b0, requires_grad=True))]
        kd = k0 + (a0 @ b0).reshape(k_shape) if rank else k0
        loss = T.tsum(T.mul(T.conv2d(x, k, pad, deltas), T.Tensor(w)))
        T.backward(loss)

        nx = numeric_grad(lambda v: np.sum(conv2d_loops(v, kd, pad) * w), x0)
        nk = numeric_grad(lambda v: np.sum(conv2d_loops(x0, v, pad) * w), k0)
        assert np.allclose(x.grad, nx, atol=1e-5)
        assert np.allclose(k.grad, nk, atol=1e-5)
        if rank:
            na = numeric_grad(lambda v: np.sum(conv2d_loops(x0, k0 + (v @ b0).reshape(k_shape), pad) * w), a0)
            nb = numeric_grad(lambda v: np.sum(conv2d_loops(x0, k0 + (a0 @ v).reshape(k_shape), pad) * w), b0)
            assert np.allclose(deltas[0][0].grad, na, atol=1e-5)
            assert np.allclose(deltas[0][1].grad, nb, atol=1e-5)


def test_conv2d_channel_mismatch_names_shapes():
    with pytest.raises(DimensionError) as e:
        T.conv2d(T.Tensor(np.zeros((3, 5, 5))), T.Tensor(np.zeros((2, 4, 3, 3))))
    assert "(3, 5, 5)" in str(e.value) and "(2, 4, 3, 3)" in str(e.value)


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

    fm = rng.normal(size=(2, 3, 4))
    fm_req = T.Tensor(fm, requires_grad=True)
    gm = rng.normal(size=(2, 3, 4))
    gx, gb = T.channel_bias(fm_req, T.Tensor(np.zeros(2))).node.backward(gm)
    assert gb is None and np.array_equal(gx, gm)
    ga, gb = T.concat_channels(fm_req, T.Tensor(fm)).node.backward(np.concatenate([gm, gm]))
    assert gb is None and np.array_equal(ga, gm)
    ga, gb = T.mul(fm_req, T.Tensor(fm)).node.backward(gm)
    assert gb is None and np.allclose(ga, gm * fm)
    gx, gs = T.row_scale(fm_req, T.Tensor(np.ones(2))).node.backward(gm)
    assert gs is None and np.allclose(gx, gm)


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


def test_reshape_and_concat_gradients():
    rng = np.random.default_rng(6)
    a0 = rng.normal(size=(2, 3, 3))
    b0 = rng.normal(size=(1, 3, 3))
    wa = rng.normal(size=(3, 3, 3))

    a = T.Tensor(a0, requires_grad=True)
    b = T.Tensor(b0, requires_grad=True)
    y = T.concat_channels(a, b)
    assert y.shape == (3, 3, 3)
    T.backward(T.tsum(T.mul(y, T.Tensor(wa))))
    assert np.allclose(a.grad, wa[:2])
    assert np.allclose(b.grad, wa[2:])

    x = T.Tensor(a0, requires_grad=True)
    T.backward(T.tsum(T.mul(T.reshape(x, (3, 6)), T.Tensor(np.arange(18.0).reshape(3, 6)))))
    assert np.allclose(x.grad, np.arange(18.0).reshape(2, 3, 3))


def test_channel_bias_and_broadcast_spatial():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(2, 3, 3))
    b0 = rng.normal(size=2)
    w = rng.normal(size=(2, 3, 3))

    x = T.Tensor(x0, requires_grad=True)
    b = T.Tensor(b0, requires_grad=True)
    T.backward(T.tsum(T.mul(T.channel_bias(x, b), T.Tensor(w))))
    assert np.allclose(x.grad, w)
    assert np.allclose(b.grad, w.sum(axis=(1, 2)))

    v = T.Tensor(b0, requires_grad=True)
    y = T.broadcast_spatial(v, 3, 3)
    assert np.allclose(y.data, np.broadcast_to(b0[:, None, None], (2, 3, 3)))
    T.backward(T.tsum(T.mul(y, T.Tensor(w))))
    assert np.allclose(v.grad, w.sum(axis=(1, 2)))


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
    x0 = np.arange(16.0).reshape(1, 4, 4)
    y = T.avg_pool2(T.Tensor(x0))
    assert np.allclose(y.data, [[[2.5, 4.5], [10.5, 12.5]]])

    x = T.Tensor(x0, requires_grad=True)
    w = np.arange(4.0).reshape(1, 2, 2)
    T.backward(T.tsum(T.mul(T.avg_pool2(x), T.Tensor(w))))
    assert np.allclose(x.grad, np.repeat(np.repeat(w, 2, axis=1), 2, axis=2) * 0.25)

    u = T.upsample2(T.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])))
    assert np.allclose(u.data, [[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]])

    v = T.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]), requires_grad=True)
    T.backward(T.tsum(T.upsample2(v)))
    assert np.allclose(v.grad, np.full((1, 2, 2), 4.0))


def test_linearity_of_linear_ops():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(2, 6, 6))
    k = T.Tensor(rng.normal(size=(3, 2, 3, 3)))
    for alpha in (-2.0, 0.5, 3.0):
        ya = T.conv2d(T.Tensor(alpha * x0), k, padding=1)
        yb = T.conv2d(T.Tensor(x0), k, padding=1)
        assert np.allclose(ya.data, alpha * yb.data, atol=1e-10)


def test_no_grad_suppresses_tape():
    x = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert y.node is None


def test_finite_diff_check_passes_on_smooth_composite():
    rng = np.random.default_rng(10)
    k = T.Tensor(rng.normal(size=(2, 1, 3, 3)))
    tgt = T.Tensor(rng.normal(size=(2, 4, 4)))

    def f(x):
        return T.mse(T.silu(T.conv2d(x, k, padding=1)), tgt)

    err = T.finite_diff_check(f, T.Tensor(rng.normal(size=(1, 4, 4))))
    assert err < 1e-4


def test_finite_diff_check_rejects_nondeterministic():
    state = {"n": 0}

    def f(x):
        state["n"] += 1
        return T.tsum(T.scale(x, float(state["n"])))

    with pytest.raises(OracleError):
        T.finite_diff_check(f, T.Tensor([1.0, 2.0]))


def test_finite_diff_check_flags_wrong_gradient():
    class Bad(T.Tensor):
        pass

    def f(x):
        # deliberately wrong backward: claims gradient 3x for y = sum(x^2)
        out = T.Tensor(np.sum(x.data**2))
        out.node = T.TapeNode("bad", (x,), lambda g: (3.0 * x.data * float(g),))
        return out

    err = T.finite_diff_check(f, T.Tensor([1.0, 2.0, -1.5]))
    assert err > 1e-2
