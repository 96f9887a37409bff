import numpy as np
import pytest

from ldrestore import tensor as T
from ldrestore.errors import ContractViolation
from ldrestore.optim import AdamW


def step_with(opt, grads):
    """Set each bound tensor's .grad, in binding order, and step."""
    for (_, t), g in zip(opt.named, grads, strict=True):
        t.grad = g
    opt.step()


def test_adamw_steps_match_hand_computed_moments():
    with T.float64():
        p0 = np.array([0.5, -1.0, 2.0])
        g1 = np.array([0.2, -0.4, 1.5])
        g2 = np.array([-0.1, 0.3, 0.5])
        lr, eps = 0.01, 1e-8
        for wd in (0.0, 0.1):
            p = T.Tensor(p0.copy(), requires_grad=True)
            opt = AdamW([("p", p)], lr=lr, betas=(0.9, 0.999), eps=eps, weight_decay=wd)

            p.grad = g1
            opt.step()
            m1, v1 = 0.1 * g1, 0.001 * g1 * g1
            # bias correction divides by 1 - beta**1, so the first update is g / (|g| + eps)
            p1 = p0 - lr * wd * p0 - lr * (m1 / 0.1) / (np.sqrt(v1 / 0.001) + eps)
            assert np.allclose(opt.m["p"], m1, rtol=1e-15) and np.allclose(opt.v["p"], v1, rtol=1e-15)
            assert np.allclose(p.data, p1, rtol=1e-14, atol=0)

            p.grad = g2
            opt.step()
            m2, v2 = 0.9 * m1 + 0.1 * g2, 0.999 * v1 + 0.001 * g2 * g2
            bc1, bc2 = 1 - 0.9**2, 1 - 0.999**2
            p2 = p1 - lr * wd * p1 - lr * (m2 / bc1) / (np.sqrt(v2 / bc2) + eps)
            assert opt.t == 2
            assert np.allclose(opt.m["p"], m2, rtol=1e-14) and np.allclose(opt.v["p"], v2, rtol=1e-14)
            assert np.allclose(p.data, p2, rtol=1e-14, atol=0)


def test_adamw_state_dict_round_trip_continues_bit_exactly():
    rng = np.random.default_rng(0)
    init = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
    grads = [[rng.normal(size=(3, 2)), rng.normal(size=4)] for _ in range(5)]

    def bound():
        named = [(n, T.Tensor(v.copy(), requires_grad=True)) for n, v in init.items()]
        return named, AdamW(named, lr=0.05, betas=(0.8, 0.99), eps=1e-6, weight_decay=0.01)

    ref_named, ref = bound()
    for g in grads:
        step_with(ref, g)

    named, first = bound()
    for g in grads[:2]:
        step_with(first, g)
    state = first.state_dict()
    first.m["a"] += 1.0  # the saved state is a copy
    resumed_named = [(n, T.Tensor(t.data.copy(), requires_grad=True)) for n, t in named]
    resumed = AdamW(resumed_named, lr=1.0)  # hyperparameters come from the state
    resumed.load_state_dict(state)
    for g in grads[2:]:
        step_with(resumed, g)

    assert resumed.t == ref.t == 5
    for (n, t), (_, t_ref) in zip(resumed_named, ref_named):
        assert np.array_equal(t.data, t_ref.data)
        assert np.array_equal(resumed.m[n], ref.m[n]) and np.array_equal(resumed.v[n], ref.v[n])


def test_adamw_rejects_a_repeated_name():
    # the moments are saved and restored by name, so a second tensor under one
    # name would resume with the first one's moments, or with none
    a, b = (T.Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
    with pytest.raises(ContractViolation, match="'w.A'"):
        AdamW([("w.A", a), ("w.B", b), ("w.A", b)])


def test_adamw_keeps_each_dtype_and_matches_per_tensor_arithmetic():
    rng = np.random.default_rng(1)
    p32 = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    with T.float64():
        p64 = T.Tensor(rng.normal(size=4), requires_grad=True)
    lr, beta1, beta2, eps, wd = 0.05, 0.8, 0.99, 1e-6, 0.01
    opt = AdamW([("a", p32), ("b", p64)], lr=lr, betas=(beta1, beta2), eps=eps, weight_decay=wd)
    ref = {n: [t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)] for n, t in opt.named}
    for step in range(1, 4):
        grads = [rng.normal(size=(3, 2)).astype(np.float32), rng.normal(size=4)]
        step_with(opt, grads)
        bc1, bc2 = 1.0 - beta1**step, 1.0 - beta2**step
        for (n, t), g in zip(opt.named, grads):
            p, m, v = ref[n]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * wd * p
            p -= lr * ((m / bc1) / (np.sqrt(v / bc2) + eps))
            assert opt.m[n].dtype == opt.v[n].dtype == t.data.dtype == p.dtype
            assert np.array_equal(t.data, p) and np.array_equal(opt.m[n], m) and np.array_equal(opt.v[n], v)
    assert p32.data.dtype == np.float32 and p64.data.dtype == np.float64


def stepped_adamw(lr, weight_decay, steps):
    named = [("a", T.Tensor(np.ones((2, 2)), requires_grad=True)), ("b", T.Tensor(np.ones(3)))]
    opt = AdamW(named, lr=lr, weight_decay=weight_decay)
    for k in range(steps):
        step_with(opt, [np.full((2, 2), 0.5 + k), np.full(3, -0.5)])
    return opt


def assert_same_state(before, after):
    for key, value in before.items():
        if key in ("m", "v"):
            assert all(np.array_equal(after[key][n], value[n]) for n in ("a", "b"))
        else:
            assert after[key] == value


def assert_each_rejected_unchanged(opt, bad_states):
    before = opt.state_dict()
    for bad in bad_states:
        with pytest.raises(ContractViolation):
            opt.load_state_dict(bad)
        assert_same_state(before, opt.state_dict())


def test_adamw_load_state_dict_rejects_incomplete_state_unchanged():
    opt = stepped_adamw(0.1, 0.0, 1)
    new = stepped_adamw(0.3, 0.2, 2).state_dict()
    without_v_b = dict(new, v={"a": new["v"]["a"]})
    without_t = {k: x for k, x in new.items() if k != "t"}
    misfit_m_b = dict(new, m=dict(new["m"], b=np.zeros(4)))
    assert_each_rejected_unchanged(opt, (without_v_b, without_t, misfit_m_b))


def test_adamw_load_state_dict_rejects_bad_fields_unchanged():
    opt = stepped_adamw(0.1, 0.0, 1)
    new = stepped_adamw(0.3, 0.2, 2).state_dict()
    bad_fields = [("betas", [0.9]), ("betas", [0.9, 0.99, 0.999]), ("betas", 0.9), ("lr", "x"), ("lr", None),
                  ("eps", float("inf")), ("weight_decay", float("nan")), ("t", 1.5), ("t", -1), ("t", "2"),
                  ("m", 5), ("v", [new["v"]["a"], new["v"]["b"]]), ("m", dict(new["m"], b=np.array(["x"] * 3)))]
    assert_each_rejected_unchanged(opt, [dict(new, **{key: value}) for key, value in bad_fields])
    opt.load_state_dict(new)
    assert opt.t == 2 and opt.lr == 0.3 and opt.weight_decay == 0.2


def test_adamw_failed_step_changes_nothing():
    opt = stepped_adamw(0.1, 0.01, 2)
    a, b = (t for _, t in opt.named)
    before = opt.state_dict()
    data = [a.data.copy(), b.data.copy()]
    # b's gradient missing, then the wrong shape; a's is fine and comes first
    for b_grad, match in ((None, "missing gradient for b"), (np.zeros(4), "grad shape")):
        a.grad, b.grad = np.full((2, 2), 3.0), b_grad
        with pytest.raises(ContractViolation, match=match):
            opt.step()
        assert_same_state(before, opt.state_dict())
        assert np.array_equal(a.data, data[0]) and np.array_equal(b.data, data[1])
    # a retry once b has its gradient is the one update an untouched optimizer makes
    ref = stepped_adamw(0.1, 0.01, 2)
    step_with(ref, [np.full((2, 2), 3.0), np.full(3, 1.0)])
    b.grad = np.full(3, 1.0)
    opt.step()
    assert opt.t == ref.t == 3
    for (n, t), (_, t_ref) in zip(opt.named, ref.named):
        assert np.array_equal(t.data, t_ref.data)
        assert np.array_equal(opt.m[n], ref.m[n]) and np.array_equal(opt.v[n], ref.v[n])
