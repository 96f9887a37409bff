import numpy as np
import pytest

from ldrestore import tensor as T
from ldrestore.errors import ContractViolation
from ldrestore.optim import AdamW


def test_adamw_steps_match_hand_computed_moments():
    with T.float64():
        p0 = np.array([0.5, -1.0, 2.0])
        g1 = np.array([0.2, -0.4, 1.5])
        g2 = np.array([-0.1, 0.3, 0.5])
        lr, eps = 0.01, 1e-8
        for wd in (0.0, 0.1):
            p = T.Tensor(p0.copy(), requires_grad=True)
            opt = AdamW([("p", p)], lr=lr, betas=(0.9, 0.999), eps=eps, weight_decay=wd)

            opt.step([g1])
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
        ref.step(g)

    named, first = bound()
    for g in grads[:2]:
        first.step(g)
    state = first.state_dict()
    first.m["a"] += 1.0  # the saved state is a copy
    resumed_named = [(n, T.Tensor(t.data.copy(), requires_grad=True)) for n, t in named]
    resumed = AdamW(resumed_named, lr=1.0)  # hyperparameters come from the state
    resumed.load_state_dict(state)
    for g in grads[2:]:
        resumed.step(g)

    assert resumed.t == ref.t == 5
    for (n, t), (_, t_ref) in zip(resumed_named, ref_named):
        assert np.array_equal(t.data, t_ref.data)
        assert np.array_equal(resumed.m[n], ref.m[n]) and np.array_equal(resumed.v[n], ref.v[n])


def test_adamw_load_state_dict_rejects_incomplete_state_unchanged():
    def bound(lr, weight_decay, steps):
        named = [("a", T.Tensor(np.ones((2, 2)), requires_grad=True)), ("b", T.Tensor(np.ones(3)))]
        opt = AdamW(named, lr=lr, weight_decay=weight_decay)
        for k in range(steps):
            opt.step([np.full((2, 2), 0.5 + k), np.full(3, -0.5)])
        return opt

    opt = bound(0.1, 0.0, 1)
    before = opt.state_dict()
    new = bound(0.3, 0.2, 2).state_dict()
    without_v_b = dict(new, v={"a": new["v"]["a"]})
    without_t = {k: x for k, x in new.items() if k != "t"}
    misfit_m_b = dict(new, m=dict(new["m"], b=np.zeros(4)))
    for bad in (without_v_b, without_t, misfit_m_b):
        with pytest.raises(ContractViolation):
            opt.load_state_dict(bad)
        after = opt.state_dict()
        for key, value in before.items():
            if key in ("m", "v"):
                assert all(np.array_equal(after[key][n], value[n]) for n in ("a", "b"))
            else:
                assert after[key] == value
