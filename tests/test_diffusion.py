import math
import re

import numpy as np
import pytest

from ldrestore import diffusion
from ldrestore import tensor as T
from ldrestore.diffusion import (
    NoiseSchedule,
    forward_diffuse_batch,
    ldm_loss_batch,
    make_schedule,
    respace,
    sample,
)
from ldrestore.errors import ConfigurationError, ContractViolation, DimensionError
from ldrestore.rng import stream

from gradcheck import grad_error


def test_schedule_single_step():
    s = make_schedule(1, 0.3, 0.3)
    assert np.allclose(s.alpha_bar, [0.7])
    assert s.sigma[0] == 0.0


def test_schedule_invariants_and_t1000_product():
    s = make_schedule(1000, 1e-4, 0.02)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all((s.alpha_bar > 0) & (s.alpha_bar <= 1))
    # independent oracle: plain loop product
    prod = 1.0
    for b in np.linspace(1e-4, 0.02, 1000):
        prod *= 1.0 - b
    assert np.isclose(s.alpha_bar[-1], prod, rtol=1e-12)
    assert abs(s.alpha_bar[-1] - 4.0e-5) < 1e-5


def test_schedule_sigma_formula():
    s = make_schedule(10, 1e-3, 0.1)
    for t in range(1, 10):
        expect = math.sqrt(s.beta[t] * (1 - s.alpha_bar[t - 1]) / (1 - s.alpha_bar[t]))
        assert np.isclose(s.sigma[t], expect, rtol=1e-12)


def test_schedule_rejects_bad_params():
    with pytest.raises(ConfigurationError):
        make_schedule(0, 1e-4, 0.02)
    with pytest.raises(ConfigurationError):
        make_schedule(10, 0.0, 0.02)
    with pytest.raises(ConfigurationError):
        make_schedule(10, 0.05, 0.02)
    with pytest.raises(ConfigurationError):
        make_schedule(10, 0.5, 1.0)


def test_schedule_derives_alpha_beta_sigma_from_alpha_bar():
    ab = np.array([0.9, 0.72, 0.36])
    s = NoiseSchedule(ab)
    assert s.T == 3 and np.array_equal(s.base_t, [0, 1, 2])
    assert np.allclose(s.alpha, [0.9, 0.8, 0.5], rtol=1e-15)
    assert np.allclose(s.beta, [0.1, 0.2, 0.5], rtol=1e-14)
    assert np.allclose(s.sigma, [0.0, math.sqrt(0.2 * 0.1 / 0.28), math.sqrt(0.5 * 0.28 / 0.64)], rtol=1e-14)
    # the linear-beta schedule: beta back from alpha_bar, to rounding
    lin = make_schedule(1000, 1e-4, 0.02)
    assert np.allclose(lin.beta, np.linspace(1e-4, 0.02, 1000), rtol=1e-11, atol=0)


def test_schedule_rejects_alpha_bar_outside_unit_interval_or_not_decreasing():
    bad = (
        [0.9, 0.9],  # flat: beta_1 = 0
        [0.5, 0.7],  # increasing
        [1.0, 0.5],  # beta_0 = 0
        [0.9, 0.0],  # beta_1 = 1
        [0.9, -0.1],
        [0.9, float("nan")],
        [],
        [[0.9, 0.5]],  # not 1-D
    )
    for ab in bad:
        with pytest.raises(ConfigurationError):
            NoiseSchedule(np.array(ab))
    with pytest.raises(ConfigurationError):
        NoiseSchedule(np.array([0.9, 0.5]), base_t=np.array([0]))


def test_respace_keeps_marginals_and_base_t():
    s = make_schedule(200, 1e-4, 0.02)
    sub = respace(s, 50)
    assert sub.T == 50
    assert np.allclose(sub.alpha_bar, s.alpha_bar[sub.base_t])
    assert sub.base_t[0] == 0 and sub.base_t[-1] == 199
    # product structure: cumprod of sub alphas equals kept alpha_bar values
    assert np.allclose(np.cumprod(sub.alpha), sub.alpha_bar, rtol=1e-12)


def test_respace_identity_and_errors():
    s = make_schedule(100, 1e-4, 0.02)
    assert respace(s, 100) is s
    with pytest.raises(ConfigurationError):
        respace(s, 0)
    with pytest.raises(ConfigurationError):
        respace(s, 101)


def test_step_counts_must_be_integers():
    s = make_schedule(10, 1e-3, 0.1)
    # a float or a bool is no step count, even where numpy would take it
    for bad in (2.5, 3.0, True, np.float64(4.0), "4"):
        with pytest.raises(ConfigurationError, match=re.escape(repr(bad))):
            make_schedule(bad, 1e-3, 0.1)
        with pytest.raises(ConfigurationError, match=re.escape(repr(bad))):
            respace(s, bad)
    # numpy integers are step counts
    assert make_schedule(np.int64(10), 1e-3, 0.1).T == 10
    assert respace(s, np.int32(4)).T == 4 and respace(s, np.int64(10)) is s


def test_forward_diffuse_values():
    # alpha_bar = 0.25 at t=0 via beta = 0.75
    s = make_schedule(1, 0.75, 0.75)
    x0 = T.Tensor([[2.0, -4.0]])
    eps = T.Tensor([[0.0, 0.0]])
    out = forward_diffuse_batch(x0, [0], eps, s)
    assert np.allclose(out.data, [[1.0, -2.0]])  # 0.5 * x0

    eps2 = T.Tensor([[1.0, 1.0]])
    out2 = forward_diffuse_batch(x0, [0], eps2, s)
    assert np.allclose(out2.data, 0.5 * x0.data + math.sqrt(0.75))


def test_forward_diffuse_nearly_identity_at_tiny_beta():
    s = make_schedule(1, 1e-12, 1e-12)
    x0 = T.Tensor([[1.0, 2.0, 3.0]])
    out = forward_diffuse_batch(x0, [0], T.Tensor(np.zeros((1, 3))), s)
    assert np.allclose(out.data, x0.data, atol=1e-12)


def test_forward_diffuse_monte_carlo_moments():
    s = make_schedule(5, 0.05, 0.3)
    t = 3
    x0_val = 0.8
    rng = np.random.default_rng(0)
    n = 10_000
    # one row per draw: the same numbers as n draws of one
    eps = T.Tensor(rng.standard_normal((n, 1, 1)))
    out = forward_diffuse_batch(T.Tensor(np.full((n, 1, 1), x0_val)), np.full(n, t), eps, s)
    draws = out.data[:, 0, 0].astype(np.float64)
    ab = s.alpha_bar[t]
    se_mean = math.sqrt(1 - ab) / math.sqrt(n)
    assert abs(draws.mean() - math.sqrt(ab) * x0_val) < 3 * se_mean
    var = draws.var()
    se_var = (1 - ab) * math.sqrt(2.0 / (n - 1))
    assert abs(var - (1 - ab)) < 3 * se_var


def test_marginal_consistency_composed_single_steps():
    # stepping Eq 1 t times equals the closed marginal, in distribution (T in {2,5})
    rng = np.random.default_rng(1)
    for T_steps in (2, 5):
        s = make_schedule(T_steps, 0.1, 0.3)
        x0 = 0.6
        n = 10_000
        composed = np.full(n, x0)
        for t in range(T_steps):
            composed = (
                math.sqrt(s.alpha[t]) * composed
                + math.sqrt(s.beta[t]) * rng.standard_normal(n)
            )
        ab = s.alpha_bar[-1]
        se_mean = math.sqrt(1 - ab) / math.sqrt(n)
        assert abs(composed.mean() - math.sqrt(ab) * x0) < 3 * se_mean
        se_var = (1 - ab) * math.sqrt(2.0 / (n - 1))
        assert abs(composed.var() - (1 - ab)) < 3 * se_var


def test_forward_diffuse_batch_matches_single():
    s = make_schedule(20, 1e-3, 0.1)
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(3, 2, 4, 4))
    eps = rng.normal(size=(3, 2, 4, 4))
    ts = np.array([0, 7, 19])
    with T.float64():
        batched = forward_diffuse_batch(T.Tensor(x0), ts, T.Tensor(eps), s)
    for i, t in enumerate(ts):
        ab = s.alpha_bar[t]
        assert np.allclose(batched.data[i], math.sqrt(ab) * x0[i] + math.sqrt(1 - ab) * eps[i], atol=1e-12)


def test_forward_diffuse_batch_rejects_bad_steps_and_shapes():
    s = make_schedule(5, 0.05, 0.2)
    x0 = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractViolation):
        forward_diffuse_batch(x0, [0, 5], x0, s)
    with pytest.raises(ContractViolation):
        forward_diffuse_batch(x0, [-1, 0], x0, s)
    # a step that is not an integer is refused, not truncated to one
    for t in ([1.5, 2.7], [0, 0.5], [1, float("nan")]):
        with pytest.raises(ContractViolation):
            forward_diffuse_batch(x0, t, x0, s)
    # a float whose value is an integer is that step
    x1 = T.Tensor(np.ones((2, 3)))
    assert np.array_equal(forward_diffuse_batch(x1, [1.0, 2.0], x0, s).data, forward_diffuse_batch(x1, [1, 2], x0, s).data)
    with pytest.raises(DimensionError):
        forward_diffuse_batch(x0, [0], x0, s)
    with pytest.raises(DimensionError):
        forward_diffuse_batch(x0, [0, 1], T.Tensor(np.zeros((2, 4))), s)


def test_ldm_loss_oracle_denoisers():
    s = make_schedule(10, 1e-3, 0.1)
    rng = np.random.default_rng(3)
    x0 = T.Tensor(rng.normal(size=(2, 4, 4)))
    eps_arr = rng.normal(size=(2, 4, 4))
    eps = T.Tensor(eps_arr)

    perfect = lambda z, t, cond: T.Tensor(eps_arr)
    assert ldm_loss_batch(perfect, x0, [4, 4], eps, None, s).item() == 0.0

    zero = lambda z, t, cond: T.Tensor(np.zeros_like(eps_arr))
    assert np.isclose(ldm_loss_batch(zero, x0, [4, 4], eps, None, s).item(), np.mean(eps_arr**2))


def test_ldm_loss_differentiable_through_net_params():
    s = make_schedule(10, 1e-3, 0.1)
    rng = np.random.default_rng(4)
    x0 = T.Tensor(rng.normal(size=(1, 2, 2)))
    eps = T.Tensor(rng.normal(size=(1, 2, 2)))
    w0 = rng.normal(size=(1, 2, 2))

    def f(w):
        net = lambda z, t, cond: T.mul(z, w)
        return ldm_loss_batch(net, x0, [5], eps, None, s)

    err = grad_error(f, T.Tensor(w0))
    assert err < 1e-4


def test_reverse_step_t0_is_mu_exactly():
    # sample's step at t = 0 is the posterior mean of its input alone
    s = make_schedule(1, 0.05, 0.05)
    rng = np.random.default_rng(5)
    pred = rng.normal(size=(1, 3, 3))
    net = lambda zt, t, cond: T.Tensor(pred)
    with T.float64():
        out = sample(net, (1, 3, 3), None, s, seed=3)
    z_init = stream(3, "sample.init").standard_normal((1, 3, 3))
    mu = (z_init - s.beta[0] / math.sqrt(1 - s.alpha_bar[0]) * pred) / math.sqrt(s.alpha[0])
    assert np.allclose(out.data, mu, atol=1e-12)


def test_reverse_step_ignores_noise_at_t0(monkeypatch):
    # a 1-step chain draws its init noise and nothing else: t = 0 adds none
    drawn = []

    def recording_stream(seed, name, *indices):
        drawn.append((name, *indices))
        return stream(seed, name, *indices)

    monkeypatch.setattr(diffusion, "stream", recording_stream)
    s = make_schedule(1, 0.05, 0.05)
    net = lambda zt, t, cond: T.Tensor(np.zeros((1, 2, 2)))
    with T.float64():
        out = sample(net, (1, 2, 2), None, s, seed=4)
    assert drawn == [("sample.init",)]
    z_init = stream(4, "sample.init").standard_normal((1, 2, 2))
    assert np.allclose(out.data, z_init / math.sqrt(s.alpha[0]), atol=1e-12)


def test_reverse_step_perfect_oracle_recovers_posterior_mean():
    # an oracle that returns the noise that takes x0 to its input z_1 gives
    # mu_1, the posterior mean of q(z_0 | z_1, x0) (Ho et al., eq. 7); the
    # step then adds sigma_1 times the sample.noise draw at 1, and the zero
    # net at t = 0 only divides by sqrt(alpha_0)
    s = make_schedule(2, 0.02, 0.15)
    ab, shape, seed = s.alpha_bar, (1, 2, 2), 6
    x0 = np.random.default_rng(6).normal(size=shape)
    steps = []

    def net(z, t, cond):
        steps.append(t)
        if t == 0:
            return T.Tensor(np.zeros(shape))
        return T.Tensor((z.data - math.sqrt(ab[1]) * x0) / math.sqrt(1 - ab[1]))

    with T.float64():
        out = sample(net, shape, None, s, seed)
    z_1 = stream(seed, "sample.init").standard_normal(shape)
    n_1 = stream(seed, "sample.noise", 1).standard_normal(shape)
    mu_1 = math.sqrt(ab[0]) * s.beta[1] / (1 - ab[1]) * x0 + math.sqrt(s.alpha[1]) * (1 - ab[0]) / (1 - ab[1]) * z_1
    assert steps == [1, 0]
    assert np.allclose(out.data, (mu_1 + s.sigma[1] * n_1) / math.sqrt(s.alpha[0]), atol=1e-12)


def test_reverse_step_ancestral_adds_sigma_noise():
    # with a zero net the step at t = 1 is z_1 / sqrt(alpha_1) plus sigma_1
    # times the sample.noise draw at 1; t = 0 then divides by sqrt(alpha_0)
    s = make_schedule(2, 0.05, 0.2)
    shape, seed = (1, 2, 2), 7
    net = lambda zt, t, cond: T.Tensor(np.zeros(shape))
    with T.float64():
        out = sample(net, shape, None, s, seed)
    z_1 = stream(seed, "sample.init").standard_normal(shape)
    n_1 = stream(seed, "sample.noise", 1).standard_normal(shape)
    det = z_1 / math.sqrt(s.alpha[1])
    assert np.allclose(out.data * math.sqrt(s.alpha[0]) - det, s.sigma[1] * n_1, atol=1e-12)


def test_sample_draws_init_then_noise_at_every_step_but_the_last(monkeypatch):
    # the seed streams are the contract that bit-exact resume and the stored
    # eval pixels rest on: sample.init once, then sample.noise at T-1 .. 1
    calls = []

    def recording_stream(seed, name, *indices):
        calls.append((seed, name, *indices))
        return stream(seed, name, *indices)

    monkeypatch.setattr(diffusion, "stream", recording_stream)
    net = lambda z, t, cond: T.Tensor(np.zeros(z.shape))
    sample(net, (1, 2, 2), None, make_schedule(4, 0.05, 0.2), seed=11)
    assert calls == [(11, "sample.init"), (11, "sample.noise", 3), (11, "sample.noise", 2), (11, "sample.noise", 1)]


def test_sample_reproducible_per_seed():
    s = make_schedule(6, 0.05, 0.2)
    rng = np.random.default_rng(8)
    w = rng.normal(size=(2, 3, 3)) * 0.1
    net = lambda z, t, cond: T.mul(z, T.Tensor(w))
    a = sample(net, (2, 3, 3), None, s, seed=13)
    b = sample(net, (2, 3, 3), None, s, seed=13)
    c = sample(net, (2, 3, 3), None, s, seed=14)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.node is None  # sampling records no tape


def test_sample_single_step_schedule():
    s = make_schedule(1, 0.3, 0.3)
    net = lambda z, t, cond: T.Tensor(np.zeros(z.shape))
    out = sample(net, (1, 2, 2), None, s, seed=0)
    init = np.random.default_rng(
        [__import__("zlib").crc32(b"sample.init"), 0]
    ).standard_normal((1, 2, 2))
    assert np.allclose(out.data, init / math.sqrt(s.alpha[0]), atol=1e-12)
