"""Noise schedules, forward diffusion, the latent noise-prediction loss, and
ancestral reverse sampling (DDPM, Ho et al., arXiv 2006.11239).

The forward process q(x_t | x_{t-1}) = N(sqrt(alpha_t) x_{t-1}, (1-alpha_t) I)
is used in its closed marginal form x_t = sqrt(ab_t) x0 + sqrt(1-ab_t) eps
where ab is the cumulative product of alpha. It runs on a batch, with one
step index per item (``forward_diffuse_batch``), and the loss
(``ldm_loss_batch``) is the mean squared error of the predicted noise on
such a batch. The reverse step predicts the injected noise and forms the
posterior mean mu = (z_t - beta_t / sqrt(1-ab_t) * eps_hat) / sqrt(alpha_t);
``sample`` adds sigma_t times fresh seeded noise at every step t > 0, with
the fixed posterior variance sigma_t^2 = beta_t (1-ab_{t-1}) / (1-ab_t).

A denoiser is any callable net(z_t, t, cond) -> Tensor of z_t's shape, where
t is an index into the schedule. Respaced sub-schedules keep ``base_t``, the
original step indices, so time embeddings stay aligned with training.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractViolation, DimensionError
from .rng import stream


@dataclass
class NoiseSchedule:
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray
    base_t: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.base_t is None:
            self.base_t = np.arange(len(self.beta))

    @property
    def T(self) -> int:
        return len(self.beta)

    def validate(self):
        b, ab = self.beta, self.alpha_bar
        if np.any(b <= 0) or np.any(b >= 1):
            raise ConfigurationError("schedule: beta outside (0,1)")
        if not np.allclose(self.alpha, 1.0 - b):
            raise ConfigurationError("schedule: alpha != 1 - beta")
        if np.any(ab <= 0) or np.any(ab > 1):
            raise ConfigurationError("schedule: alpha_bar outside (0,1]")
        if np.any(np.diff(ab) >= 0):
            raise ConfigurationError("schedule: alpha_bar not strictly decreasing")
        if self.sigma[0] != 0.0:
            raise ConfigurationError("schedule: sigma[0] must be 0")


def _sigmas(beta, alpha_bar):
    sig = np.zeros_like(beta)
    if len(beta) > 1:
        sig[1:] = np.sqrt(beta[1:] * (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:]))
    return sig


def make_schedule(T_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    if T_steps < 1:
        raise ConfigurationError(f"make_schedule: T must be >= 1, got {T_steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigurationError(
            f"make_schedule: need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]"
        )
    beta = np.linspace(beta_start, beta_end, T_steps)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    sched = NoiseSchedule(beta, alpha, alpha_bar, _sigmas(beta, alpha_bar))
    sched.validate()
    return sched


def respace(sched: NoiseSchedule, steps: int) -> NoiseSchedule:
    """Evenly spaced sub-schedule with the same marginals at the kept steps."""
    if steps < 1 or steps > sched.T:
        raise ConfigurationError(f"respace: steps {steps} outside [1, {sched.T}]")
    if steps == sched.T:
        return sched
    idx = np.unique(np.round(np.linspace(0, sched.T - 1, steps)).astype(np.int64))
    ab = sched.alpha_bar[idx]
    prev = np.concatenate([[1.0], ab[:-1]])
    alpha = ab / prev
    beta = 1.0 - alpha
    sub = NoiseSchedule(beta, alpha, ab, _sigmas(beta, ab), base_t=sched.base_t[idx])
    sub.validate()
    return sub


def _check_t(sched: NoiseSchedule, t):
    """Reject any step index, scalar or per item, outside [0, T)."""
    t = np.asarray(t)
    if np.any((t < 0) | (t >= sched.T)):
        raise ContractViolation(f"step index {t} outside [0, {sched.T})")


def forward_diffuse_batch(x0: T.Tensor, t, eps: T.Tensor, sched: NoiseSchedule) -> T.Tensor:
    """x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps per item, with one step index
    per item in t (length x0.shape[0]); differentiable through x0."""
    t = np.asarray(t, dtype=np.int64)
    if x0.shape != eps.shape:
        raise DimensionError(f"forward_diffuse_batch: x0 {x0.shape} vs eps {eps.shape}")
    if t.ndim != 1 or t.shape[0] != x0.shape[0]:
        raise DimensionError(f"forward_diffuse_batch: t {t.shape} vs batch {x0.shape[0]}")
    _check_t(sched, t)
    ab = sched.alpha_bar[t]
    a = T.row_scale(x0, T.Tensor(np.sqrt(ab)))
    b = T.row_scale(eps, T.Tensor(np.sqrt(1.0 - ab)))
    return T.add(a, b)


def ldm_loss_batch(net, x0_latent: T.Tensor, t, eps: T.Tensor, cond, sched: NoiseSchedule) -> T.Tensor:
    z_t = forward_diffuse_batch(x0_latent, t, eps, sched)
    return T.mse(eps, net(z_t, t, cond))


def reverse_step(net, z_t: T.Tensor, t: int, cond, sched: NoiseSchedule, noise=None) -> T.Tensor:
    """One posterior step z_t -> z_{t-1}: the mean, plus sigma_t * noise when
    noise is given and t > 0."""
    _check_t(sched, t)
    eps_hat = net(z_t, t, cond)
    coef = float(sched.beta[t] / math.sqrt(1.0 - sched.alpha_bar[t]))
    mu = T.scale(T.add(z_t, T.scale(eps_hat, -coef)), 1.0 / math.sqrt(float(sched.alpha[t])))
    if noise is None or t == 0:
        return mu
    if noise.shape != z_t.shape:
        raise DimensionError(f"reverse_step: noise {noise.shape} vs z_t {z_t.shape}")
    return T.add(mu, T.scale(noise, float(sched.sigma[t])))


def sample(net, shape, cond, sched: NoiseSchedule, seed: int) -> T.Tensor:
    """Ancestral sampling: the reverse chain from seeded unit Gaussian noise
    down to z_0, with fresh seeded noise at every step t > 0."""
    shape = tuple(int(s) for s in shape)
    with T.no_grad():
        z = T.Tensor(stream(seed, "sample.init").standard_normal(shape))
        for t in range(sched.T - 1, -1, -1):
            noise = None
            if t > 0:
                noise = T.Tensor(stream(seed, "sample.noise", t).standard_normal(shape))
            z = reverse_step(net, z, t, cond, sched, noise)
    return z
