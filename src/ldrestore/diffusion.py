"""Noise schedules, forward diffusion, the latent noise-prediction loss, and
ancestral reverse sampling (DDPM, Ho et al., arXiv 2006.11239).

A schedule is its cumulative signal fraction ``alpha_bar`` (ab):
``NoiseSchedule(alpha_bar, base_t=None)`` derives alpha_t = ab_t / ab_{t-1},
beta_t = 1 - alpha_t and the posterior std sigma_t once, at construction,
and rejects any ab that is not strictly decreasing inside (0, 1).
``make_schedule`` is the linear-beta schedule ab = cumprod(1 - beta), and
``respace`` keeps a subset of its ab values.

The forward process q(x_t | x_{t-1}) = N(sqrt(alpha_t) x_{t-1}, (1-alpha_t) I)
is used in its closed marginal form x_t = sqrt(ab_t) x0 + sqrt(1-ab_t) eps.
It runs on a batch, with one step index per item (``forward_diffuse_batch``),
and the loss (``ldm_loss_batch``) is the mean squared error of the predicted
noise on such a batch. ``sample`` forms each posterior step itself: the net
predicts the injected noise eps_hat, the step takes the posterior mean
mu = (z_t - beta_t / sqrt(1-ab_t) * eps_hat) / sqrt(alpha_t), and at every
t > 0 adds sigma_t times fresh seeded noise, with the fixed posterior
variance sigma_t^2 = beta_t (1-ab_{t-1}) / (1-ab_t).

A denoiser is any callable net(z_t, t, cond) -> Tensor of z_t's shape, where
t is an index into the schedule. Respaced sub-schedules keep ``base_t``, the
original step indices, so time embeddings stay aligned with training.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractViolation, DimensionError, is_integer
from .rng import stream


@dataclass
class NoiseSchedule:
    """A schedule is its alpha_bar; alpha, beta and sigma are derived from it."""

    alpha_bar: np.ndarray
    base_t: np.ndarray = None
    alpha: np.ndarray = field(init=False, repr=False)
    beta: np.ndarray = field(init=False, repr=False)
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = self.alpha_bar = np.asarray(self.alpha_bar, dtype=np.float64)
        # (0, 1) and strictly decreasing is exactly beta_t in (0, 1) for every t
        if not (ab.ndim == 1 and ab.size and np.all((ab > 0) & (ab < 1)) and np.all(np.diff(ab) < 0)):
            raise ConfigurationError("schedule: alpha_bar must be non-empty, 1-D, strictly decreasing, inside (0, 1)")
        self.base_t = np.arange(len(ab)) if self.base_t is None else np.asarray(self.base_t)
        if self.base_t.shape != ab.shape:
            raise ConfigurationError(f"schedule: base_t {self.base_t.shape} vs alpha_bar {ab.shape}")
        prev = np.concatenate([[1.0], ab[:-1]])
        self.alpha = ab / prev
        self.beta = 1.0 - self.alpha
        # posterior std sigma_t^2 = beta_t (1 - ab_{t-1}) / (1 - ab_t); sigma_0 = 0
        self.sigma = np.sqrt(self.beta * (1.0 - prev) / (1.0 - ab))

    @property
    def T(self) -> int:
        return len(self.alpha_bar)


def make_schedule(T_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linear beta from beta_start to beta_end over T_steps steps."""
    if not is_integer(T_steps) or T_steps < 1:
        raise ConfigurationError(f"make_schedule: T must be an integer >= 1, got {T_steps!r}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigurationError(
            f"make_schedule: need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]"
        )
    return NoiseSchedule(np.cumprod(1.0 - np.linspace(beta_start, beta_end, T_steps)))


def respace(sched: NoiseSchedule, steps: int) -> NoiseSchedule:
    """Evenly spaced sub-schedule with the same marginals at the kept steps."""
    if not is_integer(steps) or not 1 <= steps <= sched.T:
        raise ConfigurationError(f"respace: steps {steps!r} is not an integer in [1, {sched.T}]")
    if steps == sched.T:
        return sched
    idx = np.unique(np.round(np.linspace(0, sched.T - 1, steps)).astype(np.int64))
    return NoiseSchedule(sched.alpha_bar[idx], sched.base_t[idx])


def step_indices(t) -> np.ndarray:
    """Step indices t, a scalar or one per item, as int64; ContractViolation
    unless each is an integer >= 0. A float counts only when its value is an
    integer, so no step is truncated."""
    a = np.asarray(t)
    integral = a.dtype.kind in "iu" or (a.dtype.kind == "f" and bool(np.all(np.isfinite(a) & (a == np.floor(a)))))
    if not integral or np.any(a < 0):
        raise ContractViolation(f"step index {t!r} is not an integer >= 0")
    return a.astype(np.int64)


def check_step(sched: NoiseSchedule, t) -> np.ndarray:
    """step_indices(t), rejecting any step index, scalar or per item, outside [0, T)."""
    ts = step_indices(t)
    if np.any(ts >= sched.T):
        raise ContractViolation(f"step index {t} outside [0, {sched.T})")
    return ts


def forward_diffuse_batch(x0: T.Tensor, t, eps: T.Tensor, sched: NoiseSchedule) -> T.Tensor:
    """x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps per item, with one step index
    per item in t (length x0.shape[0]); differentiable through x0."""
    t = check_step(sched, t)
    if x0.shape != eps.shape:
        raise DimensionError(f"forward_diffuse_batch: x0 {x0.shape} vs eps {eps.shape}")
    if t.ndim != 1 or t.shape[0] != x0.shape[0]:
        raise DimensionError(f"forward_diffuse_batch: t {t.shape} vs batch {x0.shape[0]}")
    ab = sched.alpha_bar[t]
    a = T.row_scale(x0, T.Tensor(np.sqrt(ab)))
    b = T.row_scale(eps, T.Tensor(np.sqrt(1.0 - ab)))
    return T.add(a, b)


def ldm_loss_batch(net, x0_latent: T.Tensor, t, eps: T.Tensor, cond, sched: NoiseSchedule) -> T.Tensor:
    z_t = forward_diffuse_batch(x0_latent, t, eps, sched)
    return T.mse(eps, net(z_t, t, cond))


def sample(net, shape, cond, sched: NoiseSchedule, seed: int) -> T.Tensor:
    """Ancestral sampling: the reverse chain from seeded unit Gaussian noise
    down to z_0, one posterior step per t, with fresh seeded noise at every
    step t > 0."""
    shape = tuple(int(s) for s in shape)
    with T.no_grad():
        z = T.Tensor(stream(seed, "sample.init").standard_normal(shape))
        for t in range(sched.T - 1, -1, -1):
            coef = float(sched.beta[t] / math.sqrt(1.0 - sched.alpha_bar[t]))
            z = T.scale(T.add(z, T.scale(net(z, t, cond), -coef)), 1.0 / math.sqrt(float(sched.alpha[t])))
            if t > 0:
                noise = T.Tensor(stream(seed, "sample.noise", t).standard_normal(shape))
                z = T.add(z, T.scale(noise, float(sched.sigma[t])))
    return z
